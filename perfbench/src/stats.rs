//! Order statistics and report digests.

/// The median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolation quantile over the sorted values (NaN when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Nearest-rank percentile `p` (0 < p ≤ 1) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The highest percentile of the ladder below that leaves at least ten
/// samples beyond it, or `None` when there are fewer than twenty samples.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.9, 0.75, 0.5]
        .into_iter()
        .find(|p| samples as f64 * (1.0 - p) >= 10.0)
}

/// A short label for a percentile, e.g. `p99` or `p99.9`.
pub fn percentile_label(p: f64) -> String {
    let pct = p * 100.0;
    if pct.fract() == 0.0 {
        format!("p{pct:.0}")
    } else {
        format!("p{pct:.1}")
    }
}

/// FNV-1a 64 of a report's `Debug` rendering, hashed as it is written so
/// that no copy of the rendering is held in memory.
pub fn digest(report: &impl std::fmt::Debug) -> u64 {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for byte in s.bytes() {
                self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    std::fmt::write(&mut hash, format_args!("{report:?}")).expect("hashing cannot fail");
    hash.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(41), Some(0.75));
        assert_eq!(tail_percentile(3_900), Some(0.99));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn digest_is_fnv1a_of_the_debug_rendering() {
        let value = ("report", 42u64);
        let rendered = format!("{value:?}");
        assert_eq!(
            digest(&value),
            followscent::checkpoint::fnv1a64(rendered.as_bytes())
        );
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.75), 3.0);
    }
}
