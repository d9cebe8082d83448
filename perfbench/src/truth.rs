//! Ground-truth scoring of the rotating /48s a run reports.

use std::collections::HashSet;

use followscent::ipv6::Ipv6Prefix;

/// Whether `block` lies in (or covers) a pool whose policy rotates.
pub fn in_rotating_pool(rotating_pools: &[Ipv6Prefix], block: &Ipv6Prefix) -> bool {
    rotating_pools
        .iter()
        .any(|pool| pool.contains_prefix(block) || block.contains_prefix(pool))
}

/// Precision and recall of the reported rotating /48s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Score {
    /// Reported `(session, /48)` pairs.
    pub reported: u64,
    /// Reported pairs that lie in a rotating pool.
    pub true_reported: u64,
    /// Probed pairs that lie in a rotating pool (the recall denominator).
    pub probed_rotating: u64,
    /// Reported pairs that are both probed and in a rotating pool.
    pub found: u64,
}

impl Score {
    /// Score `reported` against the rotating pools, with recall over the
    /// `probed` pairs: those that received at least one detection probe.
    pub fn new(
        rotating_pools: &[Ipv6Prefix],
        reported: &[(u32, Ipv6Prefix)],
        probed: &HashSet<(u32, Ipv6Prefix)>,
    ) -> Self {
        let rotating = |pair: &(u32, Ipv6Prefix)| in_rotating_pool(rotating_pools, &pair.1);
        let reported: HashSet<(u32, Ipv6Prefix)> = reported.iter().copied().collect();
        Score {
            reported: reported.len() as u64,
            true_reported: reported.iter().filter(|p| rotating(p)).count() as u64,
            probed_rotating: probed.iter().filter(|p| rotating(p)).count() as u64,
            found: probed
                .iter()
                .filter(|p| rotating(p) && reported.contains(p))
                .count() as u64,
        }
    }

    pub fn precision(&self) -> f64 {
        self.true_reported as f64 / self.reported as f64
    }

    pub fn recall(&self) -> f64 {
        self.found as f64 / self.probed_rotating as f64
    }
}
