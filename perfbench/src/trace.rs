//! Outside-in tracing through the workspace's public API only.
//!
//! * [`Traced`] wraps any `ProbeTransport + WorldView` backend and times every
//!   probe and traceroute call, aggregating them (count plus busy
//!   nanoseconds) into the innermost open span instead of recording one span
//!   per probe.
//! * [`Hooks`] is a `StreamObserver` that counts hook calls and turns phase
//!   and epoch hooks into spans.
//! * The workload code in `workload.rs` opens and closes spans around each
//!   public call it makes.
//!
//! Spans are kept in memory and written out once, when the run ends.

use std::collections::HashSet;
use std::io::Write;
use std::net::Ipv6Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use followscent::bgp::{AsRegistry, Rib};
use followscent::ipv6::Ipv6Prefix;
use followscent::prober::{ProbeTransport, WorldView};
use followscent::simnet::{ProbeReply, SimDuration, SimTime, TraceHop};
use followscent::telemetry::{EpochSummary, StreamObserver};

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub run: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub open: bool,
    /// Probe calls made while this was the innermost open span.
    pub probes: u64,
    pub probe_ns: u64,
    /// Traceroute calls made while this was the innermost open span.
    pub traces: u64,
    pub trace_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// How a traced run is divided into epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochMode {
    /// No epochs: the streamed pipeline's phases become spans instead.
    Phases,
    /// The caller brackets every `MonitorSession::run_epoch` call itself.
    ByCall,
    /// Epochs run inside `Scheduler::run`; one ends at its `on_epoch_close`.
    ByClose,
}

/// The parts an epoch is split into (see the crate's README).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Part {
    Startup,
    Detect,
    Boundary,
    Tail,
}

impl Part {
    fn span_name(self) -> &'static str {
        match self {
            Part::Startup => "epoch.startup",
            Part::Detect => "epoch.detect",
            Part::Boundary => "epoch.boundary",
            Part::Tail => "epoch.tail",
        }
    }
}

/// One finished epoch, split into parts (nanoseconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochParts {
    pub wall: u64,
    pub startup: u64,
    pub probe: u64,
    pub boundary: u64,
    pub boundary_probe: u64,
    pub other: u64,
}

impl EpochParts {
    /// Whether the parts add up to the epoch's wall time within 10%.
    pub fn adds_up(&self) -> bool {
        let sum = self.startup + self.probe + self.boundary + self.other;
        sum.abs_diff(self.wall) as f64 <= 0.1 * self.wall as f64
    }
}

/// The virtual-time clock of one monitor session: its epoch boundaries
/// advance with every `on_epoch_close` it reports.
#[derive(Debug, Clone, Copy)]
struct SessionClock {
    start: SimTime,
    epoch_len: SimDuration,
    closes: u64,
}

impl SessionClock {
    /// The virtual time at which the session's current epoch ends. Detection
    /// probes are sent before it; re-expansion and discovery sweeps at or
    /// after it.
    fn boundary(&self) -> SimTime {
        SimTime::from_secs(self.start.as_secs() + self.epoch_len.as_secs() * (self.closes + 1))
    }
}

#[derive(Debug)]
struct EpochCursor {
    span: usize,
    part: Part,
    part_span: usize,
    tenant: Option<u32>,
    last_detect_end: u64,
    /// Probes of more than one session ran in this span (the scheduler's
    /// final epochs, which report no close).
    mixed: bool,
}

#[derive(Debug)]
struct State {
    run: u64,
    mode: EpochMode,
    spans: Vec<Span>,
    stack: Vec<usize>,
    epoch: Option<EpochCursor>,
    epochs: Vec<EpochParts>,
    sessions: Vec<SessionClock>,
    in_detection_phase: bool,
    /// `(session, /48)` pairs that received at least one detection probe.
    probed: HashSet<(u32, Ipv6Prefix)>,
    /// Order violations: a detection probe after boundary work began, or an
    /// epoch closed by a session that did not probe in it.
    misordered: u64,
}

/// The span recorder shared by the wrapper, the observer and the workload
/// code.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    state: Mutex<State>,
    sent: AtomicU64,
    routed: AtomicU64,
    stalls: AtomicU64,
    responses: AtomicU64,
}

/// Hook and probe counts of one traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub probes_sent: u64,
    pub routed: u64,
    pub stalls: u64,
    pub responses: u64,
}

impl Tracer {
    pub fn new(run: u64, mode: EpochMode) -> Self {
        Tracer {
            origin: Instant::now(),
            state: Mutex::new(State {
                run,
                mode,
                spans: Vec::new(),
                stack: Vec::new(),
                epoch: None,
                epochs: Vec::new(),
                sessions: Vec::new(),
                in_detection_phase: false,
                probed: HashSet::new(),
                misordered: 0,
            }),
            sent: AtomicU64::new(0),
            routed: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            responses: AtomicU64::new(0),
        }
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("tracer state poisoned by a panicking hook")
    }

    /// Register a monitor session whose epochs are `epoch_len` long from
    /// `start`; its index is the tenant tag its wrapper and hooks carry.
    pub fn add_session(&self, start: SimTime, epoch_len: SimDuration) -> u32 {
        let mut st = self.state();
        st.sessions.push(SessionClock {
            start,
            epoch_len,
            closes: 0,
        });
        (st.sessions.len() - 1) as u32
    }

    /// Open a span under the innermost open span.
    pub fn open(&self, name: &'static str) -> usize {
        let now = self.now();
        self.state().open_at(name, now)
    }

    /// Close span `id` and every span still open inside it.
    pub fn close(&self, id: usize) {
        let now = self.now();
        let mut st = self.state();
        st.close_to(id, now);
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Start one caller-bracketed epoch ([`EpochMode::ByCall`]).
    pub fn begin_epoch(&self) -> usize {
        let now = self.now();
        let mut st = self.state();
        let span = st.open_at("MonitorSession::run_epoch", now);
        st.start_epoch(span, now);
        span
    }

    /// End the caller-bracketed epoch opened by [`Tracer::begin_epoch`].
    pub fn end_epoch(&self, span: usize) {
        let now = self.now();
        let mut st = self.state();
        st.finish_epoch(now);
        st.close_to(span, now);
    }

    /// Start the first scheduler epoch ([`EpochMode::ByClose`]) inside the
    /// already open `Scheduler::run` span.
    pub fn begin_scheduled(&self) {
        let now = self.now();
        let mut st = self.state();
        let span = st.open_at("epoch", now);
        st.start_epoch(span, now);
    }

    /// Close whatever scheduler epoch is still open when `Scheduler::run`
    /// returns. It held the sessions' final epochs, which report no close, so
    /// it is kept as one `sched.final_round` span and not counted as an
    /// epoch.
    pub fn end_scheduled(&self) {
        let now = self.now();
        let mut st = self.state();
        if let Some(cursor) = st.epoch.take() {
            st.spans[cursor.span].name = "sched.final_round";
            st.close_to(cursor.span, now);
        }
    }

    fn on_probe(&self, session: u32, target: Ipv6Addr, t: SimTime, start: u64, end: u64) {
        let mut st = self.state();
        let st = &mut *st;
        let detect = match st.mode {
            EpochMode::Phases => {
                // The seed phase only traceroutes: the first probe starts
                // the expansion phase.
                if let Some(&seed) = st
                    .stack
                    .last()
                    .filter(|&&i| st.spans[i].name == "phase.seed")
                {
                    st.close_to(seed, start);
                    st.open_at("phase.expansion", start);
                }
                st.in_detection_phase
            }
            EpochMode::ByCall | EpochMode::ByClose => {
                let boundary = st.sessions[session as usize].boundary();
                let detect = t < boundary;
                st.advance_epoch(session, detect, start, end);
                detect
            }
        };
        if detect {
            let prefix = Ipv6Prefix::new(target, 48).expect("/48 is a valid length");
            st.probed.insert((session, prefix));
        }
        if let Some(&top) = st.stack.last() {
            let span = &mut st.spans[top];
            span.probes += 1;
            span.probe_ns += end - start;
        }
    }

    fn on_trace(&self, start: u64, end: u64) {
        let mut st = self.state();
        if let Some(&top) = st.stack.last() {
            let span = &mut st.spans[top];
            span.traces += 1;
            span.trace_ns += end - start;
        }
    }

    fn on_run_start(&self) {
        let now = self.now();
        let mut st = self.state();
        if st.mode == EpochMode::Phases {
            st.open_at("phase.seed", now);
        }
    }

    fn on_phase_close(&self, phase: &'static str) {
        let now = self.now();
        let mut st = self.state();
        let next = match phase {
            "expansion" => "phase.density",
            "density" => {
                st.in_detection_phase = true;
                "phase.detection"
            }
            "detection" => {
                st.in_detection_phase = false;
                "phase.finish"
            }
            _ => return,
        };
        if let Some(&top) = st.stack.last() {
            if st.spans[top].name.starts_with("phase.") {
                st.close_to(top, now);
            }
        }
        st.open_at(next, now);
    }

    fn on_epoch_close(&self, session: u32) {
        let now = self.now();
        let mut st = self.state();
        let st = &mut *st;
        match st.mode {
            EpochMode::Phases => {}
            EpochMode::ByCall => {
                if st.epoch.as_ref().is_some_and(|c| c.part != Part::Tail) {
                    st.end_detection();
                    st.switch_part(Part::Tail, now);
                }
            }
            EpochMode::ByClose => {
                if st.epoch.as_ref().and_then(|c| c.tenant) != Some(session) {
                    st.misordered += 1;
                }
                st.finish_epoch(now);
                let span = st.open_at("epoch", now);
                st.start_epoch(span, now);
            }
        }
        st.sessions[session as usize].closes += 1;
    }

    /// Finish the run: take the spans, epochs and probed set out.
    pub fn finish(&self) -> TraceData {
        let now = self.now();
        let mut st = self.state();
        if let Some(&bottom) = st.stack.first() {
            st.close_to(bottom, now);
        }
        TraceData {
            spans: std::mem::take(&mut st.spans),
            epochs: std::mem::take(&mut st.epochs),
            probed: std::mem::take(&mut st.probed),
            misordered: st.misordered,
            counts: Counts {
                probes_sent: self.sent.load(Ordering::Relaxed),
                routed: self.routed.load(Ordering::Relaxed),
                stalls: self.stalls.load(Ordering::Relaxed),
                responses: self.responses.load(Ordering::Relaxed),
            },
        }
    }
}

impl State {
    fn open_at(&mut self, name: &'static str, at: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            run: self.run,
            start_ns: at,
            end_ns: at,
            open: true,
            probes: 0,
            probe_ns: 0,
            traces: 0,
            trace_ns: 0,
        });
        self.stack.push(id);
        id
    }

    /// Close `id` and everything opened inside it at `at`. A span that is
    /// not open is left alone.
    fn close_to(&mut self, id: usize, at: u64) {
        if !self.spans[id].open {
            return;
        }
        while let Some(top) = self.stack.pop() {
            let span = &mut self.spans[top];
            span.end_ns = at.max(span.start_ns);
            span.open = false;
            if top == id {
                break;
            }
        }
    }

    fn start_epoch(&mut self, span: usize, at: u64) {
        let part_span = self.open_at(Part::Startup.span_name(), at);
        self.epoch = Some(EpochCursor {
            span,
            part: Part::Startup,
            part_span,
            tenant: None,
            last_detect_end: at,
            mixed: false,
        });
    }

    /// Move the epoch's part forward on a probe of `session`.
    fn advance_epoch(&mut self, session: u32, detect: bool, start: u64, end: u64) {
        let Some(cursor) = self.epoch.as_mut() else {
            return;
        };
        match cursor.tenant {
            None => cursor.tenant = Some(session),
            Some(tenant) if tenant != session => cursor.mixed = true,
            Some(_) => {}
        }
        let next = match (cursor.part, detect) {
            (Part::Startup, true) => Some((Part::Detect, start)),
            (Part::Startup, false) => Some((Part::Boundary, start)),
            (Part::Detect, false) => Some((Part::Boundary, cursor.last_detect_end)),
            (Part::Boundary, true) | (Part::Tail, _) if !cursor.mixed => {
                self.misordered += 1;
                None
            }
            _ => None,
        };
        if detect {
            cursor.last_detect_end = end;
        }
        if let Some((part, at)) = next {
            self.switch_part(part, at);
        }
    }

    /// Close the open epoch part at `at` and open `part` there.
    fn switch_part(&mut self, part: Part, at: u64) {
        let cursor = self.epoch.as_mut().expect("an epoch is open");
        let old = cursor.part_span;
        cursor.part = part;
        self.close_to(old, at);
        let new = self.open_at(part.span_name(), at);
        self.epoch.as_mut().expect("an epoch is open").part_span = new;
    }

    /// A detection part still open ends at its last probe's end; what
    /// follows it is boundary work.
    fn end_detection(&mut self) {
        if let Some(cursor) = self.epoch.as_ref().filter(|c| c.part == Part::Detect) {
            let at = cursor.last_detect_end;
            self.switch_part(Part::Boundary, at);
        }
    }

    /// Record the open epoch's parts; its spans are closed by the caller.
    fn finish_epoch(&mut self, at: u64) {
        self.end_detection();
        let Some(cursor) = self.epoch.take() else {
            return;
        };
        self.close_to(cursor.span, at);
        let epoch = &self.spans[cursor.span];
        let mut parts = EpochParts {
            wall: epoch.duration_ns(),
            ..EpochParts::default()
        };
        for span in self.spans[cursor.span + 1..]
            .iter()
            .filter(|s| s.parent == Some(cursor.span))
        {
            match span.name {
                "epoch.startup" => parts.startup += span.duration_ns(),
                "epoch.detect" => {
                    parts.probe += span.probe_ns;
                    parts.other += span.duration_ns().saturating_sub(span.probe_ns);
                }
                "epoch.boundary" => {
                    parts.boundary += span.duration_ns();
                    parts.boundary_probe += span.probe_ns;
                }
                "epoch.tail" => parts.other += span.duration_ns(),
                _ => {}
            }
        }
        if !cursor.mixed {
            self.epochs.push(parts);
        }
    }
}

/// Everything a traced run recorded.
#[derive(Debug, Default)]
pub struct TraceData {
    pub spans: Vec<Span>,
    pub epochs: Vec<EpochParts>,
    pub probed: HashSet<(u32, Ipv6Prefix)>,
    pub misordered: u64,
    pub counts: Counts,
}

impl TraceData {
    /// Each span's self time: its duration minus the union of its child
    /// spans' intervals and the probe and traceroute calls aggregated into
    /// it.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for (start, end) in kids {
                    let start = start.max(reach);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.duration_ns()
                    .saturating_sub(covered + span.probe_ns + span.trace_ns)
            })
            .collect()
    }

    /// Per span name: (name, spans, total self ns, total ns), largest self
    /// time first.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut by_name: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times()) {
            match by_name.iter_mut().find(|e| e.0 == span.name) {
                Some(entry) => {
                    entry.1 += 1;
                    entry.2 += self_ns;
                    entry.3 += span.duration_ns();
                }
                None => by_name.push((span.name, 1, self_ns, span.duration_ns())),
            }
        }
        by_name.sort_by_key(|entry| std::cmp::Reverse(entry.2));
        by_name
    }

    /// Spans named `name`.
    pub fn named<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'s Span> + 's {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total duration of the spans named `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.named(name).map(Span::duration_ns).sum()
    }

    /// Probe calls over all spans: (count, busy ns).
    pub fn probes(&self) -> (u64, u64) {
        self.spans
            .iter()
            .fold((0, 0), |(n, ns), s| (n + s.probes, ns + s.probe_ns))
    }

    /// Traceroute calls over all spans: (count, busy ns).
    pub fn traces(&self) -> (u64, u64) {
        self.spans
            .iter()
            .fold((0, 0), |(n, ns), s| (n + s.traces, ns + s.trace_ns))
    }

    /// Write the spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for ((id, span), self_ns) in self.spans.iter().enumerate().zip(self.self_times()) {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":{},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"probes\":{},\"probe_busy_ns\":{},\"traces\":{},\"trace_busy_ns\":{}}}",
                span.run, span.name, span.start_ns, span.end_ns, span.probes, span.probe_ns, span.traces, span.trace_ns
            )?;
        }
        Ok(())
    }
}

/// A `ProbeTransport + WorldView` wrapper that times every call into the
/// backend and reports it to the tracer under session tag `session`.
pub struct Traced<'a, B: ?Sized> {
    inner: &'a B,
    tracer: &'a Tracer,
    session: u32,
}

impl<'a, B: ?Sized> Traced<'a, B> {
    pub fn new(inner: &'a B, tracer: &'a Tracer, session: u32) -> Self {
        Traced {
            inner,
            tracer,
            session,
        }
    }
}

impl<B: ProbeTransport + ?Sized> ProbeTransport for Traced<'_, B> {
    fn probe(&self, target: Ipv6Addr, t: SimTime) -> Option<ProbeReply> {
        let start = self.tracer.now();
        let reply = self.inner.probe(target, t);
        let end = self.tracer.now();
        if reply.is_some() {
            self.tracer.responses.fetch_add(1, Ordering::Relaxed);
        }
        self.tracer.on_probe(self.session, target, t, start, end);
        reply
    }

    fn trace(&self, target: Ipv6Addr, t: SimTime, max_hops: u8) -> Vec<TraceHop> {
        let start = self.tracer.now();
        let hops = self.inner.trace(target, t, max_hops);
        self.tracer.on_trace(start, self.tracer.now());
        hops
    }
}

impl<B: WorldView + ?Sized> WorldView for Traced<'_, B> {
    fn vantage(&self) -> Ipv6Addr {
        self.inner.vantage()
    }

    fn rib(&self) -> &Rib {
        self.inner.rib()
    }

    fn as_registry(&self) -> &AsRegistry {
        self.inner.as_registry()
    }

    fn world_seed(&self) -> u64 {
        self.inner.world_seed()
    }
}

/// A `StreamObserver` that counts hooks and feeds phase and epoch hooks to
/// the tracer for session `session`.
pub struct Hooks<'a> {
    tracer: &'a Tracer,
    session: u32,
}

impl<'a> Hooks<'a> {
    pub fn new(tracer: &'a Tracer, session: u32) -> Self {
        Hooks { tracer, session }
    }
}

impl StreamObserver for Hooks<'_> {
    fn on_run_start(&self, _shards: usize, _producers: usize) {
        self.tracer.on_run_start();
    }

    fn on_probe_sent(&self, _producer: usize) {
        self.tracer.sent.fetch_add(1, Ordering::Relaxed);
    }

    fn on_routed(&self, _shard: usize, _window: u64, _sent_at: SimTime, _responded: bool) {
        self.tracer.routed.fetch_add(1, Ordering::Relaxed);
    }

    fn on_stall(&self, _shard: usize) {
        self.tracer.stalls.fetch_add(1, Ordering::Relaxed);
    }

    fn on_phase_close(&self, phase: &'static str, _probes: u64) {
        self.tracer.on_phase_close(phase);
    }

    fn on_epoch_close(&self, _summary: &EpochSummary<'_>) {
        self.tracer.on_epoch_close(self.session);
    }
}

/// The untraced runs' only observer: it timestamps `on_epoch_close`.
#[derive(Debug, Default)]
pub struct EpochClock {
    closes: Mutex<Vec<Instant>>,
}

impl EpochClock {
    /// Epoch wall times in milliseconds: from `started` to the first close,
    /// then from each close to the next.
    pub fn epoch_ms(self, started: Instant) -> Vec<f64> {
        let closes = self
            .closes
            .into_inner()
            .expect("epoch clock poisoned by a panicking hook");
        let mut previous = started;
        closes
            .into_iter()
            .map(|close| {
                let ms = close.duration_since(previous).as_secs_f64() * 1e3;
                previous = close;
                ms
            })
            .collect()
    }
}

impl StreamObserver for EpochClock {
    fn on_epoch_close(&self, _summary: &EpochSummary<'_>) {
        let now = Instant::now();
        self.closes
            .lock()
            .expect("epoch clock poisoned by a panicking hook")
            .push(now);
    }
}
