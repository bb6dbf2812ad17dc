//! The traced run's span recorder and the forwarding wrappers that time
//! calls into the program's layers from outside.
//!
//! Spans are aggregated in memory as they close: per layer, the calls, the
//! inclusive time, and the part of that time covered by direct child spans.
//! A layer's self time is its inclusive time minus its children's, so the
//! self times of all layers add up to the root span's wall time. Nothing is
//! recorded unless [`enable`] was called on the thread, so the untraced run
//! pays one thread-local flag test per wrapped call.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use rideshare_core::{Driver, Task};
use rideshare_online::{
    BatchMatcher, BatchRound, Candidate, DispatchEvent, DispatchPolicy, IngestError, IngestSource,
    StreamEvent, StreamSink,
};
use rideshare_types::Timestamp;

/// A layer boundary the benchmark times.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// The root span: one set-up or one traced pass.
    Root,
    /// The benchmark's output checker, called as the engines' sink.
    Harness,
    /// `TraceStream::next`.
    Generate,
    /// `StreamPricer::price`.
    Price,
    /// `event_to_wire` plus the `.rtb` or frame writer.
    Encode,
    /// `RtbSlice::next` plus `wire_to_event`.
    Decode,
    /// `StreamEngine::push` and `finish`.
    Push,
    /// `DispatchPolicy::choose`.
    Policy,
    /// `BatchMatcher::match_round`.
    Matcher,
    /// The `StreamMetrics` / `MetricsJournal` sink callbacks.
    Metrics,
    /// `replay_sharded`.
    Shard,
    /// The event iterator handed to `replay_sharded`.
    ShardInput,
    /// `ServeDaemon::run`.
    Serve,
    /// `TcpSource::next_event`.
    Ingest,
    /// The daemon's day-rollover hook.
    DayHook,
    /// `TsdbRecorder`'s sink callbacks (around the metrics sink).
    TsdbRecord,
    /// `TsdbRecorder::finish`.
    TsdbFinish,
}

const LAYERS: usize = 17;

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::Root,
        Layer::Harness,
        Layer::Generate,
        Layer::Price,
        Layer::Encode,
        Layer::Decode,
        Layer::Push,
        Layer::Policy,
        Layer::Matcher,
        Layer::Metrics,
        Layer::Shard,
        Layer::ShardInput,
        Layer::Serve,
        Layer::Ingest,
        Layer::DayHook,
        Layer::TsdbRecord,
        Layer::TsdbFinish,
    ];

    /// The span's name in the self-time table.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Root => "run",
            Layer::Harness => "harness.check",
            Layer::Generate => "trace.generate",
            Layer::Price => "core.price",
            Layer::Encode => "trace.encode",
            Layer::Decode => "trace.rtb_decode",
            Layer::Push => "online.stream.push",
            Layer::Policy => "online.policy.choose",
            Layer::Matcher => "online.batch.match",
            Layer::Metrics => "metrics.sink",
            Layer::Shard => "online.shard",
            Layer::ShardInput => "online.shard.input",
            Layer::Serve => "online.serve",
            Layer::Ingest => "online.serve.ingest",
            Layer::DayHook => "online.serve.day_hook",
            Layer::TsdbRecord => "tsdb.record",
            Layer::TsdbFinish => "tsdb.finish",
        }
    }
}

/// Aggregated spans of one layer.
#[derive(Clone, Copy, Default, Debug)]
pub struct LayerTotals {
    /// Spans closed.
    pub calls: u64,
    /// Inclusive nanoseconds.
    pub total_ns: u64,
    /// Nanoseconds covered by direct child spans.
    pub child_ns: u64,
}

impl LayerTotals {
    /// Inclusive seconds.
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }

    /// Self seconds: inclusive minus direct children.
    pub fn self_s(&self) -> f64 {
        self.total_ns.saturating_sub(self.child_ns) as f64 * 1e-9
    }
}

#[derive(Default)]
struct Recorder {
    totals: [LayerTotals; LAYERS],
    /// Open spans: layer index, start, child nanoseconds so far.
    stack: Vec<(usize, Instant, u64)>,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Starts recording spans on this thread.
pub fn enable() {
    ENABLED.with(|e| e.set(true));
}

/// Runs `f` with span recording off on this thread.
pub fn pause<R>(f: impl FnOnce() -> R) -> R {
    let was = enabled();
    ENABLED.with(|e| e.set(false));
    let out = f();
    ENABLED.with(|e| e.set(was));
    out
}

/// Whether spans are being recorded on this thread.
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Runs `f` inside a span of `layer` when tracing is on.
#[inline]
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    RECORDER.with(|r| {
        r.borrow_mut()
            .stack
            .push((layer as usize, Instant::now(), 0))
    });
    let out = f();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let (at, start, child) = r.stack.pop().expect("span stack balanced");
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let t = &mut r.totals[at];
        t.calls += 1;
        t.total_ns += ns;
        t.child_ns += child;
        if let Some(parent) = r.stack.last_mut() {
            parent.2 += ns;
        }
    });
    out
}

/// The aggregated spans of this thread, by layer.
pub fn totals() -> Vec<(Layer, LayerTotals)> {
    RECORDER.with(|r| {
        let r = r.borrow();
        Layer::ALL
            .iter()
            .map(|&l| (l, r.totals[l as usize]))
            .collect()
    })
}

/// The aggregated spans of one layer.
pub fn of(layer: Layer) -> LayerTotals {
    RECORDER.with(|r| r.borrow().totals[layer as usize])
}

/// A forwarding [`DispatchPolicy`] that counts calls and candidates and
/// times `choose`.
pub struct TimedPolicy<P> {
    inner: P,
    /// `choose` calls.
    pub calls: u64,
    /// Candidates offered over all calls.
    pub candidates: u64,
    /// Largest candidate set offered.
    pub candidates_max: u64,
}

impl<P> TimedPolicy<P> {
    pub fn new(inner: P) -> Self {
        Self {
            inner,
            calls: 0,
            candidates: 0,
            candidates_max: 0,
        }
    }
}

impl<P: DispatchPolicy> DispatchPolicy for TimedPolicy<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn choose(&mut self, candidates: &[Candidate]) -> Option<usize> {
        self.calls += 1;
        let n = candidates.len() as u64;
        self.candidates += n;
        self.candidates_max = self.candidates_max.max(n);
        span(Layer::Policy, || self.inner.choose(candidates))
    }
}

/// A forwarding [`BatchMatcher`] that counts rounds, their tasks and
/// candidates, and the pairs committed, and times `match_round`.
pub struct TimedMatcher<M> {
    inner: M,
    /// `match_round` calls.
    pub rounds: u64,
    /// Unmatched tasks offered over all rounds.
    pub round_tasks: u64,
    /// Candidates offered over all rounds.
    pub round_candidates: u64,
    /// Pairs the matcher returned.
    pub pairs: u64,
}

impl<M> TimedMatcher<M> {
    pub fn new(inner: M) -> Self {
        Self {
            inner,
            rounds: 0,
            round_tasks: 0,
            round_candidates: 0,
            pairs: 0,
        }
    }
}

impl<M: BatchMatcher> BatchMatcher for TimedMatcher<M> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn match_round(&mut self, round: &BatchRound<'_>) -> Vec<(usize, usize)> {
        self.rounds += 1;
        self.round_tasks += round.tasks.len() as u64;
        self.round_candidates += round.candidates.iter().map(|c| c.len() as u64).sum::<u64>();
        let pairs = span(Layer::Matcher, || self.inner.match_round(round));
        self.pairs += pairs.len() as u64;
        pairs
    }
}

/// A forwarding [`StreamSink`] that puts every callback in a span of
/// `layer` and counts the callbacks. All four callbacks are forwarded:
/// the trait's defaults are empty, and a sink that misses
/// `driver_online` leaves `StreamMetrics` without the driver's slot.
pub struct TimedSink<S> {
    layer: Layer,
    /// The wrapped sink.
    pub inner: S,
    /// Callbacks forwarded.
    pub calls: u64,
    /// `window_closed` callbacks forwarded.
    pub windows: u64,
}

impl<S> TimedSink<S> {
    pub fn new(layer: Layer, inner: S) -> Self {
        Self {
            layer,
            inner,
            calls: 0,
            windows: 0,
        }
    }
}

impl<S: StreamSink> StreamSink for TimedSink<S> {
    fn driver_online(&mut self, driver: &Driver) {
        self.calls += 1;
        span(self.layer, || self.inner.driver_online(driver));
    }

    fn dispatched(&mut self, task: &Task, event: &DispatchEvent) {
        self.calls += 1;
        span(self.layer, || self.inner.dispatched(task, event));
    }

    fn rejected(&mut self, task: &Task, decision_time: Timestamp) {
        self.calls += 1;
        span(self.layer, || self.inner.rejected(task, decision_time));
    }

    fn window_closed(&mut self, end: Timestamp) {
        self.calls += 1;
        self.windows += 1;
        span(self.layer, || self.inner.window_closed(end));
    }
}

/// A forwarding [`IngestSource`] that times `next_event` and, when
/// tracing, notes when each event was handed to the daemon.
pub struct TimedSource<S> {
    inner: S,
    /// When each event left `next_event`, in feed order (traced only).
    pub returned: Vec<Instant>,
}

impl<S> TimedSource<S> {
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            returned: Vec::new(),
        }
    }
}

impl<S: IngestSource> IngestSource for TimedSource<S> {
    fn next_event(&mut self) -> Result<Option<StreamEvent>, IngestError> {
        let out = span(Layer::Ingest, || self.inner.next_event());
        if enabled() && matches!(out, Ok(Some(_))) {
            self.returned.push(Instant::now());
        }
        out
    }
}
