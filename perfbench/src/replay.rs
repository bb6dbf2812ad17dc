//! The replay workloads: `.rtb` bytes in, through the sequential engine
//! (instant or batched) or the region-sharded one, decisions and metrics
//! out.

use std::cell::Cell;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use rideshare_metrics::StreamMetrics;
use rideshare_online::{
    replay_sharded, replay_stream, wire_to_event, BoxPartitioner, GreedyPairMatcher, MatcherKind,
    MaxMargin, RegionPartitioner, ShardOptions, ShardPolicySpec, StreamEngine, StreamEvent,
    StreamOptions, StreamPolicy,
};
use rideshare_trace::rtb::RtbSlice;
use rideshare_types::TimeDelta;

use crate::calib::Calibration;
use crate::check::{slice_check, Checker, Decision};
use crate::input::{rtb_setup, Digest, Geometry, RtbInput, Workload};
use crate::paced::{self, Slice};
use crate::report::{median, Report};
use crate::spans::{self, span, Layer, TimedMatcher, TimedPolicy, TimedSink};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// `batch-3m`'s hold window.
const BATCH_WINDOW: TimeDelta = TimeDelta::from_mins(3);

/// `batch-3m`: a 3-minute hold window with the greedy pair matcher.
pub fn batch_spec() -> ShardPolicySpec {
    ShardPolicySpec::Batched {
        window: BATCH_WINDOW,
        matcher: MatcherKind::Greedy,
    }
}

/// How a replay pass dispatches.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Sequential engine, instant maxMargin.
    Instant,
    /// Sequential engine, `batch-3m`.
    Batched,
    /// `replay_sharded`, instant maxMargin, one shard per region.
    Sharded,
}

impl Mode {
    /// How long an order may be held before its decision.
    pub fn hold(self) -> TimeDelta {
        match self {
            Mode::Batched => BATCH_WINDOW,
            _ => TimeDelta::from_secs(0),
        }
    }

    fn of(workload: Workload) -> Self {
        match workload {
            Workload::Batched => Mode::Batched,
            Workload::Regions => Mode::Sharded,
            _ => Mode::Instant,
        }
    }
}

/// What one pass produced.
pub struct Pass {
    pub elapsed_s: f64,
    pub tasks: usize,
    pub served: usize,
    pub failed: u64,
    pub metrics: StreamMetrics,
    pub margin_raw: i128,
    pub log: Option<Vec<Decision>>,
    /// Layer counters: `(name, value)`.
    pub counters: Vec<(&'static str, f64)>,
}

/// One replay of a day's `.rtb` bytes. Wall time runs from the first
/// event pulled to the engine's `finish`.
pub fn replay_pass(g: &Geometry, bytes: &[u8], mode: Mode, keep_log: bool) -> Result<Pass, String> {
    let options = StreamOptions::default().grid(g.bbox);
    let metrics = TimedSink::new(Layer::Metrics, StreamMetrics::hourly());
    let mut checker = Checker::new(metrics, 0, g.tasks);
    if keep_log {
        checker = checker.keep_log();
    }
    let mut slice = RtbSlice::new(bytes).map_err(|e| format!("rtb: {e}"))?;
    let mut decode_error = None;
    let mut counters = Vec::new();

    let (summary, elapsed_s) = if mode == Mode::Sharded {
        let partitioner = BoxPartitioner::new(g.region_boxes.clone());
        let mut region_events = vec![0u64; partitioner.region_count()];
        let events = std::iter::from_fn(|| {
            span(Layer::ShardInput, || {
                match span(Layer::Decode, || {
                    slice.next().map(|w| w.and_then(wire_to_event))
                }) {
                    Ok(event) => {
                        let event = event?;
                        let at = match &event {
                            StreamEvent::DriverOnline(d) => Some(d.source),
                            StreamEvent::TaskPublished(t) => Some(t.origin),
                            _ => None,
                        };
                        if let Some(p) = at {
                            region_events[partitioner.region_of(p)] += 1;
                        }
                        Some(event)
                    }
                    Err(e) => {
                        decode_error = Some(e);
                        None
                    }
                }
            })
        });
        let shard_options = ShardOptions::new(g.region_boxes.len())
            .stream(options)
            .validate(false);
        let start = Instant::now();
        let summary = span(Layer::Shard, || {
            replay_sharded(
                g.speed,
                events,
                ShardPolicySpec::MaxMargin,
                &partitioner,
                shard_options,
                &mut checker,
            )
        });
        let elapsed = start.elapsed().as_secs_f64();
        for (r, n) in region_events.iter().enumerate().take(2) {
            counters.push((
                ["online.shard.events.r0", "online.shard.events.r1"][r],
                *n as f64,
            ));
        }
        (summary, elapsed)
    } else {
        let mut max_margin = TimedPolicy::new(MaxMargin::new());
        let mut matcher = TimedMatcher::new(GreedyPairMatcher);
        let mut policy = match mode {
            Mode::Batched => StreamPolicy::Batched {
                window: BATCH_WINDOW,
                matcher: &mut matcher,
            },
            _ => StreamPolicy::Instant(&mut max_margin),
        };
        let mut engine = StreamEngine::new(g.speed, options);
        let start = Instant::now();
        loop {
            match span(Layer::Decode, || {
                slice.next().map(|w| w.and_then(wire_to_event))
            }) {
                Ok(event) => match event {
                    Some(event) => span(Layer::Push, || {
                        engine.push(event, &mut policy, &mut checker);
                    }),
                    None => break,
                },
                Err(e) => {
                    decode_error = Some(e);
                    break;
                }
            }
        }
        let summary = span(Layer::Push, || engine.finish(&mut policy, &mut checker));
        let elapsed = start.elapsed().as_secs_f64();
        counters.extend([
            ("online.policy.calls", max_margin.calls as f64),
            ("online.policy.candidates", max_margin.candidates as f64),
            (
                "online.policy.candidates_max",
                max_margin.candidates_max as f64,
            ),
            ("online.batch.rounds", matcher.rounds as f64),
            ("online.batch.round_tasks", matcher.round_tasks as f64),
            (
                "online.batch.round_candidates",
                matcher.round_candidates as f64,
            ),
            ("online.batch.pairs", matcher.pairs as f64),
        ]);
        (summary, elapsed)
    };
    if let Some(e) = decode_error {
        return Err(format!("rtb decode: {e}"));
    }
    let failed = checker.failed();
    let (margin_raw, log, metrics) = (checker.margin_raw, checker.log, checker.inner);
    counters.extend([
        ("metrics.sink_calls", metrics.calls as f64),
        ("metrics.windows", metrics.windows as f64),
    ]);
    Ok(Pass {
        elapsed_s,
        tasks: summary.tasks,
        served: summary.served,
        failed,
        metrics: metrics.inner,
        margin_raw,
        log,
        counters,
    })
}

/// The traced run's share of its seconds spent on unpaced passes; paced
/// passes at the three fixed rates run until `LATENCY_SHARE`, then the
/// ladder. The untraced run spends all its seconds on unpaced passes.
pub const TRACED_THROUGHPUT_SHARE: f64 = 0.4;
pub const LATENCY_SHARE: f64 = 0.75;

/// Every event of the `.rtb` input, decoded lazily.
fn decoded(input: &RtbInput) -> Result<impl Iterator<Item = StreamEvent> + '_, String> {
    let mut slice = RtbSlice::new(&input.bytes).map_err(|e| format!("rtb: {e}"))?;
    Ok(std::iter::from_fn(move || {
        slice.next().ok().flatten().and_then(wire_to_event)
    }))
}

/// What one replay of a slice produced.
pub struct SlicePass {
    pub failed: u64,
    pub log: Option<Vec<Decision>>,
    pub metrics: StreamMetrics,
    /// The sequential engine's policy, with its work counts.
    pub policy: TimedPolicy<MaxMargin>,
    pub latencies_ms: Vec<f64>,
}

/// Replays `slice` in process. With a rate, orders are pushed open-loop
/// at their due times, each publish group followed by its watermark, and
/// every decision's latency is measured; without one, the orders are
/// pushed at once without watermarks, as a reference.
pub fn replay_slice(
    slice: &Slice,
    g: &Geometry,
    mode: Mode,
    rate: Option<f64>,
) -> Result<SlicePass, String> {
    let options = StreamOptions::default().grid(g.bbox);
    let mut checker = Checker::new(StreamMetrics::hourly(), slice.first_task, slice.tasks.len())
        .keep_log()
        .keep_stamps();
    let progress = checker.progress.clone();
    let heartbeat = slice.warmup.checked_sub(1).map(|w| {
        let t = slice.tasks[w]
            .timestamp()
            .expect("orders carry a timestamp");
        StreamEvent::EpochTick(t + TimeDelta::from_secs(1))
    });
    let deadline = Instant::now() + Duration::from_secs(60);
    let start = Cell::new(None);
    let mut j = 0;
    let mut watermark = None;
    let orders = std::iter::from_fn(|| {
        if let Some(tick) = watermark.take() {
            return Some(tick);
        }
        let order = *slice.tasks.get(j)?;
        if let Some(rate) = rate {
            if j >= slice.warmup {
                if start.get().is_none() {
                    // A sharded replay hands decisions to its sink only
                    // while it routes events: repeat the warm-up's last
                    // watermark until the warm-up is decided.
                    let warming = progress.load(Ordering::Acquire) < slice.warm_progress();
                    if let Some(tick) = heartbeat.filter(|_| warming && Instant::now() < deadline) {
                        std::thread::sleep(Duration::from_micros(50));
                        return Some(tick);
                    }
                    start.set(Some(Instant::now()));
                }
                let at = start.get().expect("schedule started");
                paced::wait_until(paced::due(at, j - slice.warmup, rate));
            }
            watermark = slice.watermark(j);
        }
        j += 1;
        Some(order)
    });
    let events = slice.drivers.iter().copied().chain(orders);
    let mut max_margin = TimedPolicy::new(MaxMargin::new());
    if mode == Mode::Sharded {
        let partitioner = BoxPartitioner::new(g.region_boxes.clone());
        let shard_options = ShardOptions::new(g.region_boxes.len())
            .stream(options)
            .validate(false);
        replay_sharded(
            g.speed,
            events,
            ShardPolicySpec::MaxMargin,
            &partitioner,
            shard_options,
            &mut checker,
        );
    } else {
        let mut matcher = GreedyPairMatcher;
        let mut policy = match mode {
            Mode::Batched => StreamPolicy::Batched {
                window: BATCH_WINDOW,
                matcher: &mut matcher,
            },
            _ => StreamPolicy::Instant(&mut max_margin),
        };
        replay_stream(g.speed, events, &mut policy, options, &mut checker);
    }
    let latencies_ms = match (rate, start.get()) {
        (Some(rate), Some(at)) => {
            let stamps = checker.stamps.as_deref().unwrap_or_default();
            paced::latencies_ms(slice, at, rate, stamps)?
        }
        _ => Vec::new(),
    };
    Ok(SlicePass {
        failed: checker.failed(),
        log: checker.log,
        metrics: checker.inner,
        policy: max_margin,
        latencies_ms,
    })
}

/// Decodes the whole `.rtb` input and compares it with what was generated.
fn decode_check(input: &RtbInput) -> Result<(), String> {
    let mut slice = RtbSlice::new(&input.bytes).map_err(|e| format!("rtb: {e}"))?;
    let mut digest = Digest::default();
    let mut events = 0u64;
    while let Some(event) = slice
        .next()
        .map_err(|e| format!("rtb decode: {e}"))?
        .and_then(wire_to_event)
    {
        digest.add(&event);
        events += 1;
    }
    if events != input.events || digest.0 != input.digest {
        return Err(format!(
            "rtb decode returned {events} events (digest {:x}), {} were generated (digest {:x})",
            digest.0, input.events, input.digest
        ));
    }
    Ok(())
}

/// Runs a replay workload for `seconds` and reports it.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let config = workload.config(seed);
    let mode = Mode::of(workload);
    let mut report = Report::default();

    let mut calibration = Calibration::new();
    let (mut setup_s, mut norm_setup_s) = (Vec::new(), Vec::new());
    let mut input = None;
    for _ in 0..SETUPS {
        drop(input.take());
        let speed = calibration.measure();
        let start = Instant::now();
        let built = span(Layer::Root, || rtb_setup(&config)).map_err(|e| e.to_string())?;
        setup_s.push(start.elapsed().as_secs_f64());
        norm_setup_s.push(Calibration::normalise_time(
            start.elapsed().as_secs_f64(),
            speed,
        ));
        input = Some(built);
    }
    let input = input.expect("at least one set-up");

    // Passes until the run's time is spent. The traced run alternates
    // untraced and traced passes to measure its own overhead, and leaves
    // the rest of its time to the open-loop load.
    let (mut untraced_tps, mut norm_tps, mut mops) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced_tps = Vec::new();
    let mut first: Option<Pass> = None;
    let min_passes = if traced { 2 } else { 1 };
    let clock = Instant::now();
    let mut passes = 0usize;
    let throughput_s = if traced {
        TRACED_THROUGHPUT_SHARE * seconds
    } else {
        seconds
    };
    while passes < min_passes || clock.elapsed().as_secs_f64() < throughput_s {
        let trace_this = traced && passes % 2 == 1;
        let speed = calibration.measure();
        // Each pass reads a fresh copy of the bytes, as a replay that
        // loads its file would: where the buffer lands in memory moves
        // throughput by a fifth on this VM, and the median over passes
        // averages that out instead of freezing one placement per run.
        let bytes = input.bytes.clone();
        let pass = if trace_this {
            span(Layer::Root, || {
                replay_pass(&input.geometry, &bytes, mode, false)
            })?
        } else {
            spans::pause(|| replay_pass(&input.geometry, &bytes, mode, passes == 0))?
        };
        let tps = pass.tasks as f64 / pass.elapsed_s;
        if trace_this {
            traced_tps.push(tps);
        } else {
            untraced_tps.push(tps);
            norm_tps.push(Calibration::normalise(tps, speed));
            mops.push(speed);
        }
        report.attempted += pass.tasks as u64;
        report.failed += pass.failed;
        if let Some(f) = &first {
            if (pass.served, pass.margin_raw) != (f.served, f.margin_raw) {
                report.fail(format!(
                    "pass {passes} served {} (margin {}), pass 0 served {} (margin {})",
                    pass.served, pass.margin_raw, f.served, f.margin_raw
                ));
            }
        } else {
            first = Some(pass);
        }
        passes += 1;
    }
    let first = first.expect("at least one pass");

    // The traced run's open-loop load on the morning rush, untraced.
    let figures = if traced {
        let load = workload.load();
        let slice = Slice::rush(decoded(&input)?, load.slice_tasks, mode.hold());
        let reference = spans::pause(|| replay_slice(&slice, &input.geometry, mode, None))?;
        let until = clock + Duration::from_secs_f64(LATENCY_SHARE * seconds);
        Some(spans::pause(|| {
            paced::measure(&load, until, |rate| {
                let pass = replay_slice(&slice, &input.geometry, mode, Some(rate))?;
                report.attempted += slice.tasks.len() as u64;
                report.failed += pass.failed;
                if pass.log != reference.log {
                    report.fail(format!(
                        "paced pass at {rate:.0}/s: decisions differ from a replay without \
                         watermarks"
                    ));
                }
                Ok(pass.latencies_ms)
            })
        })?)
    } else {
        None
    };

    // Checks, outside every timed region.
    spans::pause(|| -> Result<(), String> {
        let m = &first.metrics;
        if m.profit_raw() != first.margin_raw {
            report.fail(format!(
                "metrics profit {} is not the sum of dispatch margins {} on the 2^-40 grid",
                m.profit_raw(),
                first.margin_raw
            ));
        }
        if (m.served(), m.published()) != (first.served, input.geometry.tasks) {
            report.fail(format!(
                "metrics count {} served of {} published; the engine served {} of {}",
                m.served(),
                m.published(),
                first.served,
                input.geometry.tasks
            ));
        }
        if let Err(e) = decode_check(&input) {
            report.fail(e);
        }
        if mode == Mode::Sharded {
            let sequential = replay_pass(&input.geometry, &input.bytes, Mode::Instant, true)?;
            if sequential.log != first.log {
                report.fail("regions: sharded decisions differ from a sequential replay".into());
            }
            // The shards' policies are out of reach; the sequential replay
            // makes the same choices from the same candidate sets.
            if traced {
                for (name, value) in &sequential.counters {
                    if name.starts_with("online.policy.") {
                        report.layer(name, *value);
                    }
                }
            }
        }
        if let Err(e) = slice_check(workload, seed) {
            report.fail(e);
        }
        Ok(())
    })?;

    report.metric("setup_s", median(&norm_setup_s), "s");
    report.metric("norm_tasks_per_s", median(&norm_tps), "1/s");
    report.metric("tasks_served", first.served as f64, "count");
    report.metric("profit", first.metrics.profit(), "money");
    if let Some(figures) = figures {
        let t = spans::of;
        report.layer("trace.generate_s", t(Layer::Generate).total_s());
        report.layer("trace.trips", input.geometry.tasks as f64);
        report.layer("trace.rtb_encode_s", t(Layer::Encode).total_s());
        report.layer("trace.rtb_bytes", input.bytes.len() as f64);
        report.layer("trace.rtb_decode_s", t(Layer::Decode).total_s());
        report.layer("trace.events", input.events as f64);
        report.layer("core.price_s", t(Layer::Price).total_s());
        report.layer("online.stream.push_s", t(Layer::Push).total_s());
        report.layer("online.stream.self_s", t(Layer::Push).self_s());
        report.layer("online.policy.choose_s", t(Layer::Policy).total_s());
        report.layer("online.batch.match_s", t(Layer::Matcher).total_s());
        report.layer("metrics.sink_s", t(Layer::Metrics).total_s());
        if mode == Mode::Sharded {
            report.layer("online.shard.input_s", t(Layer::ShardInput).total_s());
            report.layer("online.shard.sink_s", t(Layer::Harness).total_s());
            report.layer("online.shard.self_s", t(Layer::Shard).self_s());
        }
        for (name, value) in &first.counters {
            report.layer(name, *value);
        }
        figures.report(&mut report);
        report.layer("wall.setup_s", median(&setup_s));
        report.layer("wall.tasks_per_s", median(&untraced_tps));
        report.layer("wall.calib_mops", median(&mops));
        report.tracing(&untraced_tps, &traced_tps);
    }
    Ok(report)
}
