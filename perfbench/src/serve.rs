//! The `serve-tcp` workload: one single-threaded generator sends a day, or
//! a slice of it, in frames over one loopback TCP connection to a
//! `ServeDaemon` that records to a tsdb store.

use std::fs;
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rideshare_metrics::{MetricsJournal, StreamMetrics};
use rideshare_online::{
    ServeConfig, ServeDaemon, ShardOptions, ShardPolicySpec, StreamOptions, TcpSource,
};
use rideshare_tsdb::query::{run_query, LabelFilter, RangeQuery};
use rideshare_tsdb::{RunLabels, TsdbRecorder, TsdbStore, METRICS};
use rideshare_types::TimeDelta;

use crate::calib::Calibration;
use crate::check::{Checker, Decision};
use crate::input::{encode_feed, generate, Feed, Geometry, Workload};
use crate::paced::{self, Slice};
use crate::replay::{
    replay_slice, Mode, SlicePass, LATENCY_SHARE, SETUPS, TRACED_THROUGHPUT_SHARE,
};
use crate::report::{median, quantile, Report};
use crate::spans::{self, span, Layer, TimedSink, TimedSource};

/// The daemon's day length: the unpaced day crosses three rollovers, the
/// paced passes (08:00 to mid-morning) one, during the warm-up.
const DAY_HOURS: i64 = 6;

/// The set-up every fresh run pays: the day generated and priced, and
/// both feeds encoded.
struct Input {
    geometry: Geometry,
    whole: Slice,
    whole_feed: Feed,
    paced: Slice,
    paced_feed: Feed,
}

fn setup(seed: u64) -> Result<Input, String> {
    let workload = Workload::ServeTcp;
    let mut events = Vec::new();
    let geometry = generate(&workload.config(seed), |event| {
        events.push(event);
        Ok(())
    })
    .map_err(|e| e.to_string())?;
    let instant = TimeDelta::from_secs(0);
    let paced = Slice::rush(events.iter().copied(), workload.load().slice_tasks, instant);
    let whole = Slice::whole(events);
    Ok(Input {
        geometry,
        whole_feed: encode_feed(&whole),
        paced_feed: encode_feed(&paced),
        whole,
        paced,
    })
}

/// What the generator did.
struct Sent {
    /// When the first measured order was due; unpaced, when sending began.
    start: Instant,
    /// How late each order was sent, in ms.
    lags_ms: Vec<f64>,
}

/// The generator. Unpaced, it sends the whole feed as fast as the socket
/// accepts it. Paced, it sends the drivers and the warm-up at once, waits
/// until the daemon's `progress` shows it has taken them, then sends each
/// measured order open-loop at `rate`, and end-of-stream.
fn send(
    addr: std::net::SocketAddr,
    feed: &Feed,
    slice: &Slice,
    rate: Option<f64>,
    progress: &AtomicUsize,
) -> Result<Sent, String> {
    let io = |e: std::io::Error| format!("generator: {e}");
    let mut conn = TcpStream::connect(addr).map_err(io)?;
    conn.set_nodelay(true).map_err(io)?;
    let mut lags_ms = Vec::new();
    let mut from = 0;
    let mut start = Instant::now();
    if let Some(rate) = rate {
        conn.write_all(&feed.bytes[..feed.prelude_end])
            .map_err(io)?;
        from = feed.prelude_end;
        let deadline = Instant::now() + Duration::from_secs(60);
        while progress.load(Ordering::Acquire) < slice.warm_progress() {
            if Instant::now() > deadline {
                return Err("generator: the daemon did not take the warm-up".into());
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        start = Instant::now();
        lags_ms.reserve(slice.measured());
        for (j, &end) in feed.task_end.iter().enumerate().skip(slice.warmup) {
            let due = paced::due(start, j - slice.warmup, rate);
            paced::wait_until(due);
            lags_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            conn.write_all(&feed.bytes[from..end]).map_err(io)?;
            from = end;
        }
    }
    conn.write_all(&feed.bytes[from..]).map_err(io)?;
    conn.shutdown(Shutdown::Write).map_err(io)?;
    Ok(Sent { start, lags_ms })
}

type Recorder = TsdbRecorder<TimedSink<MetricsJournal>>;

/// What one pass through the daemon produced.
struct ServePass {
    wall_s: f64,
    events_sent: usize,
    events_refused: usize,
    failed_tasks: u64,
    served: usize,
    margin_raw: i128,
    log: Option<Vec<Decision>>,
    metrics: StreamMetrics,
    sink_calls: u64,
    windows: u64,
    problems: Vec<String>,
    latencies_ms: Vec<f64>,
    lags_ms: Vec<f64>,
    wait_ms: Vec<f64>,
    decide_ms: Vec<f64>,
    tsdb_bytes: u64,
    tsdb_series: usize,
}

/// One pass: a fresh daemon, a fresh connection and a fresh tsdb store in
/// `dir`, fed `feed` (the frames of `slice`).
fn serve_pass(
    g: &Geometry,
    slice: &Slice,
    feed: &Feed,
    rate: Option<f64>,
    dir: &Path,
) -> Result<ServePass, String> {
    let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let _ = fs::remove_dir_all(dir);
    let store = TsdbStore::open(dir).map_err(|e| format!("tsdb: {e}"))?;
    let journal = TimedSink::new(Layer::Metrics, MetricsJournal::hourly());
    let recorder = TsdbRecorder::new(store, RunLabels::new("perfbench", "margin", 1, 1), journal);
    let mut checker = Checker::new(
        TimedSink::new(Layer::TsdbRecord, recorder),
        slice.first_task,
        slice.tasks.len(),
    )
    .keep_log()
    .keep_stamps();
    let progress = checker.progress.clone();
    let config = ServeConfig::new(1)
        .shard_options(
            ShardOptions::new(1)
                .stream(StreamOptions::default().grid(g.bbox))
                .validate(false),
        )
        .day_length(TimeDelta::from_hours(DAY_HOURS));
    let daemon = ServeDaemon::new(g.speed, ShardPolicySpec::MaxMargin, config);
    let mut problems = Vec::new();

    let (outcome, end, sent, returned) = std::thread::scope(|scope| {
        let generator = scope.spawn(|| send(addr, feed, slice, rate, &progress));
        let accepted = listener.accept();
        let result = accepted.map_err(|e| e.to_string()).map(|(conn, _)| {
            let mut source = TimedSource::new(TcpSource::from_stream(conn));
            let outcome = span(Layer::Serve, || {
                daemon.run(
                    &mut source,
                    &mut checker,
                    |_, _| {},
                    |_, sink: &mut Checker<TimedSink<Recorder>>| {
                        span(Layer::DayHook, || {
                            let recorder = &mut sink.inner.inner;
                            recorder.inner_mut().inner.roll_day();
                            if let Err(e) = recorder.flush_store() {
                                problems.push(format!("tsdb flush at a day end: {e}"));
                            }
                        });
                    },
                )
            });
            (outcome, Instant::now(), source.returned)
        });
        let sent = generator
            .join()
            .map_err(|_| "generator panicked".to_string())
            .and_then(|s| s);
        result.and_then(|(outcome, end, returned)| Ok((outcome, end, sent?, returned)))
    })?;

    let events_refused = match &outcome.error {
        Some(e) => {
            problems.push(format!("daemon refused the feed: {e}"));
            feed.events - outcome.report.events
        }
        None => 0,
    };
    let failed_tasks = checker.failed();
    let (served, margin_raw, log) = (checker.served, checker.margin_raw, checker.log.take());
    let stamps = checker.stamps.take().unwrap_or_default();
    let recorder = checker.inner.inner;
    let (store, journal) =
        span(Layer::TsdbFinish, || recorder.finish()).map_err(|e| format!("tsdb finish: {e}"))?;
    let store = store.ok_or("tsdb: no store attached")?;
    let metrics = journal.inner.cumulative().clone();
    if let Err(e) = tsdb_equals(&store, &metrics) {
        problems.push(e);
    }
    let tsdb_series = store.series().count();
    let tsdb_bytes = dir_bytes(dir);

    let mut latencies_ms = Vec::new();
    let (mut wait_ms, mut decide_ms) = (Vec::new(), Vec::new());
    if let Some(rate) = rate {
        latencies_ms = paced::latencies_ms(slice, sent.start, rate, &stamps)?;
        if !returned.is_empty() {
            for (j, stamp) in stamps.iter().enumerate().skip(slice.warmup) {
                let last = slice.decidable[j];
                let Some(at) = feed.closing_event[last].and_then(|e| returned.get(e)) else {
                    continue;
                };
                let due = paced::due(sent.start, last - slice.warmup, rate);
                wait_ms.push(at.saturating_duration_since(due).as_secs_f64() * 1e3);
                if let Some(decided) = stamp {
                    decide_ms.push(decided.saturating_duration_since(*at).as_secs_f64() * 1e3);
                }
            }
        }
    }
    Ok(ServePass {
        wall_s: end.duration_since(sent.start).as_secs_f64(),
        events_sent: feed.events,
        events_refused,
        failed_tasks,
        served,
        margin_raw,
        log,
        metrics,
        sink_calls: journal.calls,
        windows: journal.windows,
        problems,
        latencies_ms,
        lags_ms: sent.lags_ms,
        wait_ms,
        decide_ms,
        tsdb_bytes,
        tsdb_series,
    })
}

/// A whole-range query of every recorded metric equals the accumulator
/// with `==`, on the raw integer grid.
fn tsdb_equals(store: &TsdbStore, m: &StreamMetrics) -> Result<(), String> {
    let want = |metric: &str| -> i128 {
        match metric {
            "served" => m.served() as i128,
            "rejected" => m.rejected() as i128,
            "revenue" => m.revenue_raw(),
            "profit" => m.profit_raw(),
            "wait_secs" => i128::from(m.wait_secs_total()),
            "deadhead" => m.deadhead_raw(),
            _ => m.active_drivers() as i128,
        }
    };
    for metric in METRICS {
        let q = RangeQuery {
            filter: LabelFilter::any()
                .with("metric", metric)
                .map_err(|e| e.to_string())?,
            from: i64::MIN,
            to: i64::MAX,
            step: 3600,
        };
        let total = run_query(store, &q).map_err(|e| e.to_string())?.total;
        // Counts and sums add up over windows; the active-driver gauge
        // never falls, so its maximum is its final value.
        let got = total.map_or(0, |t| {
            if metric == "active_drivers" {
                t.max
            } else {
                t.sum
            }
        });
        if got != want(metric) {
            return Err(format!(
                "tsdb: whole-range {metric} is {got}, the accumulator says {}",
                want(metric)
            ));
        }
    }
    Ok(())
}

fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&entry.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Checks one pass against a replay of the same orders without
/// watermarks: the decisions the daemon must reproduce and the metrics it
/// must report.
fn check_pass(report: &mut Report, pass: &mut ServePass, reference: &SlicePass, what: &str) {
    report.attempted += pass.events_sent as u64;
    report.failed += pass.events_refused as u64;
    for p in pass.problems.drain(..) {
        report.fail(format!("{what}: {p}"));
    }
    if pass.failed_tasks > 0 {
        report.fail(format!(
            "{what}: {} orders did not get exactly one valid decision",
            pass.failed_tasks
        ));
    }
    if pass.log != reference.log {
        report.fail(format!(
            "{what}: decisions differ from a replay of the same orders without watermarks"
        ));
    }
    if pass.metrics != reference.metrics || pass.margin_raw != reference.metrics.profit_raw() {
        report.fail(format!(
            "{what}: metrics differ from the replay, or profit from the sum of margins"
        ));
    }
}

/// Runs `serve-tcp` for `seconds` and reports it; tsdb stores go under
/// `work`.
pub fn run(seed: u64, seconds: f64, traced: bool, work: &Path) -> Result<Report, String> {
    let load = Workload::ServeTcp.load();
    let mut report = Report::default();
    let mut calibration = Calibration::new();
    let (mut setup_s, mut norm_setup_s) = (Vec::new(), Vec::new());
    let mut input = None;
    for _ in 0..SETUPS {
        drop(input.take());
        let speed = calibration.measure();
        let start = Instant::now();
        let built = span(Layer::Root, || setup(seed))?;
        setup_s.push(start.elapsed().as_secs_f64());
        norm_setup_s.push(Calibration::normalise_time(
            start.elapsed().as_secs_f64(),
            speed,
        ));
        input = Some(built);
    }
    let input = input.expect("at least one set-up");
    let g = &input.geometry;
    let whole_ref = spans::pause(|| replay_slice(&input.whole, g, Mode::Instant, None))?;

    let dir = work.join("tsdb");
    let (mut untraced_tps, mut norm_tps, mut mops) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced_tps = Vec::new();
    let mut last_whole = None;
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
        let run = || serve_pass(g, &input.whole, &input.whole_feed, None, &dir);
        let mut pass = if trace_this {
            span(Layer::Root, run)?
        } else {
            spans::pause(run)?
        };
        check_pass(&mut report, &mut pass, &whole_ref, "unpaced pass");
        let tps = input.whole.tasks.len() as f64 / pass.wall_s;
        if trace_this {
            traced_tps.push(tps);
        } else {
            untraced_tps.push(tps);
            norm_tps.push(Calibration::normalise(tps, speed));
            mops.push(speed);
        }
        last_whole = Some(pass);
        passes += 1;
    }
    let whole = last_whole.expect("at least one pass");

    report.metric("setup_s", median(&norm_setup_s), "s");
    report.metric("norm_tasks_per_s", median(&norm_tps), "1/s");
    report.metric("tasks_served", whole.served as f64, "count");
    report.metric("profit", whole.metrics.profit(), "money");
    if traced {
        // The open-loop load on the morning rush, traced so that each
        // latency splits into waiting for the daemon and deciding.
        let paced_ref = spans::pause(|| replay_slice(&input.paced, g, Mode::Instant, None))?;
        let mut lags_ms = Vec::new();
        let (mut wait_ms, mut decide_ms) = (Vec::new(), Vec::new());
        let until = clock + Duration::from_secs_f64(LATENCY_SHARE * seconds);
        let figures = paced::measure(&load, until, |rate| {
            let run = || serve_pass(g, &input.paced, &input.paced_feed, Some(rate), &dir);
            let mut pass = span(Layer::Root, run)?;
            check_pass(
                &mut report,
                &mut pass,
                &paced_ref,
                &format!("pass at {rate:.0}/s"),
            );
            // The split covers the fixed rates, not the ladder's overloads.
            if [load.lo, load.mid, load.hi].contains(&rate) {
                lags_ms.extend_from_slice(&pass.lags_ms);
                wait_ms.extend_from_slice(&pass.wait_ms);
                decide_ms.extend_from_slice(&pass.decide_ms);
            }
            Ok(pass.latencies_ms)
        })?;
        figures.report(&mut report);
        let t = spans::of;
        let pct = |v: &mut Vec<f64>, q: f64| {
            v.sort_by(f64::total_cmp);
            quantile(v, q)
        };
        report.layer("trace.generate_s", t(Layer::Generate).total_s());
        report.layer("trace.trips", input.whole.tasks.len() as f64);
        report.layer("trace.rtb_encode_s", t(Layer::Encode).total_s());
        report.layer("trace.events", input.whole_feed.events as f64);
        report.layer("core.price_s", t(Layer::Price).total_s());
        report.layer("online.policy.calls", whole_ref.policy.calls as f64);
        report.layer(
            "online.policy.candidates",
            whole_ref.policy.candidates as f64,
        );
        report.layer(
            "online.policy.candidates_max",
            whole_ref.policy.candidates_max as f64,
        );
        report.layer("metrics.sink_s", t(Layer::Metrics).total_s());
        report.layer("metrics.sink_calls", whole.sink_calls as f64);
        report.layer("metrics.windows", whole.windows as f64);
        report.layer("online.serve.ingest_s", t(Layer::Ingest).total_s());
        report.layer("online.serve.self_s", t(Layer::Serve).self_s());
        report.layer("online.serve.events", whole.events_sent as f64);
        report.layer("online.serve.bytes", input.whole_feed.bytes.len() as f64);
        report.layer("online.serve.day_hook_s", t(Layer::DayHook).total_s());
        report.layer("online.serve.wait_ms.p50", pct(&mut wait_ms, 0.5));
        report.layer("online.serve.wait_ms.p99", pct(&mut wait_ms, 0.99));
        report.layer("online.serve.decide_ms.p50", pct(&mut decide_ms, 0.5));
        report.layer("online.serve.decide_ms.p99", pct(&mut decide_ms, 0.99));
        report.layer("online.serve.send_lag_ms.p99", pct(&mut lags_ms, 0.99));
        report.layer("tsdb.record_s", t(Layer::TsdbRecord).self_s());
        report.layer("tsdb.finish_s", t(Layer::TsdbFinish).total_s());
        report.layer("tsdb.bytes", whole.tsdb_bytes as f64);
        report.layer("tsdb.series", whole.tsdb_series as f64);
        report.layer("wall.setup_s", median(&setup_s));
        report.layer("wall.tasks_per_s", median(&untraced_tps));
        report.layer("wall.calib_mops", median(&mops));
        report.tracing(&untraced_tps, &traced_tps);
    }
    let _ = fs::remove_dir_all(&dir);
    Ok(report)
}
