//! The result of one run, and the one-line JSON it is printed as.

use crate::spans::{self, Layer};

/// Every per-layer metric a traced run prints, with its unit. A layer
/// that is not on a workload's path reads 0.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("wall.setup_s", "s"),
    ("wall.tasks_per_s", "1/s"),
    ("wall.calib_mops", "Mops/s"),
    ("latency_p50_ms.lo", "ms"),
    ("latency_p50_ms.mid", "ms"),
    ("latency_p50_ms.hi", "ms"),
    ("latency_p99_ms.lo", "ms"),
    ("latency_p99_ms.mid", "ms"),
    ("latency_p99_ms.hi", "ms"),
    ("sustainable_rate", "1/s"),
    ("trace.generate_s", "s"),
    ("trace.trips", "count"),
    ("trace.rtb_encode_s", "s"),
    ("trace.rtb_bytes", "bytes"),
    ("trace.rtb_decode_s", "s"),
    ("trace.events", "count"),
    ("core.price_s", "s"),
    ("online.stream.push_s", "s"),
    ("online.stream.self_s", "s"),
    ("online.policy.calls", "count"),
    ("online.policy.candidates", "count"),
    ("online.policy.candidates_max", "count"),
    ("online.policy.choose_s", "s"),
    ("online.batch.rounds", "count"),
    ("online.batch.round_tasks", "count"),
    ("online.batch.round_candidates", "count"),
    ("online.batch.pairs", "count"),
    ("online.batch.match_s", "s"),
    ("metrics.sink_s", "s"),
    ("metrics.sink_calls", "count"),
    ("metrics.windows", "count"),
    ("online.shard.input_s", "s"),
    ("online.shard.sink_s", "s"),
    ("online.shard.self_s", "s"),
    ("online.shard.events.r0", "count"),
    ("online.shard.events.r1", "count"),
    ("online.serve.ingest_s", "s"),
    ("online.serve.self_s", "s"),
    ("online.serve.events", "count"),
    ("online.serve.bytes", "bytes"),
    ("online.serve.day_hook_s", "s"),
    ("online.serve.wait_ms.p50", "ms"),
    ("online.serve.wait_ms.p99", "ms"),
    ("online.serve.decide_ms.p50", "ms"),
    ("online.serve.decide_ms.p99", "ms"),
    ("online.serve.send_lag_ms.p99", "ms"),
    ("tsdb.record_s", "s"),
    ("tsdb.finish_s", "s"),
    ("tsdb.bytes", "bytes"),
    ("tsdb.series", "count"),
    ("tracing.wall_s", "s"),
    ("tracing.harness_s", "s"),
    ("tracing.overhead_pct", "%"),
];

/// The outcome of one run.
#[derive(Default, Debug)]
pub struct Report {
    /// Operations the run attempted and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// Problems found by the run's whole-output checks.
    pub problems: Vec<String>,
    /// End-to-end metrics: name, value, unit.
    pub metrics: Vec<(String, f64, String)>,
    /// Per-layer metrics of a traced run.
    pub layers: Vec<(String, f64)>,
}

impl Report {
    pub fn fail(&mut self, problem: String) {
        self.problems.push(problem);
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push((name.into(), value, unit.into()));
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.layers.push((name.into(), value));
    }

    /// The traced run's span totals: the time it traced, the benchmark's
    /// own share of it, and the cost of tracing as a share of the
    /// untraced throughput.
    pub fn tracing(&mut self, untraced_tps: &[f64], traced_tps: &[f64]) {
        let root = spans::of(Layer::Root);
        self.layer("tracing.wall_s", root.total_s());
        self.layer(
            "tracing.harness_s",
            root.self_s() + spans::of(Layer::Harness).self_s(),
        );
        let overhead = median(untraced_tps) / median(traced_tps) - 1.0;
        self.layer("tracing.overhead_pct", overhead * 100.0);
    }

    /// The JSON line the driver reads: end-to-end metrics, or with
    /// `traced` the per-layer ones.
    pub fn to_json(&self, traced: bool) -> String {
        let metrics: Vec<String> = if traced {
            PER_LAYER
                .iter()
                .map(|(name, unit)| {
                    let value = self
                        .layers
                        .iter()
                        .find(|(n, _)| n == name)
                        .map_or(0.0, |(_, v)| *v);
                    entry(name, value, unit)
                })
                .collect()
        } else {
            self.metrics
                .iter()
                .map(|(name, value, unit)| entry(name, *value, unit))
                .collect()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn entry(name: &str, value: f64, unit: &str) -> String {
    // `{:?}` prints the shortest representation that reads back exactly.
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank `q`-quantile of ascending `sorted` values.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The span table of a traced run, for standard error: per layer the
/// calls, inclusive and self seconds, and self time as a share of the
/// traced wall time. The self times add up to the wall time.
pub fn span_table() -> String {
    let wall = spans::of(Layer::Root).total_s();
    let mut out = format!(
        "{:<24} {:>10} {:>10} {:>10} {:>7}\n",
        "span", "calls", "total_s", "self_s", "self%"
    );
    let mut sum = 0.0;
    for (layer, t) in spans::totals() {
        if t.calls == 0 {
            continue;
        }
        sum += t.self_s();
        out += &format!(
            "{:<24} {:>10} {:>10.4} {:>10.4} {:>6.1}%\n",
            layer.name(),
            t.calls,
            t.total_s(),
            t.self_s(),
            100.0 * t.self_s() / wall
        );
    }
    out += &format!(
        "{:<24} {:>10} {:>10.4} {:>10.4}\n",
        "sum of self", "", wall, sum
    );
    out
}
