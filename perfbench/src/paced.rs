//! Open-loop load: orders sent on a fixed schedule whatever the system
//! does, the latency of each decision timed from when its order became
//! decidable, and the rate ladder that finds the highest sustainable rate.

use std::time::{Duration, Instant};

use rideshare_online::StreamEvent;
use rideshare_types::{TimeDelta, Timestamp};

use crate::report::{median, quantile};

/// The fixed rates and latency limit of one workload, in orders per
/// second and milliseconds.
#[derive(Clone, Copy, Debug)]
pub struct Load {
    /// Orders in the slice each paced pass sends.
    pub slice_tasks: usize,
    pub lo: f64,
    pub mid: f64,
    pub hi: f64,
    /// The ladder's rungs are `base · step^k` for `k < rungs`.
    pub base: f64,
    pub step: f64,
    pub rungs: usize,
    /// The p99 latency limit a sustainable rung must meet.
    pub limit_ms: f64,
}

impl Load {
    pub fn rung(&self, k: usize) -> f64 {
        self.base * self.step.powi(k as i32)
    }
}

/// The orders a paced pass sends: a warm-up that brings the daemon to the
/// state it has at the slice's start, then the measured orders, all in
/// publish order with contiguous ids, every driver of the day announced
/// first.
pub struct Slice {
    pub drivers: Vec<StreamEvent>,
    /// Warm-up orders first, then measured ones.
    pub tasks: Vec<StreamEvent>,
    /// How many of `tasks` are warm-up, sent at once before the schedule.
    pub warmup: usize,
    /// `decidable[j]`: the order whose send closes order `j`'s hold, so
    /// that `j` can be decided once it is due; see [`Slice::watermark`].
    pub decidable: Vec<usize>,
    pub first_task: u32,
}

/// Measured orders start at 08:00, the morning rush. The night before it
/// is the warm-up: about a tenth of the day's orders.
const MEASURED_FROM_SECS: i64 = 8 * 3600;

impl Slice {
    /// The whole day, measured from its first order, for instant dispatch.
    pub fn whole(events: impl IntoIterator<Item = StreamEvent>) -> Self {
        Self::cut(events, usize::MAX, i64::MIN, TimeDelta::from_secs(0))
    }

    /// The day up to 08:00 as warm-up, then up to `tasks` measured orders.
    pub fn rush(
        events: impl IntoIterator<Item = StreamEvent>,
        tasks: usize,
        hold: TimeDelta,
    ) -> Self {
        Self::cut(events, tasks, MEASURED_FROM_SECS, hold)
    }

    /// `hold` is the policy's batch window, zero for instant dispatch.
    fn cut(
        events: impl IntoIterator<Item = StreamEvent>,
        limit: usize,
        from_secs: i64,
        hold: TimeDelta,
    ) -> Self {
        let mut drivers = Vec::new();
        let mut tasks = Vec::new();
        let mut warmup = 0;
        for event in events {
            match event {
                StreamEvent::DriverOnline(_) => drivers.push(event),
                StreamEvent::TaskPublished(t) if t.publish_time.as_secs() < from_secs => {
                    tasks.push(event);
                    warmup += 1;
                }
                StreamEvent::TaskPublished(_) if tasks.len() - warmup < limit => {
                    tasks.push(event);
                }
                _ => {}
            }
        }
        let decidable = decidable(&tasks, hold);
        let first_task = match tasks.first() {
            Some(StreamEvent::TaskPublished(t)) => t.id.raw(),
            _ => 0,
        };
        Slice {
            drivers,
            tasks,
            warmup,
            decidable,
            first_task,
        }
    }

    /// Measured orders.
    pub fn measured(&self) -> usize {
        self.tasks.len() - self.warmup
    }

    /// Drivers announced plus warm-up orders decided, once the warm-up is
    /// over: the progress a pass waits for before its schedule starts.
    /// Warm-up orders whose hold reaches into the measured ones are left
    /// out; they cannot be decided before the schedule starts.
    pub fn warm_progress(&self) -> usize {
        let decided = self.decidable[..self.warmup]
            .iter()
            .filter(|&&k| k < self.warmup)
            .count();
        self.drivers.len() + decided
    }

    /// The watermark sent after order `j`, if it closes its publish group:
    /// `EpochTick(t + 1)`, strictly after the group and no later than the
    /// next group, which publishes at `t + 1` or later.
    pub fn watermark(&self, j: usize) -> Option<StreamEvent> {
        closes_group(&self.tasks, j).then(|| {
            let t = self.tasks[j].timestamp().expect("orders carry a timestamp");
            StreamEvent::EpochTick(t + TimeDelta::from_secs(1))
        })
    }
}

/// For each order, the order whose send closes its hold. Orders are held
/// from the first undecided order's publish time `p` through `p + hold`
/// (through `p` itself for instant dispatch); the hold closes at the first
/// event past its end: an order published later, or the watermark sent
/// with the last order of a group. Orders still held when the feed ends
/// close with its last order.
fn decidable(tasks: &[StreamEvent], hold: TimeDelta) -> Vec<usize> {
    let mut out = vec![tasks.len().saturating_sub(1); tasks.len()];
    let mut open: Option<(usize, Timestamp)> = None;
    for j in 0..tasks.len() {
        let t = tasks[j].timestamp().expect("orders carry a timestamp");
        if let Some((first, end)) = open {
            if t > end {
                out[first..j].fill(j);
                open = None;
            }
        }
        let (first, end) = *open.get_or_insert((j, t + hold));
        if closes_group(tasks, j) && t + TimeDelta::from_secs(1) > end {
            out[first..=j].fill(j);
            open = None;
        }
    }
    out
}

/// Whether order `j` is the last of its publish group.
fn closes_group(tasks: &[StreamEvent], j: usize) -> bool {
    tasks.get(j + 1).and_then(StreamEvent::timestamp) != tasks[j].timestamp()
}

/// When measured order `j` is due at `rate` orders per second.
pub fn due(start: Instant, j: usize, rate: f64) -> Instant {
    start + Duration::from_secs_f64(j as f64 / rate)
}

/// Waits until `at`: sleeps while far from it, then spins.
pub fn wait_until(at: Instant) {
    loop {
        let now = Instant::now();
        if now >= at {
            return;
        }
        let left = at - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Per-order latencies of one paced pass: from when the order whose send
/// made it decidable was due to the decision's first sink callback.
pub fn latencies_ms(
    slice: &Slice,
    start: Instant,
    rate: f64,
    stamps: &[Option<Instant>],
) -> Result<Vec<f64>, String> {
    stamps
        .iter()
        .enumerate()
        .skip(slice.warmup)
        .map(|(j, stamp)| {
            let decided = stamp.ok_or_else(|| format!("order {j} of the slice was not decided"))?;
            let due = due(start, slice.decidable[j] - slice.warmup, rate);
            Ok(decided.saturating_duration_since(due).as_secs_f64() * 1e3)
        })
        .collect()
}

/// Whether a rung is sustainable: p99 within the limit, and no backlog
/// left when the feed ends (the last order decided within the limit).
pub fn sustainable(latencies: &[f64], limit_ms: f64) -> bool {
    let mut sorted = latencies.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.99) <= limit_ms && latencies.last().is_some_and(|&l| l <= limit_ms)
}

/// Binary search for the highest sustainable rung. `probe(rate)` runs one
/// paced pass and returns its latencies. Rung 0 is taken as sustainable
/// without a probe; the top rung is probed like any other.
pub fn ladder(
    load: &Load,
    mut probe: impl FnMut(f64) -> Result<Vec<f64>, String>,
) -> Result<f64, String> {
    let (mut good, mut bad) = (0usize, load.rungs);
    while bad - good > 1 {
        let mid = (good + bad) / 2;
        let rate = load.rung(mid);
        if sustainable(&probe(rate)?, load.limit_ms) {
            good = mid;
        } else {
            bad = mid;
        }
    }
    Ok(load.rung(good))
}

/// Latency at the three fixed rates, and the sustainable rate.
pub struct LoadFigures {
    /// `(p50, p99)` in ms at `lo`, `mid` and `hi`.
    pub at: [(f64, f64); 3],
    pub sustainable: f64,
}

/// Runs rounds of paced passes at `lo`, `mid` and `hi` until `until`
/// (at least one round), pooling each rate's latencies, then climbs the
/// ladder.
pub fn measure(
    load: &Load,
    until: Instant,
    mut probe: impl FnMut(f64) -> Result<Vec<f64>, String>,
) -> Result<LoadFigures, String> {
    let rates = [load.lo, load.mid, load.hi];
    let mut pooled: [Vec<f64>; 3] = Default::default();
    loop {
        for (samples, &rate) in pooled.iter_mut().zip(&rates) {
            let mut l = probe(rate)?;
            samples.append(&mut l);
        }
        if Instant::now() >= until {
            break;
        }
    }
    let at = pooled.map(|mut samples| {
        samples.sort_by(f64::total_cmp);
        (median(&samples), quantile(&samples, 0.99))
    });
    let sustainable = ladder(load, probe)?;
    Ok(LoadFigures { at, sustainable })
}

impl LoadFigures {
    /// Adds the latency and sustainable-rate metrics to `report`.
    pub fn report(&self, report: &mut crate::report::Report) {
        for ((p50, p99), level) in self.at.iter().zip(["lo", "mid", "hi"]) {
            report.layer(&format!("latency_p50_ms.{level}"), *p50);
            report.layer(&format!("latency_p99_ms.{level}"), *p99);
        }
        report.layer("sustainable_rate", self.sustainable);
    }
}
