//! Output checks, computed apart from the program or from properties the
//! method must have.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rideshare_core::{lp_upper_bound, Driver, Market, Objective, Task, UpperBoundOptions};
use rideshare_online::{
    market_events, replay_sharded, replay_stream, validate_online_result, BoxPartitioner,
    CollectingSink, DispatchEvent, ShardOptions, ShardPolicySpec, StreamOptions, StreamSink,
};
use rideshare_types::{TaskId, Timestamp};

use crate::input::{build_options, Workload};
use crate::spans::{span, Layer};

/// One decision as the sink saw it: the task and its dispatch, if any.
pub type Decision = (TaskId, Option<DispatchEvent>);

/// Set on a task whose decision broke a check.
const BAD: u8 = 0x80;

/// The first sink every decision reaches. It checks each decision as it
/// arrives, counts decisions per task, sums the dispatch margins on its
/// own fixed-point grid, and forwards everything to `inner`.
pub struct Checker<S> {
    /// The sink decisions are forwarded to.
    pub inner: S,
    first_task: u32,
    /// Per task: decisions seen, or [`BAD`].
    seen: Vec<u8>,
    /// Σ round(margin · 2⁴⁰) over dispatches.
    pub margin_raw: i128,
    pub served: usize,
    /// Every decision in arrival order, when kept.
    pub log: Option<Vec<Decision>>,
    /// When each task's decision arrived, when kept.
    pub stamps: Option<Vec<Option<Instant>>>,
    /// Drivers announced plus decisions seen, for other threads to watch.
    pub progress: Arc<AtomicUsize>,
}

impl<S: StreamSink> Checker<S> {
    /// A checker expecting exactly one decision for each of the `tasks`
    /// orders with ids `first_task..first_task + tasks`.
    pub fn new(inner: S, first_task: u32, tasks: usize) -> Self {
        Self {
            inner,
            first_task,
            seen: vec![0; tasks],
            margin_raw: 0,
            served: 0,
            log: None,
            stamps: None,
            progress: Arc::default(),
        }
    }

    pub fn keep_log(mut self) -> Self {
        self.log = Some(Vec::with_capacity(self.seen.len()));
        self
    }

    pub fn keep_stamps(mut self) -> Self {
        self.stamps = Some(vec![None; self.seen.len()]);
        self
    }

    /// Orders that did not get exactly one decision, or whose decision
    /// broke a check.
    pub fn failed(&self) -> u64 {
        self.seen.iter().filter(|&&s| s != 1).count() as u64
    }

    fn decide(&mut self, task: &Task, ok: bool, event: Option<DispatchEvent>) {
        let now = self.stamps.as_ref().map(|_| Instant::now());
        let Some(j) = task
            .id
            .raw()
            .checked_sub(self.first_task)
            .map(|j| j as usize)
            .filter(|&j| j < self.seen.len())
        else {
            // A decision for an order that was never sent.
            self.seen.iter_mut().for_each(|s| *s |= BAD);
            return;
        };
        self.seen[j] = if ok {
            self.seen[j].saturating_add(1)
        } else {
            BAD
        };
        if let (Some(stamps), Some(now)) = (self.stamps.as_mut(), now) {
            stamps[j].get_or_insert(now);
        }
        if let Some(log) = self.log.as_mut() {
            log.push((task.id, event));
        }
        self.progress.fetch_add(1, Ordering::Release);
    }
}

/// Eq. 14's margin on the accumulator grid the checker keeps.
fn fixed(x: f64) -> i128 {
    (x * (1u64 << 40) as f64).round() as i128
}

impl<S: StreamSink> StreamSink for Checker<S> {
    fn driver_online(&mut self, driver: &Driver) {
        span(Layer::Harness, || {
            self.inner.driver_online(driver);
            self.progress.fetch_add(1, Ordering::Release);
        });
    }

    fn dispatched(&mut self, task: &Task, event: &DispatchEvent) {
        span(Layer::Harness, || {
            let ok = event.task == task.id
                && event.decision_time >= task.publish_time
                && event.arrival <= task.pickup_deadline
                && event.wait == event.arrival - task.publish_time
                && event.margin.is_finite();
            self.decide(task, ok, Some(*event));
            self.margin_raw += fixed(event.margin);
            self.served += 1;
            self.inner.dispatched(task, event);
        });
    }

    fn rejected(&mut self, task: &Task, decision_time: Timestamp) {
        span(Layer::Harness, || {
            self.decide(task, decision_time >= task.publish_time, None);
            self.inner.rejected(task, decision_time);
        });
    }

    fn window_closed(&mut self, end: Timestamp) {
        span(Layer::Harness, || self.inner.window_closed(end));
    }
}

/// Orders in the materialised slice each workload is checked on, and the
/// fewest drivers it gets (sparse's ratio would leave it one).
const SLICE_TASKS: usize = 240;
const SLICE_MIN_DRIVERS: usize = 8;

/// Replays a small materialised slice of the workload's generator with
/// its policy, and checks the result against the validator, Eq. 4 and
/// the `Z_f*` bound. Returns the first problem found.
pub fn slice_check(workload: Workload, seed: u64) -> Result<(), String> {
    let (tasks, drivers, _) = workload.shape();
    let slice_drivers = (SLICE_TASKS * drivers)
        .div_ceil(tasks)
        .max(SLICE_MIN_DRIVERS);
    let config = workload.config_sized(seed, SLICE_TASKS, slice_drivers);
    let market = Market::from_trace(&config.stream().collect_trace(), &build_options());
    let options = StreamOptions::default().grid(config.bounding_box());
    let spec = match workload {
        Workload::Batched => crate::replay::batch_spec(),
        _ => ShardPolicySpec::MaxMargin,
    };
    let mut sink = CollectingSink::new();
    if workload == Workload::Regions {
        let partitioner = BoxPartitioner::new(config.region_boxes());
        replay_sharded(
            market.speed(),
            market_events(&market),
            spec,
            &partitioner,
            ShardOptions::new(config.region_count()).stream(options),
            &mut sink,
        );
    } else {
        let mut holder = spec.holder();
        replay_stream(
            market.speed(),
            market_events(&market),
            &mut holder.as_policy(),
            options,
            &mut sink,
        );
    }
    let result = sink.into_result();
    validate_online_result(&market, &result).map_err(|e| format!("slice: {e}"))?;
    if result.served == 0 {
        return Err("slice: nothing served, the check would be empty".into());
    }
    let margins: f64 = result.events.iter().map(|e| e.margin).sum();
    let profit = result
        .assignment
        .objective_value(&market, Objective::Profit)
        .as_f64();
    let tol = 1e-9 * profit.abs().max(1.0);
    if (margins - profit).abs() > tol {
        return Err(format!(
            "slice: Σ margins {margins} differs from the Eq. 4 profit {profit}"
        ));
    }
    let bound = lp_upper_bound(&market, Objective::Profit, UpperBoundOptions::default())
        .map_err(|e| format!("slice: Z_f*: {e}"))?;
    if profit > bound.bound + tol {
        return Err(format!(
            "slice: online profit {profit} exceeds Z_f* {}",
            bound.bound
        ));
    }
    Ok(())
}
