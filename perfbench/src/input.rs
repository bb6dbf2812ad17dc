//! Workload inputs: the generated market of each workload, and the set-up
//! every fresh replay pays — generate the day, price it, encode it.

use std::io;

use rideshare_core::{Driver, MarketBuildOptions, StreamPricer};
use rideshare_geo::{BoundingBox, SpeedModel};
use rideshare_online::{event_to_wire, StreamEvent};
use rideshare_trace::wire::{encode_frame, WireEvent};
use rideshare_trace::{rtb, DriverModel, TraceConfig, TraceStream};
use rideshare_types::TimeDelta;

use crate::paced::{Load, Slice};
use crate::spans::{span, Layer};

/// One benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Sparse,
    PaperRatio,
    Batched,
    Regions,
    ServeTcp,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Sparse,
        Workload::PaperRatio,
        Workload::Batched,
        Workload::Regions,
        Workload::ServeTcp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Sparse => "sparse",
            Workload::PaperRatio => "paper-ratio",
            Workload::Batched => "batched",
            Workload::Regions => "regions",
            Workload::ServeTcp => "serve-tcp",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `(tasks, drivers, regions)` of the workload's day.
    pub fn shape(self) -> (usize, usize, usize) {
        match self {
            // bench7's canonical day, region geometry included, so that
            // its sequential `.rtb` figure is comparable.
            Workload::Sparse => (1_000_000, 450, 4),
            Workload::PaperRatio => (50_000, 6_250, 1),
            Workload::Batched => (25_000, 3_125, 1),
            Workload::Regions => (100_000, 12_500, 2),
            Workload::ServeTcp => (50_000, 6_250, 1),
        }
    }

    /// The workload's trace generator at `tasks` tasks and `drivers`
    /// drivers (its own shape, or a small slice of it).
    pub fn config_sized(self, seed: u64, tasks: usize, drivers: usize) -> TraceConfig {
        TraceConfig::porto()
            .with_seed(seed)
            .with_task_count(tasks)
            .with_driver_count(drivers, DriverModel::Hitchhiking)
            .with_regions(self.shape().2)
    }

    /// The workload's open-loop load: slice size, fixed rates, ladder and
    /// latency limit. The rates are absolute, so a faster program climbs
    /// higher on the same ladder.
    pub fn load(self) -> Load {
        let (slice_tasks, [lo, mid, hi], base, limit_ms) = match self {
            Workload::Sparse => (200_000, [100e3, 250e3, 400e3], 100e3, 2.0),
            Workload::PaperRatio => (4_000, [4e3, 10e3, 20e3], 2e3, 10.0),
            Workload::Batched => (4_000, [2e3, 5e3, 8e3], 2e3, 20.0),
            Workload::Regions => (8_000, [4e3, 8e3, 12e3], 4e3, 10.0),
            Workload::ServeTcp => (8_000, [2e3, 8e3, 16e3], 2e3, 10.0),
        };
        Load {
            slice_tasks,
            lo,
            mid,
            hi,
            base,
            step: 1.1,
            rungs: 46,
            limit_ms,
        }
    }

    pub fn config(self, seed: u64) -> TraceConfig {
        let (tasks, drivers, _) = self.shape();
        self.config_sized(seed, tasks, drivers)
    }
}

/// Pricing options shared by every workload: `rideshare replay`'s
/// rolling 30-minute surge window.
pub fn build_options() -> MarketBuildOptions {
    MarketBuildOptions {
        surge_window: Some(TimeDelta::from_mins(30)),
        ..MarketBuildOptions::default()
    }
}

/// The service geometry a replay needs besides its events.
#[derive(Clone, Debug)]
pub struct Geometry {
    pub speed: SpeedModel,
    pub bbox: BoundingBox,
    pub region_boxes: Vec<BoundingBox>,
    pub tasks: usize,
}

/// Runs the lazy generate → price pipeline, handing every event (all
/// shifts first, then the priced orders in publish order) to `emit`.
pub fn generate(
    config: &TraceConfig,
    mut emit: impl FnMut(StreamEvent) -> io::Result<()>,
) -> io::Result<Geometry> {
    let mut stream: TraceStream = span(Layer::Generate, || config.stream());
    let geometry = Geometry {
        speed: stream.speed(),
        bbox: stream.bounding_box(),
        region_boxes: config.region_boxes(),
        tasks: stream.task_count(),
    };
    let mut pricer = span(Layer::Price, || {
        StreamPricer::new(
            &build_options(),
            geometry.bbox,
            geometry.speed,
            stream.drivers(),
        )
    });
    for shift in stream.drivers() {
        emit(StreamEvent::DriverOnline(Driver::from(shift)))?;
    }
    while let Some(trip) = span(Layer::Generate, || stream.next()) {
        let task = span(Layer::Price, || pricer.price(&trip));
        emit(StreamEvent::TaskPublished(task))?;
    }
    Ok(geometry)
}

/// A generated day encoded as in-memory `.rtb` bytes.
pub struct RtbInput {
    pub geometry: Geometry,
    pub bytes: Vec<u8>,
    /// Events written, end-of-stream excluded.
    pub events: u64,
    /// Digest of the generated events, to check the decode against.
    pub digest: u64,
}

/// Set-up of the replay workloads: generate, price and encode the day.
pub fn rtb_setup(config: &TraceConfig) -> io::Result<RtbInput> {
    let mut writer = rtb::RtbWriter::new(Vec::new())?;
    let mut digest = Digest::default();
    let geometry = generate(config, |event| {
        digest.add(&event);
        span(Layer::Encode, || writer.write_event(&event_to_wire(&event)))
    })?;
    let (bytes, events) = span(Layer::Encode, || writer.finish())?;
    Ok(RtbInput {
        geometry,
        bytes,
        events,
        digest: digest.0,
    })
}

/// A 64-bit FNV-1a digest over every field of a sequence of events,
/// computed from the events themselves rather than from any encoding.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn add(&mut self, event: &StreamEvent) {
        match event {
            StreamEvent::DriverOnline(d) => {
                self.word(1);
                self.word(u64::from(d.id.raw()));
                for p in [d.source, d.destination] {
                    self.word(p.lat().to_bits());
                    self.word(p.lon().to_bits());
                }
                self.word(d.shift_start.as_secs() as u64);
                self.word(d.shift_end.as_secs() as u64);
                self.word(d.model as u64);
            }
            StreamEvent::TaskPublished(t) => {
                self.word(2);
                self.word(u64::from(t.id.raw()));
                for p in [t.origin, t.destination] {
                    self.word(p.lat().to_bits());
                    self.word(p.lon().to_bits());
                }
                for at in [t.publish_time, t.pickup_deadline, t.completion_deadline] {
                    self.word(at.as_secs() as u64);
                }
                self.word(t.duration.as_secs() as u64);
                for m in [t.price, t.valuation, t.service_cost] {
                    self.word(m.as_f64().to_bits());
                }
            }
            StreamEvent::DriverOffline(id) => {
                self.word(3);
                self.word(u64::from(id.raw()));
            }
            StreamEvent::EpochTick(at) => {
                self.word(4);
                self.word(at.as_secs() as u64);
            }
        }
    }
}

/// A slice encoded as the serve daemon's length-prefixed frames, with a
/// watermark after every publish group.
pub struct Feed {
    pub bytes: Vec<u8>,
    /// End of the drivers and the warm-up orders, sent before the schedule.
    pub prelude_end: usize,
    /// `task_end[j]`: end of order `j`'s frame, and of the watermark after
    /// it when it closes its publish group.
    pub task_end: Vec<usize>,
    /// `closing_event[j]`: the feed position of the watermark after order
    /// `j`, if it closes its publish group.
    pub closing_event: Vec<Option<usize>>,
    /// Events in the feed, watermarks included, end-of-stream excluded.
    pub events: usize,
}

/// Encodes `slice` as frames: the drivers, then each order followed by
/// the slice's watermark when it closes its group, then end-of-stream.
pub fn encode_feed(slice: &Slice) -> Feed {
    let mut bytes = Vec::new();
    let frame = |bytes: &mut Vec<u8>, event: &StreamEvent| {
        span(Layer::Encode, || {
            bytes.extend_from_slice(&encode_frame(&event_to_wire(event)));
        });
    };
    for d in &slice.drivers {
        frame(&mut bytes, d);
    }
    let drivers_end = bytes.len();
    let mut events = slice.drivers.len();
    let mut task_end = Vec::with_capacity(slice.tasks.len());
    let mut closing_event = Vec::with_capacity(slice.tasks.len());
    for (j, order) in slice.tasks.iter().enumerate() {
        frame(&mut bytes, order);
        events += 1;
        closing_event.push(slice.watermark(j).map(|tick| {
            frame(&mut bytes, &tick);
            events += 1;
            events - 1
        }));
        task_end.push(bytes.len());
    }
    let prelude_end = match slice.warmup {
        0 => drivers_end,
        w => task_end[w - 1],
    };
    bytes.extend_from_slice(&encode_frame(&WireEvent::Eos));
    Feed {
        bytes,
        prelude_end,
        task_end,
        closing_event,
        events,
    }
}
