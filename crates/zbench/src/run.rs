//! One run of one workload: the untraced end-to-end run or the traced
//! per-layer run.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use zmsq::{ShardedConfig, ShardedZmsq, Zmsq, ZmsqConfig};

use crate::bench::{Bench, Check, Phase, Scale};
use crate::closed::Closed;
use crate::jobs::Jobs;
use crate::metrics::{self, Metric};
use crate::sssp::Sssp;
use crate::{alloc, micro, trace};

/// The workloads, by the names `--workload` takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop on the default `Zmsq<u64>`.
    Mixed,
    /// Parallel SSSP on the default `Zmsq<u32>`, SSSP-tuned.
    Sssp,
    /// Job service at the low rate: every job parks and wakes the consumer.
    JobsLo,
    /// Job service at the high rate: a shallow tree and a near-empty pool.
    JobsHi,
    /// Closed loop on the tuned `ShardedZmsq<u64>`.
    Sharded,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 5] = [
        Workload::Mixed,
        Workload::Sssp,
        Workload::JobsLo,
        Workload::JobsHi,
        Workload::Sharded,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mixed => "mixed",
            Workload::Sssp => "sssp",
            Workload::JobsLo => "jobs-lo",
            Workload::JobsHi => "jobs-hi",
            Workload::Sharded => "sharded",
        }
    }

    /// Parse a `--workload` argument.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Arrival rates of the job workloads, per second.
pub const JOBS_LO_RATE: f64 = 50_000.0;
pub const JOBS_HI_RATE: f64 = 150_000.0;

/// The queue configuration every workload starts from, with the queue's
/// rank and sojourn telemetry on (the default) or off.
fn config(base: ZmsqConfig, telemetry: bool) -> ZmsqConfig {
    if telemetry {
        base
    } else {
        base.no_rank_estimator().no_sojourn()
    }
}

fn mixed_queue(telemetry: bool) -> Zmsq<u64> {
    Zmsq::with_config(config(ZmsqConfig::recommended(), telemetry))
}

fn sharded_queue(telemetry: bool) -> ShardedZmsq<u64> {
    let cfg = ZmsqConfig::recommended().batch(16).adaptive_batch(4, 64);
    let tuning = ShardedConfig::new().insert_buffer(64).delete_buffer(64);
    ShardedZmsq::with_tuning(2, config(cfg, telemetry), tuning)
}

fn sssp_queue(telemetry: bool) -> Zmsq<u32> {
    Zmsq::with_config(config(ZmsqConfig::sssp_tuned(), telemetry))
}

fn jobs_queue(telemetry: bool) -> Zmsq<u64> {
    Zmsq::with_config(config(ZmsqConfig::recommended().blocking(true), telemetry))
}

/// What one run was asked to do.
#[derive(Clone, Debug)]
pub struct Opts {
    /// The workload.
    pub workload: Workload,
    /// Seed of every input.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: Duration,
    /// Traced per-layer run instead of the end-to-end run.
    pub trace: bool,
    /// Sizes.
    pub scale: Scale,
}

/// The workload `opts` names, over the queues users get from the public
/// constructors.
pub fn bench_for(opts: &Opts) -> Box<dyn Bench> {
    let (seed, scale) = (opts.seed, opts.scale.clone());
    // The jobs schedule must cover the longest phase of either run.
    let span = opts.seconds.max(scale.quality_time).max(scale.obs_phase);
    match opts.workload {
        Workload::Mixed => Box::new(Closed::new(mixed_queue, seed, scale)),
        Workload::Sharded => Box::new(Closed::new(sharded_queue, seed, scale)),
        Workload::Sssp => Box::new(Sssp::new(sssp_queue, seed, scale)),
        Workload::JobsLo => Box::new(Jobs::new(jobs_queue, seed, scale, JOBS_LO_RATE, span)),
        Workload::JobsHi => Box::new(Jobs::new(jobs_queue, seed, scale, JOBS_HI_RATE, span)),
    }
}

/// Everything a run reports.
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Output checks over the whole run.
    pub check: Check,
    /// The run's metrics.
    pub metrics: Vec<Metric>,
    /// Identity of the generated inputs.
    pub fingerprint: Vec<(&'static str, u64)>,
    /// The traced phase's kept spans as JSON (traced runs only).
    pub spans_json: Option<String>,
}

impl Report {
    /// Whether every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.check.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    fn metrics_json(&self) -> String {
        let mut s = String::from("{");
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                s,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i > 0 { ", " } else { "" },
                m.name,
                json_num(m.value),
                m.unit
            );
        }
        s.push('}');
        s
    }

    /// The one-line result the benchmark prints last.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.check.attempted.max(1),
            self.check.failed,
            self.metrics_json()
        )
    }

    /// The run record `--out` writes and `compare` reads.
    pub fn run_json(&self) -> String {
        let mut fp = String::from("{");
        for (i, (k, v)) in self.fingerprint.iter().enumerate() {
            let _ = write!(fp, "{}\"{k}\": {v}", if i > 0 { ", " } else { "" });
        }
        fp.push('}');
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"fingerprint\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}\n",
            self.workload,
            self.seed,
            self.trace,
            fp,
            self.correct(),
            self.check.attempted.max(1),
            self.check.failed,
            self.metrics_json()
        )
    }
}

/// JSON has no NaN or infinity; those become `null` (and fail `correct`).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Run the workload `opts` names.
pub fn run(opts: &Opts) -> Report {
    let mut bench = bench_for(opts);
    run_bench(bench.as_mut(), opts)
}

/// Run `bench` as `opts` asks.
pub fn run_bench(b: &mut dyn Bench, opts: &Opts) -> Report {
    if opts.trace {
        traced(b, opts)
    } else {
        end_to_end(b, opts)
    }
}

/// Set-ups per run at most (see [`Scale::setup_time`]).
const MAX_SETUPS: usize = 15;

/// Set up several times (reporting the median), take the rank round,
/// warm up, then measure with tracing off.
fn end_to_end(b: &mut dyn Bench, opts: &Opts) -> Report {
    let s = &opts.scale;
    let mut setup = Vec::new();
    while setup.len() < s.setup_reps.max(1)
        || (setup.iter().sum::<f64>() < s.setup_time.as_secs_f64() && setup.len() < MAX_SETUPS)
    {
        let t = Instant::now();
        b.setup();
        setup.push(t.elapsed().as_secs_f64());
    }
    let fingerprint = b.fingerprint();
    let quality = b.quality();
    let warm = b.measure(s.warmup, false);
    let main = b.measure(opts.seconds, false);
    let check = quality
        .check
        .plus(warm.check)
        .plus(main.check)
        .plus(b.verify());
    Report {
        workload: opts.workload.name(),
        seed: opts.seed,
        trace: false,
        check,
        metrics: metrics::end_to_end(&setup, &main, &quality),
        fingerprint,
        spans_json: None,
    }
}

/// Slices of the traced run's measured time, alternating untraced and
/// traced so drift on the host hits both alike.
const TRACE_SLICES: u32 = 4;
/// Alternating telemetry-off and telemetry-on phases.
const TELEMETRY_PHASES: usize = 6;

/// The per-layer run: the measured time split into alternating untraced
/// and traced slices (the traced ones with the allocator counting), then
/// alternating telemetry-off and telemetry-on phases on fresh queues, then
/// the micro-benchmarks.
fn traced(b: &mut dyn Bench, opts: &Opts) -> Report {
    let s = &opts.scale;
    b.setup();
    let fingerprint = b.fingerprint();
    let quality = b.quality();
    let bytes_per_elem = b.bytes_per_elem(s.prefill);
    let mut check = quality.check.plus(b.measure(s.warmup, false).check);
    let (mut plain, mut traced) = (Phase::default(), Phase::default());
    for i in 0..TRACE_SLICES {
        let on = i % 2 == 1;
        alloc::set_counting(on);
        let p = b.measure(opts.seconds / TRACE_SLICES, on);
        alloc::set_counting(false);
        if on { &mut traced } else { &mut plain }.absorb(p);
    }
    check = check.plus(plain.check).plus(traced.check).plus(b.verify());

    let (mut on, mut off) = (Vec::new(), Vec::new());
    for i in 0..TELEMETRY_PHASES {
        let telemetry = i % 2 == 1;
        b.rebuild(telemetry);
        let p = b.measure(s.obs_phase, false);
        check = check.plus(p.check).plus(b.verify());
        if telemetry { &mut on } else { &mut off }.push(p.cpu_per_request());
    }

    let mut micro = micro::sets(s.micro_reps);
    micro.extend(micro::substrate(s.micro_reps as u64 * 100));
    let totals = trace::layer_totals(&traced.tracers);
    let unattributed = totals.share(totals.unattributed);
    if unattributed > 0.05 {
        eprintln!(
            "trace: {:.1}% of worker time is outside every span (limit 5%)",
            unattributed * 100.0
        );
    }
    let spans_json = Some(trace::spans_json(&traced.tracers));
    let metrics = metrics::per_layer(metrics::LayerInputs {
        traced: &traced,
        plain: &plain,
        quality: &quality,
        telemetry_on: &on,
        telemetry_off: &off,
        bytes_per_elem,
        micro,
    });
    Report {
        workload: opts.workload.name(),
        seed: opts.seed,
        trace: true,
        check,
        metrics,
        fingerprint,
        spans_json,
    }
}
