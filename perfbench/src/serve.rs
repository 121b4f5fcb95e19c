//! The benchmark's own open-loop submitter and the serving stage.
//!
//! Arrivals come from a constant-rate `TraceGen` trace (no diurnal
//! swing). The submitter thread submits each arrival at its due instant
//! and a collector thread resolves the pendings in submission order;
//! latency runs from the *due* instant to the moment the collector sees
//! the response, so generator lateness and stalls count against the
//! system. Samples are kept raw — no histogram buckets.

use crate::environ::StealWindows;
use crate::stats::{calmest, mean, quantile};
use crate::train::{TrainJob, TrainSize};
use mamdr_load::{TraceConfig, TraceGen};
use mamdr_models::FeatureConfig;
use mamdr_models::ModelKind;
use mamdr_obs::{MetricsRegistry, Tracer};
use mamdr_serve::{
    BatchPolicy, ModelSpec, ReplicatedServer, ScoreRequest, ServeConfig, ServeResult,
    ServingSnapshot, SloClass, SubmitError,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Steady-phase offered rate (requests per second).
pub const STEADY_RPS: f64 = 20_000.0;
/// Overload-phase offered rate: above what one submitter thread can
/// admit, so the phase runs saturated and its scored rate is the serving
/// tier's capacity with the load side's two threads beside it.
pub const OVERLOAD_RPS: f64 = 600_000.0;
/// Admission bound of the steady pool: 0.4 s of arrivals at
/// [`STEADY_RPS`], so a stall sheds nothing and shows as latency instead.
const STEADY_QUEUE_CAP: usize = 8192;
/// Admission bounds of the overload pool (all requests, bulk requests):
/// at the pool's capacity a full queue waits a few milliseconds, well
/// inside [`INTERACTIVE_DEADLINE`], so overload is met by shedding at
/// admission and deadlines expire only on stalls.
const OVERLOAD_QUEUE_CAP: usize = 1024;
const OVERLOAD_BULK_CAP: usize = 256;
/// Interactive deadline of the overload phase (the steady phase sets
/// none: a late steady request is scored and counted as latency).
const INTERACTIVE_DEADLINE: Duration = Duration::from_millis(20);
/// Pendings the collector may lag behind the submitter before the
/// submitter waits. Each holds a reply channel, so the bound also keeps
/// the load side's memory from depending on how far the collector lags.
const COLLECT_CAP: usize = 2048;
/// Every this many admitted requests, one is kept for the score check.
const SAMPLE_EVERY: u64 = 97;
/// Throughput is counted per window of this length.
pub const WINDOW: Duration = Duration::from_millis(100);
/// A submission later than this after its due instant counts as late.
pub const LATE_US: f64 = 100.0;

/// A constant-rate trace over the feature space of `fc`.
pub fn trace(seed: u64, rate: f64, secs: f64, fc: &FeatureConfig, n_domains: usize) -> TraceGen {
    let mut cfg = TraceConfig::new(seed, rate, secs);
    cfg.diurnal_amplitude = 0.0;
    cfg.n_domains = n_domains;
    cfg.n_users = fc.n_users as u32;
    cfg.n_items = fc.n_items as u32;
    cfg.n_user_groups = fc.n_user_groups.max(1) as u32;
    cfg.n_item_cats = fc.n_item_cats.max(1) as u32;
    TraceGen::new(cfg)
}

/// Everything one open-loop phase observed.
#[derive(Default)]
pub struct OpenLoop {
    pub submitted: u64,
    pub scored: u64,
    pub shed: u64,
    pub rejected: u64,
    pub closed: u64,
    pub deadline: u64,
    pub invalid: u64,
    /// `(steal share of the window it was due in, due instant → response
    /// in microseconds)` per scored request.
    pub latency_us: Vec<(f64, f64)>,
    /// Submission instant − due instant, microseconds, per submission.
    pub lag_us: Vec<f64>,
    /// Summed seconds spent inside `submit_class`.
    pub submit_s: f64,
    /// Responses scored in each [`WINDOW`] since the phase started.
    pub scored_per_window: Vec<u64>,
    /// The system's steal share in each [`WINDOW`] of the phase.
    pub steal: Vec<f64>,
    /// `(request, serving version, score)` of every sampled response.
    pub samples: Vec<(ScoreRequest, u64, f32)>,
}

impl OpenLoop {
    /// Requests that were submitted but not scored.
    pub fn failed(&self) -> u64 {
        self.submitted - self.scored
    }

    /// `submitted = scored + shed + rejected + closed + deadline + invalid`.
    pub fn accounting_ok(&self) -> bool {
        self.submitted
            == self.scored + self.shed + self.rejected + self.closed + self.deadline + self.invalid
    }

    /// Scored requests per second over the calmest quarter (by steal) of the
    /// phase's whole windows after the first (which fills the queue), so
    /// neither start-up nor the drain after the last arrival counts. A
    /// mean, not a median: under overload the adaptive batcher switches
    /// between slower and faster regimes, and the rate is their
    /// time-weighted mix.
    pub fn throughput(&self, phase_s: f64) -> f64 {
        let whole = (phase_s / WINDOW.as_secs_f64()) as usize;
        let w: Vec<(f64, f64)> = (1..whole.min(self.steal.len()))
            .map(|i| (self.steal[i], self.scored_per_window.get(i).copied().unwrap_or(0) as f64))
            .collect();
        mean(&calmest(&w)) / WINDOW.as_secs_f64()
    }

    /// The `q`-quantile of the latency of requests due in the calmest quarter
    /// (by steal) of the phase, where every unscored request counts as an
    /// infinite latency.
    pub fn latency_quantile(&self, q: f64) -> f64 {
        let mut v = calmest(&self.latency_us);
        v.extend(std::iter::repeat_n(f64::INFINITY, self.failed() as usize));
        quantile(&mut v, q)
    }
}

/// Drives `arrivals` open loop through `pool` until the trace ends, `stop`
/// is raised or `max_secs` pass. Interactive requests carry
/// `interactive_deadline`; bulk requests never carry one. Latency and lag
/// samples are kept only when `record` is set (counts always are).
/// `on_arrival` runs on the submitter thread before each arrival with its
/// due offset (microseconds).
pub fn drive(
    pool: &ReplicatedServer,
    arrivals: TraceGen,
    max_secs: f64,
    interactive_deadline: Option<Duration>,
    record: bool,
    stop: Option<&AtomicBool>,
    mut on_arrival: impl FnMut(u64),
) -> OpenLoop {
    // The collector can fall behind the server only so far before the
    // submitter waits.
    let (tx, rx) =
        mpsc::sync_channel::<(mamdr_serve::Pending, Instant, Option<ScoreRequest>)>(COLLECT_CAP);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(max_secs);
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut out = OpenLoop::default();
            for (pending, due, sample) in rx {
                let result = pending.wait();
                let now = Instant::now();
                match result {
                    ServeResult::Scored(r) => {
                        out.scored += 1;
                        if record {
                            let w = (due - start).as_secs_f64() / WINDOW.as_secs_f64();
                            out.latency_us.push((w.floor(), (now - due).as_secs_f64() * 1e6));
                        }
                        if let Some(req) = sample {
                            out.samples.push((req, r.snapshot_version, r.score));
                        }
                        let w = ((now - start).as_secs_f64() / WINDOW.as_secs_f64()) as usize;
                        if out.scored_per_window.len() <= w {
                            out.scored_per_window.resize(w + 1, 0);
                        }
                        out.scored_per_window[w] += 1;
                    }
                    ServeResult::DeadlineExceeded { .. } => out.deadline += 1,
                    ServeResult::Invalid { .. } => out.invalid += 1,
                }
            }
            out
        });
        let mut sub = OpenLoop::default();
        let mut admitted = 0u64;
        let mut steal = StealWindows::new(start, WINDOW);
        for a in arrivals {
            if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
                break;
            }
            steal.tick();
            on_arrival(a.at_us);
            let due = start + Duration::from_micros(a.at_us);
            // Sleep until due (never spin: a spinning submitter takes a
            // core from the server it measures); when behind, submit now.
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let t = Instant::now();
            if t >= end {
                break;
            }
            if record {
                sub.lag_us.push((t - due).as_secs_f64() * 1e6);
            }
            sub.submitted += 1;
            let req = ScoreRequest::new(a.domain, a.user, a.item, a.user_group, a.item_cat);
            let sample = admitted.is_multiple_of(SAMPLE_EVERY).then(|| req.clone());
            let deadline = interactive_deadline.filter(|_| a.class == SloClass::Interactive);
            let ts = Instant::now();
            let submitted = pool.submit_class(req, deadline, a.class);
            sub.submit_s += ts.elapsed().as_secs_f64();
            match submitted {
                Ok(p) => {
                    admitted += 1;
                    tx.send((p, due, sample)).expect("collector alive");
                }
                Err(SubmitError::ShedOverload(_)) => sub.shed += 1,
                Err(SubmitError::QueueFull) => sub.rejected += 1,
                Err(SubmitError::Closed) => sub.closed += 1,
            }
        }
        drop(tx);
        let col = collector.join().expect("collector thread");
        steal.tick();
        steal.close_partial();
        // The collector tagged each latency with its due window's index;
        // swap in that window's steal share.
        let latency_us = col
            .latency_us
            .into_iter()
            .map(|(w, l)| (steal.shares.get(w as usize).copied().unwrap_or(0.0), l))
            .collect();
        OpenLoop {
            scored: col.scored,
            deadline: col.deadline,
            invalid: col.invalid,
            latency_us,
            scored_per_window: col.scored_per_window,
            steal: steal.shares,
            samples: col.samples,
            ..sub
        }
    })
}

/// Bit-compares every sampled response with a direct
/// `ServingSnapshot::score` on the version that served it; returns the
/// number of mismatches (unknown versions count as mismatches).
fn check_samples(
    samples: &[(ScoreRequest, u64, f32)],
    versions: &BTreeMap<u64, Arc<ServingSnapshot>>,
) -> usize {
    samples
        .iter()
        .filter(|(req, version, score)| match versions.get(version) {
            Some(snap) => {
                snap.score(req.domain, std::slice::from_ref(req))[0].to_bits() != score.to_bits()
            }
            None => true,
        })
        .count()
}

/// The serving stage's stack: two 1-replica pools with one scoring worker
/// each. The steady pool starts on snapshot v1 and hot-swaps to v2
/// mid-phase; its admission bound is far above anything the steady rate
/// queues, so no steady request is shed or rejected. The overload pool
/// serves v2 behind the interactive/bulk admission bounds the overload
/// phase measures.
pub struct ServeStack {
    pub pool: ReplicatedServer,
    pub overload_pool: ReplicatedServer,
    pub v1: Arc<ServingSnapshot>,
    pub v2: Arc<ServingSnapshot>,
    pub fc: FeatureConfig,
    pub n_domains: usize,
}

impl ServeStack {
    /// Stops both pools and joins their threads.
    pub fn shutdown(self) {
        self.pool.shutdown();
        self.overload_pool.shutdown();
    }
}

/// Trains snapshots v1 and v2 (seeds `seed` and `seed ^ 0xBEEF`) and
/// starts both pools; with a tracer, the pools record their request
/// spans.
pub fn setup(seed: u64, tracer: Option<Arc<Tracer>>) -> ServeStack {
    let mut job = TrainJob::new(TrainSize::Light, seed);
    let spec = ModelSpec {
        kind: ModelKind::Mlp,
        features: job.fc,
        config: job.mc.clone(),
        n_domains: job.ds.n_domains(),
    };
    let v1 = ServingSnapshot::from_trained(1, spec.clone(), job.train_plain()).expect("v1 freezes");
    job.cfg.seed = seed ^ 0xBEEF;
    let v2 = ServingSnapshot::from_trained(2, spec, job.train_plain()).expect("v2 freezes");
    let mut bytes = Vec::new();
    v2.write_to(&mut bytes).expect("encode v2");
    let v2_copy = ServingSnapshot::read_from(bytes.as_slice()).expect("decode v2");
    let steady = ServeConfig {
        queue_cap: STEADY_QUEUE_CAP,
        n_workers: 1,
        policy: BatchPolicy::default(),
        ..ServeConfig::default()
    };
    let overload = ServeConfig {
        queue_cap: OVERLOAD_QUEUE_CAP,
        class_caps: [0, OVERLOAD_BULK_CAP],
        ..steady.clone()
    };
    let pool = ReplicatedServer::start(v1, 1, steady, &MetricsRegistry::new(), tracer.clone());
    let overload_pool =
        ReplicatedServer::start(v2_copy, 1, overload, &MetricsRegistry::new(), tracer);
    let v1 = pool.engine(0).snapshot();
    ServeStack {
        pool,
        overload_pool,
        v1,
        v2: Arc::new(v2),
        fc: job.fc,
        n_domains: job.ds.n_domains(),
    }
}

/// What the serving stage measured.
pub struct ServeOutcome {
    pub steady: OpenLoop,
    pub overload: OpenLoop,
    pub swap_us: f64,
    pub sample_mismatches: usize,
    pub queue_wait_p50_us: f64,
    pub batch_compute_p50_us: f64,
    pub batch_size_mean: f64,
}

/// Steady phase at [`STEADY_RPS`] on the steady pool with one hot swap to
/// v2 halfway, then an overload phase at [`OVERLOAD_RPS`] on the overload
/// pool.
pub fn run(stack: &ServeStack, seed: u64, steady_s: f64, overload_s: f64) -> ServeOutcome {
    let half_us = (steady_s * 1e6 / 2.0) as u64;
    let mut swap_us = 0.0;
    let mut swapped = false;
    let steady = drive(
        &stack.pool,
        trace(seed, STEADY_RPS, steady_s, &stack.fc, stack.n_domains),
        steady_s,
        None,
        true,
        None,
        |at| {
            if !swapped && at >= half_us {
                let t = Instant::now();
                stack.pool.publish_arc(Arc::clone(&stack.v2));
                swap_us = t.elapsed().as_secs_f64() * 1e6;
                swapped = true;
            }
        },
    );
    let m = stack.pool.engine(0).metrics();
    let (queue_wait, compute, batch) =
        (m.queue_wait_us.snapshot(), m.batch_compute_us.snapshot(), m.batch_size.snapshot());
    let overload = drive(
        &stack.overload_pool,
        trace(seed ^ 0x0FE4, OVERLOAD_RPS, overload_s, &stack.fc, stack.n_domains),
        overload_s,
        Some(INTERACTIVE_DEADLINE),
        false,
        None,
        |_| {},
    );
    let versions: BTreeMap<u64, Arc<ServingSnapshot>> =
        [(1, Arc::clone(&stack.v1)), (2, Arc::clone(&stack.v2))].into_iter().collect();
    let sample_mismatches =
        check_samples(&steady.samples, &versions) + check_samples(&overload.samples, &versions);
    ServeOutcome {
        steady,
        overload,
        swap_us,
        sample_mismatches,
        queue_wait_p50_us: queue_wait.p50,
        batch_compute_p50_us: compute.p50,
        batch_size_mean: batch.mean(),
    }
}
