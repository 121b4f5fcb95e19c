//! The paper-training stage: MAMDR (DN + DR) trains an MLP through a
//! pass-through model proxy that counts (and, traced, times) every
//! training forward pass, then evaluates on the test split.

use crate::environ::StealWindows;
use crate::serve::WINDOW;
use mamdr_autodiff::Var;
use mamdr_bench::{runner, BenchArgs};
use mamdr_core::{FrameworkKind, TrainConfig, TrainEnv, TrainedModel};
use mamdr_data::{presets, Batch, DomainSpec, GeneratorConfig, MdrDataset, Split};
use mamdr_models::{build_model, CtrModel, FeatureConfig, ModelConfig, ModelKind};
use mamdr_nn::{ForwardCtx, ParamStore};
use mamdr_obs::{EpochEvent, Tracer, TrainMeta, TrainObserver};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Kernel-pool threads of every stage: the table binaries' default on a
/// 2-core machine.
pub const KERNEL_THREADS: usize = 2;

/// Epochs of the heavy configuration.
pub const HEAVY_EPOCHS: usize = 6;

/// Which training job a run measures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TrainSize {
    /// Taobao-10 at table scale, the default MLP, the table
    /// hyper-parameters and 6 epochs: the paper's own path.
    Heavy,
    /// The tiny MLP on the three-domain serving dataset — the job that
    /// produces the snapshots the serving stage serves.
    Light,
}

/// The serving stage's three-domain dataset (the one the
/// `serve_bench` binary trains its snapshots on).
pub fn serve_dataset(seed: u64) -> MdrDataset {
    let mut gen = GeneratorConfig::base("serve-bench", 200, 120, seed);
    gen.conflict = 0.3;
    gen.domains = vec![
        DomainSpec::new("large", 1_200, 0.3),
        DomainSpec::new("mid", 600, 0.35),
        DomainSpec::new("small", 200, 0.4),
    ];
    gen.generate()
}

/// A training job's inputs.
pub struct TrainJob {
    pub ds: MdrDataset,
    pub fc: FeatureConfig,
    pub mc: ModelConfig,
    pub cfg: TrainConfig,
}

impl TrainJob {
    /// Generates the dataset and fixes the configuration for `seed`.
    pub fn new(size: TrainSize, seed: u64) -> TrainJob {
        let (ds, mc, cfg) = match size {
            TrainSize::Heavy => {
                let args = BenchArgs {
                    epochs: HEAVY_EPOCHS,
                    seed,
                    threads: KERNEL_THREADS,
                    ..Default::default()
                };
                let ds = presets::taobao(10, seed, runner::effective_scale(&args));
                (ds, ModelConfig::default(), runner::table_config(&args, HEAVY_EPOCHS))
            }
            TrainSize::Light => (
                serve_dataset(seed),
                ModelConfig::tiny(),
                TrainConfig::quick().with_seed(seed).with_epochs(3).with_threads(KERNEL_THREADS),
            ),
        };
        let fc = FeatureConfig::from_dataset(&ds);
        TrainJob { ds, fc, mc, cfg }
    }

    /// A freshly initialised MLP for this job.
    pub fn build(&self) -> mamdr_models::BuiltModel {
        build_model(ModelKind::Mlp, &self.fc, &self.mc, self.ds.n_domains(), self.cfg.seed)
    }

    /// Trains once (untimed) and returns the trained model.
    pub fn train_plain(&self) -> TrainedModel {
        mamdr_tensor::pool::set_threads(KERNEL_THREADS);
        let built = self.build();
        let mut env = TrainEnv::new(&self.ds, built.model.as_ref(), built.params, self.cfg);
        FrameworkKind::Mamdr.build().train(&mut env)
    }
}

/// Training rows per fixed wall-clock window across the repetitions of
/// one stage, with each window's steal share.
pub struct RowMeter {
    start: Instant,
    steal: StealWindows,
    rows: Vec<u64>,
    /// `[start, end)` of every `Framework::train` call.
    calls: Vec<(Instant, Instant)>,
}

impl RowMeter {
    pub fn new() -> Mutex<RowMeter> {
        let start = Instant::now();
        Mutex::new(RowMeter {
            start,
            steal: StealWindows::new(start, WINDOW),
            rows: Vec::new(),
            calls: Vec::new(),
        })
    }

    fn record(&mut self, rows: u64) {
        self.steal.tick();
        let w = (self.start.elapsed().as_secs_f64() / WINDOW.as_secs_f64()) as usize;
        if self.rows.len() <= w {
            self.rows.resize(w + 1, 0);
        }
        self.rows[w] += rows;
    }

    /// `(steal share, rows per second)` of every closed window that lies
    /// wholly inside one `Framework::train` call.
    pub fn samples(&self) -> Vec<(f64, f64)> {
        let width = WINDOW.as_secs_f64();
        (0..self.steal.shares.len().min(self.rows.len()))
            .filter(|&w| {
                let (a, b) = (w as f64 * width, (w + 1) as f64 * width);
                self.calls.iter().any(|&(s, e)| {
                    (s - self.start).as_secs_f64() <= a && b <= (e - self.start).as_secs_f64()
                })
            })
            .map(|w| (self.steal.shares[w], self.rows[w] as f64 / width))
            .collect()
    }
}

/// Pass-through [`CtrModel`] that counts training forward passes and the
/// rows they carry into `meter`; with `timed` it also sums their
/// wall-clock.
struct CountingModel<'a> {
    inner: &'a dyn CtrModel,
    timed: bool,
    meter: &'a Mutex<RowMeter>,
    calls: AtomicU64,
    rows: AtomicU64,
    nanos: AtomicU64,
}

impl CtrModel for CountingModel<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn forward(
        &self,
        ps: &ParamStore,
        tape: &mut mamdr_autodiff::Tape,
        ctx: &mut ForwardCtx,
        batch: &Batch,
    ) -> Var {
        if !ctx.training {
            return self.inner.forward(ps, tape, ctx, batch);
        }
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.rows.fetch_add(batch.len() as u64, Ordering::Relaxed);
        self.meter.lock().expect("row meter").record(batch.len() as u64);
        if !self.timed {
            return self.inner.forward(ps, tape, ctx, batch);
        }
        let t0 = Instant::now();
        let out = self.inner.forward(ps, tape, ctx, batch);
        self.nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

/// Records the wall-clock of every epoch.
struct EpochClock {
    last: Instant,
    epochs: Arc<Mutex<Vec<f64>>>,
}

impl TrainObserver for EpochClock {
    fn on_train_start(&mut self, _meta: &TrainMeta) {
        self.last = Instant::now();
    }

    fn on_epoch_end(&mut self, _event: &EpochEvent) {
        let now = Instant::now();
        self.epochs.lock().expect("epoch clock").push((now - self.last).as_secs_f64());
        self.last = now;
    }
}

/// What one training repetition produced.
pub struct Rep {
    pub train_s: f64,
    pub evaluate_s: f64,
    pub rows: u64,
    pub calls: u64,
    pub forward_s: f64,
    pub epochs_s: Vec<f64>,
    pub auc: f64,
    pub digest: u64,
}

/// FNV-1a over the bits of every domain's materialised parameters.
pub fn digest(trained: &TrainedModel, n_domains: usize) -> u64 {
    let mut sum = mamdr_util::Checksum::new();
    for d in 0..n_domains {
        for x in trained.flat_for(d) {
            sum.update(&x.to_bits().to_le_bytes());
        }
    }
    sum.digest()
}

/// One full training run from a fresh initialisation, then test-split
/// evaluation, with training rows counted into `meter`. Traced, the
/// framework call and the evaluation are child spans of one `train.rep`
/// tree.
pub fn rep(job: &TrainJob, tracer: Option<&Arc<Tracer>>, meter: &Mutex<RowMeter>) -> Rep {
    mamdr_tensor::pool::set_threads(KERNEL_THREADS);
    let built = job.build();
    let proxy = CountingModel {
        inner: built.model.as_ref(),
        timed: tracer.is_some(),
        meter,
        calls: AtomicU64::new(0),
        rows: AtomicU64::new(0),
        nanos: AtomicU64::new(0),
    };
    let root = tracer.map(|t| t.span("train.rep"));
    let mut env = TrainEnv::new(&job.ds, &proxy, built.params, job.cfg);
    let epochs = Arc::new(Mutex::new(Vec::new()));
    if tracer.is_some() {
        env.attach_observer(Box::new(EpochClock {
            last: Instant::now(),
            epochs: Arc::clone(&epochs),
        }));
        env.observe_train_start("MAMDR");
    }
    let framework = FrameworkKind::Mamdr.build();
    let child = |name| tracer.zip(root.as_ref()).map(|(t, r)| t.child(name, r.ctx()));
    let span = child("core.framework_train");
    let t0 = Instant::now();
    let trained = framework.train(&mut env);
    let t1 = Instant::now();
    let train_s = (t1 - t0).as_secs_f64();
    meter.lock().expect("row meter").calls.push((t0, t1));
    drop(span);
    let span = child("core.evaluate");
    let t0 = Instant::now();
    let aucs = env.evaluate(&trained, Split::Test);
    let evaluate_s = t0.elapsed().as_secs_f64();
    drop(span);
    drop(root);
    let epochs_s = epochs.lock().expect("epoch clock").clone();
    Rep {
        train_s,
        evaluate_s,
        rows: proxy.rows.load(Ordering::Relaxed),
        calls: proxy.calls.load(Ordering::Relaxed),
        forward_s: proxy.nanos.load(Ordering::Relaxed) as f64 / 1e9,
        epochs_s,
        auc: mamdr_core::metrics::mean(&aucs),
        digest: digest(&trained, job.ds.n_domains()),
    }
}
