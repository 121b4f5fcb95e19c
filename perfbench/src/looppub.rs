//! The train→publish→serve loop: `DistributedTrainer` over loopback TCP
//! (2 workers, 2 shards) checkpoints and publishes a serving snapshot
//! every round through `PublishHook` → `ContinualPublisher` →
//! `PublishGate`, while the open-loop submitter serves background traffic
//! at a fixed low rate from the gated pool.

use crate::environ;
use crate::serve::{drive, trace, OpenLoop};
use crate::train::KERNEL_THREADS;
use mamdr_data::{presets, MdrDataset};
use mamdr_models::FeatureConfig;
use mamdr_obs::{MetricsRegistry, Tracer};
use mamdr_ps::{DistributedConfig, DistributedMamdr, DistributedReport};
use mamdr_rpc::{DistributedTrainer, LoopbackConfig, PublishHook};
use mamdr_serve::{GateConfig, PublishGate, ReplicatedServer, ServeConfig, ServingSnapshot};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Background serving rate during training (requests per second). The
/// background requests carry no deadline: none may be dropped.
pub const BACKGROUND_RPS: f64 = 1_000.0;

/// How many rounds a run measures, always on the industry preset at 64
/// domains (66k training interactions).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LoopSize {
    /// 60 rounds.
    Heavy,
    /// 40 rounds.
    Light,
}

impl LoopSize {
    fn dataset(seed: u64) -> MdrDataset {
        presets::industry(64, 19_200, seed)
    }

    /// Outer rounds (fixed, so every count the loop makes is pinned).
    pub fn rounds(self) -> usize {
        match self {
            LoopSize::Heavy => 60,
            LoopSize::Light => 40,
        }
    }
}

/// Instants of one round's publication.
#[derive(Clone, Copy, Default)]
struct RoundClock {
    encode_start: Option<Instant>,
    /// CPU ticks (`environ::cpu_ticks`) at `encode_start`.
    ticks: (u64, u64),
    encode_end: Option<Instant>,
    committed: Option<Instant>,
    admitted: Option<Instant>,
    accepted: bool,
}

type Clocks = Arc<Mutex<BTreeMap<u64, RoundClock>>>;

/// A loop ready to run: dataset, in-process reference trainer (untrained),
/// gated pool on the version-0 snapshot, and the networked trainer.
pub struct LoopStack {
    ds: MdrDataset,
    cfg: DistributedConfig,
    local: DistributedMamdr,
    pool: Arc<ReplicatedServer>,
    gate: Arc<PublishGate>,
    trainer: DistributedTrainer,
    registry: Arc<MetricsRegistry>,
    clocks: Clocks,
    dir: PathBuf,
    fc: FeatureConfig,
}

/// Generates the data, seeds both trainers, starts the pool and the
/// loopback parameter servers. `dir` receives checkpoints, manifests and
/// published snapshots.
pub fn setup(size: LoopSize, seed: u64, dir: &Path, tracer: Option<Arc<Tracer>>) -> LoopStack {
    let ds = LoopSize::dataset(seed);
    let fc = FeatureConfig::from_dataset(&ds);
    let n_domains = ds.n_domains();
    let cfg = DistributedConfig {
        n_workers: 2,
        epochs: size.rounds(),
        sync_rounds: true,
        seed,
        kernel_threads: KERNEL_THREADS,
        route_shards: 2,
        ..Default::default()
    };
    let local = DistributedMamdr::new(&ds, cfg);
    let registry = Arc::new(MetricsRegistry::new());
    let snap0 = ServingSnapshot::from_ps(0, local.server(), n_domains);
    let pool = Arc::new(ReplicatedServer::start(
        snap0,
        1,
        ServeConfig { n_workers: 1, ..ServeConfig::default() },
        &registry,
        None,
    ));
    // Scores are sigmoid outputs in [0, 1]: a divergence bound of 1.0
    // admits every structurally sound, finite round.
    let gate_cfg = GateConfig { max_divergence: 1.0, max_canary_drift: 1.0, ..Default::default() };
    let gate = Arc::new(PublishGate::new(
        gate_cfg,
        pool.engine(0).snapshot(),
        &registry,
        None,
        tracer.clone(),
    ));
    let clocks: Clocks = Arc::new(Mutex::new(BTreeMap::new()));
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create loop directory");
    let hook = {
        let (enc_clocks, com_clocks) = (Arc::clone(&clocks), Arc::clone(&clocks));
        let (gate, pool) = (Arc::clone(&gate), Arc::clone(&pool));
        PublishHook {
            every: 1,
            dir: dir.join("publish"),
            encode: Arc::new(move |round, ps| {
                let t0 = Instant::now();
                let ticks0 = environ::cpu_ticks();
                let mut buf = Vec::new();
                ServingSnapshot::from_ps(round, ps, n_domains)
                    .write_to(&mut buf)
                    .map_err(|e| e.to_string())?;
                let mut c = enc_clocks.lock().expect("publish clocks");
                let e = c.entry(round).or_default();
                e.encode_start = Some(t0);
                e.ticks = ticks0;
                e.encode_end = Some(Instant::now());
                Ok(buf)
            }),
            on_commit: Arc::new(move |round, path| {
                let committed = Instant::now();
                let accepted = gate.offer_file(round, path, &pool).is_ok();
                let admitted = Instant::now();
                let mut c = com_clocks.lock().expect("publish clocks");
                let e = c.entry(round).or_default();
                e.committed = Some(committed);
                e.admitted = Some(admitted);
                e.accepted = accepted;
            }),
        }
    };
    let loopback = LoopbackConfig {
        shards: 2,
        checkpoint_dir: Some(dir.to_path_buf()),
        checkpoint_every: 1,
        tracer,
        publish: Some(hook),
        ..LoopbackConfig::new(cfg)
    };
    let trainer = DistributedTrainer::new(&ds, loopback, Arc::clone(&registry))
        .expect("start loopback trainer");
    LoopStack { ds, cfg, local, pool, gate, trainer, registry, clocks, dir: dir.to_path_buf(), fc }
}

impl LoopStack {
    /// Stops the servers without training (a discarded set-up repetition).
    pub fn discard(mut self) {
        self.trainer.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What the loop measured. Per-round series are `(steal share of the
/// round, value)`.
pub struct LoopOutcome {
    pub report: DistributedReport,
    pub background: OpenLoop,
    pub round_s: Vec<(f64, f64)>,
    pub publish_ms: Vec<(f64, f64)>,
    pub encode_ms: Vec<(f64, f64)>,
    pub commit_ms: Vec<(f64, f64)>,
    pub gate_ms: Vec<(f64, f64)>,
    pub snapshot_bytes: u64,
    pub frames: u64,
    pub wire_bytes: u64,
    pub retries: u64,
    pub rounds: usize,
    pub failures: Vec<String>,
}

/// Trains every round with background traffic, then checks the loop
/// against the in-process reference and tears everything down.
pub fn run(mut s: LoopStack, seed: u64) -> LoopOutcome {
    let stop = AtomicBool::new(false);
    let n_domains = s.ds.n_domains();
    let t0 = Instant::now();
    let ticks0 = environ::cpu_ticks();
    let (report, background) = std::thread::scope(|scope| {
        let bg = scope.spawn(|| {
            drive(
                &s.pool,
                trace(seed ^ 0xB6, BACKGROUND_RPS, 3_600.0, &s.fc, n_domains),
                3_600.0,
                None,
                true,
                Some(&stop),
                |_| {},
            )
        });
        let report = s.trainer.train(&s.ds);
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        (report, bg.join().expect("background load thread"))
    });
    let mut failures = Vec::new();
    let report = report.unwrap_or_else(|e| panic!("loopback training failed: {e}"));
    let merged = s.trainer.merged_store();
    s.trainer.shutdown();

    let clocks = s.clocks.lock().expect("publish clocks").clone();
    let mut round_s = Vec::new();
    let (mut prev, mut prev_ticks) = (t0, ticks0);
    let (mut publish_ms, mut encode_ms, mut commit_ms, mut gate_ms) =
        (vec![], vec![], vec![], vec![]);
    for (round, c) in &clocks {
        match (c.encode_start, c.encode_end, c.committed, c.admitted) {
            (Some(a), Some(b), Some(cm), Some(d)) if c.accepted => {
                let st = environ::steal_share(prev_ticks, c.ticks);
                round_s.push((st, (a - prev).as_secs_f64()));
                (prev, prev_ticks) = (a, c.ticks);
                publish_ms.push((st, (d - a).as_secs_f64() * 1e3));
                encode_ms.push((st, (b - a).as_secs_f64() * 1e3));
                commit_ms.push((st, (cm - b).as_secs_f64() * 1e3));
                gate_ms.push((st, (d - cm).as_secs_f64() * 1e3));
            }
            _ => failures.push(format!("loop: round {round} was not published and admitted")),
        }
    }
    if clocks.len() != s.cfg.epochs {
        failures.push(format!("loop: {} of {} rounds published", clocks.len(), s.cfg.epochs));
    }

    // Ground truth: the in-process trainer on the same data and config.
    let local = s.local.train(&s.ds);
    let save = |ps: &mamdr_ps::ParameterServer| {
        let mut buf = Vec::new();
        mamdr_ps::checkpoint::save(ps, s.cfg.dim, &mut buf).expect("encode store");
        buf
    };
    if save(&merged) != save(s.local.server()) {
        failures.push(
            "loop: loopback final store is not byte-identical to the in-process store".into(),
        );
    }
    if report.round_losses != local.round_losses
        || report.mean_auc.to_bits() != local.mean_auc.to_bits()
    {
        failures.push("loop: loopback losses/AUC differ from the in-process trainer".into());
    }
    let served = s.gate.last_good();
    let mut served_bytes = Vec::new();
    served.write_to(&mut served_bytes).expect("encode served snapshot");
    let mut offline = Vec::new();
    ServingSnapshot::from_ps(s.cfg.epochs as u64, s.local.server(), n_domains)
        .write_to(&mut offline)
        .expect("encode offline snapshot");
    if served_bytes != offline || s.pool.current_version() != s.cfg.epochs as u64 {
        failures
            .push("loop: final served snapshot is not byte-identical to the offline build".into());
    }
    if background.failed() != 0 || !background.accounting_ok() {
        let b = &background;
        failures.push(format!(
            "loop: background requests dropped: {} submitted, {} scored, shed {} rejected {} \
             closed {} deadline {} invalid {}",
            b.submitted, b.scored, b.shed, b.rejected, b.closed, b.deadline, b.invalid
        ));
    }
    let reg = &s.registry;
    let retries = reg.counter("rpc_retries_total").get();
    if retries != 0 {
        failures.push(format!("loop: {retries} RPC retries on a fault-free run"));
    }
    let frames = reg.counter("rpc_frames_total").get();
    let wire_bytes =
        reg.counter("rpc_bytes_in_total").get() + reg.counter("rpc_bytes_out_total").get();
    drop(s.trainer);
    if let Ok(pool) = Arc::try_unwrap(s.pool) {
        pool.shutdown();
    }
    let _ = std::fs::remove_dir_all(&s.dir);
    LoopOutcome {
        report,
        background,
        round_s,
        publish_ms,
        encode_ms,
        commit_ms,
        gate_ms,
        snapshot_bytes: served_bytes.len() as u64,
        frames,
        wire_bytes,
        retries,
        rounds: s.cfg.epochs,
        failures,
    }
}
