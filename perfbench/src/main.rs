//! `perfbench` — the repository benchmark: paper training, open-loop
//! serving and the train→publish→serve loop, end to end and per layer.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train-mamdr --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every run executes the same three stages — MAMDR training, serving a
//! snapshot open loop, and the networked train→publish→serve loop — so
//! every end-to-end metric is measured on every workload. A workload
//! decides which stage carries the load (see `Plan`):
//!
//! * `train-mamdr`: four MAMDR (DN + DR) trainings of the MLP on Taobao-10
//!   with the table hyper-parameters (the paper's path; kernels, tape,
//!   model and framework do the work).
//! * `serve-open`: a 20k rps steady phase with a mid-phase hot swap, then
//!   a saturating overload phase at 600k rps offered (admission, batching
//!   and queues do the work; kernels score 1–2 row batches).
//! * `loop-publish`: 60 rounds of 2 workers and 2 shards over loopback
//!   TCP on the 64-domain industry preset, with a checkpoint, manifest and
//!   published snapshot every round beside background serving traffic
//!   (wire, shard apply, fsync'd commits, snapshot encoding, the gate).
//!
//! The other stages run smaller: two trainings, a short steady phase,
//! 40 loop rounds. The overload phase is half of `--seconds` in every
//! workload: under overload the scored rate moves between a slower and a
//! faster regime that each last one to three seconds, so a short phase
//! measures whichever regime it lands in. Set-up (data, snapshot training,
//! server start) runs seven times and reports the median. With
//! `--trace 1` the loaded stage runs once untraced and once traced, the traced run also replays single
//! layers (GEMM, backward, flat-parameter plumbing, batch assembly, direct
//! scoring, histogram record), and the output carries the per-layer
//! metrics (see `LAYERS.md`) instead of the end-to-end ones. Spans go to
//! `.perfbench-out/` at exit.
//!
//! Timed metrics are taken over the calmest quarter of their samples
//! (100 ms training and serving windows, loop rounds) by the
//! system's steal share — the CPU time the hypervisor gave to other
//! tenants — and the `env` line reports the whole run's steal share.
//!
//! Correctness gates (any failure exits 1 without printing metrics):
//! every training's parameter digest and AUC equal the values recorded in
//! `expected-train.tsv` for its seed (`--seed` picks a window of the 32
//! recorded seeds); served scores are bit-identical to direct scoring on
//! the version that served them and every phase accounts for every
//! request; the loopback store and the final served snapshot are
//! byte-identical to the in-process reference; no background request is
//! dropped; and the pinned work counts repeat exactly across runs of the
//! same code with the same seed and tracing.
//!
//! `--record-expected <n>` prints the recorded table for seeds `0..n`; a
//! change that alters training numerics on purpose regenerates
//! `expected-train.tsv` with it and says so.

mod environ;
mod looppub;
mod replay;
mod serve;
mod spans;
mod stats;
mod train;

use looppub::LoopSize;
use mamdr_obs::Tracer;
use stats::{calmest, mean, median, quantile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use train::{TrainJob, TrainSize};

/// Where runs write spans, pinned counts and the loop's files.
const OUT_DIR: &str = ".perfbench-out";
/// Recorded digest and AUC of the heavy training job, per seed.
const EXPECTED: &str = include_str!("../expected-train.tsv");
/// Set-up repetitions per run (the median is reported).
const SETUP_REPS: usize = 7;

/// End-to-end metrics and their units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("train.rows_per_s", "1/s"),
    ("train.test_auc", "auc"),
    ("serve.steady.p50_us", "us"),
    ("serve.steady.p90_us", "us"),
    ("serve.capacity_rps", "1/s"),
    ("loop.rounds_per_s", "1/s"),
    ("loop.publish_ms", "ms"),
    ("loop.serve_p50_us", "us"),
    ("loop.test_auc", "auc"),
];

/// Per-layer metrics and their units.
const PER_LAYER: &[(&str, &str)] = &[
    ("tensor.gemm_nn.gflops.t1", "GFLOP/s"),
    ("tensor.gemm_nn.gflops.t2", "GFLOP/s"),
    ("tensor.gemm_nt.gflops.t1", "GFLOP/s"),
    ("tensor.gemm_nt.gflops.t2", "GFLOP/s"),
    ("tensor.gemm_tn.gflops.t1", "GFLOP/s"),
    ("tensor.gemm_tn.gflops.t2", "GFLOP/s"),
    ("tensor.gemm.flops_per_batch", "FLOP"),
    ("autodiff.tape_nodes_per_batch", "count"),
    ("autodiff.backward_us", "us"),
    ("models.train_rows", "count"),
    ("models.forward_calls", "count"),
    ("models.train_forward_us", "us"),
    ("models.forward_share", "ratio"),
    ("nn.load_flat_us", "us"),
    ("nn.grads_write_flat_us", "us"),
    ("nn.optim_step_us", "us"),
    ("core.epoch_s", "s"),
    ("core.evaluate_s", "s"),
    ("core.unattributed_share", "ratio"),
    ("data.generate_s", "s"),
    ("data.make_batch_us", "us"),
    ("serve.score_us.b1", "us"),
    ("serve.score_us.b32", "us"),
    ("serve.submit_us", "us"),
    ("serve.queue_wait_us.p50", "us"),
    ("serve.batch_compute_us.p50", "us"),
    ("serve.batch_size.mean", "rows"),
    ("serve.swap_us", "us"),
    ("serve.overload.shed_share", "ratio"),
    ("serve.overload.deadline_share", "ratio"),
    ("obs.histogram_record_ns.t1", "ns"),
    ("obs.histogram_record_ns.t2", "ns"),
    ("load.lag_p50_us", "us"),
    ("load.lag_p99_us", "us"),
    ("load.late_share", "ratio"),
    ("publish.encode_ms", "ms"),
    ("publish.commit_ms", "ms"),
    ("publish.gate_ms", "ms"),
    ("publish.snapshot_bytes", "bytes"),
    ("rpc.frames_per_round", "count"),
    ("rpc.bytes_per_round", "bytes"),
    ("rpc.retries", "count"),
    ("ps.cache_hit_ratio", "ratio"),
    ("ps.pushes", "count"),
    ("loop.self_share.round.workers", "ratio"),
    ("loop.self_share.round.apply", "ratio"),
    ("loop.self_share.round.journal", "ratio"),
    ("loop.self_share.rpc.pull", "ratio"),
    ("loop.self_share.rpc.push", "ratio"),
    ("loop.self_share.wire.encode", "ratio"),
    ("loop.self_share.wire.decode", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Which stage carries a workload's load: training repetitions, the
/// share of `--seconds` each serving phase gets, and the loop's size.
struct Plan {
    train_reps: usize,
    steady_share: f64,
    overload_share: f64,
    looped: LoopSize,
    focus: Focus,
}

#[derive(Clone, Copy, PartialEq)]
enum Focus {
    Train,
    Serve,
    Loop,
}

fn plan(workload: &str) -> Option<Plan> {
    Some(match workload {
        "train-mamdr" => Plan {
            train_reps: 4,
            steady_share: 0.15,
            overload_share: 0.5,
            looped: LoopSize::Light,
            focus: Focus::Train,
        },
        "serve-open" => Plan {
            train_reps: 2,
            steady_share: 0.35,
            overload_share: 0.5,
            looped: LoopSize::Light,
            focus: Focus::Serve,
        },
        "loop-publish" => Plan {
            train_reps: 2,
            steady_share: 0.15,
            overload_share: 0.5,
            looped: LoopSize::Heavy,
            focus: Focus::Loop,
        },
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--record-expected" => {
                record_expected(value.parse().map_err(|e| format!("--record-expected: {e}"))?);
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The heavy training job's recorded `(digest, AUC bits)` per seed.
fn expected_table() -> BTreeMap<u64, (u64, u64)> {
    EXPECTED
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            let hex =
                |s: &str| u64::from_str_radix(s.trim_start_matches("0x"), 16).expect("hex field");
            (f[0].parse().expect("seed field"), (hex(f[1]), hex(f[2])))
        })
        .collect()
}

/// The recorded training seed of repetition `rep`: every run trains
/// `reps` of the recorded seeds, a window chosen by `--seed`.
fn train_seed(seed: u64, reps: usize, rep: usize) -> u64 {
    let n = expected_table().len() as u64;
    (seed.wrapping_mul(reps as u64) + rep as u64) % n
}

/// Prints the table `expected-train.tsv` holds, for seeds `0..n`.
fn record_expected(n: u64) {
    println!("# seed\tdigest\tauc_bits\tauc");
    for seed in 0..n {
        let job = TrainJob::new(TrainSize::Heavy, seed);
        let r = train::rep(&job, None, &train::RowMeter::new());
        println!("{seed}\t0x{:016x}\t0x{:016x}\t{}", r.digest, r.auc.to_bits(), r.auc);
    }
}

/// Everything set-up builds, kept from the last repetition.
struct Built {
    job: TrainJob,
    stack: serve::ServeStack,
    looped: looppub::LoopStack,
    generate_s: f64,
}

/// One set-up: the first training job's data and model, the serving
/// stack (snapshot training, server start) and the loop (data, reference
/// trainer, pool, parameter servers).
fn build(
    p: &Plan,
    seed: u64,
    loop_dir: &Path,
    serve_tracer: Option<Arc<Tracer>>,
    loop_tracer: Option<Arc<Tracer>>,
) -> (Built, f64) {
    let t0 = Instant::now();
    let job = TrainJob::new(TrainSize::Heavy, train_seed(seed, p.train_reps, 0));
    let generate_s = t0.elapsed().as_secs_f64();
    drop(job.build());
    let stack = serve::setup(seed, serve_tracer);
    let looped = looppub::setup(p.looped, seed, loop_dir, loop_tracer);
    (Built { job, stack, looped, generate_s }, t0.elapsed().as_secs_f64())
}

/// Trains the recorded seeds of repetitions `reps`, each from a fresh
/// initialisation, and checks each against its recorded digest and AUC.
/// Also returns the training rate: the median rows per second over the
/// calmest quarter (by steal) of the 100 ms windows inside
/// `Framework::train` calls.
fn train_stage(
    seed: u64,
    p: &Plan,
    reps: std::ops::Range<usize>,
    tracer: Option<&Arc<Tracer>>,
    failures: &mut Vec<String>,
) -> (Vec<train::Rep>, f64) {
    let table = expected_table();
    let meter = train::RowMeter::new();
    let done: Vec<train::Rep> = reps
        .map(|i| {
            let ts = train_seed(seed, p.train_reps, i);
            let r = train::rep(&TrainJob::new(TrainSize::Heavy, ts), tracer, &meter);
            if table.get(&ts) != Some(&(r.digest, r.auc.to_bits())) {
                failures.push(format!(
                    "train: seed {ts} gave digest 0x{:016x} AUC {}, not the recorded values",
                    r.digest, r.auc
                ));
            }
            r
        })
        .collect();
    let rate = calm_median(&meter.into_inner().expect("row meter").samples());
    (done, rate)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\nusage: perfbench --workload <train-mamdr|serve-open|loop-publish> --seed <n> --seconds <s> --trace <0|1>");
        std::process::exit(2);
    });
    let Some(p) = plan(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    let out_dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let fs = environ::fstype(&out_dir);
    if fs == "tmpfs" || fs == "ramfs" {
        // fsync is free in memory: a durability change would read as free.
        eprintln!("perfbench: refusing to run with {OUT_DIR} on {fs}");
        std::process::exit(2);
    }
    let secs = args.seconds;
    let tag = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    // A fixed name: the path travels in checkpoint RPCs, so its length is
    // part of the pinned wire byte count.
    let loop_dir = out_dir.join("loop");
    let tracer = args.trace.then(|| Arc::new(Tracer::with_capacity(1 << 16)));
    let mut failures: Vec<String> = Vec::new();
    let ticks0 = environ::cpu_ticks();

    // Traced, the loaded stage first runs untraced (on untraced set-up)
    // so the overhead of tracing is measured; the other stages run traced.
    let untraced_first = |f: Focus| if p.focus == f { None } else { tracer.clone() };

    // Set-up, repeated; the last repetition's objects are the ones run.
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut built: Option<Built> = None;
    for _ in 0..SETUP_REPS {
        if let Some(b) = built.take() {
            b.looped.discard();
            b.stack.shutdown();
        }
        let (b, s) = build(
            &p,
            args.seed,
            &loop_dir,
            untraced_first(Focus::Serve),
            untraced_first(Focus::Loop),
        );
        setup_s.push(s);
        generate_s.push(b.generate_s);
        built = Some(b);
    }
    let Built { job, stack, looped, .. } = built.expect("at least one set-up");
    let mut untraced_focus = None;

    // Stage 1: training.
    let mut reps = 0..p.train_reps;
    let mut untraced = Vec::new();
    if tracer.is_some() && p.focus == Focus::Train {
        let half = p.train_reps / 2;
        let (done, rate) = train_stage(args.seed, &p, 0..half, None, &mut failures);
        untraced = done;
        untraced_focus = Some(rate);
        reps = half..p.train_reps;
    }
    let (t, rows_per_s) = train_stage(args.seed, &p, reps, tracer.as_ref(), &mut failures);
    let train_rows: u64 = t.iter().chain(&untraced).map(|r| r.rows).sum();
    let forward_calls: u64 = t.iter().chain(&untraced).map(|r| r.calls).sum();
    let test_auc = mean(&t.iter().map(|r| r.auc).collect::<Vec<_>>());

    // Stage 2: serving.
    let (steady_s, overload_s) = (secs * p.steady_share, secs * p.overload_share);
    let (stack, serve_share) = if tracer.is_some() && p.focus == Focus::Serve {
        let o = serve::run(&stack, args.seed, steady_s / 2.0, overload_s / 2.0);
        untraced_focus = Some(o.steady.latency_quantile(0.5));
        stack.shutdown();
        (serve::setup(args.seed, tracer.clone()), 0.5)
    } else {
        (stack, 1.0)
    };
    let so = serve::run(&stack, args.seed, steady_s * serve_share, overload_s * serve_share);
    for (phase, o) in [("steady", &so.steady), ("overload", &so.overload)] {
        if !o.accounting_ok() {
            failures.push(format!("serve: {phase} phase does not account for every request"));
        }
        if o.scored == 0 {
            failures.push(format!("serve: {phase} phase scored nothing"));
        }
    }
    if so.sample_mismatches != 0 {
        failures.push(format!(
            "serve: {} sampled scores differ from direct scoring",
            so.sample_mismatches
        ));
    }
    let snap_v2 = Arc::clone(&stack.v2);
    stack.shutdown();

    // Stage 3: the train→publish→serve loop (last, so its spans are the
    // newest in the tracer's ring).
    let lo = if tracer.is_some() && p.focus == Focus::Loop {
        let lo = looppub::run(looped, args.seed);
        untraced_focus = Some(1.0 / calm_median(&lo.round_s));
        failures.extend(lo.failures);
        looppub::run(looppub::setup(p.looped, args.seed, &loop_dir, tracer.clone()), args.seed)
    } else {
        looppub::run(looped, args.seed)
    };
    failures.extend(lo.failures.iter().cloned());

    // Pinned work counts: identical across runs of the same code with the
    // same seed and tracing (the first such run records them).
    let batch = &replay::job_batches(&job)[0];
    let pinned: BTreeMap<&str, u64> = [
        ("models.train_rows", train_rows),
        ("models.forward_calls", forward_calls),
        ("autodiff.tape_nodes_per_batch", replay::tape_nodes(&job, batch)),
        ("rpc.frames", lo.frames),
        ("rpc.bytes", lo.wire_bytes),
        ("ps.pushes", lo.report.pushes),
        ("publish.snapshot_bytes", lo.snapshot_bytes),
    ]
    .into_iter()
    .collect();
    let pinned_json = json_object(pinned.iter().map(|(k, v)| (*k, v.to_string())));
    let pinned_path = out_dir.join(format!("pinned-{tag}.json"));
    match std::fs::read_to_string(&pinned_path) {
        Ok(prev) if prev != pinned_json => failures
            .push(format!("pinned counts differ from the previous run: {prev} vs {pinned_json}")),
        Ok(_) => {}
        Err(_) => std::fs::write(&pinned_path, &pinned_json).expect("write pinned counts"),
    }

    let attempted =
        t.len() as u64 + so.steady.submitted + lo.rounds as u64 + lo.background.submitted;
    let failed = so.steady.failed() + lo.background.failed();

    let mut metrics: BTreeMap<&str, f64> = BTreeMap::new();
    if let Some(tracer) = &tracer {
        let layers = replay::run(tracer, &job, &snap_v2);
        metrics.extend(layers);
        let n_calls: u64 = t.iter().map(|r| r.calls).sum();
        let fwd_s: f64 = t.iter().map(|r| r.forward_s).sum();
        let train_s: f64 = t.iter().map(|r| r.train_s).sum();
        let per_call_s = (metrics["autodiff.backward_us"]
            + metrics["nn.load_flat_us"]
            + metrics["nn.grads_write_flat_us"])
            / 1e6;
        metrics.insert("models.train_rows", train_rows as f64);
        metrics.insert("models.forward_calls", forward_calls as f64);
        metrics.insert("models.train_forward_us", fwd_s / n_calls as f64 * 1e6);
        metrics.insert("models.forward_share", fwd_s / train_s);
        metrics.insert(
            "autodiff.tape_nodes_per_batch",
            pinned["autodiff.tape_nodes_per_batch"] as f64,
        );
        let mut epochs: Vec<f64> = t.iter().flat_map(|r| r.epochs_s.iter().copied()).collect();
        metrics.insert("core.epoch_s", median(&mut epochs));
        metrics.insert(
            "core.evaluate_s",
            median(&mut t.iter().map(|r| r.evaluate_s).collect::<Vec<_>>()),
        );
        metrics.insert(
            "core.unattributed_share",
            (1.0 - (fwd_s + n_calls as f64 * per_call_s) / train_s).max(0.0),
        );
        metrics.insert("data.generate_s", median(&mut generate_s));
        let sub = so.steady.submitted.max(1) as f64;
        metrics.insert("serve.submit_us", so.steady.submit_s / sub * 1e6);
        metrics.insert("serve.queue_wait_us.p50", so.queue_wait_p50_us);
        metrics.insert("serve.batch_compute_us.p50", so.batch_compute_p50_us);
        metrics.insert("serve.batch_size.mean", so.batch_size_mean);
        metrics.insert("serve.swap_us", so.swap_us);
        let ov = &so.overload;
        let ov_sub = ov.submitted.max(1) as f64;
        metrics.insert("serve.overload.shed_share", (ov.shed + ov.rejected) as f64 / ov_sub);
        metrics.insert("serve.overload.deadline_share", ov.deadline as f64 / ov_sub);
        let mut lag = so.steady.lag_us.clone();
        metrics.insert("load.lag_p50_us", quantile(&mut lag, 0.5));
        metrics.insert("load.lag_p99_us", quantile(&mut lag, 0.99));
        metrics.insert(
            "load.late_share",
            lag.iter().filter(|&&l| l > serve::LATE_US).count() as f64 / lag.len().max(1) as f64,
        );
        metrics.insert("publish.encode_ms", calm_median(&lo.encode_ms));
        metrics.insert("publish.commit_ms", calm_median(&lo.commit_ms));
        metrics.insert("publish.gate_ms", calm_median(&lo.gate_ms));
        metrics.insert("publish.snapshot_bytes", lo.snapshot_bytes as f64);
        metrics.insert("rpc.frames_per_round", lo.frames as f64 / lo.rounds as f64);
        metrics.insert("rpc.bytes_per_round", lo.wire_bytes as f64 / lo.rounds as f64);
        metrics.insert("rpc.retries", lo.retries as f64);
        let cache = lo.report.cache;
        metrics.insert(
            "ps.cache_hit_ratio",
            cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
        );
        metrics.insert("ps.pushes", lo.report.pushes as f64);
        let selfs = spans::self_times(&tracer.recent_spans(usize::MAX));
        let round_total = selfs.get("round").map(|r| r.0).unwrap_or(0.0).max(1e-12);
        for (metric, span) in [
            ("loop.self_share.round.workers", "round.workers"),
            ("loop.self_share.round.apply", "round.apply"),
            ("loop.self_share.round.journal", "round.journal"),
            ("loop.self_share.rpc.pull", "rpc.pull"),
            ("loop.self_share.rpc.push", "rpc.push"),
        ] {
            metrics.insert(metric, selfs.get(span).map(|s| s.1).unwrap_or(0.0) / round_total);
        }
        // Frame encode/decode are recorded as leaf phase aggregates, not
        // ring spans: their self time is their total.
        for (metric, phase) in [
            ("loop.self_share.wire.encode", "wire.encode"),
            ("loop.self_share.wire.decode", "wire.decode"),
        ] {
            metrics.insert(metric, tracer.phase(phase).total_secs / round_total);
        }
        let traced = match p.focus {
            Focus::Train => rows_per_s,
            Focus::Serve => so.steady.latency_quantile(0.5),
            Focus::Loop => 1.0 / calm_median(&lo.round_s),
        };
        let untraced = untraced_focus.expect("traced runs measure the loaded stage untraced");
        // Positive when tracing slows the loaded stage down.
        let overhead = match p.focus {
            Focus::Serve => traced / untraced - 1.0,
            _ => 1.0 - traced / untraced,
        };
        metrics.insert("trace.overhead_share", overhead);
        let spans_path = out_dir.join(format!("spans-{tag}.json"));
        std::fs::write(&spans_path, tracer.to_chrome_trace()).expect("write spans");
        eprintln!("perfbench: spans written to {}", spans_path.display());
    } else {
        metrics.insert("setup_s", median(&mut setup_s));
        metrics.insert("train.rows_per_s", rows_per_s);
        metrics.insert("train.test_auc", test_auc);
        metrics.insert("serve.steady.p50_us", so.steady.latency_quantile(0.5));
        metrics.insert("serve.steady.p90_us", so.steady.latency_quantile(0.9));
        metrics.insert("serve.capacity_rps", so.overload.throughput(overload_s * serve_share));
        metrics.insert("loop.rounds_per_s", 1.0 / calm_median(&lo.round_s));
        metrics.insert("loop.publish_ms", calm_median(&lo.publish_ms));
        metrics.insert("loop.serve_p50_us", lo.background.latency_quantile(0.5));
        metrics.insert("loop.test_auc", lo.report.mean_auc);
        metrics.insert("peak_rss_mb", environ::peak_rss_mb());
    }
    let _ = std::fs::remove_dir_all(&loop_dir);

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("perfbench: FAILED {f}");
        }
        std::process::exit(1);
    }
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    assert_eq!(metrics.len(), declared.len(), "every declared metric is measured");
    let steal = environ::steal_share(ticks0, environ::cpu_ticks());
    let threads = mamdr_tensor::pool::configured_threads();
    println!("env {}", environ::block(threads, &out_dir, &fs, steal));
    println!("pinned {pinned_json}");
    // Tails are reported with their sample counts, not as metrics: a few
    // hundred requests beyond p99 are too few to gate on.
    let (st, bg) = (&so.steady, &lo.background);
    println!(
        "tails steady_p99_us={:.1} steady_p999_us={:.1} steady_samples={} steady_failed={} \
         background_p99_us={:.1} background_samples={} overload_submitted={} overload_scored={}",
        st.latency_quantile(0.99),
        st.latency_quantile(0.999),
        st.submitted,
        st.failed(),
        bg.latency_quantile(0.99),
        bg.submitted,
        so.overload.submitted,
        so.overload.scored,
    );
    let body = json_object(declared.iter().map(|(name, unit)| {
        let v = metrics[name];
        (*name, format!("{{\"value\":{},\"unit\":\"{unit}\"}}", json_num(v)))
    }));
    println!(
        "{{\"correct\":true,\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{body}}}"
    );
}

/// The median of the calmest quarter (by steal) of `(steal, value)` samples.
fn calm_median(v: &[(f64, f64)]) -> f64 {
    median(&mut calmest(v))
}

/// A JSON number; non-finite values (a percentile that landed on an
/// unscored request) are written as a huge finite number.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e300".into()
    }
}

/// `{"k":v,...}` from already-encoded values.
fn json_object<'a>(fields: impl Iterator<Item = (&'a str, String)>) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in fields.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{v}", environ::json_str(k));
    }
    out.push('}');
    out
}
