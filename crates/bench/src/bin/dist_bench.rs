//! `dist_bench` — loopback drill for the `mamdr-rpc` networked PS–worker
//! runtime.
//!
//! Runs the same MAMDR outer-loop twice: once with the in-process
//! synchronous trainer (the ground truth) and once with `--workers`
//! clients training against a real loopback TCP parameter server,
//! optionally under a deterministic `--fault-plan`. The binary fails
//! (exit 1) if the networked run diverges from the in-process run in any
//! round loss, in the final AUC bits, or in the number of outer updates
//! the store applied — i.e. if the wire, retry, or dedup layer lost or
//! double-applied a single update.
//!
//! Reports wall time, slowdown, and the `rpc_*` counter set on stdout;
//! with `--metrics-out <path>` the full registry (rpc frames/retries/
//! faults, ps traffic, kv gauges) is dumped as JSONL plus a
//! Prometheus-style `.prom` snapshot.
//!
//! Knobs: `--workers` sets the client count (default 2), `--fault-plan`
//! injects seeded drops/delays/duplicates/disconnects plus scheduled
//! worker kills/hangs/poisons and shard kills (default: perfect
//! network), `--scale` multiplies the dataset size, and `--threads`,
//! `--epochs`, `--seed`, `--quick` behave as everywhere else.
//!
//! Sharding: `--shards N` splits the key space across N loopback servers
//! by consistent hash — the run must stay bit-identical to the
//! single-store in-process ground truth at any N. `--preset longtail`
//! swaps the 64-domain industry simulation for the 2048-domain Zipf
//! stress preset whose key space gives a shard fleet real routing work;
//! the summary adds a `rounds_per_s` line so shard scaling is one grep
//! away. With a checkpoint directory the final merged parameters are
//! also written to `<dir>/final-state.mamdrps`, byte-comparable across
//! shard counts.
//!
//! Tracing: `--trace-out <path>` records the loopback run's span tree
//! (rounds, per-worker pull/compute, RPC attempts, server-side applies)
//! as Chrome `trace_event` JSON; `--phase-summary` prints a wall-clock
//! attribution table plus the wire-overhead row (frame encode/checksum
//! and decode seconds); `--introspect-addr <addr>` serves live
//! `/healthz` `/metrics` `/spans` over HTTP for the duration of the run.
//! The in-process ground truth always runs untraced, so every traced
//! invocation re-proves tracing neutrality through the bit-identity gate.
//!
//! Crash-resume drill: `--checkpoint-every N --checkpoint-dir <dir>`
//! commits every N rounds (per-shard checkpoints and journals under
//! `<dir>/shard-<i>/`, committed by `<dir>/manifest-<round>.mamdrmf`); a
//! later invocation with `--resume <dir>` restores the newest committed
//! manifest — at any shard count — and runs only the remaining rounds. The
//! resumed run must still match the uninterrupted in-process ground truth
//! in every round loss and the final AUC bits (the push-count gates are
//! skipped, since the RPC counters only cover the resumed segment).
//!
//! Continual-serving drill: `--serve-live --publish-every N` stands up a
//! gated replica pool next to the trainer. Every N rounds the merged
//! store is committed as a serving snapshot under
//! `<checkpoint-dir>/publish/` and offered to the publish gate
//! (`--canary-pct` enables the live canary phase); a closed-loop load
//! thread scores through the pool across every swap. Scheduled publisher
//! faults (`kill_publish=r`, `corrupt_snapshot=r` in the fault plan) must
//! leave the pool answering from the last-good version with **zero**
//! dropped requests; at exit the final served snapshot must be
//! byte-identical to one built offline from the in-process ground-truth
//! store, and is written to `<checkpoint-dir>/serve-final.mamdrsv` for
//! cross-run `cmp`. The `publish_*` gate counters are printed one per
//! line for exact grepping.

use mamdr_bench::{render_phase_table, BenchArgs, BenchTelemetry, QUICK_SCALE_FACTOR};
use mamdr_data::presets;
use mamdr_obs::Value;
use mamdr_ps::{DistributedConfig, DistributedMamdr};
use mamdr_rpc::{DistributedTrainer, FaultPlan, LoopbackConfig, PublishHook, RetryPolicy};
use mamdr_serve::{
    GateConfig, PublishGate, ReplicatedServer, ServeConfig, ServeResult, ServingSnapshot,
    GATE_REASONS,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What the closed-loop load thread observed across the whole run.
struct LoadReport {
    scored: u64,
    dropped: u64,
    versions: Vec<u64>,
}

fn main() {
    let args = BenchArgs::from_env();
    let telemetry = BenchTelemetry::from_args(&args);
    let scale = if args.quick { args.scale * QUICK_SCALE_FACTOR } else { args.scale };
    let preset = args.preset.as_deref().unwrap_or("industry");
    let ds = match preset {
        "longtail" => {
            // Domain count stays fixed (the preset's point is key-space
            // pressure); --scale moves the Zipf head instead.
            let head = ((400.0 * scale).round() as usize).max(50);
            presets::longtail(2_048, head, args.seed)
        }
        _ => {
            let n_domains = ((12.0 * scale).round() as usize).clamp(4, 64);
            let per_domain = ((1_200.0 * scale).round() as usize).max(100);
            presets::industry(n_domains, per_domain, args.seed)
        }
    };
    eprintln!(
        "[dist_bench] {preset} simulation: {} domains, {} train interactions",
        ds.n_domains(),
        ds.domains.iter().map(|d| d.train.len()).sum::<usize>()
    );

    let cfg = DistributedConfig {
        n_workers: args.workers_or(2),
        epochs: args.epochs_or(3),
        sync_rounds: true,
        seed: args.seed,
        kernel_threads: args.threads,
        route_shards: args.shards,
        ..Default::default()
    };
    let plan = args
        .fault_plan
        .as_deref()
        .map(|spec| FaultPlan::parse(spec).expect("validated by BenchArgs"));

    eprintln!("[dist_bench] in-process ground truth ({} workers) ...", cfg.n_workers);
    let t0 = Instant::now();
    let local_trainer = DistributedMamdr::new(&ds, cfg);
    // The version-0 snapshot the serving pool starts on: built from the
    // freshly seeded (untrained) store, which is bit-identical to the
    // networked trainer's merged initial state by construction.
    let serve_initial = args
        .serve_live
        .then(|| ServingSnapshot::from_ps(0, local_trainer.server(), ds.n_domains()));
    let local = local_trainer.train(&ds);
    let local_secs = t0.elapsed().as_secs_f64();

    let resuming = args.resume.is_some();
    let checkpoint_dir: Option<PathBuf> =
        args.resume.as_deref().or(args.checkpoint_dir.as_deref()).map(PathBuf::from);
    eprintln!(
        "[dist_bench] loopback TCP run ({} workers, {} shards, faults: {}, journal every {} rounds{}) ...",
        cfg.n_workers,
        args.shards,
        args.fault_plan.as_deref().unwrap_or("none"),
        args.checkpoint_every,
        if resuming { ", resuming" } else { "" },
    );
    // The tracer observes the loopback run only — the in-process ground
    // truth stays untraced, so the bit-identity gate below doubles as a
    // tracing-neutrality check on every traced invocation.
    let mut retry = RetryPolicy { base_backoff_micros: 20, ..Default::default() };
    if args.pipeline_depth > 0 {
        retry.pipeline_depth = args.pipeline_depth;
    }
    // --serve-live: a gated replica pool fed by the trainer's publish
    // hook. Scores are sigmoid outputs in [0, 1], so a divergence/drift
    // bound of 1.0 admits every structurally sound, finite round — the
    // drill is about *fault* containment, not semantic drift.
    let serve = serve_initial.map(|snap0| {
        let registry = telemetry.registry_arc();
        let pool = Arc::new(ReplicatedServer::start(
            snap0,
            args.replicas,
            ServeConfig::default(),
            &registry,
            telemetry.tracer(),
        ));
        let gate_cfg = GateConfig {
            max_divergence: 1.0,
            canary_pct: args.canary_pct,
            max_canary_drift: 1.0,
            ..Default::default()
        };
        let gate = Arc::new(PublishGate::new(
            gate_cfg,
            pool.engine(0).snapshot(),
            &registry,
            telemetry.publish_state(),
            telemetry.tracer(),
        ));
        let publish_dir =
            checkpoint_dir.clone().expect("--serve-live requires --checkpoint-dir").join("publish");
        (pool, gate, publish_dir)
    });
    let publish_hook = serve.as_ref().map(|(pool, gate, publish_dir)| {
        let n_domains = ds.n_domains();
        let gate = Arc::clone(gate);
        let pool = Arc::clone(pool);
        PublishHook {
            every: args.publish_every,
            dir: publish_dir.clone(),
            encode: Arc::new(move |round, ps| {
                let mut buf = Vec::new();
                ServingSnapshot::from_ps(round, ps, n_domains)
                    .write_to(&mut buf)
                    .map_err(|e| e.to_string())?;
                Ok(buf)
            }),
            // A rejection is the gate's verdict, fully recorded in its
            // counters and health state — training never stops for it.
            on_commit: Arc::new(move |round, path| {
                let _ = gate.offer_file(round, path, &pool);
            }),
        }
    });
    let loopback = LoopbackConfig {
        fault: plan,
        retry,
        shards: args.shards,
        checkpoint_dir: checkpoint_dir.clone(),
        checkpoint_every: args.checkpoint_every,
        resume: resuming,
        tracer: telemetry.tracer(),
        publish: publish_hook,
        ..LoopbackConfig::new(cfg)
    };
    let t0 = Instant::now();
    let mut net_trainer = DistributedTrainer::new(&ds, loopback, telemetry.registry_arc())
        .unwrap_or_else(|e| {
            eprintln!("[dist_bench] FAILED to start the loopback trainer: {e}");
            std::process::exit(1);
        });
    let start_epoch = net_trainer.start_epoch();
    if resuming {
        eprintln!("[dist_bench] resumed at round {start_epoch}");
    }
    // The closed-loop load thread: scores the fixed probe set through the
    // pool, over and over, across every publish/rollback the gate performs
    // while training runs. Every submitted request must come back scored —
    // a shed, deadline, or invalid result is a drop, and the drill demands
    // zero.
    let load_stop = Arc::new(AtomicBool::new(false));
    let load_thread = serve.as_ref().map(|(pool, _, _)| {
        let pool = Arc::clone(pool);
        let stop = Arc::clone(&load_stop);
        std::thread::spawn(move || {
            let probes = pool.engine(0).snapshot().probe_requests(0xBEEF, 8);
            let mut scored = 0u64;
            let mut dropped = 0u64;
            let mut versions = std::collections::BTreeSet::new();
            'outer: loop {
                for req in &probes {
                    if stop.load(Ordering::Relaxed) {
                        break 'outer;
                    }
                    match pool.submit(req.clone(), None) {
                        Ok(pending) => match pending.wait() {
                            ServeResult::Scored(r) => {
                                scored += 1;
                                versions.insert(r.snapshot_version);
                            }
                            _ => dropped += 1,
                        },
                        Err(_) => dropped += 1,
                    }
                }
                // Keep the pool busy but leave the trainer the CPU.
                std::thread::sleep(std::time::Duration::from_micros(500));
            }
            LoadReport { scored, dropped, versions: versions.into_iter().collect() }
        })
    });
    let remote = net_trainer.train(&ds).unwrap_or_else(|e| {
        eprintln!("[dist_bench] FAILED: distributed run did not complete: {e}");
        std::process::exit(1);
    });
    let remote_secs = t0.elapsed().as_secs_f64();
    load_stop.store(true, Ordering::Relaxed);
    let load_report = load_thread.map(|h| h.join().expect("load thread"));
    // The merged final state, byte-comparable across shard counts: the
    // CI shard-smoke job diffs this file between a 1-shard and a killed-
    // and-recovered 4-shard run.
    if let Some(dir) = &checkpoint_dir {
        let path = dir.join("final-state.mamdrps");
        let mut buf = Vec::new();
        let written = mamdr_ps::checkpoint::save(&net_trainer.merged_store(), cfg.dim, &mut buf)
            .map_err(|e| format!("{e}"))
            .and_then(|()| std::fs::write(&path, &buf).map_err(|e| format!("{e}")));
        if let Err(e) = written {
            eprintln!("[dist_bench] FAILED to write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("[dist_bench] merged final state -> {}", path.display());
    }
    net_trainer.shutdown();
    // Release the publish hook's pool/gate handles so the pool can be
    // unwrapped and drained below.
    drop(net_trainer);

    let reg = telemetry.registry();
    let frames = reg.counter("rpc_frames_total").get();
    let retries = reg.counter("rpc_retries_total").get();
    let applied = reg.counter("rpc_push_applied_total").get();
    let deduped = reg.counter("rpc_push_deduped_total").get();
    let dropped = reg.counter("rpc_faults_dropped_total").get();
    let duplicated = reg.counter("rpc_faults_duplicated_total").get();
    let disconnects = reg.counter("rpc_faults_disconnects_total").get();

    let shard_kills = reg.counter("rpc_faults_shard_kills_total").get();
    let shard_restarts = reg.counter("rpc_shard_restarts_total").get();
    let rounds_run = cfg.epochs.saturating_sub(start_epoch);

    println!(
        "dist_bench: {} workers, {} rounds, {} shards, {} domains, threads={}",
        cfg.n_workers,
        cfg.epochs,
        args.shards,
        ds.n_domains(),
        args.threads
    );
    println!("  in_process   {local_secs:.3} s");
    println!("  loopback     {remote_secs:.3} s  ({:.2}x)", remote_secs / local_secs.max(1e-9));
    println!("  rounds_per_s {:.3}", rounds_run as f64 / remote_secs.max(1e-9));
    println!("  test_auc     {:.6}", remote.mean_auc);
    println!("  pulls        {}", remote.pulls);
    println!("  pushes       {}", remote.pushes);
    println!("  MB_moved     {:.2}", remote.total_bytes as f64 / 1e6);
    println!("  frames       {frames}");
    println!("  retries      {retries}");
    println!("  applied      {applied}  deduped {deduped}");
    println!("  faults       dropped={dropped} duplicated={duplicated} disconnects={disconnects}");
    println!("  shards       rpc_faults_shard_kills_total={shard_kills} rpc_shard_restarts_total={shard_restarts}");

    // --serve-live verdict: print every publish counter one per line
    // (exact-greppable by CI), enforce zero dropped requests, and prove
    // the final served snapshot is byte-identical to one built offline
    // from the in-process ground-truth store.
    let mut serve_failures: Vec<String> = Vec::new();
    if let Some((pool, gate, _)) = serve {
        let report = load_report.expect("--serve-live starts the load thread");
        let final_version = gate.last_good().version();
        println!(
            "  serve_live   scored={} versions_served={:?} final_version={final_version}",
            report.scored, report.versions
        );
        println!("  serve_live_dropped={}", report.dropped);
        for name in [
            "publish_attempts_total",
            "publish_commits_total",
            "publish_kills_total",
            "publish_corruptions_total",
            "publish_offered_total",
            "publish_accepted_total",
            "publish_rollbacks_total",
            "publish_canary_phases_total",
        ] {
            println!("  {name}={}", reg.counter(name).get());
        }
        for reason in GATE_REASONS {
            let name = format!("publish_rejected_total{{reason=\"{reason}\"}}");
            println!("  {name}={}", reg.counter(&name).get());
        }
        if report.dropped != 0 {
            serve_failures.push(format!(
                "{} live requests dropped across publishes (the drill demands 0)",
                report.dropped
            ));
        }
        if pool.current_version() != final_version {
            serve_failures.push(format!(
                "pool serves v{} but the gate's last-good is v{final_version}",
                pool.current_version()
            ));
        }
        let mut served = Vec::new();
        gate.last_good().write_to(&mut served).expect("encode served snapshot");
        let out = checkpoint_dir.as_ref().expect("validated").join("serve-final.mamdrsv");
        if let Err(e) = std::fs::write(&out, &served) {
            serve_failures.push(format!("cannot write {}: {e}", out.display()));
        } else {
            eprintln!("[dist_bench] final served snapshot -> {}", out.display());
        }
        if final_version == cfg.epochs as u64 {
            // The offline ground truth: the in-process trainer's store is
            // the end-of-training state, so a snapshot built from it must
            // match the served bytes exactly when the final round's
            // publication was accepted.
            let mut offline = Vec::new();
            ServingSnapshot::from_ps(final_version, local_trainer.server(), ds.n_domains())
                .write_to(&mut offline)
                .expect("encode offline snapshot");
            if served != offline {
                serve_failures.push(
                    "final served snapshot is not byte-identical to the offline snapshot built \
                     from the in-process ground-truth store"
                        .into(),
                );
            }
        } else {
            serve_failures.push(format!(
                "final served version v{final_version} is not the final round ({}); the \
                 byte-identity gate needs the last publish round to commit cleanly",
                cfg.epochs
            ));
        }
        match Arc::try_unwrap(pool) {
            Ok(p) => p.shutdown(),
            Err(_) => eprintln!("[dist_bench] warning: pool still shared, skipping drain"),
        }
    }
    if args.phase_summary && args.shards > 1 {
        println!("  per-shard occupancy and wire traffic:");
        for s in 0..args.shards {
            let entries = reg.gauge(&format!("ps_kv_entries{{shard=\"{s}\"}}")).get();
            let bytes = reg.gauge(&format!("ps_kv_bytes{{shard=\"{s}\"}}")).get();
            let shard_frames = reg.counter(&format!("rpc_frames_total{{shard=\"{s}\"}}")).get();
            println!("    shard {s}: entries={entries:.0} bytes={bytes:.0} frames={shard_frames}");
        }
    }

    if let Some(tracer) = telemetry.tracer() {
        // Wire overhead = serialization + checksum on both directions;
        // decode is timed from the first magic byte, so waiting on the
        // peer is excluded.
        let encode = tracer.phase("wire.encode");
        let decode = tracer.phase("wire.decode");
        let wire_secs = encode.total_secs + decode.total_secs;
        if args.phase_summary {
            println!("  phase attribution (loopback wall {remote_secs:.3} s):");
            print!("{}", render_phase_table(&tracer, remote_secs));
        }
        println!(
            "  wire_overhead {:.4} s  (encode {} frames {:.4} s, decode {} frames {:.4} s)",
            wire_secs, encode.count, encode.total_secs, decode.count, decode.total_secs
        );
        if telemetry.enabled() {
            for (name, p) in tracer.phase_summary() {
                telemetry.log().emit(
                    "dist_phase",
                    &[
                        ("phase", Value::from(name.as_str())),
                        ("count", Value::from(p.count)),
                        ("total_secs", Value::from(p.total_secs)),
                    ],
                );
            }
        }
    }

    if telemetry.enabled() {
        for (round, &loss) in remote.round_losses.iter().enumerate() {
            telemetry.log().emit(
                "dist_round",
                &[
                    ("workers", Value::from(cfg.n_workers)),
                    ("round", Value::from(round)),
                    ("train_loss", Value::from(loss)),
                ],
            );
        }
        telemetry.log().emit(
            "dist_bench",
            &[
                ("workers", Value::from(cfg.n_workers as u64)),
                ("rounds", Value::from(cfg.epochs as u64)),
                ("shards", Value::from(args.shards as u64)),
                ("fault_plan", Value::from(args.fault_plan.as_deref().unwrap_or("none"))),
                ("in_process_secs", Value::from(local_secs)),
                ("loopback_secs", Value::from(remote_secs)),
                ("mean_auc", Value::from(remote.mean_auc)),
            ],
        );
        remote.export(telemetry.registry());
    }
    telemetry.finish();

    // The acceptance gate: the network layer must be invisible to the
    // math. Any lost, reordered, or double-applied outer update shifts a
    // round loss or the final parameters.
    let mut failures = serve_failures;
    if remote.round_losses != local.round_losses {
        failures.push(format!(
            "round losses diverged: {:?} vs {:?}",
            remote.round_losses, local.round_losses
        ));
    }
    if remote.mean_auc.to_bits() != local.mean_auc.to_bits() {
        failures.push(format!("AUC diverged: {} vs {}", remote.mean_auc, local.mean_auc));
    }
    // The RPC push counters only cover the resumed segment, so the
    // exactly-once audit against the full-run push count applies to
    // uninterrupted runs only; a resumed run is gated on losses and AUC.
    if !resuming {
        if applied != local.pushes {
            failures
                .push(format!("applied {} of {} expected outer updates", applied, local.pushes));
        }
        // The report sums every shard store's traffic counters.
        if remote.pushes != local.pushes {
            failures
                .push(format!("stores saw {} pushes, expected {}", remote.pushes, local.pushes));
        }
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("[dist_bench] FAILED: {f}");
        }
        std::process::exit(1);
    }
    if resuming {
        eprintln!(
            "[dist_bench] OK: resumed run bit-identical to uninterrupted in-process run \
             ({applied} updates applied in the resumed segment)"
        );
    } else {
        eprintln!(
            "[dist_bench] OK: loopback run bit-identical to in-process run, \
             {applied} updates applied exactly once"
        );
    }
}
