//! Layer replays for the traced run: each times one public entry point of
//! a layer from outside, inside a benchmark span, on the workload's own
//! shapes and data.

use crate::train::{TrainJob, KERNEL_THREADS};
use mamdr_autodiff::Tape;
use mamdr_data::{make_batch, Batch};
use mamdr_nn::{ForwardCtx, OptimizerKind};
use mamdr_obs::{Histogram, Tracer};
use mamdr_serve::ServingSnapshot;
use mamdr_tensor::rng::seeded;
use mamdr_tensor::{pool, Tensor};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows per training batch (the table configuration's batch size).
const BATCH_ROWS: usize = 128;
/// The MLP's hidden 64→32 layer: the dense shape the GEMM replays use.
const GEMM_K: usize = 64;
const GEMM_N: usize = 32;
/// Each replay loop runs at least this long.
const REPLAY: Duration = Duration::from_millis(150);

/// Repeats `f` for at least [`REPLAY`] inside one span; returns seconds
/// per call.
fn per_call(tracer: &Tracer, name: &'static str, mut f: impl FnMut()) -> f64 {
    f();
    let _span = tracer.span(name);
    let t0 = Instant::now();
    let mut n = 0u64;
    while t0.elapsed() < REPLAY {
        f();
        n += 1;
    }
    t0.elapsed().as_secs_f64() / n as f64
}

/// Training batches of the job's own data: the first [`BATCH_ROWS`]
/// training interactions of every domain.
pub fn job_batches(job: &TrainJob) -> Vec<Batch> {
    (0..job.ds.n_domains())
        .map(|d| {
            let train = &job.ds.domains[d].train;
            make_batch(&job.ds, d, &train[..train.len().min(BATCH_ROWS)])
        })
        .collect()
}

/// Tape nodes one training step of `job`'s model records on `batch`:
/// forward, logits reshape, BCE loss.
pub fn tape_nodes(job: &TrainJob, batch: &Batch) -> u64 {
    let built = job.build();
    let mut rng = seeded(1);
    let mut tape = Tape::new();
    let mut ctx = ForwardCtx::train(&mut rng);
    let logits = built.model.forward(&built.params, &mut tape, &mut ctx, batch);
    let flat = tape.reshape(logits, &[batch.len()]);
    tape.bce_with_logits_mean(flat, batch.labels_tensor());
    tape.len() as u64
}

/// FLOPs of the dense layers per training batch: forward (NN), input
/// gradient (NT) and weight gradient (TN), each `2·rows·in·out`.
fn flops_per_batch(job: &TrainJob) -> f64 {
    let built = job.build();
    let dense: usize = built
        .params
        .iter()
        .filter(|(_, spec, _)| spec.name.starts_with("mlp/deep") && spec.shape.len() == 2)
        .map(|(_, spec, _)| spec.shape[0] * spec.shape[1])
        .sum();
    6.0 * BATCH_ROWS as f64 * dense as f64
}

/// Runs every replay and returns its per-layer metrics.
pub fn run(
    tracer: &Arc<Tracer>,
    job: &TrainJob,
    snap: &ServingSnapshot,
) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let mut rng = seeded(7);
    let a = Tensor::randn(&mut rng, [BATCH_ROWS, GEMM_K], 0.0, 1.0);
    let w = Tensor::randn(&mut rng, [GEMM_K, GEMM_N], 0.0, 1.0);
    let dy = Tensor::randn(&mut rng, [BATCH_ROWS, GEMM_N], 0.0, 1.0);
    let flops = 2.0 * (BATCH_ROWS * GEMM_K * GEMM_N) as f64;
    for (threads, suffix) in [(1usize, 0usize), (2, 1)] {
        pool::set_threads(threads);
        let names: [[&'static str; 2]; 3] = [
            ["tensor.gemm_nn.gflops.t1", "tensor.gemm_nn.gflops.t2"],
            ["tensor.gemm_nt.gflops.t1", "tensor.gemm_nt.gflops.t2"],
            ["tensor.gemm_tn.gflops.t1", "tensor.gemm_tn.gflops.t2"],
        ];
        let nn = per_call(tracer, names[0][suffix], || {
            black_box(black_box(&a).gemm(black_box(&w), false, false));
        });
        let nt = per_call(tracer, names[1][suffix], || {
            black_box(black_box(&dy).gemm(black_box(&w), false, true));
        });
        let tn = per_call(tracer, names[2][suffix], || {
            black_box(black_box(&a).gemm(black_box(&dy), true, false));
        });
        m.insert(names[0][suffix], flops / nn / 1e9);
        m.insert(names[1][suffix], flops / nt / 1e9);
        m.insert(names[2][suffix], flops / tn / 1e9);
    }
    pool::set_threads(KERNEL_THREADS);
    m.insert("tensor.gemm.flops_per_batch", flops_per_batch(job));

    // Autodiff: forward → BCE → backward on the job's own batches; only
    // the backward call is timed.
    let batches = job_batches(job);
    let built = job.build();
    let mut grads = Default::default();
    let mut backward_s = 0.0;
    let mut n_backward = 0u64;
    {
        let _root = tracer.span("autodiff.replay");
        let t0 = Instant::now();
        while t0.elapsed() < REPLAY * 2 {
            for batch in &batches {
                let mut tape = Tape::new();
                let mut ctx = ForwardCtx::train(&mut rng);
                let logits = built.model.forward(&built.params, &mut tape, &mut ctx, batch);
                let flat = tape.reshape(logits, &[batch.len()]);
                let loss = tape.bce_with_logits_mean(flat, batch.labels_tensor());
                let _span = tracer.span("autodiff.backward");
                let tb = Instant::now();
                grads = tape.backward(loss);
                backward_s += tb.elapsed().as_secs_f64();
                n_backward += 1;
            }
        }
    }
    m.insert("autodiff.backward_us", backward_s / n_backward as f64 * 1e6);

    // nn: flat-parameter plumbing and the inner optimizer at n_params.
    let mut params = built.params;
    let flat = params.to_flat();
    let n = flat.len();
    m.insert(
        "nn.load_flat_us",
        per_call(tracer, "nn.load_flat", || params.load_flat(black_box(&flat))) * 1e6,
    );
    let mut out = vec![0.0f32; n];
    m.insert(
        "nn.grads_write_flat_us",
        per_call(tracer, "nn.grads_write_flat", || {
            params.grads_write_flat(black_box(&grads), &mut out)
        }) * 1e6,
    );
    let mut opt = OptimizerKind::Adam { lr: 5e-3 }.build(n);
    let mut theta = flat.clone();
    m.insert(
        "nn.optim_step_us",
        per_call(tracer, "nn.optim_step", || opt.step(&mut theta, black_box(&out))) * 1e6,
    );

    // data: one training batch assembled from interactions.
    let train = &job.ds.domains[0].train;
    let rows = &train[..train.len().min(BATCH_ROWS)];
    m.insert(
        "data.make_batch_us",
        per_call(tracer, "data.make_batch", || {
            black_box(make_batch(&job.ds, 0, black_box(rows)));
        }) * 1e6,
    );

    // serve: direct snapshot scoring at batch 1 and 32.
    let reqs: Vec<_> =
        snap.probe_requests(11, 32).into_iter().filter(|r| r.domain == 0).take(32).collect();
    m.insert(
        "serve.score_us.b1",
        per_call(tracer, "serve.score.b1", || {
            black_box(snap.score(0, black_box(&reqs[..1])));
        }) * 1e6,
    );
    m.insert(
        "serve.score_us.b32",
        per_call(tracer, "serve.score.b32", || {
            black_box(snap.score(0, black_box(&reqs)));
        }) * 1e6,
    );

    // obs: histogram record, alone and with two threads contending.
    const RECORDS: usize = 200_000;
    let h = Histogram::new();
    let t1 = per_call(tracer, "obs.histogram_record.t1", || {
        for i in 0..RECORDS {
            h.record(black_box(50.0 + (i % 97) as f64));
        }
    });
    m.insert("obs.histogram_record_ns.t1", t1 / RECORDS as f64 * 1e9);
    let t2 = per_call(tracer, "obs.histogram_record.t2", || {
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for i in 0..RECORDS {
                        h.record(black_box(50.0 + (i % 97) as f64));
                    }
                });
            }
        });
    });
    m.insert("obs.histogram_record_ns.t2", t2 / RECORDS as f64 * 1e9);
    m
}
