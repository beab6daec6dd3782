//! Compute-core benchmark: the seed's dense GCN pipeline vs the sparse
//! CSR pipeline the layers use now.
//!
//! The "pre" numbers replicate the seed code path faithfully — a fresh
//! `gcn_normalise` on the dense adjacency inside *every* layer forward,
//! followed by zero-skipping dense matmuls — while the "post" numbers
//! drive the real [`fare_gnn::Gnn`] through a [`fare_graph::GraphView`]
//! built once per graph. Both paths run the same weights on the same
//! graph, and the losses are checked to agree before anything is timed.
//!
//! ```text
//! cargo run --release -p fare-bench --bin bench_core -- \
//!     [--nodes N] [--avg-degree D] [--iters N] [--smoke] [--out PATH]
//! ```
//!
//! Writes a [`fare_obs::RunManifest`] (default `BENCH_core.json`) with
//! one `bench` entry per kernel (`<kernel>.ns_per_iter`) plus the
//! headline dense→sparse speedup of a full GCN forward+backward step —
//! the same schema every other manifest in the workspace uses, so
//! `fare-report diff BENCH_core.json <fresh.json>` compares bench runs
//! across PRs with the one code path.

use fare_bench::{string_flag, time_ns};
use fare_obs::RunManifest;
use fare_gnn::{Gnn, GnnDims, IdealReader};
use fare_graph::datasets::ModelKind;
use fare_graph::{CsrGraph, GraphView};
use fare_rt::rand::rngs::StdRng;
use fare_rt::rand::{Rng, SeedableRng};
use fare_tensor::{init, ops, Matrix};

/// Random undirected graph with ~`n * avg_degree / 2` distinct edges.
/// Sampling pairs directly (instead of Erdős–Rényi's `n²` coin flips)
/// keeps setup cheap at benchmark scale.
fn random_graph(n: usize, avg_degree: usize, seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = n * avg_degree / 2;
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            edges.push((u, v));
        }
    }
    CsrGraph::from_edges(n, &edges)
}

/// The seed's dense matmul: skip the inner loop when the lhs entry is
/// exactly zero. On a normalised adjacency this is the only thing that
/// made the `O(n² · d)` product bearable.
fn zero_skip_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "shape mismatch");
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        let a_row = a.row(i);
        let out_row = out.row_mut(i);
        for (k, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            for (o, &bv) in out_row.iter_mut().zip(b.row(k)) {
                *o += av * bv;
            }
        }
    }
    out
}

/// One full 2-layer GCN forward+backward exactly as the seed computed
/// it: `gcn_normalise` runs inside each layer forward (twice per step)
/// and every adjacency product is a zero-skipping dense matmul.
fn dense_seed_gcn_step(
    adj: &Matrix,
    x: &Matrix,
    w1: &Matrix,
    w2: &Matrix,
    labels: &[usize],
) -> f32 {
    // Layer 1 forward.
    let a_hat1 = ops::gcn_normalise(adj);
    let agg1 = zero_skip_matmul(&a_hat1, x);
    let z1 = agg1.matmul(w1);
    let h1 = ops::relu(&z1);
    // Layer 2 forward (the seed re-normalised per layer call).
    let a_hat2 = ops::gcn_normalise(adj);
    let agg2 = zero_skip_matmul(&a_hat2, &h1);
    let logits = agg2.matmul(w2);
    let (loss, grad_logits) = ops::cross_entropy_with_grad(&logits, labels);
    // Layer 2 backward (output layer: grad_z = grad_logits).
    let _grad_w2 = agg2.t_matmul(&grad_logits);
    let grad_h1 = zero_skip_matmul(&a_hat2, &grad_logits.matmul_t(w2));
    // Layer 1 backward.
    let grad_z1 = grad_h1.hadamard(&ops::relu_grad(&z1));
    let _grad_w1 = agg1.t_matmul(&grad_z1);
    let _grad_x = zero_skip_matmul(&a_hat1, &grad_z1.matmul_t(w1));
    loss
}

/// One forward+backward through the real model on the cached view.
fn csr_gcn_step(model: &Gnn, view: &GraphView, x: &Matrix, labels: &[usize]) -> f32 {
    let (logits, cache) = model.forward(view, x, &IdealReader);
    let (loss, grad_logits) = ops::cross_entropy_with_grad(&logits, labels);
    let _grads = model.backward(view, &cache, &grad_logits);
    loss
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n: usize = string_flag("--nodes")
        .map(|v| v.parse().expect("numeric --nodes"))
        .unwrap_or(if smoke { 2_000 } else { 20_000 });
    let avg_degree: usize = string_flag("--avg-degree")
        .map(|v| v.parse().expect("numeric --avg-degree"))
        .unwrap_or(20);
    let iters: usize = string_flag("--iters")
        .map(|v| v.parse().expect("numeric --iters"))
        .unwrap_or(if smoke { 1 } else { 3 });
    let out_path = string_flag("--out").unwrap_or_else(|| "BENCH_core.json".into());
    let threads = fare_rt::par::current_threads() as u64;

    eprintln!("generating graph: n={n}, avg_degree≈{avg_degree}");
    let g = random_graph(n, avg_degree, 7);
    let dims = GnnDims {
        input: 32,
        hidden: 16,
        output: 8,
    };
    let mut rng = StdRng::seed_from_u64(7);
    let x = init::normal(n, dims.input, 1.0, &mut rng);
    let labels: Vec<usize> = (0..n).map(|i| i % dims.output).collect();
    let model = Gnn::new(ModelKind::Gcn, dims, &mut rng);
    let w1 = model.param(0, 0).clone();
    let w2 = model.param(1, 0).clone();
    let view = GraphView::from_graph(&g);
    let size = format!("n={n},e={},d={}", g.num_edges(), dims.hidden);

    // The two paths must compute the same step before we time them.
    let adj = g.to_dense();
    let loss_pre = dense_seed_gcn_step(&adj, &x, &w1, &w2, &labels);
    let loss_post = csr_gcn_step(&model, &view, &x, &labels);
    assert!(
        (loss_pre - loss_post).abs() < 1e-5,
        "paths diverge: dense {loss_pre} vs csr {loss_post}"
    );

    eprintln!("timing dense seed path ({iters} iters)...");
    let pre_ns = time_ns(iters, || {
        std::hint::black_box(dense_seed_gcn_step(&adj, &x, &w1, &w2, &labels));
    });
    eprintln!("timing csr path ({} iters)...", iters * 10);
    let post_ns = time_ns(iters * 10, || {
        std::hint::black_box(csr_gcn_step(&model, &view, &x, &labels));
    });

    // Aggregation micro-kernels: the dominant inner operation of both
    // paths, isolated.
    let agg_pre_ns = time_ns(iters, || {
        std::hint::black_box(zero_skip_matmul(&ops::gcn_normalise(&adj), &x));
    });
    let agg_post_ns = time_ns(iters * 10, || {
        std::hint::black_box(view.gcn_norm().spmm(&x));
    });

    let speedup = pre_ns / post_ns;
    let rows: [(&str, f64); 4] = [
        ("gcn_fwd_bwd_dense_seed", pre_ns),
        ("gcn_fwd_bwd_csr", post_ns),
        ("gcn_aggregate_dense_seed", agg_pre_ns),
        ("gcn_aggregate_csr", agg_post_ns),
    ];
    let mut manifest = RunManifest::capture("bench_core", 7, &size)
        .with_bench("threads", threads as f64)
        .with_bench("speedup_gcn_fwd_bwd", speedup);
    for (kernel, ns) in &rows {
        manifest = manifest.with_bench(&format!("{kernel}.ns_per_iter"), *ns);
    }

    for (kernel, ns) in &rows {
        println!("{kernel:<28} {size:<28} {ns:>14.0} ns/iter  ({threads} threads)");
    }
    println!("speedup (gcn fwd+bwd, dense seed → csr): {speedup:.1}x");

    std::fs::write(&out_path, manifest.to_json_pretty() + "\n")
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!("wrote {out_path}");
}
