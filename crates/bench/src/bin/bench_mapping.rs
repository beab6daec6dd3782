//! Mapping-pipeline benchmark: the production Algorithm 1 fast path and
//! the incremental post-deployment refresh.
//!
//! [`fare_core::map_adjacency`] runs with bitset mismatch kernels,
//! faulty-rows-only `f × n` instances, (block-class, fault-class)
//! deduplication and lazy, lower-bound-gated pair costs. Before anything
//! is timed the fast path is checked bit-identical to the serial reduced
//! oracle, and the incremental refresh against the serial refresh oracle.
//! The pre-fast-path full `n × n` pipeline is no longer timed; its
//! historical numbers are frozen in DESIGN.md §6.
//!
//! ```text
//! cargo run --release -p fare-bench --bin bench_mapping -- \
//!     [--nodes N] [--xbar-size N] [--density D] [--iters N] [--smoke] [--out PATH]
//! ```
//!
//! Writes a [`fare_obs::RunManifest`] (default `BENCH_mapping.json`)
//! with one `bench` entry per kernel (`<kernel>.ns_per_iter`) — the same
//! schema every other manifest in the workspace uses, so
//! `fare-report diff BENCH_mapping.json <fresh.json>` compares bench
//! runs across PRs with the one code path.

use fare_bench::{string_flag, time_ns};
use fare_obs::RunManifest;
use fare_core::mapping::{self, reference};
use fare_core::{map_adjacency, refresh_row_permutations_cached, MappingConfig, RemapCache};
use fare_matching::Matcher;
use fare_reram::{CrossbarArray, FaultSpec, StuckPolarity};
use fare_rt::rand::rngs::StdRng;
use fare_rt::rand::{Rng, SeedableRng};
use fare_tensor::Matrix;

/// Random symmetric 0/1 adjacency with average degree `avg_degree` —
/// the sparsity regime GNN batch adjacencies actually live in (matches
/// `bench_core`'s graph generator).
fn random_adjacency(nodes: usize, avg_degree: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut adj = Matrix::zeros(nodes, nodes);
    let edges = nodes * avg_degree / 2;
    for _ in 0..edges {
        let i = rng.gen_range(0..nodes);
        let j = rng.gen_range(0..nodes);
        if i != j {
            adj[(i, j)] = 1.0;
            adj[(j, i)] = 1.0;
        }
    }
    adj
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let nodes: usize = string_flag("--nodes")
        .map(|v| v.parse().expect("numeric --nodes"))
        .unwrap_or(if smoke { 256 } else { 2_048 });
    let n: usize = string_flag("--xbar-size")
        .map(|v| v.parse().expect("numeric --xbar-size"))
        .unwrap_or(if smoke { 32 } else { 128 });
    let density: f64 = string_flag("--density")
        .map(|v| v.parse().expect("numeric --density"))
        .unwrap_or(0.05);
    let iters: usize = string_flag("--iters")
        .map(|v| v.parse().expect("numeric --iters"))
        .unwrap_or(if smoke { 1 } else { 3 });
    let out_path = string_flag("--out").unwrap_or_else(|| "BENCH_mapping.json".into());
    let threads = fare_rt::par::current_threads() as u64;

    // The ISSUE reference config: b-Suitor, pruning on, 50% crossbar
    // slack, 5% fault density.
    let cfg = MappingConfig {
        matcher: Matcher::BSuitor,
        ..MappingConfig::default()
    };
    let blocks = nodes.div_ceil(n).pow(2);
    let m = (blocks * 3) / 2;
    eprintln!(
        "setup: {nodes}-node adjacency, {blocks} blocks on {m} {n}x{n} crossbars, \
         {:.0}% fault density, b-Suitor",
        density * 100.0
    );
    let adj = random_adjacency(nodes, 20, 11);
    let mut array = CrossbarArray::new(m, n);
    let mut rng = StdRng::seed_from_u64(11);
    array.inject(&FaultSpec::density(density), &mut rng);
    let size = format!("nodes={nodes},blocks={blocks},xbars={m}x{n},density={density}");

    // The fast path must be bit-identical to the serial reduced oracle
    // before we time anything.
    let fast = map_adjacency(&adj, &array, &cfg);
    let oracle = reference::map_adjacency(&adj, &array, &cfg);
    assert!(fast == oracle, "fast path diverges from the serial oracle");

    eprintln!("timing fast path ({iters} iters)...");
    let map_ns = time_ns(iters, || {
        std::hint::black_box(map_adjacency(&adj, &array, &cfg));
    });

    // Post-deployment refresh: a sparse BIST delta touches a handful of
    // crossbars; the incremental path re-solves only those.
    let mut cache = RemapCache::new();
    let mapping = mapping::map_adjacency_cached(&adj, &array, &cfg, &mut cache);
    let touched = (m / 50).max(1);
    for k in 0..touched {
        let xi = (k * 37) % m;
        let r = (k * 13) % n;
        let c = (k * 29) % n;
        let pol = if k % 2 == 0 {
            StuckPolarity::StuckAtOne
        } else {
            StuckPolarity::StuckAtZero
        };
        array.crossbar_mut(xi).inject_fault(r, c, pol);
    }
    // `cache` was warmed before the delta; keep that state around so
    // every timed iteration measures the same thing — the first
    // post-BIST refresh, where only the `touched` crossbars miss.
    let pre_delta_cache = cache.clone();
    let incr = refresh_row_permutations_cached(&adj, &array, &mapping, cfg.matcher, &mut cache);
    let refreshed_oracle = reference::refresh_row_permutations(&adj, &array, &mapping, cfg.matcher);
    assert!(
        incr == refreshed_oracle,
        "incremental refresh diverges from the serial oracle"
    );

    eprintln!("timing incremental cached refresh ({iters} iters)...");
    let refresh_ns = time_ns(iters, || {
        let mut warm = pre_delta_cache.clone();
        std::hint::black_box(refresh_row_permutations_cached(
            &adj,
            &array,
            &mapping,
            cfg.matcher,
            &mut warm,
        ));
    });

    let rows: [(&str, f64); 2] = [
        ("map_adjacency_fast_path", map_ns),
        ("refresh_incremental_cached", refresh_ns),
    ];
    let mut manifest =
        RunManifest::capture("bench_mapping", 11, &size).with_bench("threads", threads as f64);
    for (kernel, ns) in &rows {
        manifest = manifest.with_bench(&format!("{kernel}.ns_per_iter"), *ns);
    }

    for (kernel, ns) in &rows {
        println!("{kernel:<28} {size:<52} {ns:>16.0} ns/iter  ({threads} threads)");
    }

    std::fs::write(&out_path, manifest.to_json_pretty() + "\n")
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!("wrote {out_path}");
}
