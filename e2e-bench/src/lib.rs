//! End-to-end FARe training benchmark.
//!
//! `workload` defines the seeded workloads and the untraced training
//! runs; `replay` re-enacts a run step by step to time each layer;
//! `runner` runs either and reports the metrics listed here. See
//! `README.md` in this directory for what each metric means.

#![deny(unsafe_code)]

pub mod replay;
pub mod runner;
pub mod workload;

/// End-to-end metrics (`--trace 0`), name and unit.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("run_s.free", "s"),
    ("run_s.unaware", "s"),
    ("run_s.nr", "s"),
    ("run_s.clip", "s"),
    ("run_s.fare", "s"),
    ("epochs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
];

/// Per-layer metrics (`--trace 1`), name and unit.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("graph.partition_s", "s"),
    ("graph.batch_s", "s"),
    ("graph.batch_nodes_max", "count"),
    ("graph.view_s", "s"),
    ("graph.view_calls", "count"),
    ("faulty.corrupt_s", "s"),
    ("faulty.corrupt_calls", "count"),
    ("reram.inject_s", "s"),
    ("reram.faults_injected", "count"),
    ("mapping.map_s", "s"),
    ("mapping.map_calls", "count"),
    ("mapping.map_share", "share"),
    ("mapping.pairs_solved", "count"),
    ("mapping.empty_block_share", "share"),
    ("mapping.refresh_s", "s"),
    ("mapping.refresh_calls", "count"),
    ("mapping.remap_hit_ratio", "share"),
    ("mapping.reorder_s", "s"),
    ("mapping.sequential_s", "s"),
    ("mapping.mismatch_cost", "count"),
    ("gnn.init_s", "s"),
    ("gnn.forward_s", "s"),
    ("gnn.backward_s", "s"),
    ("gnn.step_s", "s"),
    ("gnn.eval_s", "s"),
    ("gnn.forward_calls", "count"),
    ("trainer.loss_s", "s"),
    ("replay.wall_s", "s"),
    ("replay.unattributed_share", "share"),
    ("replay.overhead", "x"),
    ("acc.free", "share"),
    ("acc.unaware", "share"),
    ("acc.nr", "share"),
    ("acc.clip", "share"),
    ("acc.fare", "share"),
    ("norm_time.fare", "x"),
];
