//! The traced replay must reproduce `Trainer::run` / `run_fault_free`
//! bit for bit, or its per-layer numbers describe another program.

use std::sync::Mutex;

use fare_core::EpochStats;
use fare_e2e_bench::replay::replay;
use fare_e2e_bench::workload::{train, Strategy, Workload};
use fare_graph::datasets::ModelKind;

/// The replay reads the program's process-global telemetry counters, so
/// the tests of this file run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn tiny(model: ModelKind, epochs: usize, post_density: f64) -> Workload {
    Workload {
        name: "tiny",
        model,
        epochs,
        scale: 1,
        post_density,
        inputs: 1,
    }
}

fn bits(history: &[EpochStats]) -> Vec<(usize, u64, u64, u64)> {
    history
        .iter()
        .map(|e| {
            (
                e.epoch,
                e.loss.to_bits(),
                e.train_accuracy.to_bits(),
                e.test_accuracy.to_bits(),
            )
        })
        .collect()
}

fn assert_replay_matches(workload: &Workload, seed: u64) {
    let _serial = SERIAL.lock().expect("no test panicked holding the lock");
    let dataset = workload.dataset(seed);
    for s in Strategy::ALL {
        let out = train(workload, s, seed, &dataset);
        let r = replay(&workload.config(s), s == Strategy::Free, seed, &dataset);
        assert_eq!(bits(&r.history), bits(&out.history), "{} history", s.name());
        assert_eq!(
            r.final_mapping_cost,
            out.final_mapping_cost,
            "{} cost",
            s.name()
        );
        assert_eq!(
            r.normalized_time.to_bits(),
            out.normalized_time.to_bits(),
            "{} normalised time",
            s.name()
        );
        assert!(r.wall_s > 0.0 && r.ledger.timed_s() <= r.wall_s);
    }
}

#[test]
fn gcn_replay_matches_trainer_for_every_strategy() {
    assert_replay_matches(&tiny(ModelKind::Gcn, 2, 0.0), 7);
}

#[test]
fn gat_replay_with_post_deployment_faults_matches_trainer() {
    // Post-deployment faults exercise inject → refresh / re-reorder →
    // corrupt → view rebuild between the two epochs.
    assert_replay_matches(&tiny(ModelKind::Gat, 2, 0.05), 8);
}

#[test]
fn replay_reads_the_program_counters() {
    let _serial = SERIAL.lock().expect("no test panicked holding the lock");
    let w = tiny(ModelKind::Gat, 2, 0.05);
    let dataset = w.dataset(9);
    let r = replay(&w.config(Strategy::Fare), false, 9, &dataset);
    let count = |k: &str| r.ledger.counts.get(k).copied().unwrap_or(0.0);
    assert!(count("mapping.pairs_solved") > 0.0);
    assert!(count("mapping.remap_hits") + count("mapping.remap_misses") > 0.0);
    assert!(count("reram.faults_injected_sa0") + count("reram.faults_injected_sa1") > 0.0);
    // Every batch's forward runs once per epoch in training and once in
    // evaluation.
    let batches = r.ledger.calls["faulty.corrupt"] as f64 / 2.0;
    assert_eq!(count("gnn.forward_calls"), 2.0 * 2.0 * batches);
    assert_eq!(r.ledger.calls["mapping.map"] as f64, batches);
    assert_eq!(r.ledger.calls["mapping.refresh"] as f64, batches);
}

#[test]
fn scaled_dataset_is_seeded_and_scaled() {
    let w = Workload {
        scale: 2,
        ..tiny(ModelKind::Gcn, 1, 0.0)
    };
    let a = w.dataset(3);
    let b = w.dataset(3);
    assert_eq!(a.graph, b.graph);
    assert_eq!(a.features, b.features);
    assert_eq!(a.train_mask, b.train_mask);
    assert_eq!(
        a.graph.num_nodes(),
        2 * tiny(ModelKind::Gcn, 1, 0.0).dataset(3).graph.num_nodes()
    );
    assert_ne!(a.graph, w.dataset(4).graph);
}
