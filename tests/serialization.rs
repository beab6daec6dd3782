//! Serde round-trip tests: the data-structure types of the workspace
//! serialise and deserialise losslessly (C-SERDE), enabling experiment
//! checkpointing and the bench harness's `--json` output.

use fare::core::mapping::{map_adjacency, Mapping, MappingConfig};
use fare::core::{EpochStats, FaultStrategy, TrainConfig, TrainOutcome, Trainer};
use fare::gnn::{Gnn, GnnDims};
use fare::graph::datasets::{Dataset, DatasetKind, ModelKind};
use fare::graph::CsrGraph;
use fare::reram::{Bist, CrossbarArray, FaultMap, FaultSpec};
use fare::tensor::Matrix;
use fare_rt::rand::rngs::StdRng;
use fare_rt::rand::SeedableRng;

fn round_trip<T: fare_rt::json::ToJson + fare_rt::json::FromJson + PartialEq + std::fmt::Debug>(
    value: &T,
) {
    let json = fare_rt::json::to_string(value).expect("serialises");
    let back: T = fare_rt::json::from_str(&json).expect("deserialises");
    assert_eq!(&back, value);
}

#[test]
fn matrix_round_trips() {
    let m = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.25 - 1.0);
    round_trip(&m);
}

#[test]
fn csr_graph_round_trips() {
    let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5), (0, 5)]);
    round_trip(&g);
}

#[test]
fn fault_spec_and_config_round_trip() {
    round_trip(&FaultSpec::with_ratio(0.03, 9.0, 1.0));
    round_trip(&TrainConfig {
        model: ModelKind::Gat,
        strategy: FaultStrategy::NeuronReordering,
        fault_spec: FaultSpec::density(0.05),
        ..TrainConfig::default()
    });
    // A config naming a matcher the workspace no longer has is a parse
    // error, not a silent fallback.
    let json = fare_rt::json::to_string(&TrainConfig::default()).expect("serialises");
    assert!(json.contains("\"matcher\":\"BSuitor\""), "{json}");
    let stale = json.replace("\"BSuitor\"", "\"Auction\"");
    assert!(fare_rt::json::from_str::<TrainConfig>(&stale).is_err());
}

#[test]
fn crossbar_array_and_fault_map_round_trip() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut array = CrossbarArray::new(4, 16);
    array.inject(&FaultSpec::density(0.05), &mut rng);
    round_trip(&array);
    let map: FaultMap = Bist::scan(&array);
    round_trip(&map);
}

#[test]
fn model_round_trips_and_still_runs() {
    let mut rng = StdRng::seed_from_u64(5);
    let dims = GnnDims {
        input: 6,
        hidden: 8,
        output: 3,
    };
    for kind in [ModelKind::Gcn, ModelKind::Sage, ModelKind::Gat] {
        let model = Gnn::new(kind, dims, &mut rng);
        let json = fare_rt::json::to_string(&model).expect("serialises");
        let back: Gnn = fare_rt::json::from_str(&json).expect("deserialises");
        assert_eq!(back, model);
        // The restored model computes identically (edge checkpointing).
        let adj = fare::graph::GraphView::from_dense(Matrix::from_rows(&[
            &[0.0, 1.0, 0.0],
            &[1.0, 0.0, 1.0],
            &[0.0, 1.0, 0.0],
        ]));
        let x = Matrix::from_fn(3, 6, |r, c| ((r * 6 + c) as f32 * 0.3).sin());
        let (a, _) = model.forward(&adj, &x, &fare::gnn::IdealReader);
        let (b, _) = back.forward(&adj, &x, &fare::gnn::IdealReader);
        assert_eq!(a, b, "{kind}");
    }
}

#[test]
fn mapping_round_trips() {
    let mut rng = StdRng::seed_from_u64(7);
    let adj = Matrix::from_fn(16, 16, |i, j| {
        if i != j && (i * 5 + j) % 7 == 0 {
            1.0
        } else {
            0.0
        }
    });
    let adj = adj.zip_map(&adj.transpose(), |a, b| if a + b > 0.0 { 1.0 } else { 0.0 });
    let mut array = CrossbarArray::new(8, 8);
    array.inject(&FaultSpec::density(0.05), &mut rng);
    let mapping: Mapping = map_adjacency(&adj, &array, &MappingConfig::default());
    round_trip(&mapping);
}

#[test]
fn train_outcome_round_trips() {
    let ds = Dataset::generate(DatasetKind::Ppi, 9);
    let config = TrainConfig {
        epochs: 2,
        fault_spec: FaultSpec::density(0.02),
        ..TrainConfig::default()
    };
    let out: TrainOutcome = Trainer::new(config, 9).run(&ds);
    // JSON round-trips of f64 may differ by one ULP in serde_json's
    // reader, so compare with tolerance; the *second* round-trip must be
    // a fixed point.
    let json = fare_rt::json::to_string(&out).expect("serialises");
    let back: TrainOutcome = fare_rt::json::from_str(&json).expect("deserialises");
    assert_eq!(back.history.len(), out.history.len());
    for (a, b) in back.history.iter().zip(&out.history) {
        assert_eq!(a.epoch, b.epoch);
        assert!((a.loss - b.loss).abs() < 1e-12);
        assert!((a.train_accuracy - b.train_accuracy).abs() < 1e-12);
        assert!((a.test_accuracy - b.test_accuracy).abs() < 1e-12);
    }
    assert_eq!(back.num_batches, out.num_batches);
    assert_eq!(back.final_mapping_cost, out.final_mapping_cost);
    let json2 = fare_rt::json::to_string(&back).expect("serialises");
    let back2: TrainOutcome = fare_rt::json::from_str(&json2).expect("deserialises");
    assert_eq!(back2, back, "second round-trip must be lossless");
    let stats: EpochStats = back.history[0];
    round_trip(&stats);
}

/// Hostile input: a manifest of 200 000 `[` characters. The parser's
/// nesting bound turns it into a parse error, so `fare-report diff`
/// reports a usage error (exit 2) instead of overflowing its stack.
#[test]
fn report_diff_rejects_deeply_nested_manifest() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("deeply_nested.json");
    std::fs::write(&path, "[".repeat(200_000)).expect("writes the hostile manifest");
    assert!(fare_rt::json::parse(&std::fs::read_to_string(&path).unwrap()).is_err());
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_fare-report"))
        .arg("diff")
        .arg(&path)
        .arg(&path)
        .output()
        .expect("runs fare-report");
    assert_eq!(out.status.code(), Some(2), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

/// An in-place edit of a heatmap grid.
type GridEdit = fn(&mut fare::obs::HeatmapGrid);

/// Runs `fare-report <cmd>` on the golden manifest with its first
/// heatmap grid edited; returns the exit code and stderr.
fn report_on_edited_grid(name: &str, cmd: &str, edit: GridEdit) -> (Option<i32>, String) {
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/golden_trace.json");
    let text = std::fs::read_to_string(golden).expect("reads the golden manifest");
    let mut manifest = fare::report::parse_manifest(&text).expect("the golden manifest parses");
    edit(&mut manifest.heatmaps[0]);
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.json"));
    std::fs::write(&path, manifest.to_json_pretty()).expect("writes the edited manifest");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_fare-report"))
        .args([cmd.as_ref(), path.as_os_str()])
        .output()
        .expect("runs fare-report");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

/// Malformed heatmap grids are usage errors (exit 2) at load instead of
/// panics in the renderers; `u64::MAX` fault counts are well formed and
/// must not overflow.
#[test]
fn report_rejects_malformed_heatmap_grids() {
    let cases: [(&str, GridEdit, i32); 4] = [
        ("grid_zero_cols", |g| g.cols = 0, 2),
        ("grid_too_small", |g| g.rows = 1, 2),
        ("grid_ragged", |g| g.mvms.truncate(1), 2),
        ("grid_saturated", |g| (g.sa0[0], g.sa1[0]) = (u64::MAX, 1), 0),
    ];
    for (name, edit, expected) in cases {
        for cmd in ["heatmap", "summarize"] {
            let (code, stderr) = report_on_edited_grid(name, cmd, edit);
            assert_eq!(code, Some(expected), "{name} {cmd}: {stderr}");
        }
    }
}
