//! The golden workload: the one seeded training run the regression
//! net pins.
//!
//! `tests/golden_trace.rs` (manifest snapshot, span-trace digest,
//! thread-invariance and purity) and the `fare-report run-golden` CLI
//! subcommand (the verify.sh diff gate) must execute the *same* run, so
//! its definition lives here once: seed 7, PPI preset, GCN, 5 epochs,
//! FARe strategy, 3% pre-deployment faults (half SA1) plus 1%
//! post-deployment faults — enough to exercise the packed fault kernels,
//! `RemapCache` and the incremental refresh path.
//!
//! After an intentional behaviour change, regenerate both committed
//! files (`tests/golden/golden_trace.json` and
//! `tests/golden/golden_trace_digest.json`) with
//!
//! ```text
//! FARE_GOLDEN_UPDATE=1 cargo test --test golden_trace
//! ```

use fare_core::{FaultStrategy, TrainConfig, TrainOutcome, Trainer};
use fare_graph::datasets::{Dataset, DatasetKind, ModelKind};
use fare_obs::{self as obs, ClockMode, Mode};
use fare_reram::FaultSpec;

/// The golden seed.
pub const SEED: u64 = 7;

/// Fixed-clock step (ns) every golden capture installs.
pub const CLOCK_STEP_NS: u64 = 1_000;

/// The golden training configuration.
pub fn config() -> TrainConfig {
    TrainConfig {
        model: ModelKind::Gcn,
        epochs: 5,
        fault_spec: FaultSpec::with_sa1_fraction(0.03, 0.5),
        post_deployment_density: 0.01,
        strategy: FaultStrategy::FaRe,
        ..TrainConfig::default()
    }
}

/// The golden dataset (PPI preset under the golden seed).
pub fn dataset() -> Dataset {
    Dataset::generate(DatasetKind::Ppi, SEED)
}

/// Everything one golden run leaves behind.
#[derive(Debug, Clone)]
pub struct Capture {
    /// The training result; telemetry never feeds back into it.
    pub outcome: TrainOutcome,
    /// Counters, span totals, epoch curve and heatmaps, plus the outcome's
    /// headline numbers as `bench` entries.
    pub manifest: obs::RunManifest,
    /// The drained span trace; empty unless `mode` was [`Mode::Trace`].
    pub trace: obs::trace::TraceLog,
}

/// Runs the golden workload under `mode` with the fixed telemetry
/// clock, captures its manifest and drains the span trace. Leaves
/// telemetry off afterwards.
pub fn capture(mode: Mode) -> Capture {
    obs::set_mode(mode);
    obs::set_clock(ClockMode::Fixed(CLOCK_STEP_NS));
    obs::reset();
    let outcome = Trainer::new(config(), SEED).run(&dataset());
    let manifest = obs::RunManifest::capture("golden_trace", SEED, &config())
        .with_bench("final_test_accuracy", outcome.final_test_accuracy)
        .with_bench("best_test_accuracy", outcome.best_test_accuracy)
        .with_bench("final_mapping_cost", outcome.final_mapping_cost as f64)
        .with_bench("normalized_time", outcome.normalized_time);
    let trace = obs::trace::take();
    obs::set_clock(ClockMode::Wall);
    obs::set_mode(Mode::Off);
    obs::reset();
    Capture {
        outcome,
        manifest,
        trace,
    }
}
