//! The benchmark's workloads: seeded datasets, training configurations,
//! and the untraced `Trainer::run` / `run_fault_free` calls the
//! end-to-end metrics time.

use fare_core::{run_fault_free, FaultStrategy, TrainConfig, TrainOutcome, Trainer};
use fare_graph::datasets::{Dataset, DatasetKind, ModelKind};
use fare_graph::generate;
use fare_reram::FaultSpec;
use fare_rt::rand::rngs::StdRng;
use fare_rt::rand::{Rng, SeedableRng};
use fare_tensor::{init, Matrix};

/// Pre-deployment fault density of every faulty run (paper Fig. 5).
const DENSITY: f64 = 0.05;
/// SA1 share of injected faults: SA0:SA1 = 1:1.
const SA1_FRACTION: f64 = 0.5;

/// One training scheme the benchmark times: the fault-free reference or
/// one of the program's four fault strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Ideal hardware (`run_fault_free`).
    Free,
    /// No mitigation.
    Unaware,
    /// Neuron reordering.
    Nr,
    /// Weight clipping only.
    Clip,
    /// Fault-aware mapping plus clipping.
    Fare,
}

impl Strategy {
    /// Every scheme, in the order a round runs them.
    pub const ALL: [Strategy; 5] = [
        Strategy::Free,
        Strategy::Unaware,
        Strategy::Nr,
        Strategy::Clip,
        Strategy::Fare,
    ];

    /// The metric-name suffix (`run_s.<name>`, `acc.<name>`).
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Free => "free",
            Strategy::Unaware => "unaware",
            Strategy::Nr => "nr",
            Strategy::Clip => "clip",
            Strategy::Fare => "fare",
        }
    }

    /// The program's strategy; `None` for the fault-free reference.
    pub fn fault_strategy(self) -> Option<FaultStrategy> {
        match self {
            Strategy::Free => None,
            Strategy::Unaware => Some(FaultStrategy::FaultUnaware),
            Strategy::Nr => Some(FaultStrategy::NeuronReordering),
            Strategy::Clip => Some(FaultStrategy::ClippingOnly),
            Strategy::Fare => Some(FaultStrategy::FaRe),
        }
    }
}

/// A workload: a dataset recipe plus the training configuration every
/// strategy shares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// GNN architecture.
    pub model: ModelKind,
    /// Training epochs.
    pub epochs: usize,
    /// PPI nodes are multiplied and `p_in`/`p_out` divided by this.
    pub scale: usize,
    /// Post-deployment fault density spread over the epochs.
    pub post_density: f64,
    /// Datasets per run, each with its own seed. Run time depends on the
    /// generated batches, so averaging over several keeps a run's
    /// figures close to the workload's and not to one seed's.
    pub inputs: usize,
}

/// The benchmark's workloads.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "ppi_fig5",
        model: ModelKind::Gcn,
        epochs: 20,
        scale: 1,
        post_density: 0.0,
        inputs: 3,
    },
    Workload {
        name: "ppi_x10_map",
        model: ModelKind::Gcn,
        epochs: 3,
        scale: 10,
        post_density: 0.0,
        inputs: 2,
    },
    Workload {
        name: "ppi_gat_churn",
        model: ModelKind::Gat,
        epochs: 20,
        scale: 1,
        post_density: 0.05,
        inputs: 3,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The seeds of a run's inputs: `inputs` consecutive seeds derived
    /// from the workload seed, disjoint between workload seeds.
    pub fn input_seeds(&self, seed: u64) -> Vec<u64> {
        let k = self.inputs as u64;
        (0..k)
            .map(|i| seed.wrapping_mul(k).wrapping_add(i))
            .collect()
    }

    /// Generates the workload's dataset from `seed`.
    ///
    /// At scale 1 this is the PPI preset. Otherwise it follows the
    /// preset's recipe (`Dataset::generate`) with `scale`× the nodes and
    /// `p_in`/`p_out` divided by `scale`, so node degrees stay those of
    /// PPI while every mini-batch grows `scale`×.
    pub fn dataset(&self, seed: u64) -> Dataset {
        if self.scale == 1 {
            return Dataset::generate(DatasetKind::Ppi, seed);
        }
        let mut spec = DatasetKind::Ppi.spec();
        spec.nodes *= self.scale;
        spec.p_in /= self.scale as f64;
        spec.p_out /= self.scale as f64;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA12_E000);
        let (graph, labels) = generate::sbm_power_law(
            spec.nodes,
            spec.communities,
            spec.p_in,
            spec.p_out,
            spec.hub_fraction,
            &mut rng,
        );
        let centroids = init::normal(spec.communities, spec.feature_dim, 1.0, &mut rng);
        let noise = init::normal(spec.nodes, spec.feature_dim, 1.6, &mut rng);
        let features = Matrix::from_fn(spec.nodes, spec.feature_dim, |r, c| {
            centroids[(labels[r], c)] + noise[(r, c)]
        });
        let train_mask: Vec<bool> = (0..spec.nodes).map(|_| rng.gen_bool(0.7)).collect();
        let num_classes = spec.communities;
        Dataset {
            spec,
            graph,
            features,
            labels,
            num_classes,
            train_mask,
        }
    }

    /// The training configuration of `strategy` (the fault-free
    /// reference reads only the model and optimiser fields).
    pub fn config(&self, strategy: Strategy) -> TrainConfig {
        TrainConfig {
            model: self.model,
            epochs: self.epochs,
            fault_spec: FaultSpec::with_sa1_fraction(DENSITY, SA1_FRACTION),
            post_deployment_density: self.post_density,
            strategy: strategy.fault_strategy().unwrap_or(FaultStrategy::FaRe),
            ..TrainConfig::default()
        }
    }

    /// One line naming everything the workload fixes.
    pub fn describe(&self) -> String {
        let c = self.config(Strategy::Fare);
        format!(
            "{}: {} datasets per run, PPI x{} (p_in/p_out /{}), {}, hidden {}, depth {}, {} epochs, \
             {}x{} crossbars, slack {}, {:?}, pre-deployment density {} \
             (SA1 fraction {}), post-deployment density {}",
            self.name,
            self.inputs,
            self.scale,
            self.scale,
            c.model,
            c.hidden_dim,
            c.depth,
            c.epochs,
            c.crossbar_size,
            c.crossbar_size,
            c.crossbar_slack,
            c.matcher,
            c.fault_spec.density,
            c.fault_spec.sa1_fraction,
            c.post_deployment_density,
        )
    }
}

/// One untraced training run of `strategy`, exactly as a user runs it.
pub fn train(
    workload: &Workload,
    strategy: Strategy,
    seed: u64,
    dataset: &Dataset,
) -> TrainOutcome {
    let config = workload.config(strategy);
    match strategy {
        Strategy::Free => run_fault_free(&config, seed, dataset),
        _ => Trainer::new(config, seed).run(dataset),
    }
}
