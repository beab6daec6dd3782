//! The full FARe training pipeline: partition → mini-batch → map →
//! train on faulty crossbars → clip → (per-epoch BIST + refresh).

use fare_gnn::{Adam, Gnn, GnnDims, IdealReader};
use fare_graph::batch::{make_batches, MiniBatch};
use fare_graph::datasets::{Dataset, ModelKind};
use fare_graph::partition::partition;
use fare_graph::GraphView;
use fare_matching::Matcher;
use fare_reram::timing::{PipelineSpec, TimingModel};
use fare_reram::{CrossbarArray, FaultSpec};
use fare_rt::rand::Rng;
use fare_tensor::{ops, Matrix};

use crate::faulty::{corrupt_adjacency_mapped, FaultyWeightReader};
use crate::mapping::{
    map_adjacency_cached, refresh_row_permutations_cached, reordered_sequential_mapping,
    sequential_mapping, Mapping, MappingConfig, RemapCache,
};
use crate::FaultStrategy;

/// Configuration of one training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// GNN architecture.
    pub model: ModelKind,
    /// Hidden layer width.
    pub hidden_dim: usize,
    /// Number of GNN layers (>= 2). Deeper models add pipeline stages.
    pub depth: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate (Table II: 0.01).
    pub learning_rate: f32,
    /// Decoupled (AdamW-style) weight decay; 0 disables it.
    pub weight_decay: f32,
    /// Global gradient-norm clip; 0 disables it. Stabilises training
    /// against outlier gradients from fault-corrupted forward passes.
    pub grad_clip_norm: f32,
    /// Weight clip threshold θ.
    pub clip_threshold: f32,
    /// Pre-deployment fault statistics.
    pub fault_spec: FaultSpec,
    /// Log-normal σ of programming variation on stored weights
    /// (extension; 0 disables it).
    pub weight_variation_sigma: f64,
    /// Per-epoch retention-drift σ compounded onto the variation field
    /// (extension; 0 disables it; requires or implies a variation
    /// field).
    pub weight_drift_sigma: f64,
    /// Extra fault density added *in total* over the run as
    /// post-deployment faults, injected in equal per-epoch increments
    /// (paper Fig. 6 uses 0.01).
    pub post_deployment_density: f64,
    /// Mitigation scheme.
    pub strategy: FaultStrategy,
    /// Crossbar dimension (must be a multiple of 8 for the weight path).
    pub crossbar_size: usize,
    /// Crossbar over-provisioning for the adjacency pool: the algorithm
    /// gets `ceil(blocks × slack)` crossbars to choose from.
    pub crossbar_slack: f64,
    /// Assignment solver for all matchings.
    pub matcher: Matcher,
    /// Inject faults into the weight fabrics (combination phase)?
    pub weight_faults: bool,
    /// Inject faults into the adjacency crossbars (aggregation phase)?
    pub adjacency_faults: bool,
    /// For FARe: refresh row permutations after each post-deployment BIST
    /// scan (the paper's maintenance step). Disable for ablation only.
    pub post_refresh: bool,
}

fare_rt::json_struct!(TrainConfig { model, hidden_dim, depth, epochs, learning_rate, weight_decay, grad_clip_norm, clip_threshold, fault_spec, weight_variation_sigma, weight_drift_sigma, post_deployment_density, strategy, crossbar_size, crossbar_slack, matcher, weight_faults, adjacency_faults, post_refresh });

impl TrainConfig {
    /// Checks what every training entry point relies on: epochs > 0,
    /// depth ≥ 2, crossbar size a positive multiple of 8, finite
    /// crossbar slack ≥ 1, and the post-deployment density and both
    /// `fault_spec` fractions in [0, 1] (which also rules out NaN and
    /// infinities).
    ///
    /// # Errors
    ///
    /// The rule the first failing field breaks.
    pub fn validate(&self) -> Result<(), String> {
        let rules = [
            (self.epochs > 0, "epochs must be positive"),
            (self.depth >= 2, "depth must be at least 2"),
            (
                self.crossbar_size > 0 && self.crossbar_size.is_multiple_of(8),
                "crossbar size must be a positive multiple of 8",
            ),
            (
                self.crossbar_slack.is_finite() && self.crossbar_slack >= 1.0,
                "crossbar slack must be finite and >= 1.0",
            ),
            (
                (0.0..=1.0).contains(&self.post_deployment_density),
                "post-deployment density must be in [0, 1]",
            ),
            (
                (0.0..=1.0).contains(&self.fault_spec.density),
                "fault_spec.density must be in [0, 1]",
            ),
            (
                (0.0..=1.0).contains(&self.fault_spec.sa1_fraction),
                "fault_spec.sa1_fraction must be in [0, 1]",
            ),
        ];
        match rules.into_iter().find(|&(ok, _)| !ok) {
            Some((_, rule)) => Err(rule.to_string()),
            None => Ok(()),
        }
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            model: ModelKind::Gcn,
            hidden_dim: 16,
            depth: 2,
            epochs: 20,
            learning_rate: 0.01,
            weight_decay: 0.0,
            grad_clip_norm: 0.0,
            clip_threshold: crate::clipping::DEFAULT_THRESHOLD,
            fault_spec: FaultSpec::fault_free(),
            weight_variation_sigma: 0.0,
            weight_drift_sigma: 0.0,
            post_deployment_density: 0.0,
            strategy: FaultStrategy::FaRe,
            crossbar_size: 16,
            crossbar_slack: 1.5,
            matcher: Matcher::BSuitor,
            weight_faults: true,
            adjacency_faults: true,
            post_refresh: true,
        }
    }
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch's batches.
    pub loss: f64,
    /// Training-split accuracy evaluated on the faulty hardware.
    pub train_accuracy: f64,
    /// Test-split accuracy evaluated on the faulty hardware.
    pub test_accuracy: f64,
}

fare_rt::json_struct!(EpochStats { epoch, loss, train_accuracy, test_accuracy });

/// Result of one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainOutcome {
    /// Per-epoch statistics.
    pub history: Vec<EpochStats>,
    /// Final-epoch training accuracy.
    pub final_train_accuracy: f64,
    /// Final-epoch test accuracy.
    pub final_test_accuracy: f64,
    /// Best test accuracy over all epochs (for early-stopping analyses).
    pub best_test_accuracy: f64,
    /// Execution time normalised to fault-free pipelined training
    /// (Fig. 7's metric) for this strategy.
    pub normalized_time: f64,
    /// Total adjacency mismatch cost under the final mappings.
    pub final_mapping_cost: usize,
    /// Number of mini-batches per epoch.
    pub num_batches: usize,
}

fare_rt::json_struct!(TrainOutcome { history, final_train_accuracy, final_test_accuracy, best_test_accuracy, normalized_time, final_mapping_cost, num_batches });

/// Cross-entropy restricted to masked rows: returns the mean loss over
/// selected rows and a gradient that is zero elsewhere.
fn masked_cross_entropy(logits: &Matrix, labels: &[usize], mask: &[bool]) -> (f64, Matrix) {
    assert_eq!(labels.len(), logits.rows());
    assert_eq!(mask.len(), logits.rows());
    let selected: Vec<usize> = (0..mask.len()).filter(|&i| mask[i]).collect();
    if selected.is_empty() {
        return (0.0, Matrix::zeros(logits.rows(), logits.cols()));
    }
    let probs = ops::softmax_rows(logits);
    let n = selected.len() as f32;
    let mut loss = 0.0f64;
    let mut grad = Matrix::zeros(logits.rows(), logits.cols());
    for &i in &selected {
        let label = labels[i];
        loss -= (probs[(i, label)].max(1e-12) as f64).ln();
        for c in 0..logits.cols() {
            grad[(i, c)] = (probs[(i, c)] - if c == label { 1.0 } else { 0.0 }) / n;
        }
    }
    (loss / selected.len() as f64, grad)
}

/// Per-batch hardware state.
struct BatchState {
    adj: Matrix,
    /// The adjacency as the hardware currently aggregates it, with its
    /// normalisations cached. Rebuilt only when the corruption changes
    /// (initial mapping, post-deployment injection, permutation refresh)
    /// — `corrupt_adjacency_mapped` is a pure function of
    /// `(adj, array, mapping)`, so between those events the view is
    /// exact.
    view: GraphView,
    features: Matrix,
    labels: Vec<usize>,
    train_mask: Vec<bool>,
    array: CrossbarArray,
    mapping: Mapping,
    /// Memoised `G₁` solutions keyed by block position; lets the
    /// post-BIST refresh re-solve only the crossbars whose fault state
    /// actually changed.
    remap: RemapCache,
}

/// Host-side preprocessing shared by every training entry point: the
/// multilevel partition, then the Cluster-GCN mini-batches, each under
/// its own span.
pub(crate) fn cluster_batches(dataset: &Dataset, rng: &mut impl Rng) -> Vec<MiniBatch> {
    let parts = {
        let _span = fare_obs::trace::span("core.trainer.partition");
        partition(&dataset.graph, dataset.spec.partitions, rng)
    };
    let _span = fare_obs::trace::span("core.trainer.batches");
    make_batches(&dataset.graph, &parts, dataset.spec.clusters_per_batch, rng)
}

/// The adjacency the model actually sees, wrapped in a [`GraphView`] so
/// each normalisation is computed once per corruption event instead of
/// once per forward pass.
pub(crate) fn hardware_view(
    adjacency_faults: bool,
    adj: &Matrix,
    array: &CrossbarArray,
    mapping: &Mapping,
) -> GraphView {
    if adjacency_faults {
        GraphView::from_dense(corrupt_adjacency_mapped(adj, array, mapping))
    } else {
        GraphView::from_dense(adj.clone())
    }
}

/// Drives a full training run of one configuration on one dataset.
///
/// See the crate-level example for usage.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
    seed: u64,
}

impl Trainer {
    /// Creates a trainer.
    ///
    /// # Panics
    ///
    /// Panics with the message of [`TrainConfig::validate`] if the
    /// configuration is invalid.
    pub fn new(config: TrainConfig, seed: u64) -> Self {
        config.validate().unwrap_or_else(|e| panic!("invalid TrainConfig: {e}"));
        Self { config, seed }
    }

    /// The configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Runs training and returns the outcome.
    ///
    /// Deterministic for a given `(config, seed, dataset)`.
    pub fn run(&self, dataset: &Dataset) -> TrainOutcome {
        fare_obs::counters::CORE_TRAINER_RUNS.incr();
        let _run_span = fare_obs::trace::span("core.trainer.run");
        let cfg = &self.config;
        let mut rng = fare_rt::domain_rng(self.seed, "trainer");
        let n = cfg.crossbar_size;
        let map_cfg = MappingConfig {
            matcher: cfg.matcher,
            prune: true,
            ..MappingConfig::default()
        };

        // 1. Partition + mini-batches (host-side preprocessing).
        let batches = cluster_batches(dataset, &mut rng);
        let num_batches = batches.len();

        // 2. Model + weight fabrics.
        let dims = GnnDims {
            input: dataset.spec.feature_dim,
            hidden: cfg.hidden_dim,
            output: dataset.num_classes,
        };
        let mut model = Gnn::with_depth(cfg.model, dims, cfg.depth, &mut rng);
        let mut reader = FaultyWeightReader::for_model(&model, n);
        if cfg.weight_faults {
            reader.inject(&cfg.fault_spec, &mut rng);
        }
        if cfg.weight_variation_sigma > 0.0 || cfg.weight_drift_sigma > 0.0 {
            reader.inject_variation(
                &fare_reram::variation::VariationSpec::new(cfg.weight_variation_sigma),
                &mut rng,
            );
        }
        if cfg.strategy.clips_weights() {
            reader.set_clip(Some(cfg.clip_threshold));
        }
        let mut opt = Adam::new(cfg.learning_rate, &model).with_weight_decay(cfg.weight_decay);

        // 3. Adjacency crossbar pools + initial (pre-deployment) mapping.
        let mut states: Vec<BatchState> = batches
            .into_iter()
            .map(|batch| {
                let adj = batch.dense_adjacency();
                let blocks = adj.rows().div_ceil(n).pow(2);
                let pool = ((blocks as f64 * cfg.crossbar_slack).ceil() as usize).max(blocks);
                let mut array = CrossbarArray::new(pool, n);
                if cfg.adjacency_faults {
                    array.inject(&cfg.fault_spec, &mut rng);
                }
                let mut remap = RemapCache::new();
                let mapping = match cfg.strategy {
                    FaultStrategy::FaRe => map_adjacency_cached(&adj, &array, &map_cfg, &mut remap),
                    FaultStrategy::NeuronReordering => {
                        reordered_sequential_mapping(&adj, &array, cfg.matcher)
                    }
                    _ => sequential_mapping(&adj, &array),
                };
                let features = batch.gather_features(&dataset.features);
                let labels = batch.gather_labels(&dataset.labels);
                let train_mask: Vec<bool> =
                    batch.nodes.iter().map(|&u| dataset.train_mask[u]).collect();
                let view = hardware_view(cfg.adjacency_faults, &adj, &array, &mapping);
                BatchState {
                    adj,
                    view,
                    features,
                    labels,
                    train_mask,
                    array,
                    mapping,
                    remap,
                }
            })
            .collect();

        // NR's weight-row reordering. The hardware recomputes the
        // permutation after every batch and stalls the pipeline for it —
        // the timing model charges exactly that. In simulation we compute
        // the placement once here and refresh it after every
        // post-deployment BIST event: the recomputation chases the same
        // static faults each time, so it is idempotent until the fault
        // map changes, and refreshing it every simulated batch would only
        // inject corruption churn the real mechanism does not have.
        if cfg.strategy.reorders_per_batch() {
            reader.optimize_placements(&model, cfg.matcher);
        }

        // 4. Training epochs.
        let per_epoch_extra = if cfg.post_deployment_density > 0.0 {
            cfg.post_deployment_density / cfg.epochs as f64
        } else {
            0.0
        };
        let mut history = Vec::with_capacity(cfg.epochs);
        for epoch in 0..cfg.epochs {
            let _epoch_span = fare_obs::trace::span_arg("core.trainer.epoch", epoch as u64);
            let mut epoch_loss = 0.0f64;
            for (bi, state) in states.iter_mut().enumerate() {
                fare_obs::counters::CORE_TRAINER_BATCHES.incr();
                let _batch_span = fare_obs::trace::span_arg("core.trainer.batch", bi as u64);
                let (logits, cache) = model.forward(&state.view, &state.features, &reader);
                let (loss, grad) =
                    masked_cross_entropy(&logits, &state.labels, &state.train_mask);
                epoch_loss += loss;
                let mut grads = model.backward(&state.view, &cache, &grad);
                if cfg.grad_clip_norm > 0.0 {
                    grads.clip_norm(cfg.grad_clip_norm);
                }
                model.apply_gradients(&grads, &mut opt);
                if cfg.strategy.clips_weights() {
                    model.clip_weights(cfg.clip_threshold);
                }
            }

            // Retention drift compounds every epoch.
            if cfg.weight_drift_sigma > 0.0 && epoch + 1 < cfg.epochs {
                reader.apply_drift(cfg.weight_drift_sigma, &mut rng);
            }

            // Post-deployment faults appear; BIST reveals them; FARe
            // refreshes its row permutations on the existing assignment Π.
            if per_epoch_extra > 0.0 && epoch + 1 < cfg.epochs {
                fare_obs::counters::CORE_TRAINER_POST_INJECTIONS.incr();
                let extra = FaultSpec::with_sa1_fraction(
                    per_epoch_extra,
                    cfg.fault_spec.sa1_fraction,
                );
                if cfg.adjacency_faults {
                    for state in &mut states {
                        state.array.inject(&extra, &mut rng);
                    }
                }
                if cfg.weight_faults {
                    reader.inject(&extra, &mut rng);
                }
                if cfg.strategy.maps_adjacency() && cfg.adjacency_faults && cfg.post_refresh {
                    for state in &mut states {
                        state.mapping = refresh_row_permutations_cached(
                            &state.adj,
                            &state.array,
                            &state.mapping,
                            cfg.matcher,
                            &mut state.remap,
                        );
                    }
                }
                // NR reacts to the BIST-detected new faults too.
                if cfg.strategy.reorders_per_batch() {
                    if cfg.adjacency_faults {
                        for state in &mut states {
                            state.mapping = reordered_sequential_mapping(
                                &state.adj,
                                &state.array,
                                cfg.matcher,
                            );
                        }
                    }
                    reader.optimize_placements(&model, cfg.matcher);
                }
                // The corruption changed (new faults and possibly new
                // permutations) — rebuild the cached views.
                if cfg.adjacency_faults {
                    for state in &mut states {
                        state.view =
                            hardware_view(true, &state.adj, &state.array, &state.mapping);
                    }
                }
            }

            // Epoch-end evaluation on the faulty hardware.
            let (train_acc, test_acc) = self.evaluate(&model, &reader, &states);
            let loss = epoch_loss / num_batches.max(1) as f64;
            fare_obs::counters::CORE_TRAINER_EPOCHS.incr();
            fare_obs::record_epoch(epoch, loss, train_acc, test_acc);
            history.push(EpochStats {
                epoch,
                loss,
                train_accuracy: train_acc,
                test_accuracy: test_acc,
            });
        }

        // 5. Timing (Fig. 7 model): stages = aggregation+combination per
        // layer + softmax/update stage.
        let stages = 2 * model.num_layers() + 1;
        let timing = TimingModel::new(PipelineSpec::new(
            num_batches.max(1),
            stages,
            1e-3,
            cfg.epochs,
        ));
        let times = timing.normalized();
        let normalized_time = match cfg.strategy {
            FaultStrategy::FaultUnaware => times.fault_free,
            FaultStrategy::ClippingOnly => times.clipping,
            FaultStrategy::NeuronReordering => times.neuron_reordering,
            FaultStrategy::FaRe => times.fare,
        };

        // 6. Spatial telemetry rollup: one per-crossbar heatmap over the
        // concatenated adjacency pools of every batch (pure observation —
        // reads fault maps and placements, touches no training state).
        if fare_obs::enabled() {
            fare_obs::heatmap::record(crossbar_heatmap(
                &states,
                cfg.epochs,
                model.num_layers(),
                num_batches.max(1),
                stages,
            ));
        }

        let last = history.last().copied().expect("at least one epoch");
        let best_test_accuracy = history
            .iter()
            .map(|e| e.test_accuracy)
            .fold(0.0f64, f64::max);
        TrainOutcome {
            final_train_accuracy: last.train_accuracy,
            final_test_accuracy: last.test_accuracy,
            best_test_accuracy,
            normalized_time,
            final_mapping_cost: states.iter().map(|s| s.mapping.total_cost()).sum(),
            num_batches,
            history,
        }
    }

    /// Accuracy over train/test splits, evaluated batch-by-batch on the
    /// current faulty hardware state.
    fn evaluate(
        &self,
        model: &Gnn,
        reader: &FaultyWeightReader,
        states: &[BatchState],
    ) -> (f64, f64) {
        let mut train = (0usize, 0usize);
        let mut test = (0usize, 0usize);
        for state in states {
            let (logits, _) = model.forward(&state.view, &state.features, reader);
            let preds = logits.argmax_rows();
            for (i, &label) in state.labels.iter().enumerate() {
                let correct = (preds[i] == label) as usize;
                if state.train_mask[i] {
                    train.0 += correct;
                    train.1 += 1;
                } else {
                    test.0 += correct;
                    test.1 += 1;
                }
            }
        }
        (
            train.0 as f64 / train.1.max(1) as f64,
            test.0 as f64 / test.1.max(1) as f64,
        )
    }
}

/// Per-crossbar telemetry rollup over the concatenated adjacency pools
/// of every batch state: measured SA0/SA1 fault cells and final mapping
/// mismatch cost per crossbar, plus *modeled* MVM traffic (each mapped
/// block is activated once per aggregation pass; three passes — train
/// forward, backward, evaluation forward — per layer per epoch) and the
/// chip-level energy estimate apportioned by that traffic.
fn crossbar_heatmap(
    states: &[BatchState],
    epochs: usize,
    num_layers: usize,
    num_batches: usize,
    stages: usize,
) -> fare_obs::HeatmapGrid {
    let cells: usize = states.iter().map(|s| s.array.len()).sum();
    let mut grid = fare_obs::HeatmapGrid::zeros("adjacency_crossbars", cells);
    let mut offset = 0usize;
    for state in states {
        for i in 0..state.array.len() {
            let xb = state.array.crossbar(i);
            grid.sa0[offset + i] = xb.sa0_count() as u64;
            grid.sa1[offset + i] = xb.sa1_count() as u64;
        }
        for p in state.mapping.placements() {
            grid.mismatch[offset + p.crossbar] += p.mismatch_cost as u64;
            grid.mvms[offset + p.crossbar] += (epochs * num_layers * 3) as u64;
        }
        offset += state.array.len();
    }
    if cells > 0 {
        let spec = PipelineSpec::new(num_batches, stages, 1e-3, epochs);
        let report = fare_reram::energy::estimate(
            &fare_reram::ChipConfig::date2024(),
            cells,
            &spec,
        );
        let total_mvms: u64 = grid.mvms.iter().sum();
        if total_mvms > 0 {
            for (e, &m) in grid.energy_nj.iter_mut().zip(&grid.mvms) {
                *e = report.energy_j * 1e9 * (m as f64 / total_mvms as f64);
            }
        }
    }
    grid
}

/// Trains the same configuration on **ideal** hardware (no quantisation,
/// no faults) — the "fault-free" reference bar of every figure.
///
/// Uses the same partitioning, batching, model init and update schedule
/// as [`Trainer::run`] so accuracy differences isolate the hardware
/// effects.
///
/// # Panics
///
/// Panics on the same configuration errors as [`Trainer::new`].
pub fn run_fault_free(config: &TrainConfig, seed: u64, dataset: &Dataset) -> TrainOutcome {
    config.validate().unwrap_or_else(|e| panic!("invalid TrainConfig: {e}"));
    let mut rng = fare_rt::domain_rng(seed, "trainer");
    let batches = cluster_batches(dataset, &mut rng);
    let num_batches = batches.len();
    let dims = GnnDims {
        input: dataset.spec.feature_dim,
        hidden: config.hidden_dim,
        output: dataset.num_classes,
    };
    let mut model = Gnn::with_depth(config.model, dims, config.depth, &mut rng);
    let mut opt =
        Adam::new(config.learning_rate, &model).with_weight_decay(config.weight_decay);

    struct Prepared {
        view: GraphView,
        features: Matrix,
        labels: Vec<usize>,
        train_mask: Vec<bool>,
    }
    let prepared: Vec<Prepared> = batches
        .iter()
        .map(|b| Prepared {
            // Fault-free: build the sparse view straight from the batch
            // subgraph, never materialising a dense adjacency.
            view: GraphView::from_graph(&b.graph),
            features: b.gather_features(&dataset.features),
            labels: b.gather_labels(&dataset.labels),
            train_mask: b.nodes.iter().map(|&u| dataset.train_mask[u]).collect(),
        })
        .collect();

    let mut history = Vec::with_capacity(config.epochs);
    for epoch in 0..config.epochs {
        let mut epoch_loss = 0.0;
        for p in &prepared {
            let (logits, cache) = model.forward(&p.view, &p.features, &IdealReader);
            let (loss, grad) = masked_cross_entropy(&logits, &p.labels, &p.train_mask);
            epoch_loss += loss;
            let mut grads = model.backward(&p.view, &cache, &grad);
            if config.grad_clip_norm > 0.0 {
                grads.clip_norm(config.grad_clip_norm);
            }
            model.apply_gradients(&grads, &mut opt);
        }
        let mut train = (0usize, 0usize);
        let mut test = (0usize, 0usize);
        for p in &prepared {
            let (logits, _) = model.forward(&p.view, &p.features, &IdealReader);
            let preds = logits.argmax_rows();
            for (i, &label) in p.labels.iter().enumerate() {
                let correct = (preds[i] == label) as usize;
                if p.train_mask[i] {
                    train.0 += correct;
                    train.1 += 1;
                } else {
                    test.0 += correct;
                    test.1 += 1;
                }
            }
        }
        history.push(EpochStats {
            epoch,
            loss: epoch_loss / num_batches.max(1) as f64,
            train_accuracy: train.0 as f64 / train.1.max(1) as f64,
            test_accuracy: test.0 as f64 / test.1.max(1) as f64,
        });
    }
    let last = history.last().copied().expect("at least one epoch");
    let best_test_accuracy = history
        .iter()
        .map(|e| e.test_accuracy)
        .fold(0.0f64, f64::max);
    TrainOutcome {
        final_train_accuracy: last.train_accuracy,
        final_test_accuracy: last.test_accuracy,
        best_test_accuracy,
        normalized_time: 1.0,
        final_mapping_cost: 0,
        num_batches,
        history,
    }
}

#[cfg(test)]
mod tests {
    use fare_graph::datasets::DatasetKind;

    use super::*;

    fn quick_config(strategy: FaultStrategy, density: f64) -> TrainConfig {
        TrainConfig {
            epochs: 3,
            fault_spec: FaultSpec::density(density),
            strategy,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn masked_cross_entropy_ignores_unmasked_rows() {
        let logits = Matrix::from_rows(&[&[5.0, -5.0], &[-5.0, 5.0]]);
        // Row 1 is wrong but masked out.
        let (loss, grad) = masked_cross_entropy(&logits, &[0, 0], &[true, false]);
        assert!(loss < 1e-3);
        assert_eq!(grad.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn masked_cross_entropy_empty_mask() {
        let logits = Matrix::zeros(2, 2);
        let (loss, grad) = masked_cross_entropy(&logits, &[0, 1], &[false, false]);
        assert_eq!(loss, 0.0);
        assert_eq!(grad.frobenius_norm(), 0.0);
    }

    #[test]
    fn fault_free_run_learns_ppi() {
        let ds = Dataset::generate(DatasetKind::Ppi, 3);
        let config = TrainConfig {
            epochs: 15,
            ..TrainConfig::default()
        };
        let out = run_fault_free(&config, 3, &ds);
        assert!(
            out.final_test_accuracy > 0.6,
            "fault-free accuracy too low: {}",
            out.final_test_accuracy
        );
        // Accuracy improved over training.
        assert!(out.history[0].test_accuracy < out.final_test_accuracy + 0.05);
    }

    #[test]
    fn trainer_runs_all_strategies() {
        let ds = Dataset::generate(DatasetKind::Ppi, 4);
        for strategy in FaultStrategy::all() {
            let out = Trainer::new(quick_config(strategy, 0.03), 4).run(&ds);
            assert_eq!(out.history.len(), 3, "{strategy}");
            assert!(out.num_batches > 1);
            assert!(out.final_test_accuracy >= 0.0 && out.final_test_accuracy <= 1.0);
        }
    }

    #[test]
    fn zero_density_fare_matches_ideal_closely() {
        // With no faults, FARe differs from ideal only by quantisation.
        let ds = Dataset::generate(DatasetKind::Ppi, 5);
        let config = TrainConfig {
            epochs: 10,
            fault_spec: FaultSpec::fault_free(),
            strategy: FaultStrategy::FaRe,
            ..TrainConfig::default()
        };
        let faulty = Trainer::new(config, 5).run(&ds);
        let ideal = run_fault_free(&config, 5, &ds);
        assert!(
            (faulty.final_test_accuracy - ideal.final_test_accuracy).abs() < 0.1,
            "quantisation-only gap too large: {} vs {}",
            faulty.final_test_accuracy,
            ideal.final_test_accuracy
        );
    }

    #[test]
    fn timing_ordering_matches_fig7() {
        let ds = Dataset::generate(DatasetKind::Ppi, 6);
        let times: Vec<f64> = FaultStrategy::all()
            .iter()
            .map(|&s| Trainer::new(quick_config(s, 0.01), 6).run(&ds).normalized_time)
            .collect();
        let (unaware, nr, clip, fare) = (times[0], times[1], times[2], times[3]);
        assert_eq!(unaware, 1.0);
        assert!(clip < fare);
        // At this test's tiny pipeline geometry (few batches) the relative
        // clip-stage charge is inflated; the paper-scale ~1% figure is
        // asserted in the fig7 experiment tests. Here we check ordering
        // and rough magnitude only.
        assert!(fare < 1.2, "FARe overhead too big: {fare}");
        assert!(nr > 2.0, "NR overhead too small: {nr}");
        assert!(nr > 2.0 * fare);
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let ds = Dataset::generate(DatasetKind::Ppi, 7);
        let a = Trainer::new(quick_config(FaultStrategy::FaRe, 0.02), 7).run(&ds);
        let b = Trainer::new(quick_config(FaultStrategy::FaRe, 0.02), 7).run(&ds);
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn moderate_variation_tolerated_with_fare() {
        let ds = Dataset::generate(DatasetKind::Ppi, 15);
        let base = TrainConfig {
            epochs: 8,
            fault_spec: FaultSpec::density(0.02),
            strategy: FaultStrategy::FaRe,
            ..TrainConfig::default()
        };
        let clean = Trainer::new(base, 15).run(&ds).final_test_accuracy;
        let varied = Trainer::new(
            TrainConfig {
                weight_variation_sigma: 0.1,
                ..base
            },
            15,
        )
        .run(&ds)
        .final_test_accuracy;
        // 10% programming variation should cost only a few points —
        // training adapts to the static multiplicative field.
        assert!(
            varied > clean - 0.1,
            "variation too damaging: {clean:.3} -> {varied:.3}"
        );
    }

    #[test]
    fn regularisation_knobs_do_not_break_training() {
        let ds = Dataset::generate(DatasetKind::Ppi, 18);
        let out = Trainer::new(
            TrainConfig {
                epochs: 8,
                weight_decay: 0.001,
                grad_clip_norm: 1.0,
                fault_spec: FaultSpec::density(0.02),
                strategy: FaultStrategy::FaRe,
                ..TrainConfig::default()
            },
            18,
        )
        .run(&ds);
        assert!(
            out.final_test_accuracy > 0.6,
            "regularised run failed to learn: {:.3}",
            out.final_test_accuracy
        );
        assert!(out.best_test_accuracy >= out.final_test_accuracy - 1e-12);
        assert!(out.best_test_accuracy <= 1.0);
    }

    #[test]
    fn mild_drift_tolerated() {
        let ds = Dataset::generate(DatasetKind::Ppi, 17);
        let base = TrainConfig {
            epochs: 8,
            strategy: FaultStrategy::FaRe,
            ..TrainConfig::default()
        };
        let clean = Trainer::new(base, 17).run(&ds).final_test_accuracy;
        let drifted = Trainer::new(
            TrainConfig {
                weight_drift_sigma: 0.01,
                ..base
            },
            17,
        )
        .run(&ds)
        .final_test_accuracy;
        // 1% per-epoch drift over 8 epochs is absorbed by training.
        assert!(
            drifted > clean - 0.1,
            "drift too damaging: {clean:.3} -> {drifted:.3}"
        );
    }

    #[test]
    fn extreme_variation_degrades_accuracy() {
        let ds = Dataset::generate(DatasetKind::Ppi, 16);
        let base = TrainConfig {
            epochs: 8,
            fault_spec: FaultSpec::fault_free(),
            strategy: FaultStrategy::FaultUnaware,
            ..TrainConfig::default()
        };
        let clean = Trainer::new(base, 16).run(&ds).final_test_accuracy;
        let wrecked = Trainer::new(
            TrainConfig {
                weight_variation_sigma: 2.0,
                ..base
            },
            16,
        )
        .run(&ds)
        .final_test_accuracy;
        assert!(
            wrecked < clean,
            "σ=2 variation should hurt: {clean:.3} vs {wrecked:.3}"
        );
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn rejects_bad_crossbar_size() {
        Trainer::new(
            TrainConfig {
                crossbar_size: 12,
                ..TrainConfig::default()
            },
            0,
        );
    }

    #[test]
    #[should_panic(expected = "crossbar size must be a positive multiple of 8")]
    fn rejects_zero_crossbar_size() {
        Trainer::new(TrainConfig { crossbar_size: 0, ..TrainConfig::default() }, 0);
    }

    #[test]
    #[should_panic(expected = "epochs must be positive")]
    fn fault_free_rejects_zero_epochs() {
        let ds = Dataset::generate(DatasetKind::Ppi, 0);
        run_fault_free(&TrainConfig { epochs: 0, ..TrainConfig::default() }, 0, &ds);
    }

    #[test]
    fn validate_accepts_default_and_names_each_bad_field() {
        assert_eq!(TrainConfig::default().validate(), Ok(()));
        let base = TrainConfig::default();
        // Struct literals: the spec's constructors assert these ranges,
        // JSON decoding does not.
        let with_spec = |density, sa1_fraction| TrainConfig {
            fault_spec: FaultSpec {
                density,
                sa1_fraction,
            },
            ..base
        };
        let bad = [
            (TrainConfig { epochs: 0, ..base }, "epochs"),
            (TrainConfig { depth: 1, ..base }, "depth"),
            (TrainConfig { crossbar_size: 0, ..base }, "crossbar size"),
            (TrainConfig { crossbar_slack: 0.5, ..base }, "slack"),
            (TrainConfig { crossbar_slack: f64::NAN, ..base }, "slack"),
            (TrainConfig { post_deployment_density: 1.5, ..base }, "post-deployment"),
            (TrainConfig { post_deployment_density: -0.1, ..base }, "post-deployment"),
            (with_spec(3.5, 0.5), "fault_spec.density"),
            (with_spec(f64::NAN, 0.5), "fault_spec.density"),
            (with_spec(f64::INFINITY, 0.5), "fault_spec.density"),
            (with_spec(0.05, -1.0), "fault_spec.sa1_fraction"),
            (with_spec(0.05, f64::NAN), "fault_spec.sa1_fraction"),
        ];
        for (config, field) in bad {
            let err = config.validate().unwrap_err();
            assert!(err.contains(field), "{field}: {err}");
        }
    }
}
