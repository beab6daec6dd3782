//! The traced replay: `Trainer::run` and `run_fault_free` re-enacted
//! step by step through the program's public functions, with every call
//! timed from outside.
//!
//! This module holds every call the replay makes into the program, so a
//! change to the public API needs an edit here and nowhere else. The
//! replay is only trusted while it reproduces the trainer: the runner
//! compares its epoch history with `Trainer::run`'s bit for bit.

use std::collections::BTreeMap;
use std::time::Instant;

use fare_core::mapping::{reordered_sequential_mapping, sequential_mapping};
use fare_core::{
    corrupt_adjacency_mapped, map_adjacency_cached, refresh_row_permutations_cached, EpochStats,
    FaultStrategy, FaultyWeightReader, Mapping, MappingConfig, RemapCache, TrainConfig,
};
use fare_gnn::{Adam, Gnn, GnnDims, IdealReader, WeightReader};
use fare_graph::batch::make_batches;
use fare_graph::datasets::{Dataset, ModelKind};
use fare_graph::partition::partition;
use fare_graph::GraphView;
use fare_obs::counters;
use fare_reram::timing::{PipelineSpec, TimingModel};
use fare_reram::{CrossbarArray, FaultSpec};
use fare_tensor::{ops, Matrix};

/// Per-layer time and call counts of one or more replays, keyed by
/// metric stem (`graph.partition` gives `graph.partition_s`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    /// Seconds spent inside timed calls, per stem.
    pub seconds: BTreeMap<&'static str, f64>,
    /// Timed calls, per stem.
    pub calls: BTreeMap<&'static str, u64>,
    /// Counts read from the program or computed by the benchmark.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Ledger {
    fn time<R>(&mut self, stem: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        *self.seconds.entry(stem).or_default() += start.elapsed().as_secs_f64();
        *self.calls.entry(stem).or_default() += 1;
        out
    }

    fn count(&mut self, key: &'static str, value: f64) {
        *self.counts.entry(key).or_default() += value;
    }

    /// Total seconds inside timed calls.
    pub fn timed_s(&self) -> f64 {
        self.seconds.values().sum()
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &Ledger) {
        for (k, v) in &other.seconds {
            *self.seconds.entry(k).or_default() += v;
        }
        for (k, v) in &other.calls {
            *self.calls.entry(k).or_default() += v;
        }
        for (k, v) in &other.counts {
            *self.counts.entry(k).or_default() += v;
        }
    }
}

/// What one replay produced.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Per-epoch statistics; must equal the trainer's bit for bit.
    pub history: Vec<EpochStats>,
    /// Total adjacency mismatch cost under the final mappings.
    pub final_mapping_cost: usize,
    /// The Fig. 7 normalised time.
    pub normalized_time: f64,
    /// Wall time of the replay, excluding the benchmark's own bookkeeping.
    pub wall_s: f64,
    /// Nodes in the largest mini-batch.
    pub batch_nodes_max: usize,
    /// Per-layer times and counts.
    pub ledger: Ledger,
}

/// The trainer's masked cross-entropy (private in the program), the same
/// operations in the same order.
fn masked_cross_entropy(logits: &Matrix, labels: &[usize], mask: &[bool]) -> (f64, Matrix) {
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

/// A view with the normalisation `model` reads already built, so the
/// build is charged to the view and not to the first forward pass.
fn warm(view: GraphView, model: ModelKind) -> GraphView {
    match model {
        ModelKind::Gcn => {
            view.gcn_norm();
        }
        ModelKind::Sage => {
            view.mean_norm_t();
        }
        ModelKind::Gat => {
            view.dense();
        }
    }
    view
}

/// One mini-batch's data and, on faulty runs, its hardware state.
struct Batch {
    view: GraphView,
    features: Matrix,
    labels: Vec<usize>,
    train_mask: Vec<bool>,
    hw: Option<Hardware>,
}

struct Hardware {
    adj: Matrix,
    array: CrossbarArray,
    mapping: Mapping,
    remap: RemapCache,
}

/// Corrupts the adjacency through the mapping and builds the view, as
/// the trainer's `hardware_view` does.
fn hardware_view(ledger: &mut Ledger, cfg: &TrainConfig, hw: &Hardware) -> GraphView {
    let adj = ledger.time("faulty.corrupt", || {
        corrupt_adjacency_mapped(&hw.adj, &hw.array, &hw.mapping)
    });
    ledger.time("graph.view", || warm(GraphView::from_dense(adj), cfg.model))
}

/// Accuracy over the train and test splits (the trainer's `evaluate`).
fn evaluate(model: &Gnn, reader: &impl WeightReader, batches: &[Batch]) -> (f64, f64) {
    let mut train = (0usize, 0usize);
    let mut test = (0usize, 0usize);
    for b in batches {
        let (logits, _) = model.forward(&b.view, &b.features, reader);
        let preds = logits.argmax_rows();
        for (i, &label) in b.labels.iter().enumerate() {
            let correct = (preds[i] == label) as usize;
            if b.train_mask[i] {
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

/// Counters the program keeps itself, read around a replay.
static PROGRAM_COUNTERS: [(&str, &fare_obs::Counter); 6] = [
    ("gnn.forward_calls", &counters::GNN_FORWARD_CALLS),
    ("mapping.pairs_solved", &counters::CORE_MAPPING_PAIRS_SOLVED),
    ("mapping.remap_hits", &counters::CORE_REMAP_CACHE_HITS),
    ("mapping.remap_misses", &counters::CORE_REMAP_CACHE_MISSES),
    (
        "reram.faults_injected_sa0",
        &counters::RERAM_FAULTS_INJECTED_SA0,
    ),
    (
        "reram.faults_injected_sa1",
        &counters::RERAM_FAULTS_INJECTED_SA1,
    ),
];

/// Replays one training run of `cfg` (or of the fault-free reference
/// when `fault_free`) and times every step.
///
/// Telemetry counters are switched on for the replay only; the program
/// guarantees they never feed back into the computation. The counters
/// are process-global, so no other training may run at the same time.
pub fn replay(cfg: &TrainConfig, fault_free: bool, seed: u64, dataset: &Dataset) -> Replay {
    fare_obs::reset();
    fare_obs::set_mode(fare_obs::Mode::Json);
    let mut ledger = Ledger::default();
    let start = Instant::now();
    let (history, final_mapping_cost, normalized_time, batches) =
        run(&mut ledger, cfg, fault_free, seed, dataset);
    let wall_s = start.elapsed().as_secs_f64();
    fare_obs::set_mode(fare_obs::Mode::Off);
    for (key, counter) in &PROGRAM_COUNTERS {
        ledger.count(key, counter.get() as f64);
    }

    // The benchmark's own structure counts, outside the timed wall.
    let n = cfg.crossbar_size;
    for b in &batches {
        if let Some(hw) = &b.hw {
            let grid = hw.adj.rows().div_ceil(n);
            let mut empty = 0usize;
            for br in 0..grid {
                for bc in 0..grid {
                    let block = hw.adj.block(br * n, bc * n, n, n);
                    empty += block.as_slice().iter().all(|&v| v == 0.0) as usize;
                }
            }
            ledger.count("mapping.blocks", (grid * grid) as f64);
            ledger.count("mapping.empty_blocks", empty as f64);
        }
    }
    Replay {
        history,
        final_mapping_cost,
        normalized_time,
        wall_s,
        batch_nodes_max: batches.iter().map(|b| b.labels.len()).max().unwrap_or(0),
        ledger,
    }
}

/// The replayed steps. Mirrors `Trainer::run_inner` (faulty) and
/// `run_fault_free` call for call, including every RNG draw.
///
/// Covers the configurations the benchmark runs: faults in weights and
/// adjacency, refresh after post-deployment faults, and no variation or
/// drift. Other configurations panic rather than replay another program.
fn run(
    ledger: &mut Ledger,
    cfg: &TrainConfig,
    fault_free: bool,
    seed: u64,
    dataset: &Dataset,
) -> (Vec<EpochStats>, usize, f64, Vec<Batch>) {
    assert!(
        cfg.weight_faults
            && cfg.adjacency_faults
            && cfg.post_refresh
            && cfg.weight_variation_sigma == 0.0
            && cfg.weight_drift_sigma == 0.0,
        "the replay covers only the benchmark's configurations"
    );
    let mut rng = fare_rt::domain_rng(seed, "trainer");
    let n = cfg.crossbar_size;
    let strategy = cfg.strategy;
    let map_cfg = MappingConfig {
        matcher: cfg.matcher,
        prune: true,
        ..MappingConfig::default()
    };

    let parts = ledger.time("graph.partition", || {
        partition(&dataset.graph, dataset.spec.partitions, &mut rng)
    });
    let minibatches = ledger.time("graph.batch", || {
        make_batches(
            &dataset.graph,
            &parts,
            dataset.spec.clusters_per_batch,
            &mut rng,
        )
    });
    let num_batches = minibatches.len();
    let dims = GnnDims {
        input: dataset.spec.feature_dim,
        hidden: cfg.hidden_dim,
        output: dataset.num_classes,
    };
    let mut model = ledger.time("gnn.init", || {
        Gnn::with_depth(cfg.model, dims, cfg.depth, &mut rng)
    });

    if fault_free {
        let mut opt = ledger.time("gnn.init", || {
            Adam::new(cfg.learning_rate, &model).with_weight_decay(cfg.weight_decay)
        });
        let batches: Vec<Batch> = minibatches
            .iter()
            .map(|b| Batch {
                view: ledger.time("graph.view", || {
                    warm(GraphView::from_graph(&b.graph), cfg.model)
                }),
                features: ledger.time("graph.batch", || b.gather_features(&dataset.features)),
                labels: ledger.time("graph.batch", || b.gather_labels(&dataset.labels)),
                train_mask: ledger.time("graph.batch", || {
                    b.nodes.iter().map(|&u| dataset.train_mask[u]).collect()
                }),
                hw: None,
            })
            .collect();
        let mut history = Vec::with_capacity(cfg.epochs);
        for epoch in 0..cfg.epochs {
            let mut epoch_loss = 0.0;
            for b in &batches {
                let (logits, cache) = ledger.time("gnn.forward", || {
                    model.forward(&b.view, &b.features, &IdealReader)
                });
                let (loss, grad) = ledger.time("trainer.loss", || {
                    masked_cross_entropy(&logits, &b.labels, &b.train_mask)
                });
                epoch_loss += loss;
                let mut grads =
                    ledger.time("gnn.backward", || model.backward(&b.view, &cache, &grad));
                ledger.time("gnn.step", || {
                    if cfg.grad_clip_norm > 0.0 {
                        grads.clip_norm(cfg.grad_clip_norm);
                    }
                    model.apply_gradients(&grads, &mut opt);
                });
            }
            let (train_accuracy, test_accuracy) =
                ledger.time("gnn.eval", || evaluate(&model, &IdealReader, &batches));
            history.push(EpochStats {
                epoch,
                loss: epoch_loss / num_batches.max(1) as f64,
                train_accuracy,
                test_accuracy,
            });
        }
        return (history, 0, 1.0, batches);
    }

    let mut reader = ledger.time("reram.inject", || {
        let mut reader = FaultyWeightReader::for_model(&model, n);
        reader.inject(&cfg.fault_spec, &mut rng);
        reader
    });
    if strategy.clips_weights() {
        reader.set_clip(Some(cfg.clip_threshold));
    }
    let mut opt = ledger.time("gnn.init", || {
        Adam::new(cfg.learning_rate, &model).with_weight_decay(cfg.weight_decay)
    });

    let mut batches: Vec<Batch> = Vec::with_capacity(num_batches);
    for batch in minibatches {
        let adj = ledger.time("graph.batch", || batch.dense_adjacency());
        let array = ledger.time("reram.inject", || {
            let blocks = adj.rows().div_ceil(n).pow(2);
            let pool = ((blocks as f64 * cfg.crossbar_slack).ceil() as usize).max(blocks);
            let mut array = CrossbarArray::new(pool, n);
            array.inject(&cfg.fault_spec, &mut rng);
            array
        });
        let mut remap = RemapCache::new();
        let mapping = match strategy {
            FaultStrategy::FaRe => ledger.time("mapping.map", || {
                map_adjacency_cached(&adj, &array, &map_cfg, &mut remap)
            }),
            FaultStrategy::NeuronReordering => ledger.time("mapping.reorder", || {
                reordered_sequential_mapping(&adj, &array, cfg.matcher)
            }),
            _ => ledger.time("mapping.sequential", || sequential_mapping(&adj, &array)),
        };
        let features = ledger.time("graph.batch", || batch.gather_features(&dataset.features));
        let labels = ledger.time("graph.batch", || batch.gather_labels(&dataset.labels));
        let train_mask = ledger.time("graph.batch", || {
            batch.nodes.iter().map(|&u| dataset.train_mask[u]).collect()
        });
        let hw = Hardware {
            adj,
            array,
            mapping,
            remap,
        };
        let view = hardware_view(ledger, cfg, &hw);
        batches.push(Batch {
            view,
            features,
            labels,
            train_mask,
            hw: Some(hw),
        });
    }
    if strategy.reorders_per_batch() {
        ledger.time("mapping.reorder", || {
            reader.optimize_placements(&model, cfg.matcher)
        });
    }

    let per_epoch_extra = if cfg.post_deployment_density > 0.0 {
        cfg.post_deployment_density / cfg.epochs as f64
    } else {
        0.0
    };
    let mut history = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        let mut epoch_loss = 0.0f64;
        for b in &batches {
            let (logits, cache) = ledger.time("gnn.forward", || {
                model.forward(&b.view, &b.features, &reader)
            });
            let (loss, grad) = ledger.time("trainer.loss", || {
                masked_cross_entropy(&logits, &b.labels, &b.train_mask)
            });
            epoch_loss += loss;
            let mut grads = ledger.time("gnn.backward", || model.backward(&b.view, &cache, &grad));
            ledger.time("gnn.step", || {
                if cfg.grad_clip_norm > 0.0 {
                    grads.clip_norm(cfg.grad_clip_norm);
                }
                model.apply_gradients(&grads, &mut opt);
                if strategy.clips_weights() {
                    model.clip_weights(cfg.clip_threshold);
                }
            });
        }

        if per_epoch_extra > 0.0 && epoch + 1 < cfg.epochs {
            let extra = FaultSpec::with_sa1_fraction(per_epoch_extra, cfg.fault_spec.sa1_fraction);
            for b in &mut batches {
                let hw = b.hw.as_mut().expect("faulty run keeps hardware state");
                ledger.time("reram.inject", || hw.array.inject(&extra, &mut rng));
            }
            ledger.time("reram.inject", || reader.inject(&extra, &mut rng));
            if strategy.maps_adjacency() {
                for b in &mut batches {
                    let hw = b.hw.as_mut().expect("faulty run keeps hardware state");
                    hw.mapping = ledger.time("mapping.refresh", || {
                        refresh_row_permutations_cached(
                            &hw.adj,
                            &hw.array,
                            &hw.mapping,
                            cfg.matcher,
                            &mut hw.remap,
                        )
                    });
                }
            }
            if strategy.reorders_per_batch() {
                for b in &mut batches {
                    let hw = b.hw.as_mut().expect("faulty run keeps hardware state");
                    hw.mapping = ledger.time("mapping.reorder", || {
                        reordered_sequential_mapping(&hw.adj, &hw.array, cfg.matcher)
                    });
                }
                ledger.time("mapping.reorder", || {
                    reader.optimize_placements(&model, cfg.matcher)
                });
            }
            for b in &mut batches {
                let hw = b.hw.as_ref().expect("faulty run keeps hardware state");
                b.view = hardware_view(ledger, cfg, hw);
            }
        }

        let (train_accuracy, test_accuracy) =
            ledger.time("gnn.eval", || evaluate(&model, &reader, &batches));
        history.push(EpochStats {
            epoch,
            loss: epoch_loss / num_batches.max(1) as f64,
            train_accuracy,
            test_accuracy,
        });
    }

    let stages = 2 * model.num_layers() + 1;
    let times = TimingModel::new(PipelineSpec::new(
        num_batches.max(1),
        stages,
        1e-3,
        cfg.epochs,
    ))
    .normalized();
    let normalized_time = match strategy {
        FaultStrategy::FaultUnaware => times.fault_free,
        FaultStrategy::ClippingOnly => times.clipping,
        FaultStrategy::NeuronReordering => times.neuron_reordering,
        FaultStrategy::FaRe => times.fare,
    };
    let final_mapping_cost = batches
        .iter()
        .filter_map(|b| b.hw.as_ref())
        .map(|hw| hw.mapping.total_cost())
        .sum();
    (history, final_mapping_cost, normalized_time, batches)
}
