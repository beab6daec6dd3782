//! Link prediction on faulty ReRAM hardware.
//!
//! The paper's Ogbl-citation2 workload is, in its original form, a link
//! prediction benchmark, and link prediction is one of the three edge
//! applications the introduction motivates. This runner trains a GNN
//! *encoder* through the same faulty aggregation/combination pipeline as
//! the node-classification [`crate::Trainer`], decodes edges with a dot
//! product ([`fare_gnn::link`]), and reports held-out AUC — so FARe's
//! protection can be evaluated on a second task family.
//!
//! Two calibration notes:
//!
//! - *Attainable AUC*: the synthetic datasets are stochastic block
//!   models, where an intra-community non-edge is statistically
//!   indistinguishable from a held-out edge. With uniformly sampled
//!   negatives the Bayes-optimal AUC is therefore well below 1
//!   (≈ 0.7–0.85 depending on community count and hub overlay); scores
//!   in that band mean the encoder fully learned the communities.
//! - *Clip threshold*: θ is task-dependent (the paper fixes it per
//!   run). Classification keeps weights inside [−1, 1] naturally, but
//!   the dot-product BCE objective legitimately grows weights larger, so
//!   link tasks should use a wider window (θ ≈ 4, or
//!   [`crate::clipping::threshold_for`]) — with θ = 1 the comparator
//!   clips *healthy* weights and FARe loses its edge.

use fare_gnn::link::{auc, bce_loss_and_grad, pair_scores};
use fare_gnn::{Adam, Gnn, GnnDims};
use fare_graph::datasets::Dataset;
use fare_graph::CsrGraph;
use fare_reram::CrossbarArray;
use fare_tensor::Matrix;
use fare_rt::rand::Rng;

use crate::faulty::FaultyWeightReader;
use crate::mapping::{
    map_adjacency, reordered_sequential_mapping, sequential_mapping, MappingConfig,
};
use crate::trainer::{cluster_batches, hardware_view};
use crate::{FaultStrategy, TrainConfig};

/// Per-epoch link-prediction statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkEpochStats {
    /// Epoch index.
    pub epoch: usize,
    /// Mean BCE loss over batches.
    pub loss: f64,
    /// Held-out AUC on the faulty hardware.
    pub auc: f64,
}

fare_rt::json_struct!(LinkEpochStats { epoch, loss, auc });

/// Outcome of a link-prediction run.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkOutcome {
    /// Per-epoch statistics.
    pub history: Vec<LinkEpochStats>,
    /// Final held-out AUC.
    pub final_auc: f64,
    /// Number of held-out test edges actually evaluated.
    pub test_edges: usize,
    /// Final node embeddings over the whole graph (rows indexed by
    /// global node id; nodes in batches the runner skipped stay zero).
    pub embeddings: Matrix,
}

fare_rt::json_struct!(LinkOutcome { history, final_auc, test_edges, embeddings });

struct LinkBatch {
    nodes: Vec<usize>,
    adj: Matrix,
    /// Corrupted training adjacency with cached normalisations. This
    /// runner never injects post-deployment faults or remaps, so the
    /// view built at batch assembly stays exact for the whole run.
    view: fare_graph::GraphView,
    features: Matrix,
    train_pos: Vec<(usize, usize)>,
    test_pos: Vec<(usize, usize)>,
}

fn sample_negatives(
    n: usize,
    graph: &CsrGraph,
    count: usize,
    rng: &mut impl Rng,
) -> Vec<(usize, usize)> {
    let mut out = Vec::with_capacity(count);
    let mut guard = 0;
    while out.len() < count && guard < 50 * count.max(1) {
        guard += 1;
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v && !graph.has_edge(u, v) {
            out.push((u, v));
        }
    }
    out
}

/// Trains a link predictor under `config` (model, epochs, faults,
/// strategy all honoured; `hidden_dim` doubles as the embedding
/// dimension) and returns held-out AUC.
///
/// 10 % of each batch subgraph's edges are held out of the training
/// adjacency and used, against an equal number of sampled non-edges, for
/// evaluation.
///
/// # Panics
///
/// Panics on the same configuration errors as [`crate::Trainer::new`].
pub fn run_link_prediction(config: &TrainConfig, seed: u64, dataset: &Dataset) -> LinkOutcome {
    config.validate().unwrap_or_else(|e| panic!("invalid TrainConfig: {e}"));
    let cfg = config;
    let mut rng = fare_rt::domain_rng(seed, "link-prediction");
    let n_xbar = cfg.crossbar_size;
    let map_cfg = MappingConfig {
        matcher: cfg.matcher,
        prune: true,
        ..MappingConfig::default()
    };

    let batches = cluster_batches(dataset, &mut rng);

    // Embedding model: output layer emits `hidden_dim`-dimensional node
    // embeddings.
    let dims = GnnDims {
        input: dataset.spec.feature_dim,
        hidden: cfg.hidden_dim,
        output: cfg.hidden_dim,
    };
    let mut model = Gnn::with_depth(cfg.model, dims, cfg.depth, &mut rng);
    let mut reader = FaultyWeightReader::for_model(&model, n_xbar);
    if cfg.weight_faults {
        reader.inject(&cfg.fault_spec, &mut rng);
    }
    if cfg.strategy.clips_weights() {
        reader.set_clip(Some(cfg.clip_threshold));
    }
    let mut opt = Adam::new(cfg.learning_rate, &model);

    let mut states: Vec<LinkBatch> = batches
        .into_iter()
        .filter(|b| b.graph.num_edges() >= 5)
        .map(|batch| {
            // Hold out ~10% of the batch's edges for evaluation.
            let mut edges: Vec<(usize, usize)> = batch.graph.edges().collect();
            // Deterministic shuffle.
            for i in (1..edges.len()).rev() {
                edges.swap(i, rng.gen_range(0..=i));
            }
            let holdout = (edges.len() / 10).max(1);
            let test_pos: Vec<(usize, usize)> = edges[..holdout].to_vec();
            let train_pos: Vec<(usize, usize)> = edges[holdout..].to_vec();
            let train_graph = CsrGraph::from_edges(batch.num_nodes(), &train_pos);
            let adj = train_graph.to_dense();

            let blocks = adj.rows().div_ceil(n_xbar).pow(2);
            let pool = ((blocks as f64 * cfg.crossbar_slack).ceil() as usize).max(blocks);
            let mut array = CrossbarArray::new(pool, n_xbar);
            if cfg.adjacency_faults {
                array.inject(&cfg.fault_spec, &mut rng);
            }
            let mapping = match cfg.strategy {
                FaultStrategy::FaRe => map_adjacency(&adj, &array, &map_cfg),
                FaultStrategy::NeuronReordering => {
                    reordered_sequential_mapping(&adj, &array, cfg.matcher)
                }
                _ => sequential_mapping(&adj, &array),
            };
            let features = batch.gather_features(&dataset.features);
            // The array and mapping are consumed here: this runner never
            // injects post-deployment faults or remaps, so only the
            // corrupted view they produce is needed afterwards.
            let view = hardware_view(cfg.adjacency_faults, &adj, &array, &mapping);
            LinkBatch {
                nodes: batch.nodes.clone(),
                adj,
                view,
                features,
                train_pos,
                test_pos,
            }
        })
        .collect();
    assert!(!states.is_empty(), "no batch has enough edges for link prediction");

    if cfg.strategy.reorders_per_batch() {
        reader.optimize_placements(&model, cfg.matcher);
    }

    let evaluate = |model: &Gnn, reader: &FaultyWeightReader, states: &[LinkBatch], seed: u64| -> (f64, usize) {
        let mut eval_rng = fare_rt::domain_rng(seed, "link-eval");
        let mut pos_scores = Vec::new();
        let mut neg_scores = Vec::new();
        for state in states {
            let (emb, _) = model.forward(&state.view, &state.features, reader);
            pos_scores.extend(pair_scores(&emb, &state.test_pos));
            let graph = CsrGraph::from_edges(
                state.adj.rows(),
                &state.train_pos,
            );
            let negs = sample_negatives(state.adj.rows(), &graph, state.test_pos.len(), &mut eval_rng);
            neg_scores.extend(pair_scores(&emb, &negs));
        }
        (auc(&pos_scores, &neg_scores), pos_scores.len())
    };

    let mut history = Vec::with_capacity(cfg.epochs);
    let mut test_edges = 0;
    for epoch in 0..cfg.epochs {
        let mut epoch_loss = 0.0;
        let num_states = states.len();
        for state in &mut states {
            let (emb, cache) = model.forward(&state.view, &state.features, &reader);
            let graph = CsrGraph::from_edges(state.adj.rows(), &state.train_pos);
            let negs = sample_negatives(state.adj.rows(), &graph, state.train_pos.len(), &mut rng);
            if state.train_pos.is_empty() && negs.is_empty() {
                continue;
            }
            let (loss, grad) = bce_loss_and_grad(&emb, &state.train_pos, &negs);
            epoch_loss += loss;
            let grads = model.backward(&state.view, &cache, &grad);
            model.apply_gradients(&grads, &mut opt);
            if cfg.strategy.clips_weights() {
                model.clip_weights(cfg.clip_threshold);
            }
        }
        let (epoch_auc, edges) = evaluate(&model, &reader, &states, seed + epoch as u64);
        test_edges = edges;
        history.push(LinkEpochStats {
            epoch,
            loss: epoch_loss / num_states.max(1) as f64,
            auc: epoch_auc,
        });
    }
    let final_auc = history.last().map(|h| h.auc).unwrap_or(0.5);

    // Assemble the global embedding matrix from a final faulty-hardware
    // forward pass over every batch (for downstream clustering).
    let mut embeddings = Matrix::zeros(dataset.graph.num_nodes(), cfg.hidden_dim);
    for state in &states {
        let (emb, _) = model.forward(&state.view, &state.features, &reader);
        for (local, &global) in state.nodes.iter().enumerate() {
            embeddings.row_mut(global).copy_from_slice(emb.row(local));
        }
    }

    LinkOutcome {
        history,
        final_auc,
        test_edges,
        embeddings,
    }
}

#[cfg(test)]
mod tests {
    use fare_graph::datasets::{DatasetKind, ModelKind};
    use fare_reram::FaultSpec;

    use super::*;

    fn config(strategy: FaultStrategy, density: f64, epochs: usize) -> TrainConfig {
        TrainConfig {
            model: ModelKind::Sage,
            epochs,
            // Wider clip window: the BCE link objective grows weights
            // past the classification default (see module docs).
            clip_threshold: 4.0,
            fault_spec: FaultSpec::with_ratio(density, 1.0, 1.0),
            strategy,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn link_prediction_learns_on_clean_hardware() {
        let ds = Dataset::generate(DatasetKind::Ogbl, 5);
        let out = run_link_prediction(&config(FaultStrategy::FaRe, 0.0, 15), 5, &ds);
        assert_eq!(out.history.len(), 15);
        assert!(out.test_edges > 10);
        // SBM negatives cap attainable AUC (see module docs); 0.58 is
        // well clear of the 0.5 chance baseline.
        assert!(
            out.final_auc > 0.58,
            "clean-hardware AUC too low: {}",
            out.final_auc
        );
        // Training actually improved ranking quality.
        assert!(out.final_auc > out.history[0].auc - 0.02);
    }

    #[test]
    fn fare_does_not_trail_unaware_under_faults() {
        let ds = Dataset::generate(DatasetKind::Ogbl, 6);
        // 3-seed median to tame variance (3% density, 1:1 ratio); per
        // seed, FARe-vs-unaware swings from -0.06 to +0.06, but the
        // median is stable (see EXPERIMENTS.md, "Tolerance bands").
        let median = |strategy: FaultStrategy| -> f64 {
            let mut aucs: Vec<f64> = (0..3)
                .map(|t| {
                    run_link_prediction(&config(strategy, 0.03, 12), 6 + 100 * t, &ds).final_auc
                })
                .collect();
            aucs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            aucs[1]
        };
        let fare = median(FaultStrategy::FaRe);
        let unaware = median(FaultStrategy::FaultUnaware);
        // Tightened from -0.03 (PR 1, 2-seed mean): observed medians
        // are FARe 0.570 vs unaware 0.555.
        assert!(
            fare > unaware - 0.01,
            "FARe AUC {fare:.3} should not trail unaware {unaware:.3}"
        );
        // Clear of the 0.5 chance line despite the faults. The median
        // FARe AUC sits at ~0.57 at this scale, so the bar moves up to
        // 0.54 (was 0.52) — separation from chance with real margin.
        assert!(fare > 0.54, "FARe AUC under faults too low: {fare:.3}");
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = Dataset::generate(DatasetKind::Ppi, 7);
        let a = run_link_prediction(&config(FaultStrategy::FaRe, 0.03, 3), 7, &ds);
        let b = run_link_prediction(&config(FaultStrategy::FaRe, 0.03, 3), 7, &ds);
        assert_eq!(a.history, b.history);
    }

    #[test]
    #[should_panic(expected = "crossbar slack must be finite and >= 1.0")]
    fn rejects_slack_below_one() {
        let ds = Dataset::generate(DatasetKind::Ppi, 8);
        let cfg = TrainConfig {
            crossbar_slack: 0.5,
            ..config(FaultStrategy::FaRe, 0.0, 1)
        };
        run_link_prediction(&cfg, 8, &ds);
    }
}
