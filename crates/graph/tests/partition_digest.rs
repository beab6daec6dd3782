//! Pins the multilevel partitioner's output bit for bit.
//!
//! `partition` feeds every Cluster-GCN batch, so any change to its
//! assignments moves every downstream number. This test hashes the
//! assignments over a fixed set of graphs and part counts; a rewrite of
//! the partitioner must reproduce the recorded digest exactly.

use fare_graph::generate;
use fare_graph::partition::partition;
use fare_graph::CsrGraph;
use fare_rt::rand::rngs::StdRng;
use fare_rt::rand::SeedableRng;

/// FNV-1a over the assignments of every (graph, k) case, in order,
/// recorded from the `BTreeMap`-adjacency partitioner before the
/// flat-CSR rewrite.
const DIGEST: u64 = 0xd036_bceb_5916_3d97;

const PARTS: [usize; 5] = [1, 2, 5, 20, 40];

fn graphs() -> Vec<(&'static str, CsrGraph)> {
    let rng = |seed| StdRng::seed_from_u64(seed);
    vec![
        ("er_60", generate::erdos_renyi(60, 0.1, &mut rng(1))),
        ("er_200", generate::erdos_renyi(200, 0.04, &mut rng(2))),
        ("sbm_240", generate::sbm(240, 6, 0.25, 0.01, &mut rng(3)).0),
        ("power_law_300", generate::power_law(300, 2, &mut rng(4))),
        (
            "ppi_480",
            generate::sbm_power_law(480, 6, 0.12, 0.004, 0.5, &mut rng(5)).0,
        ),
        (
            "ppi_x10_4800",
            generate::sbm_power_law(4800, 6, 0.012, 0.0004, 0.5, &mut rng(6)).0,
        ),
    ]
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

#[test]
fn partition_assignments_match_recorded_digest() {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for (i, (name, g)) in graphs().into_iter().enumerate() {
        for (j, &k) in PARTS.iter().enumerate() {
            let seed = 100 * i as u64 + j as u64;
            let p = partition(&g, k, &mut StdRng::seed_from_u64(seed));
            assert_eq!(p.assignment().len(), g.num_nodes(), "{name} k={k}");
            fnv1a(&mut hash, &(k as u64).to_le_bytes());
            for &part in p.assignment() {
                fnv1a(&mut hash, &(part as u64).to_le_bytes());
            }
        }
    }
    assert_eq!(
        hash, DIGEST,
        "partition digest {hash:#018x} != recorded {DIGEST:#018x}"
    );
}
