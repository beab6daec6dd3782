//! Property-based tests for the matching crate.

use fare_matching::{bsuitor_assignment, greedy, hungarian, CostMatrix, Matcher};
use fare_rt::prop::prelude::*;

fn cost_matrix(max_rows: usize, max_cols: usize) -> impl Strategy<Value = CostMatrix> {
    (1..=max_rows, 1..=max_cols)
        .prop_filter("rows <= cols", |(r, c)| r <= c)
        .prop_flat_map(|(r, c)| {
            fare_rt::prop::collection::vec(0.0f64..100.0, r * c)
                .prop_map(move |data| CostMatrix::from_vec(r, c, data))
        })
}

/// Row → column of the greedy matching over the edges of the row-major
/// `r × c` integer cost matrix `ints` in ascending `(cost, row, col)`
/// order.
fn greedy_by_edge_order(r: usize, c: usize, ints: &[u32]) -> Vec<u32> {
    let mut edges: Vec<(u32, u32, u32)> = (0..r * c)
        .map(|i| (ints[i], (i / c) as u32, (i % c) as u32))
        .collect();
    edges.sort_unstable();
    let mut greedy = vec![u32::MAX; r];
    let mut used = vec![false; c];
    for (_, er, ec) in edges {
        if greedy[er as usize] == u32::MAX && !used[ec as usize] {
            greedy[er as usize] = ec;
            used[ec as usize] = true;
        }
    }
    greedy
}

proptest! {
    #[test]
    fn hungarian_produces_valid_full_assignment(cost in cost_matrix(7, 9)) {
        let sol = hungarian(&cost);
        prop_assert!(sol.is_valid());
        prop_assert_eq!(sol.matched_count(), cost.rows());
        // Total cost matches the sum of the chosen entries.
        let recomputed: f64 = sol
            .assignment
            .iter()
            .enumerate()
            .map(|(r, c)| cost.get(r, c.unwrap()))
            .sum();
        prop_assert!((recomputed - sol.total_cost).abs() < 1e-9);
    }

    #[test]
    fn hungarian_no_worse_than_any_heuristic(cost in cost_matrix(6, 8)) {
        let exact = hungarian(&cost).total_cost;
        prop_assert!(greedy(&cost).total_cost >= exact - 1e-9);
        prop_assert!(bsuitor_assignment(&cost).total_cost >= exact - 1e-9);
        prop_assert!(fare_matching::auction(&cost).total_cost >= exact - 1e-9);
    }

    #[test]
    fn auction_exact_on_integer_costs(
        dims in (1usize..6, 1usize..8).prop_filter("r<=c", |(r, c)| r <= c),
        seed in 0u64..500,
    ) {
        use fare_rt::rand::{Rng, SeedableRng};
        let (r, c) = dims;
        let mut rng = fare_rt::rand::rngs::StdRng::seed_from_u64(seed);
        let cost = CostMatrix::from_fn(r, c, |_, _| rng.gen_range(0..20) as f64);
        let a = fare_matching::auction(&cost);
        let h = hungarian(&cost);
        prop_assert!(a.is_valid());
        prop_assert_eq!(a.total_cost, h.total_cost);
    }

    #[test]
    fn hungarian_invariant_under_row_potential_shift(cost in cost_matrix(5, 5)) {
        // Adding a constant to one row changes total cost by that constant
        // but not the optimal assignment structure's validity.
        let shifted = CostMatrix::from_fn(cost.rows(), cost.cols(), |r, c| {
            cost.get(r, c) + if r == 0 { 17.0 } else { 0.0 }
        });
        let a = hungarian(&cost);
        let b = hungarian(&shifted);
        prop_assert!((b.total_cost - a.total_cost - 17.0).abs() < 1e-6);
    }

    #[test]
    fn bsuitor_within_half_of_optimal_weight(cost in cost_matrix(6, 6)) {
        let n = cost.rows() as f64;
        let max_cost = cost.max_cost();
        let exact_w = n * max_cost - hungarian(&cost).total_cost;
        let approx_w = n * max_cost - bsuitor_assignment(&cost).total_cost;
        prop_assert!(approx_w >= 0.5 * exact_w - 1e-6);
    }

    #[test]
    fn dense_bsuitor_bit_identical_to_generic(
        dims in (1usize..10, 1usize..14).prop_filter("r<=c", |(r, c)| r <= c),
        seed in 0u64..500,
        max_cost in 0u32..50,
    ) {
        use fare_rt::rand::{Rng, SeedableRng};
        let (r, c) = dims;
        let mut rng = fare_rt::rand::rngs::StdRng::seed_from_u64(seed);
        let ints: Vec<u32> = (0..r * c).map(|_| rng.gen_range(0..=max_cost)).collect();
        let cost = CostMatrix::from_vec(r, c, ints.iter().map(|&v| v as f64).collect());
        let fast = fare_matching::bsuitor_assignment_ints(r, c, &ints);
        let slow = bsuitor_assignment(&cost);
        prop_assert_eq!(&fast.assignment, &slow.assignment);
        prop_assert_eq!(fast.total_cost.to_bits(), slow.total_cost.to_bits());

        // The histogram-driven entry must agree with both on the same
        // matrix when fed naively-counted histograms.
        let stride = max_cost as usize + 1;
        let mut row_hist = vec![0u32; r * stride];
        let mut col_hist = vec![0u32; c * stride];
        for (i, &v) in ints.iter().enumerate() {
            row_hist[(i / c) * stride + v as usize] += 1;
            col_hist[(i % c) * stride + v as usize] += 1;
        }
        let mut solver = fare_matching::DenseBsuitor::new();
        let assigned = solver.solve_assigned(r, c, &ints, &mut row_hist, &mut col_hist, stride);
        let want: Vec<u32> = fast
            .assignment
            .iter()
            .map(|col| col.expect("complete") as u32)
            .collect();
        prop_assert_eq!(assigned, &want[..]);
    }

    // The structural theorem the mapping layer's level-greedy G₁ solver
    // rests on: every vertex ranks its edges by the common total order
    // (cost asc, row id asc, col id asc), so the b-Suitor fixed point is
    // the unique stable matching — the greedy matching over globally
    // sorted edges.
    #[test]
    fn bsuitor_equals_greedy_by_edge_order(
        dims in (1usize..10, 1usize..14).prop_filter("r<=c", |(r, c)| r <= c),
        seed in 0u64..500,
        max_cost in 0u32..12,
    ) {
        use fare_rt::rand::{Rng, SeedableRng};
        let (r, c) = dims;
        let mut rng = fare_rt::rand::rngs::StdRng::seed_from_u64(seed ^ 0x6EED);
        let ints: Vec<u32> = (0..r * c).map(|_| rng.gen_range(0..=max_cost)).collect();
        let greedy = greedy_by_edge_order(r, c, &ints);

        let suitor = fare_matching::bsuitor_assignment_ints(r, c, &ints);
        let suitor_cols: Vec<u32> = suitor
            .assignment
            .iter()
            .map(|col| col.expect("complete") as u32)
            .collect();
        prop_assert_eq!(greedy, suitor_cols);
    }

    #[test]
    fn all_matchers_agree_on_validity(cost in cost_matrix(5, 7)) {
        for m in [
            Matcher::Hungarian,
            Matcher::BSuitor,
            Matcher::Auction,
            Matcher::Greedy,
        ] {
            let sol = m.solve(&cost);
            prop_assert!(sol.is_valid());
            prop_assert_eq!(sol.matched_count(), cost.rows());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The equivalence the mapping layer's lazy G₂ placement rests on: the
    // generic `f64` b-Suitor, on an integer-valued rectangular matrix of
    // trainer scale (blocks × crossbars), assigns exactly the greedy
    // matching over `(cost, row, col)`.
    #[test]
    fn generic_bsuitor_equals_greedy_on_integer_rectangles(
        dims in (1usize..=40, 1usize..=60).prop_filter("r<=c", |(r, c)| r <= c),
        seed in 0u64..500,
        max_cost in 0u32..20,
    ) {
        use fare_rt::rand::{Rng, SeedableRng};
        let (r, c) = dims;
        let mut rng = fare_rt::rand::rngs::StdRng::seed_from_u64(seed ^ 0x62E0);
        let ints: Vec<u32> = (0..r * c).map(|_| rng.gen_range(0..=max_cost)).collect();
        let cost = CostMatrix::from_fn(r, c, |i, j| ints[i * c + j] as f64);
        let suitor: Vec<u32> = bsuitor_assignment(&cost)
            .assignment
            .iter()
            .map(|col| col.expect("complete") as u32)
            .collect();
        prop_assert_eq!(suitor, greedy_by_edge_order(r, c, &ints));
    }
}
