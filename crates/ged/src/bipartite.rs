//! Bipartite approximate GED (the paper's "Hung" [57] and "VJ" [56]).
//!
//! Riesen & Bunke reduce GED to a linear sum assignment over an
//! `(n1 + n2) × (n1 + n2)` cost matrix whose quadrants encode substitution,
//! deletion, and insertion of nodes together with an estimate of the
//! incident-edge cost. The node mapping read off the optimal assignment is
//! turned into a *complete edit path* whose exact cost is returned
//! ([`crate::mapping::mapping_cost`]) — so both approximations are
//! guaranteed upper bounds on the true GED.
//!
//! "Hung" solves the LSAP with the Kuhn–Munkres algorithm, "VJ" with
//! Jonker–Volgenant (Fankhauser et al.); with ties in the cost matrix the
//! two can pick different optimal assignments and hence derive different
//! upper bounds, which is why the ground-truth protocol takes the best of
//! both (plus beam search).

use crate::assignment::{hungarian_with, lapjv_with, CostMatrix};
use crate::lower_bounds::sorted_label_multiset_lb;
use crate::mapping::{mapping_cost, NodeMapping, EPS};
use crate::scratch::{with_scratch, GedScratch};
use lan_graph::{Graph, NodeId};

/// Which LSAP solver drives the approximation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Solver {
    /// Kuhn–Munkres (paper baseline "Hung", Riesen & Bunke).
    Hungarian,
    /// Jonker–Volgenant (paper baseline "VJ", Fankhauser et al.).
    Vj,
}

/// Builds the Riesen–Bunke cost matrix.
///
/// Layout (rows = g1 nodes then ε-rows, cols = g2 nodes then ε-cols):
///
/// ```text
///          v ∈ V2          ε (deletion)
///   u    [ sub(u, v) ]   [ del(u) on diag, ∞ off ]
///   ε    [ ins(v) on diag, ∞ off ]   [ 0 ]
/// ```
///
/// * `sub(u, v)` = label cost + the label-multiset distance between the
///   neighbor labels of `u` and of `v` (incident-edge estimate),
/// * `del(u)` = 1 + deg(u), `ins(v)` = 1 + deg(v).
pub fn rb_cost_matrix(g1: &Graph, g2: &Graph) -> CostMatrix {
    let mut s = GedScratch::new();
    rb_cost_matrix_into(g1, g2, &mut s);
    s.cost
}

/// [`rb_cost_matrix`] built into `s.cost`, reusing the scratch's matrix and
/// neighbor-label buffers. Bit-identical to the allocating form.
///
/// Each node's sorted neighbor-label list is built once per call (`g1`'s
/// per row, `g2`'s for all nodes up front), not once per cell.
pub fn rb_cost_matrix_into(g1: &Graph, g2: &Graph, s: &mut GedScratch) {
    let n1 = g1.node_count();
    let n2 = g2.node_count();
    let n = n1 + n2;
    // Forbidden cells use a large finite value rather than ∞ so solver
    // arithmetic stays finite.
    let forbid = (n as f64 + 1.0) * (g1.edge_count() + g2.edge_count() + n) as f64 + 1e6;
    // Sorted neighbor labels of every g2 node: node w's list is
    // `nw[nw_off[w]..nw_off[w + 1]]`.
    s.nw.clear();
    s.nw_off.clear();
    s.nw_off.push(0);
    for w in 0..n2 as NodeId {
        let start = s.nw.len();
        s.nw.extend(g2.neighbors(w).iter().map(|&x| g2.label(x)));
        s.nw[start..].sort_unstable();
        s.nw_off.push(s.nw.len());
    }
    s.cost.reset(n);
    for i in 0..n1 {
        let u = i as NodeId;
        let lu = g1.label(u);
        // Sorted neighbor labels of u, shared across the row.
        s.nu.clear();
        s.nu.extend(g1.neighbors(u).iter().map(|&x| g1.label(x)));
        s.nu.sort_unstable();
        let row = s.cost.row_mut(i);
        let (sub, del) = row.split_at_mut(n2);
        let cells = sub.iter_mut().zip(g2.labels()).zip(s.nw_off.windows(2));
        for ((cell, &lw), off) in cells {
            let label = if lu != lw { 1.0 } else { 0.0 };
            // Incident-edge estimate refined by endpoint labels
            // (Riesen–Bunke with the labeled-neighborhood strengthening):
            // the multiset distance between the two neighbor-label
            // multisets lower-bounds the local edge reassignment cost and
            // is far more discriminative than a plain degree difference on
            // uniform-label chains.
            *cell = label + sorted_label_multiset_lb(&s.nu, &s.nw[off[0]..off[1]]);
        }
        del.fill(forbid);
        del[i] = 1.0 + g1.degree(u) as f64;
    }
    for j in 0..n2 {
        // ε-rows: insertion of v on the diagonal; the ε×ε block stays 0.
        let ins = &mut s.cost.row_mut(n1 + j)[..n2];
        ins.fill(forbid);
        ins[j] = 1.0 + g2.degree(j as NodeId) as f64;
    }
}

/// Bipartite approximate GED: returns the exact cost of the edit path
/// derived from the optimal assignment (an upper bound on true GED),
/// together with the mapping.
pub fn bipartite_ged_with_mapping(g1: &Graph, g2: &Graph, solver: Solver) -> (f64, NodeMapping) {
    with_scratch(|s| bipartite_ged_scratch(g1, g2, solver, s))
}

/// [`bipartite_ged_with_mapping`] on an explicit scratch (the entry point
/// routes through the per-thread one). Bit-identical to a fresh scratch.
pub fn bipartite_ged_scratch(
    g1: &Graph,
    g2: &Graph,
    solver: Solver,
    s: &mut GedScratch,
) -> (f64, NodeMapping) {
    if let Some(trivial) = trivial_pair(g1, g2) {
        return trivial;
    }
    rb_cost_matrix_into(g1, g2, s);
    solve_built(g1, g2, solver, s)
}

/// The smaller of the Hungarian and VJ distances, both solved on one
/// Riesen–Bunke matrix (the bipartite half of the BestOfThree protocol).
/// Bit-identical to `min` of two [`bipartite_ged`] calls.
pub(crate) fn bipartite_ged_both(g1: &Graph, g2: &Graph) -> f64 {
    if let Some((d, _)) = trivial_pair(g1, g2) {
        return d;
    }
    with_scratch(|s| {
        rb_cost_matrix_into(g1, g2, s);
        let h = solve_built(g1, g2, Solver::Hungarian, s).0;
        let v = solve_built(g1, g2, Solver::Vj, s).0;
        h.min(v)
    })
}

/// Pairs whose answer needs no LSAP: two empty graphs, and structurally
/// equal graphs. For the latter the identity mapping is optimal; the LSAP
/// relaxation cannot promise this (ties between same-label, same-degree
/// nodes may derive a costlier path), and a database routinely compares a
/// graph against itself, so short-circuit.
fn trivial_pair(g1: &Graph, g2: &Graph) -> Option<(f64, NodeMapping)> {
    let n1 = g1.node_count();
    if n1 == 0 && g2.node_count() == 0 {
        return Some((0.0, NodeMapping { map: vec![] }));
    }
    (g1 == g2).then(|| (0.0, NodeMapping::identity(n1)))
}

/// Solves the LSAP on the matrix already built in `s.cost` and prices the
/// derived edit path.
fn solve_built(g1: &Graph, g2: &Graph, solver: Solver, s: &mut GedScratch) -> (f64, NodeMapping) {
    let n1 = g1.node_count();
    let n2 = g2.node_count();
    let a = match solver {
        Solver::Hungarian => hungarian_with(&s.cost, &mut s.assign),
        Solver::Vj => lapjv_with(&s.cost, &mut s.assign),
    };
    let mut map = vec![EPS; n1];
    for (u, &j) in a.row_to_col.iter().take(n1).enumerate() {
        if j < n2 {
            map[u] = j as NodeId;
        }
    }
    let mapping = NodeMapping { map };
    let d = mapping_cost(g1, g2, &mapping);
    (d, mapping)
}

/// Bipartite approximate GED (distance only).
pub fn bipartite_ged(g1: &Graph, g2: &Graph, solver: Solver) -> f64 {
    bipartite_ged_with_mapping(g1, g2, solver).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{exact_ged, ExactLimits};
    use lan_graph::generators::{erdos_renyi, molecule_like};
    use lan_graph::Graph;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn identical_graphs_zero() {
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..10 {
            let g = molecule_like(&mut rng, 12, 2, 4, 6);
            assert_eq!(bipartite_ged(&g, &g, Solver::Hungarian), 0.0);
            assert_eq!(bipartite_ged(&g, &g, Solver::Vj), 0.0);
        }
    }

    #[test]
    fn empty_graphs() {
        let e = Graph::empty();
        assert_eq!(bipartite_ged(&e, &e, Solver::Hungarian), 0.0);
        let g = Graph::from_edges(vec![0], &[]).unwrap();
        assert_eq!(bipartite_ged(&e, &g, Solver::Vj), 1.0);
        assert_eq!(bipartite_ged(&g, &e, Solver::Hungarian), 1.0);
    }

    #[test]
    fn upper_bounds_exact() {
        let mut rng = StdRng::seed_from_u64(32);
        for _ in 0..40 {
            let g1 = erdos_renyi(&mut rng, 5, 5, 3);
            let g2 = erdos_renyi(&mut rng, 6, 6, 3);
            let exact = exact_ged(&g1, &g2, &ExactLimits::default())
                .distance()
                .unwrap();
            for solver in [Solver::Hungarian, Solver::Vj] {
                let approx = bipartite_ged(&g1, &g2, solver);
                assert!(
                    approx + 1e-9 >= exact,
                    "{solver:?} returned {approx} < exact {exact}"
                );
            }
        }
    }

    #[test]
    fn often_tight_on_near_duplicates() {
        // On small perturbations the bipartite bound is usually close; check
        // that it is at least finite and sane, and exact on relabel-only.
        let g1 = Graph::from_edges(vec![0, 1, 2, 3], &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let g2 = Graph::from_edges(vec![0, 1, 9, 3], &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(bipartite_ged(&g1, &g2, Solver::Hungarian), 1.0);
        assert_eq!(bipartite_ged(&g1, &g2, Solver::Vj), 1.0);
    }

    #[test]
    fn fig2_bipartite_upper_bound() {
        let g = Graph::from_edges(vec![0, 1, 1, 1], &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let q = Graph::from_edges(vec![0, 1, 0], &[(0, 1), (1, 2)]).unwrap();
        for solver in [Solver::Hungarian, Solver::Vj] {
            let d = bipartite_ged(&g, &q, solver);
            assert!((5.0..=9.0).contains(&d), "implausible bound {d}");
        }
    }

    #[test]
    fn symmetric_enough() {
        // The derived-path cost need not be exactly symmetric, but must stay
        // an upper bound both ways; check both directions bound the exact.
        let mut rng = StdRng::seed_from_u64(33);
        let g1 = erdos_renyi(&mut rng, 5, 4, 3);
        let g2 = erdos_renyi(&mut rng, 5, 6, 3);
        let exact = exact_ged(&g1, &g2, &ExactLimits::default())
            .distance()
            .unwrap();
        assert!(bipartite_ged(&g1, &g2, Solver::Vj) >= exact);
        assert!(bipartite_ged(&g2, &g1, Solver::Vj) >= exact);
    }

    #[test]
    fn mapping_is_injective_and_cost_consistent() {
        let mut rng = StdRng::seed_from_u64(34);
        for _ in 0..20 {
            let g1 = molecule_like(&mut rng, 10, 2, 4, 5);
            let g2 = molecule_like(&mut rng, 12, 2, 4, 5);
            let (d, m) = bipartite_ged_with_mapping(&g1, &g2, Solver::Hungarian);
            assert!(m.is_injective());
            assert_eq!(mapping_cost(&g1, &g2, &m), d);
        }
    }

    #[test]
    fn reused_scratch_is_bit_identical() {
        // One scratch across a mixed workload: cost matrices, mappings, and
        // distances must match the fresh-allocation path bit for bit.
        let mut rng = StdRng::seed_from_u64(36);
        let mut s = GedScratch::new();
        for _ in 0..25 {
            let n1 = 4 + rng.gen_range(0..10);
            let n2 = 4 + rng.gen_range(0..10);
            let g1 = molecule_like(&mut rng, n1, 2, 4, 5);
            let g2 = molecule_like(&mut rng, n2, 2, 4, 5);
            let fresh = rb_cost_matrix(&g1, &g2);
            rb_cost_matrix_into(&g1, &g2, &mut s);
            let n = fresh.n();
            assert_eq!(s.cost.n(), n);
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(fresh.get(i, j).to_bits(), s.cost.get(i, j).to_bits());
                }
            }
            for solver in [Solver::Hungarian, Solver::Vj] {
                let (d_fresh, m_fresh) =
                    bipartite_ged_scratch(&g1, &g2, solver, &mut GedScratch::new());
                let (d_scr, m_scr) = bipartite_ged_scratch(&g1, &g2, solver, &mut s);
                assert_eq!(d_fresh.to_bits(), d_scr.to_bits());
                assert_eq!(m_fresh, m_scr);
            }
        }
    }

    #[test]
    fn scales_to_paper_sized_graphs() {
        // PUBCHEM-like sizes (~48 nodes) must run fast.
        let mut rng = StdRng::seed_from_u64(35);
        let g1 = molecule_like(&mut rng, 48, 4, 4, 10);
        let g2 = molecule_like(&mut rng, 50, 4, 4, 10);
        let d1 = bipartite_ged(&g1, &g2, Solver::Hungarian);
        let d2 = bipartite_ged(&g1, &g2, Solver::Vj);
        assert!(d1 > 0.0 && d2 > 0.0);
    }
}
