//! Beam-search suboptimal GED (the paper's "Beam" [58], Neuhaus, Riesen &
//! Bunke).
//!
//! The search tree is the same node-mapping tree as exact A\*
//! ([`crate::exact`]), but at each depth only the `width` most promising
//! partial mappings (by `g + h`) survive. The best complete mapping found is
//! returned; its cost is the exact cost of a valid edit path, hence an upper
//! bound on true GED. With `width = ∞` this degenerates to breadth-first
//! exact search; with `width = 1` it is a greedy matcher.
//!
//! Expansion is lazy. Each depth scores every child of every surviving
//! partial as a small `Candidate` — `(f, g, parent, v)`, no mapping of its
//! own — and only the `width` survivors of the stable sort on `f`
//! (`total_cmp`) are materialized into the next frontier. The frontier is
//! stored as flat rows (mappings, `used` masks, costs) double-buffered
//! across depths, so a call allocates a fixed handful of buffers instead of
//! two vectors per child. A child's edge cost reads a per-depth row of the
//! `g1` edges from `u` to earlier nodes and a dense `g2` adjacency built
//! once per call. All costs are integer counts, so the scores, the survivor
//! order (ties keep generation order: parent, then `v` ascending, then ε)
//! and the returned mapping match a per-child materializing expansion
//! exactly.

use crate::lower_bounds::masked_label_multiset_lb;
use crate::mapping::{mapping_cost, NodeMapping, EPS};
use lan_graph::{Graph, Label, NodeId};

/// Largest beam width a [`crate::GedMethod`] may carry when it is decoded
/// from untrusted input (a store file). One depth scores up to
/// `width · (n2 + 1)` children, so the bound keeps that list linear in the
/// graph size. The dataset presets use widths 4 and 16.
pub const MAX_BEAM_WIDTH: usize = 1 << 12;

/// A scored child of frontier row `parent`: `u -> v` (`v == EPS` deletes
/// `u`).
struct Candidate {
    f: f64,
    g: f64,
    parent: usize,
    v: NodeId,
}

/// Beam-search approximate GED with the given beam width, returning the
/// distance and the mapping that achieves it.
pub fn beam_ged_with_mapping(g1: &Graph, g2: &Graph, width: usize) -> (f64, NodeMapping) {
    assert!(width >= 1, "beam width must be at least 1");
    // Search from the smaller side: shallower tree, better pruning.
    if g1.node_count() > g2.node_count() {
        let (d, m) = beam_ged_with_mapping(g2, g1, width);
        let mut inv = vec![EPS; g1.node_count()];
        for (u, &v) in m.map.iter().enumerate() {
            if v != EPS {
                inv[v as usize] = u as NodeId;
            }
        }
        return (d, NodeMapping { map: inv });
    }
    let n1 = g1.node_count();
    let n2 = g2.node_count();

    // Allocation-free heuristic inputs (same scheme as `crate::exact`):
    // sorted label suffixes of g1, and g2's nodes sorted by label so each
    // child's remaining multiset streams through its `used` mask. The
    // values are identical to the allocating label-multiset oracle.
    let suffixes: Vec<Vec<Label>> = (0..=n1)
        .map(|i| {
            let mut s = g1.labels()[i..].to_vec();
            s.sort_unstable();
            s
        })
        .collect();
    let mut g2_sorted: Vec<(Label, NodeId)> = g2
        .labels()
        .iter()
        .enumerate()
        .map(|(v, &l)| (l, v as NodeId))
        .collect();
    g2_sorted.sort_unstable();
    // Dense g2 adjacency: row `v` is `adj2[v * n2..(v + 1) * n2]`.
    let mut adj2 = vec![false; n2 * n2];
    for v in 0..n2 {
        for &w in g2.neighbors(v as NodeId) {
            adj2[v * n2 + w as usize] = true;
        }
    }

    // Frontier row `r` at depth `i`: mapping `map[r * i..(r + 1) * i]`,
    // mask `used[r * n2..(r + 1) * n2]`, cost so far `g[r]`.
    let mut map: Vec<NodeId> = Vec::new();
    let mut used: Vec<bool> = vec![false; n2];
    let mut g: Vec<f64> = vec![0.0];
    let mut next_map: Vec<NodeId> = Vec::new();
    let mut next_used: Vec<bool> = Vec::new();
    let mut next_g: Vec<f64> = Vec::new();
    let mut cands: Vec<Candidate> = Vec::new();
    let mut e1: Vec<bool> = Vec::with_capacity(n1);
    for i in 0..n1 {
        let u = i as NodeId;
        let lu = g1.label(u);
        // g1 edges from u to the nodes already mapped.
        e1.clear();
        e1.extend((0..i).map(|j| g1.has_edge(u, j as NodeId)));
        let e1_count = e1.iter().filter(|&&e| e).count();
        let rem1 = &suffixes[i + 1];
        cands.clear();
        for (parent, &pg) in g.iter().enumerate() {
            let pmap = &map[parent * i..(parent + 1) * i];
            let pused = &used[parent * n2..(parent + 1) * n2];
            // u -> v for each unused v.
            for v in 0..n2 {
                if pused[v] {
                    continue;
                }
                let row = &adj2[v * n2..(v + 1) * n2];
                let mut cost = usize::from(lu != g2.labels()[v]);
                for (&e, &pv) in e1.iter().zip(pmap) {
                    let e2 = pv != EPS && row[pv as usize];
                    cost += usize::from(e != e2);
                }
                let cg = pg + cost as f64;
                let h = masked_label_multiset_lb(rem1, &g2_sorted, |x| {
                    x as usize == v || pused[x as usize]
                });
                cands.push(Candidate {
                    f: cg + h,
                    g: cg,
                    parent,
                    v: v as NodeId,
                });
            }
            // u -> EPS.
            let cg = pg + (1 + e1_count) as f64;
            let h = masked_label_multiset_lb(rem1, &g2_sorted, |x| pused[x as usize]);
            cands.push(Candidate {
                f: cg + h,
                g: cg,
                parent,
                v: EPS,
            });
        }
        // Keep the `width` best by f; the stable sort keeps generation
        // order among ties (determinism).
        cands.sort_by(|a, b| a.f.total_cmp(&b.f));
        cands.truncate(width);
        // Materialize the survivors.
        next_map.clear();
        next_used.clear();
        next_g.clear();
        for c in &cands {
            next_map.extend_from_slice(&map[c.parent * i..(c.parent + 1) * i]);
            next_map.push(c.v);
            next_used.extend_from_slice(&used[c.parent * n2..(c.parent + 1) * n2]);
            if c.v != EPS {
                next_used[next_g.len() * n2 + c.v as usize] = true;
            }
            next_g.push(c.g);
        }
        std::mem::swap(&mut map, &mut next_map);
        std::mem::swap(&mut used, &mut next_used);
        std::mem::swap(&mut g, &mut next_g);
    }

    (0..g.len())
        .map(|r| {
            let m = NodeMapping {
                map: map[r * n1..(r + 1) * n1].to_vec(),
            };
            let d = mapping_cost(g1, g2, &m);
            (d, m)
        })
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("beam frontier never empty")
}

/// Beam-search approximate GED (distance only).
pub fn beam_ged(g1: &Graph, g2: &Graph, width: usize) -> f64 {
    beam_ged_with_mapping(g1, g2, width).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{exact_ged, ExactLimits};
    use lan_graph::generators::{erdos_renyi, molecule_like};
    use lan_graph::Graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identical_graphs_zero() {
        let mut rng = StdRng::seed_from_u64(41);
        let g = molecule_like(&mut rng, 15, 3, 4, 6);
        assert_eq!(beam_ged(&g, &g, 4), 0.0);
    }

    #[test]
    fn upper_bounds_exact() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..30 {
            let g1 = erdos_renyi(&mut rng, 5, 5, 3);
            let g2 = erdos_renyi(&mut rng, 6, 6, 3);
            let exact = exact_ged(&g1, &g2, &ExactLimits::default())
                .distance()
                .unwrap();
            for w in [1, 4, 16] {
                let d = beam_ged(&g1, &g2, w);
                assert!(d + 1e-9 >= exact, "beam({w}) = {d} < exact {exact}");
            }
        }
    }

    #[test]
    fn wider_beam_never_worse() {
        let mut rng = StdRng::seed_from_u64(43);
        for _ in 0..15 {
            let g1 = erdos_renyi(&mut rng, 6, 6, 3);
            let g2 = erdos_renyi(&mut rng, 6, 7, 3);
            let d_wide = beam_ged(&g1, &g2, 64);
            let exact = exact_ged(&g1, &g2, &ExactLimits::default())
                .distance()
                .unwrap();
            // A wide beam on tiny graphs should be optimal or very close.
            assert!(d_wide <= exact + 2.0, "wide beam {d_wide} vs exact {exact}");
        }
    }

    #[test]
    fn fig2_beam_reaches_optimum() {
        let g = Graph::from_edges(vec![0, 1, 1, 1], &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let q = Graph::from_edges(vec![0, 1, 0], &[(0, 1), (1, 2)]).unwrap();
        assert_eq!(beam_ged(&g, &q, 32), 5.0);
    }

    #[test]
    fn mapping_consistency() {
        let mut rng = StdRng::seed_from_u64(44);
        let g1 = molecule_like(&mut rng, 12, 2, 4, 5);
        let g2 = molecule_like(&mut rng, 14, 2, 4, 5);
        let (d, m) = beam_ged_with_mapping(&g1, &g2, 8);
        assert!(m.is_injective());
        assert_eq!(mapping_cost(&g1, &g2, &m), d);
        assert_eq!(m.map.len(), g1.node_count());
    }

    #[test]
    fn empty_graphs() {
        let e = Graph::empty();
        assert_eq!(beam_ged(&e, &e, 4), 0.0);
        let g = Graph::from_edges(vec![0, 0], &[(0, 1)]).unwrap();
        assert_eq!(beam_ged(&e, &g, 4), 3.0);
        assert_eq!(beam_ged(&g, &e, 4), 3.0);
    }

    #[test]
    fn scales_to_paper_sized_graphs() {
        let mut rng = StdRng::seed_from_u64(45);
        let g1 = molecule_like(&mut rng, 35, 3, 4, 10);
        let g2 = molecule_like(&mut rng, 36, 3, 4, 10);
        let d = beam_ged(&g1, &g2, 8);
        assert!(d > 0.0 && d < 200.0);
    }
}
