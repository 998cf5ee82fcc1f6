//! Exact solvers for the linear sum assignment problem (LSAP).
//!
//! Two independent implementations, matching the two bipartite GED
//! references the paper compares for ground truth:
//!
//! * [`hungarian`] — the Kuhn–Munkres algorithm in its O(n³)
//!   potentials/shortest-augmenting-path form (Riesen & Bunke's "Hung").
//! * [`lapjv`] — Jonker & Volgenant's LAPJV: column reduction + augmenting
//!   row reduction preprocessing followed by shortest augmenting paths
//!   (Fankhauser et al.'s "VJ" speed-up).
//!
//! Both return an *optimal* assignment. They may return different optimal
//! assignments when ties exist, which is why the two derived bipartite GED
//! approximations can differ on the same pair of graphs.
//!
//! Each solver exists in two forms: the plain entry point, which allocates
//! its working arrays, and a `*_with` form that reuses an [`AssignScratch`].
//! The `*_with` forms reinitialize every buffer to exactly the values the
//! allocating path starts from, so the two forms are bit-identical; routing
//! calls them thousands of times per query through the per-thread
//! [`crate::scratch::GedScratch`].
//!
//! The O(n) inner loops (Hungarian's reduced-cost scan and potential
//! update, LAPJV's two-minimum search, nearest-column search and
//! relaxation) walk the cost row `c.row(i)` zipped with the working-array
//! slices instead of indexing cell by cell, so they carry no per-element
//! bounds checks. Each keeps the reference arithmetic order — `c − u[i0] −
//! v[j]` in Hungarian, `dmin + c[i][j] − v[j] − (c[i][jmin] − v[jmin])` in
//! LAPJV with the last term hoisted out of the loop — so the results are
//! bit-identical to the index-based formulation.

/// A square cost matrix stored row-major.
#[derive(Debug, Clone)]
pub struct CostMatrix {
    n: usize,
    data: Vec<f64>,
}

impl CostMatrix {
    /// Creates an `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        CostMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Creates from a row-major vector. Panics if `data.len() != n * n`.
    pub fn from_vec(n: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n * n);
        CostMatrix { n, data }
    }

    /// Resets to an `n × n` zero matrix, reusing the existing allocation.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.data.clear();
        self.data.resize(n * n, 0.0);
    }

    /// Matrix dimension.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Cost of assigning row `i` to column `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Sets the cost of assigning row `i` to column `j`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] = v;
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.n..(i + 1) * self.n]
    }
}

/// An optimal assignment: `row_to_col[i]` is the column assigned to row `i`.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    pub row_to_col: Vec<usize>,
    pub cost: f64,
}

/// Reusable working arrays for [`hungarian_with`] and [`lapjv_with`].
///
/// Every buffer is fully reinitialized at the start of each solve, so a
/// scratch carries no state between calls — only capacity.
#[derive(Debug, Default)]
pub struct AssignScratch {
    // Hungarian (1-based arrays of length n + 1).
    u: Vec<f64>,
    v: Vec<f64>,
    p: Vec<usize>,
    way: Vec<usize>,
    minv: Vec<f64>,
    used: Vec<bool>,
    // LAPJV.
    y: Vec<usize>,
    vv: Vec<f64>,
    free: Vec<usize>,
    next_free: Vec<usize>,
    d: Vec<f64>,
    pred: Vec<usize>,
    done: Vec<bool>,
    ready: Vec<usize>,
}

impl AssignScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Clears and refills `buf` with `len` copies of `val` (the scratch
/// equivalent of `vec![val; len]`).
#[inline]
fn refill<T: Copy>(buf: &mut Vec<T>, len: usize, val: T) {
    buf.clear();
    buf.resize(len, val);
}

/// Kuhn–Munkres with potentials (the classic O(n³) "Hungarian algorithm").
///
/// Follows the standard formulation with row potentials `u`, column
/// potentials `v`, and one Dijkstra-like augmentation per row.
pub fn hungarian(c: &CostMatrix) -> Assignment {
    hungarian_with(c, &mut AssignScratch::new())
}

/// [`hungarian`] reusing the caller's scratch buffers. Bit-identical to the
/// allocating form.
pub fn hungarian_with(c: &CostMatrix, s: &mut AssignScratch) -> Assignment {
    let n = c.n();
    if n == 0 {
        return Assignment {
            row_to_col: vec![],
            cost: 0.0,
        };
    }
    const INF: f64 = f64::INFINITY;
    // 1-based internally per the classic formulation; p[j] = row matched to
    // column j (0 = none).
    refill(&mut s.u, n + 1, 0.0);
    refill(&mut s.v, n + 1, 0.0);
    refill(&mut s.p, n + 1, 0);
    refill(&mut s.way, n + 1, 0);

    for i in 1..=n {
        s.p[0] = i;
        let mut j0 = 0usize;
        refill(&mut s.minv, n + 1, INF);
        refill(&mut s.used, n + 1, false);
        loop {
            s.used[j0] = true;
            let i0 = s.p[j0];
            let ui0 = s.u[i0];
            let mut delta = INF;
            let mut j1 = 0usize;
            // Columns 1..=n, walked as slices alongside row i0 - 1 of `c`.
            let cols = c
                .row(i0 - 1)
                .iter()
                .zip(&s.used[1..])
                .zip(&s.v[1..])
                .zip(s.minv[1..].iter_mut().zip(&mut s.way[1..]));
            for (j, (((&cij, &used), &vj), (minv, way))) in cols.enumerate() {
                if !used {
                    let cur = cij - ui0 - vj;
                    if cur < *minv {
                        *minv = cur;
                        *way = j0;
                    }
                    if *minv < delta {
                        delta = *minv;
                        j1 = j + 1;
                    }
                }
            }
            let cols = s.used.iter().zip(&s.p).zip(&mut s.v).zip(&mut s.minv);
            for (((&used, &pj), vj), minv) in cols {
                if used {
                    s.u[pj] += delta;
                    *vj -= delta;
                } else {
                    *minv -= delta;
                }
            }
            j0 = j1;
            if s.p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = s.way[j0];
            s.p[j0] = s.p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut row_to_col = vec![0usize; n];
    for j in 1..=n {
        if s.p[j] > 0 {
            row_to_col[s.p[j] - 1] = j - 1;
        }
    }
    let cost = (0..n).map(|i| c.get(i, row_to_col[i])).sum();
    Assignment { row_to_col, cost }
}

/// Jonker–Volgenant LAPJV.
///
/// Column reduction and augmenting row reduction resolve most rows without
/// search; the remaining free rows are matched with shortest augmenting
/// paths over the reduced costs.
pub fn lapjv(c: &CostMatrix) -> Assignment {
    lapjv_with(c, &mut AssignScratch::new())
}

/// [`lapjv`] reusing the caller's scratch buffers. Bit-identical to the
/// allocating form.
pub fn lapjv_with(c: &CostMatrix, s: &mut AssignScratch) -> Assignment {
    let n = c.n();
    if n == 0 {
        return Assignment {
            row_to_col: vec![],
            cost: 0.0,
        };
    }
    const INF: f64 = f64::INFINITY;
    // `x` (row -> col) is the returned assignment, so it is a fresh
    // allocation either way; `y` and the potentials come from scratch.
    let mut x = vec![usize::MAX; n];
    refill(&mut s.y, n, usize::MAX); // col -> row
    refill(&mut s.vv, n, 0.0); // column potentials

    // --- Column reduction (scan columns right-to-left). ---
    for j in (0..n).rev() {
        let mut imin = 0usize;
        let mut min = c.get(0, j);
        for i in 1..n {
            let cij = c.get(i, j);
            if cij < min {
                min = cij;
                imin = i;
            }
        }
        s.vv[j] = min;
        if x[imin] == usize::MAX {
            x[imin] = j;
            s.y[j] = imin;
        }
    }

    // --- Augmenting row reduction (two passes over unassigned rows). ---
    s.free.clear();
    s.free.extend((0..n).filter(|&i| x[i] == usize::MAX));
    for _ in 0..2 {
        let mut k = 0usize;
        let nfree = s.free.len();
        s.next_free.clear();
        while k < nfree {
            let i = s.free[k];
            k += 1;
            // Find the two smallest reduced costs in row i.
            let row = c.row(i);
            let mut u1 = row[0] - s.vv[0];
            let mut u2 = INF;
            let mut j1 = 0usize;
            let mut j2 = usize::MAX;
            for (j, (&cij, &vj)) in row.iter().zip(&s.vv).enumerate().skip(1) {
                let h = cij - vj;
                if h < u2 {
                    if h < u1 {
                        u2 = u1;
                        j2 = j1;
                        u1 = h;
                        j1 = j;
                    } else {
                        u2 = h;
                        j2 = j;
                    }
                }
            }
            let mut jbest = j1;
            let i0 = s.y[jbest];
            if u1 < u2 {
                s.vv[jbest] -= u2 - u1;
            } else if i0 != usize::MAX {
                if j2 == usize::MAX {
                    // No alternative column; leave potentials as-is and fall
                    // through to the augmentation phase for this row.
                    s.next_free.push(i);
                    continue;
                }
                jbest = j2;
            }
            x[i] = jbest;
            let prev = s.y[jbest];
            s.y[jbest] = i;
            if prev != usize::MAX {
                // prev row becomes free and is retried in the next pass.
                s.next_free.push(prev);
                x[prev] = usize::MAX;
            }
        }
        std::mem::swap(&mut s.free, &mut s.next_free);
        if s.free.is_empty() {
            break;
        }
    }

    // --- Augmentation: shortest augmenting path for each remaining row. ---
    for fi in 0..s.free.len() {
        let f = s.free[fi];
        s.d.clear();
        s.d.extend(c.row(f).iter().zip(&s.vv).map(|(&cfj, &vj)| cfj - vj));
        refill(&mut s.pred, n, f);
        refill(&mut s.done, n, false);
        s.ready.clear();
        let endj;
        loop {
            // Find nearest unscanned column.
            let mut jmin = usize::MAX;
            let mut dmin = INF;
            for (j, (&done, &dj)) in s.done.iter().zip(&s.d).enumerate() {
                if !done && dj < dmin {
                    dmin = dj;
                    jmin = j;
                }
            }
            debug_assert!(jmin != usize::MAX, "LAPJV: no reachable column");
            s.done[jmin] = true;
            s.ready.push(jmin);
            if s.y[jmin] == usize::MAX {
                endj = jmin;
                // Update potentials for scanned columns.
                for &j in &s.ready {
                    if j != jmin {
                        s.vv[j] += s.d[j] - dmin;
                    }
                }
                break;
            }
            // Relax through the row matched to jmin. The reduced cost of
            // (i, jmin) is loop-invariant; it is still subtracted last, as
            // in `dmin + c[i][j] - v[j] - (c[i][jmin] - v[jmin])`.
            let i = s.y[jmin];
            let row = c.row(i);
            let hmin = row[jmin] - s.vv[jmin];
            let cols = row
                .iter()
                .zip(&s.vv)
                .zip(&s.done)
                .zip(s.d.iter_mut().zip(&mut s.pred));
            for (((&cij, &vj), &done), (dj, pred)) in cols {
                if !done {
                    let nd = dmin + cij - vj - hmin;
                    if nd < *dj {
                        *dj = nd;
                        *pred = i;
                    }
                }
            }
        }
        // Augment along the alternating path.
        let mut j = endj;
        loop {
            let i = s.pred[j];
            s.y[j] = i;
            std::mem::swap(&mut x[i], &mut j);
            if j == usize::MAX {
                break;
            }
        }
    }

    let cost = (0..n).map(|i| c.get(i, x[i])).sum();
    Assignment {
        row_to_col: x,
        cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Brute-force optimum by permutation enumeration (n <= 8).
    fn brute(c: &CostMatrix) -> f64 {
        fn rec(c: &CostMatrix, i: usize, used: &mut [bool], acc: f64, best: &mut f64) {
            if i == c.n() {
                *best = best.min(acc);
                return;
            }
            if acc >= *best {
                return;
            }
            for j in 0..c.n() {
                if !used[j] {
                    used[j] = true;
                    rec(c, i + 1, used, acc + c.get(i, j), best);
                    used[j] = false;
                }
            }
        }
        let mut best = f64::INFINITY;
        rec(c, 0, &mut vec![false; c.n()], 0.0, &mut best);
        best
    }

    fn random_matrix(rng: &mut StdRng, n: usize) -> CostMatrix {
        let data: Vec<f64> = (0..n * n).map(|_| rng.gen_range(0..100) as f64).collect();
        CostMatrix::from_vec(n, data)
    }

    fn assert_valid(a: &Assignment, n: usize) {
        let mut seen = vec![false; n];
        for &j in &a.row_to_col {
            assert!(j < n);
            assert!(!seen[j], "column assigned twice");
            seen[j] = true;
        }
    }

    #[test]
    fn empty_matrix() {
        let c = CostMatrix::zeros(0);
        assert_eq!(hungarian(&c).cost, 0.0);
        assert_eq!(lapjv(&c).cost, 0.0);
    }

    #[test]
    fn one_by_one() {
        let c = CostMatrix::from_vec(1, vec![7.0]);
        assert_eq!(hungarian(&c).cost, 7.0);
        assert_eq!(lapjv(&c).cost, 7.0);
    }

    #[test]
    fn known_small_case() {
        // Classic 3x3 with optimum 5 (1 + 2 + 2 along the anti-diagonal-ish).
        let c = CostMatrix::from_vec(3, vec![4.0, 1.0, 3.0, 2.0, 0.0, 5.0, 3.0, 2.0, 2.0]);
        let h = hungarian(&c);
        let j = lapjv(&c);
        assert_eq!(h.cost, 5.0);
        assert_eq!(j.cost, 5.0);
        assert_valid(&h, 3);
        assert_valid(&j, 3);
    }

    #[test]
    fn identity_is_optimal_for_diagonal_zero() {
        let n = 5;
        let mut c = CostMatrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                c.set(i, j, if i == j { 0.0 } else { 10.0 });
            }
        }
        assert_eq!(hungarian(&c).cost, 0.0);
        assert_eq!(lapjv(&c).cost, 0.0);
    }

    #[test]
    fn agrees_with_brute_force_random() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in 2..=7 {
            for _ in 0..25 {
                let c = random_matrix(&mut rng, n);
                let want = brute(&c);
                let h = hungarian(&c);
                let j = lapjv(&c);
                assert_eq!(h.cost, want, "hungarian wrong on n={n}");
                assert_eq!(j.cost, want, "lapjv wrong on n={n}");
                assert_valid(&h, n);
                assert_valid(&j, n);
            }
        }
    }

    #[test]
    fn solvers_agree_on_larger_random() {
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..10 {
            let c = random_matrix(&mut rng, 40);
            let h = hungarian(&c);
            let j = lapjv(&c);
            assert!((h.cost - j.cost).abs() < 1e-9, "{} vs {}", h.cost, j.cost);
            assert_valid(&h, 40);
            assert_valid(&j, 40);
        }
    }

    #[test]
    fn handles_infinities_as_forbidden() {
        // One forbidden cell off the only remaining feasible permutation.
        let big = 1e18;
        let c = CostMatrix::from_vec(2, vec![big, 1.0, 2.0, big]);
        assert_eq!(hungarian(&c).cost, 3.0);
        assert_eq!(lapjv(&c).cost, 3.0);
    }

    #[test]
    fn ties_still_optimal() {
        let c = CostMatrix::from_vec(3, vec![1.0; 9]);
        assert_eq!(hungarian(&c).cost, 3.0);
        assert_eq!(lapjv(&c).cost, 3.0);
    }

    #[test]
    fn reused_scratch_is_bit_identical() {
        // One long-lived scratch across a mixed-size workload must produce
        // exactly the outputs of the allocating path — including assignment
        // choice on ties, not just cost.
        let mut rng = StdRng::seed_from_u64(13);
        let mut scratch = AssignScratch::new();
        for _ in 0..40 {
            let n = rng.gen_range(1..=12);
            let c = random_matrix(&mut rng, n);
            let h_fresh = hungarian(&c);
            let h_scr = hungarian_with(&c, &mut scratch);
            assert_eq!(h_fresh, h_scr);
            assert_eq!(h_fresh.cost.to_bits(), h_scr.cost.to_bits());
            let j_fresh = lapjv(&c);
            let j_scr = lapjv_with(&c, &mut scratch);
            assert_eq!(j_fresh, j_scr);
            assert_eq!(j_fresh.cost.to_bits(), j_scr.cost.to_bits());
        }
    }
}
