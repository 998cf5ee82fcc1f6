//! Golden bit-identity digests for the approximate GED kernels.
//!
//! Every distance (as raw `f64` bits) and every node mapping that the
//! Hungarian, VJ, Beam and BestOfThree kernels return on a fixed set of
//! generated graph pairs is folded into one FNV-1a digest per kernel and
//! graph shape, and so are the `row_to_col` vectors and cost bits of the
//! two LSAP solvers. The expected digests were recorded from the original
//! (allocating, index-based) kernels; any change to a kernel body must
//! leave every one of them unchanged. A mismatch names the kernel and
//! shape that moved.
//!
//! The graph shapes follow the dataset presets: AIDS-like molecules
//! (~26 nodes, 51 labels), SYN-like power-law graphs (~11 nodes, 5 labels)
//! and PUBCHEM-like molecules (~48 nodes, 10 labels). Half of the pairs are
//! a graph against a perturbed copy of itself (the near pairs routing
//! sees, rich in cost ties), the other half independent graphs of jittered
//! sizes, plus one graph against itself.

use lan_ged::assignment::{hungarian_with, lapjv_with, AssignScratch, Assignment, CostMatrix};
use lan_ged::beam::beam_ged_with_mapping;
use lan_ged::bipartite::{bipartite_ged_with_mapping, rb_cost_matrix, Solver};
use lan_ged::engine::{ged, GedMethod};
use lan_ged::NodeMapping;
use lan_graph::generators::{molecule_like, power_law_like};
use lan_graph::perturb::perturb;
use lan_graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Digests recorded from the original kernels (see the module docs).
const AIDS: [(&str, u64); 9] = [
    ("hungarian", 0xd311cd169d19842f),
    ("vj", 0x663f197fb7966efc),
    ("beam1", 0xfbce32a93a7c0ccd),
    ("beam4", 0xa91cf6210cd23573),
    ("beam16", 0x7b2b67b4d91e0d82),
    ("bo3_4", 0x33b5e2ca59fd89c0),
    ("bo3_16", 0x4a00d8bebc4e5eb2),
    ("lsap_hungarian", 0x49abf19716b7ea75),
    ("lsap_lapjv", 0xc404997885e1e395),
];

const SYN: [(&str, u64); 9] = [
    ("hungarian", 0x718eb23394fc643d),
    ("vj", 0x5619e37a0a0ddd94),
    ("beam1", 0x6f53371dc384a222),
    ("beam4", 0x0793069783d267b1),
    ("beam16", 0x6aaca816d3c205ca),
    ("bo3_4", 0xea84681412328726),
    ("bo3_16", 0x458adccf41965269),
    ("lsap_hungarian", 0x45a1dc65f587b595),
    ("lsap_lapjv", 0x84670e2062b02f75),
];

const PUBCHEM: [(&str, u64); 9] = [
    ("hungarian", 0x6861df7efce97241),
    ("vj", 0xfd383ec518c46817),
    ("beam1", 0x6fa29dc648f45292),
    ("beam4", 0x81f4c4cb759f9080),
    ("beam16", 0x23d1902b4456e0a6),
    ("bo3_4", 0x529fc231a5a4dda5),
    ("bo3_16", 0x68edbd786b682fc5),
    ("lsap_hungarian", 0x67edb04e929f8be5),
    ("lsap_lapjv", 0xd0b4a4e907072fe5),
];

const LSAP_TIED: [(&str, u64); 2] = [
    ("hungarian", 0xb79cd1c2933c2ce8),
    ("lapjv", 0xb4a36a251edefe08),
];

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn dist(&mut self, d: f64) {
        self.word(d.to_bits());
    }

    fn mapping(&mut self, m: &NodeMapping) {
        self.word(m.map.len() as u64);
        for &v in &m.map {
            self.word(v as u64);
        }
    }

    fn assignment(&mut self, a: &Assignment) {
        self.word(a.row_to_col.len() as u64);
        for &j in &a.row_to_col {
            self.word(j as u64);
        }
        self.dist(a.cost);
    }
}

#[derive(Clone, Copy, Debug)]
enum Shape {
    Aids,
    Syn,
    Pubchem,
}

impl Shape {
    /// One graph of this shape with a node count jittered around the
    /// preset average.
    fn graph(self, rng: &mut StdRng) -> Graph {
        match self {
            Shape::Aids => {
                let n = rng.gen_range(20..=32);
                let extra = rng.gen_range(0..=5);
                molecule_like(rng, n, extra, 4, 51)
            }
            Shape::Syn => {
                let n = rng.gen_range(7..=15);
                let extra = rng.gen_range(0..=2);
                power_law_like(rng, n, 2, extra, 5)
            }
            Shape::Pubchem => {
                let n = rng.gen_range(40..=56);
                let extra = rng.gen_range(0..=6);
                molecule_like(rng, n, extra, 4, 10)
            }
        }
    }

    fn labels(self) -> u16 {
        match self {
            Shape::Aids => 51,
            Shape::Syn => 5,
            Shape::Pubchem => 10,
        }
    }

    fn pairs(self, seed: u64, count: usize) -> Vec<(Graph, Graph)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(count + 1);
        for i in 0..count {
            let g1 = self.graph(&mut rng);
            let g2 = if i % 2 == 0 {
                let edits = rng.gen_range(1..=6);
                perturb(&mut rng, &g1, edits, self.labels()).0
            } else {
                self.graph(&mut rng)
            };
            out.push((g1, g2));
        }
        let g = self.graph(&mut rng);
        out.push((g.clone(), g));
        out
    }
}

/// Digests of every kernel over one shape's pairs, keyed by kernel name.
fn kernel_digests(pairs: &[(Graph, Graph)]) -> Vec<(&'static str, u64)> {
    let mut hung = Fnv::new();
    let mut vj = Fnv::new();
    let mut beams = [(1usize, Fnv::new()), (4, Fnv::new()), (16, Fnv::new())];
    let mut bo3 = [(4usize, Fnv::new()), (16, Fnv::new())];
    let mut lsap_h = Fnv::new();
    let mut lsap_j = Fnv::new();
    let mut scratch = AssignScratch::new();
    for (g1, g2) in pairs {
        for (a, b) in [(g1, g2), (g2, g1)] {
            let (d, m) = bipartite_ged_with_mapping(a, b, Solver::Hungarian);
            hung.dist(d);
            hung.mapping(&m);
            let (d, m) = bipartite_ged_with_mapping(a, b, Solver::Vj);
            vj.dist(d);
            vj.mapping(&m);
            for (w, h) in &mut beams {
                let (d, m) = beam_ged_with_mapping(a, b, *w);
                h.dist(d);
                h.mapping(&m);
            }
            for (w, h) in &mut bo3 {
                h.dist(ged(a, b, &GedMethod::BestOfThree { beam_width: *w }).unwrap());
            }
            let c = rb_cost_matrix(a, b);
            lsap_h.assignment(&hungarian_with(&c, &mut scratch));
            lsap_j.assignment(&lapjv_with(&c, &mut scratch));
        }
    }
    vec![
        ("hungarian", hung.0),
        ("vj", vj.0),
        ("beam1", beams[0].1 .0),
        ("beam4", beams[1].1 .0),
        ("beam16", beams[2].1 .0),
        ("bo3_4", bo3[0].1 .0),
        ("bo3_16", bo3[1].1 .0),
        ("lsap_hungarian", lsap_h.0),
        ("lsap_lapjv", lsap_j.0),
    ]
}

fn check(shape: Shape, got: &[(&str, u64)], want: &[(&str, u64)]) {
    let mismatched: Vec<String> = got
        .iter()
        .zip(want)
        .filter(|(g, w)| g != w)
        .map(|((name, g), (_, w))| format!("{name}: got {g:#018x}, want {w:#018x}"))
        .collect();
    assert_eq!(got.len(), want.len());
    assert!(
        mismatched.is_empty(),
        "{shape:?} kernel digests moved:\n{}",
        mismatched.join("\n")
    );
}

#[test]
fn aids_shape_kernels_are_bit_identical() {
    let got = kernel_digests(&Shape::Aids.pairs(0xa1d5, 12));
    check(Shape::Aids, &got, &AIDS);
}

#[test]
fn syn_shape_kernels_are_bit_identical() {
    let got = kernel_digests(&Shape::Syn.pairs(0x5e1, 24));
    check(Shape::Syn, &got, &SYN);
}

#[test]
fn pubchem_shape_kernels_are_bit_identical() {
    let got = kernel_digests(&Shape::Pubchem.pairs(0x9cb, 6));
    check(Shape::Pubchem, &got, &PUBCHEM);
}

/// The LSAP solvers on random integer matrices with heavy ties (the
/// Riesen–Bunke matrices above are structured; these are not), sizes 1–40,
/// through one reused scratch.
#[test]
fn lsap_solvers_are_bit_identical_on_tied_matrices() {
    let mut rng = StdRng::seed_from_u64(0x15a9);
    let mut scratch = AssignScratch::new();
    let mut h = Fnv::new();
    let mut j = Fnv::new();
    for _ in 0..200 {
        let n = rng.gen_range(1..=40);
        let hi = rng.gen_range(2..=50);
        let data: Vec<f64> = (0..n * n).map(|_| rng.gen_range(0..hi) as f64).collect();
        let c = CostMatrix::from_vec(n, data);
        h.assignment(&hungarian_with(&c, &mut scratch));
        j.assignment(&lapjv_with(&c, &mut scratch));
    }
    let got = [("hungarian", h.0), ("lapjv", j.0)];
    for ((name, g), (_, w)) in got.iter().zip(&LSAP_TIED) {
        assert_eq!(g, w, "{name} digest moved: got {g:#018x}, want {w:#018x}");
    }
}
