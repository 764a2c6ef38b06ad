//! Fig. 8 — profitable regions of the dense/sparse tile-product primitives.
//!
//! For every combination of nonzero counts `(nnz₁, nnz₂)` of a tile pair,
//! the figure shows which of the three primitives (`sparse×sparse`,
//! `dense×sparse`, `dense×dense`) is fastest, separately for cheap and
//! expensive base kernels.
//!
//! Three views are printed. First, per base-kernel cost X, the paper's GPU
//! cost model (`select_kind`) beside the table the solver actually routes by
//! (`KindTable`, closed forms fit to this CPU). Then a timing grid: all three
//! primitives over random octiles at every `(nnz₁, nnz₂)` of [`GRID`], under
//! the unit (X = 3), Kronecker-delta (X = 4) and square-exponential (X = 11)
//! edge kernels, through the panel-amortized entry the operator calls. That
//! grid is the one `KindTable`'s constants are fit from: the bin scores both
//! maps against it (how often the pick is within 10 % of the grid's fastest
//! primitive, and the worst cell) and prints a fresh fit of the constants,
//! so refitting the table is running this bin and pasting its last lines
//! into `crates/core/src/octile_ops.rs`.

use std::hint::black_box;
use std::time::Instant;

use mgk_bench::bench_rng;
use mgk_bench::warp_cycles::select_kind;
use mgk_core::octile_ops::{
    tile_pair_product_with_panels, KindTable, PairContext, PaneledTile, TileCosts, TilePanels,
    TileProductKind,
};
use mgk_kernels::{BaseKernel, KroneckerDelta, SquareExponential, UnitKernel};
use mgk_linalg::TrafficCounters;
use mgk_tile::Octile;
use rand::seq::SliceRandom;
use rand::Rng;

/// Tile populations the grid times: every count where tiles usually are,
/// coarser towards full tiles.
const GRID: [usize; 24] =
    [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 20, 24, 28, 32, 40, 48, 56, 64];
/// Populations the two maps print.
const MAP: [usize; 12] = [1, 2, 4, 6, 8, 10, 12, 16, 24, 32, 48, 64];
/// The primitives, in the order the grid stores their timings.
const KINDS: [TileProductKind; 3] =
    [TileProductKind::SparseSparse, TileProductKind::DenseSparse, TileProductKind::DenseDense];
/// Random octiles per side of a cell; a timing sweeps all `TILES²` pairs.
const TILES: usize = 8;
/// Sweeps per timing.
const REPS: usize = 8;
/// Timings per primitive and cell, interleaved; the fastest is kept.
const ROUNDS: usize = 5;
/// Vertices per graph side: tiles land on an 8×8 grid of positions, so `p`
/// is gathered at a realistic stride.
const DIM: usize = 64;

/// Build a random octile with exactly `nnz` nonzeros at a random position.
fn random_octile<R: Rng>(nnz: usize, rng: &mut R) -> Octile<f32> {
    let mut positions: Vec<u8> = (0..64).collect();
    positions.shuffle(rng);
    let mut chosen: Vec<u8> = positions[..nnz].to_vec();
    chosen.sort_unstable();
    let mut mask = 0u64;
    let mut weights = Vec::with_capacity(nnz);
    let mut labels = Vec::with_capacity(nnz);
    for &bit in &chosen {
        mask |= 1u64 << bit;
        weights.push(rng.gen_range(0.1..1.0));
        // a few distinct integer values, so the Kronecker delta also matches
        labels.push(rng.gen_range(0..3u8) as f32);
    }
    let tiles = (DIM / 8) as u32;
    Octile { row: rng.gen_range(0..tiles), col: rng.gen_range(0..tiles), mask, weights, labels }
}

fn symbol(kind: TileProductKind) -> char {
    match kind {
        TileProductKind::SparseSparse => 's',
        TileProductKind::DenseSparse => 'm',
        TileProductKind::DenseDense => 'D',
    }
}

fn print_maps(x: usize) {
    let table = KindTable::new(x);
    let row = |pick: &dyn Fn(usize, usize) -> TileProductKind, nnz1: usize| -> String {
        MAP.iter().map(|&nnz2| format!("{:>2}", symbol(pick(nnz1, nnz2)))).collect()
    };
    let width = 2 * MAP.len();
    println!("X = {x}: {:<width$}   CPU table (KindTable)", "GPU model (select_kind)");
    let header: String = MAP.iter().map(|n| format!("{n:>2}")).collect::<String>();
    println!("{:>5}  {header}   {header}", "n1\\n2");
    for nnz1 in MAP {
        println!(
            "{nnz1:>5}  {}   {}",
            row(&|a, b| select_kind(a, b, x), nnz1),
            row(&|a, b| table.get(a, b), nnz1)
        );
    }
    let crossover = |pick: &dyn Fn(usize) -> TileProductKind| {
        (1..=64).find(|&s| pick(s) != TileProductKind::SparseSparse).unwrap_or(64)
    };
    println!(
        "diagonal sparse×sparse -> dense crossover: GPU model {}, CPU table {}\n",
        crossover(&|s| select_kind(s, s, x)),
        crossover(&|s| table.get(s, s))
    );
}

/// One cell of the timing grid: ns per tile pair of each of [`KINDS`].
struct Cell {
    x: usize,
    nnz1: usize,
    nnz2: usize,
    ns: [f64; 3],
}

impl Cell {
    fn ns_of(&self, kind: TileProductKind) -> f64 {
        self.ns[KINDS.iter().position(|&k| k == kind).unwrap_or(0)]
    }

    fn fastest(&self) -> f64 {
        self.ns.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

fn time_grid<K: BaseKernel<f32> + Copy>(kernel: &K, rng: &mut impl Rng, cells: &mut Vec<Cell>) {
    let x = kernel.cost().flops;
    let costs = TileCosts { label_bytes: 4, float_bytes: 4, kernel_flops: x };
    let ctx = PairContext { n: DIM, m: DIM, kernel, costs: &costs };
    let p: Vec<f32> = (0..DIM * DIM).map(|k| (k % 7) as f32 * 0.1).collect();
    let side = |nnz: usize, rng: &mut _| -> Vec<(Octile<f32>, TilePanels<f32>)> {
        (0..TILES)
            .map(|_| {
                let tile = random_octile(nnz, rng);
                let panels = TilePanels::new(&tile);
                (tile, panels)
            })
            .collect()
    };
    for nnz1 in GRID {
        for nnz2 in GRID {
            let (a, b) = (side(nnz1, rng), side(nnz2, rng));
            let mut y = vec![0.0f32; DIM * DIM];
            let mut counters = TrafficCounters::new();
            let mut ns = [f64::INFINITY; 3];
            for _ in 0..ROUNDS {
                for (slot, &kind) in ns.iter_mut().zip(&KINDS) {
                    let start = Instant::now();
                    for _ in 0..REPS {
                        for (t1, p1) in &a {
                            for (t2, p2) in &b {
                                tile_pair_product_with_panels(
                                    kind,
                                    PaneledTile { tile: t1, panels: p1 },
                                    PaneledTile { tile: t2, panels: p2 },
                                    ctx,
                                    &p,
                                    &mut y,
                                    &mut counters,
                                );
                            }
                        }
                    }
                    let per_pair =
                        start.elapsed().as_nanos() as f64 / (REPS * TILES * TILES) as f64;
                    *slot = slot.min(per_pair);
                }
            }
            black_box(&y);
            cells.push(Cell { x, nnz1, nnz2, ns });
        }
    }
}

/// How often `pick` lands within 10 % of a cell's fastest primitive, and
/// its worst cell.
fn score(label: &str, cells: &[Cell], pick: impl Fn(&Cell) -> TileProductKind) {
    let ratios: Vec<f64> = cells.iter().map(|c| c.ns_of(pick(c)) / c.fastest()).collect();
    let within = ratios.iter().filter(|&&r| r <= 1.1).count();
    let Some((worst, ratio)) = ratios.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)) else {
        return;
    };
    let w = &cells[worst];
    println!(
        "{label:<24} within 10 % of the fastest in {within}/{} cells ({:.1} %); worst: X = {}, \
         ({}, {}), {} at {:.2}× the fastest",
        cells.len(),
        100.0 * within as f64 / cells.len() as f64,
        w.x,
        w.nnz1,
        w.nnz2,
        pick(w).name(),
        ratio
    );
}

/// Least-squares fit of `ns ≈ c·features` in relative error (each row
/// weighted by `1/ns`), solved through the 3×3 normal equations.
fn fit(rows: impl Iterator<Item = ([f64; 3], f64)>) -> [f64; 3] {
    let mut ata = [[0.0f64; 3]; 3];
    let mut atb = [0.0f64; 3];
    for (features, ns) in rows {
        let f = features.map(|v| v / ns);
        for r in 0..3 {
            for c in 0..3 {
                ata[r][c] += f[r] * f[c];
            }
            atb[r] += f[r];
        }
    }
    let det = |m: [[f64; 3]; 3]| {
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    };
    let d = det(ata);
    std::array::from_fn(|col| {
        let mut m = ata;
        for (row, &b) in m.iter_mut().zip(&atb) {
            row[col] = b;
        }
        det(m) / d
    })
}

fn print_fit(cells: &[Cell]) {
    let f = |v: usize| v as f64;
    let dd = fit(cells
        .iter()
        .map(|c| ([1.0, f(c.nnz1), f(c.nnz1 * c.x)], c.ns_of(TileProductKind::DenseDense))));
    let ss = fit(cells.iter().map(|c| {
        ([1.0, f(c.nnz1), f(c.nnz1 * c.nnz2 * c.x)], c.ns_of(TileProductKind::SparseSparse))
    }));
    let rows = fit(cells.iter().filter(|c| c.nnz1 > c.nnz2).map(|c| {
        ([1.0, f(c.nnz2), f(c.nnz1 * c.nnz2 * c.x)], c.ns_of(TileProductKind::DenseSparse))
    }));
    println!("fit to this grid (ns per tile pair, relative least squares) — octile_ops.rs:");
    for (name, form, c) in [
        ("DENSE_DENSE_NS", "a + nnz1·(b + c·x)", dd),
        ("SPARSE_SPARSE_NS", "d + nnz1·(e + f·x·nnz2)", ss),
        ("DENSE_ROWS_NS", "g + nnz2·(h + i·x·nnz1), nnz1 > nnz2", rows),
    ] {
        println!("const {name}: [f64; 3] = [{:.1}, {:.2}, {:.4}]; // {form}", c[0], c[1], c[2]);
    }
}

fn main() {
    println!("Fig. 8 — profitable regions of the tile-product primitives");
    println!("(s = sparse×sparse, m = dense×sparse, D = dense×dense)\n");
    for x in [3, 4, 11] {
        print_maps(x);
    }
    println!("Paper reference (GPU): sparse×sparse wins up to ~8–10 nonzeros per tile");
    println!("(unlabeled) and ~16 (labeled); dense×dense wins once both tiles are denser;");
    println!("dense×sparse in between.\n");

    let mut rng = bench_rng();
    let mut cells = Vec::new();
    let start = Instant::now();
    time_grid(&UnitKernel, &mut rng, &mut cells);
    time_grid(&KroneckerDelta::new(0.3), &mut rng, &mut cells);
    time_grid(&SquareExponential::new(1.0), &mut rng, &mut cells);
    println!(
        "timing grid: {} cells ({}² populations × X ∈ {{3, 4, 11}}), {:.1} s",
        cells.len(),
        GRID.len(),
        start.elapsed().as_secs_f64()
    );
    println!(
        "{:>3} {:>5} {:>5} {:>14} {:>14} {:>14}",
        "X", "nnz1", "nnz2", "sp×sp ns", "d×sp ns", "d×d ns"
    );
    // the diagonal and one lopsided column of the grid
    for c in cells.iter().filter(|c| MAP.contains(&c.nnz1) && (c.nnz2 == c.nnz1 || c.nnz2 == 4)) {
        println!(
            "{:>3} {:>5} {:>5} {:>14.0} {:>14.0} {:>14.0}",
            c.x, c.nnz1, c.nnz2, c.ns[0], c.ns[1], c.ns[2]
        );
    }
    println!();
    score("GPU model (select_kind)", &cells, |c| select_kind(c.nnz1, c.nnz2, c.x));
    score("CPU table (KindTable)", &cells, |c| KindTable::new(c.x).get(c.nnz1, c.nnz2));
    println!();
    print_fit(&cells);
}
