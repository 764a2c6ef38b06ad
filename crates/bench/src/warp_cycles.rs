//! The paper's Fig. 8 selection rule: a warp-cycle estimate of each
//! tile-pair primitive on a V100, and the primitive it makes cheapest.
//!
//! The solver does not route by it — `mgk_core::octile_ops::KindTable` holds
//! closed forms fit to the primitives as they run on a CPU — so this model
//! lives beside `fig8_profitable_regions`, which prints the two side by side.

use mgk_core::octile_ops::TileProductKind;
use mgk_tile::TILE_SIZE;

/// Estimated execution cost, in abstract warp-cycles, of applying `kind` to
/// a tile pair with the given populations, when one base-kernel evaluation
/// costs `x` FLOPs.
///
/// The constants encode the efficiency differences of the GPU variants: the
/// dense kernel runs in lockstep over all 64 lanes-worth of products with
/// FMA pairing, the sparse kernel pays per-nonzero index decoding
/// (bit-manipulation) and divergence, and the mixed kernel sits in between.
/// The resulting profitable regions reproduce the crossovers of Fig. 8
/// (sparse×sparse up to ~8–10 nonzeros per tile for unlabeled graphs,
/// ~13–16 for labeled ones).
pub fn estimated_cycles(kind: TileProductKind, nnz1: usize, nnz2: usize, x: usize) -> f64 {
    let x = x as f64;
    let full = (TILE_SIZE * TILE_SIZE) as f64;
    match kind {
        // all products evaluated, 64 products per instruction group (full
        // warp with FMA pairing), plus the cost of expanding both tiles
        // into shared memory
        TileProductKind::DenseDense => full * full * x / 64.0 + full,
        // the sparse operand is decoded once per nonzero; products proceed
        // at a reduced rate because one index stream is irregular
        TileProductKind::DenseSparse => {
            let s = nnz1.min(nnz2) as f64;
            full * s * x / 12.0 + 4.0 * s + full
        }
        // only nnz1·nnz2 products, but each pays index decoding and the
        // warp runs partially divergent; the fixed per-product overhead
        // shrinks relative to the arithmetic as the base kernel gets more
        // expensive, which is why the labeled crossover sits further out
        // (Fig. 8, right panel)
        TileProductKind::SparseSparse => {
            let prods = (nnz1 * nnz2) as f64;
            prods * (x / 4.0 + 1.5) + 4.0 * (nnz1 + nnz2) as f64
        }
    }
}

/// Dynamic primitive selection (Fig. 8): the primitive of fewest
/// [`estimated_cycles`] for a tile pair with `nnz1`/`nnz2` nonzeros under a
/// base kernel costing `x` FLOPs per evaluation. Ties go to sparse×sparse,
/// then dense×sparse.
pub fn select_kind(nnz1: usize, nnz2: usize, x: usize) -> TileProductKind {
    let mut best = TileProductKind::SparseSparse;
    let mut best_cycles = f64::INFINITY;
    for kind in
        [TileProductKind::SparseSparse, TileProductKind::DenseSparse, TileProductKind::DenseDense]
    {
        let cycles = estimated_cycles(kind, nnz1, nnz2, x);
        if cycles < best_cycles {
            best_cycles = cycles;
            best = kind;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_rule_reproduces_figure_8_crossovers() {
        let unl = |a, b| select_kind(a, b, 3);
        let lab = |a, b| select_kind(a, b, 11);
        // unlabeled graphs: X = 3
        assert_eq!(unl(4, 4), TileProductKind::SparseSparse);
        assert_eq!(unl(8, 8), TileProductKind::SparseSparse);
        assert_eq!(unl(16, 16), TileProductKind::DenseDense);
        assert_eq!(unl(64, 64), TileProductKind::DenseDense);
        // strongly asymmetric pairs favour dense×sparse
        assert_eq!(unl(2, 60), TileProductKind::DenseSparse);
        // labeled graphs (X = 11): the sparse×sparse region extends further
        assert_eq!(lab(12, 12), TileProductKind::SparseSparse);
        assert_eq!(lab(32, 32), TileProductKind::DenseDense);
        let threshold_unlabeled =
            (1..=64).find(|&s| unl(s, s) != TileProductKind::SparseSparse).unwrap();
        let threshold_labeled =
            (1..=64).find(|&s| lab(s, s) != TileProductKind::SparseSparse).unwrap();
        assert!(
            threshold_labeled > threshold_unlabeled,
            "labeled threshold {threshold_labeled} should exceed unlabeled {threshold_unlabeled}"
        );
        assert!(
            (8..=12).contains(&threshold_unlabeled),
            "unlabeled threshold {threshold_unlabeled}"
        );
        assert!((12..=20).contains(&threshold_labeled), "labeled threshold {threshold_labeled}");
    }

    /// The map `fig8_profitable_regions` prints for the GPU model, as
    /// literals: X = 3 and 11 over that bin's populations (`s`
    /// sparse×sparse, `m` dense×sparse, `D` dense×dense).
    #[test]
    fn figure_8_map_is_pinned() {
        const MAP: [usize; 12] = [1, 2, 4, 6, 8, 10, 12, 16, 24, 32, 48, 64];
        let map = |x| {
            MAP.map(|n1| {
                MAP.iter()
                    .map(|&n2| match select_kind(n1, n2, x) {
                        TileProductKind::SparseSparse => 's',
                        TileProductKind::DenseSparse => 'm',
                        TileProductKind::DenseDense => 'D',
                    })
                    .collect::<String>()
            })
        };
        assert_eq!(
            map(3),
            [
                "sssssssmmmmm",
                "ssssssmmmmmm",
                "sssssmmmmmmm",
                "sssssmmmmmmm",
                "sssssmmmmmmm",
                "ssmmmDDDDDDD",
                "smmmmDDDDDDD",
                "mmmmmDDDDDDD",
                "mmmmmDDDDDDD",
                "mmmmmDDDDDDD",
                "mmmmmDDDDDDD",
                "mmmmmDDDDDDD",
            ]
        );
        assert_eq!(
            map(11),
            [
                "sssssssmmmmm",
                "sssssssmmmmm",
                "sssssssmmmmm",
                "sssssssmmmmm",
                "sssssssmmmmm",
                "sssssssmmmmm",
                "sssssssDDDDD",
                "mmmmmmDDDDDD",
                "mmmmmmDDDDDD",
                "mmmmmmDDDDDD",
                "mmmmmmDDDDDD",
                "mmmmmmDDDDDD",
            ]
        );
    }
}
