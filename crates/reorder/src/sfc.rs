//! The Hilbert-curve order for vertices embedded in 3D Euclidean space
//! (the space-filling-curve option of Section IV-A, reference \[12\]).
//!
//! When vertices carry coordinates (e.g. atoms of a 3D molecular
//! structure), ordering them along a space-filling curve places spatially
//! close vertices — which are exactly the ones connected by the spatial
//! adjacency rule — next to each other, concentrating nonzeros near the
//! diagonal of the adjacency matrix. The order reads the coordinates, not
//! the graph, so it is a free function rather than a [`crate::ReorderMethod`]:
//! a solver holds no coordinates.

/// Number of bits used per coordinate when quantizing positions onto the
/// curve (10 bits × 3 axes = 30-bit keys).
const BITS: u32 = 10;

/// Order vertices along the Hilbert curve of their 3D coordinates, in the
/// convention of [`mgk_graph::Graph::permute`].
///
/// Uses the axes-to-transpose algorithm (Skilling, 2004) to convert the
/// quantized coordinates into a Hilbert index.
pub fn hilbert_order(coords: &[[f32; 3]]) -> Vec<u32> {
    let quantized = quantize(coords);
    let mut idx: Vec<u32> = (0..coords.len() as u32).collect();
    // sort by curve key, breaking ties by original index for determinism
    idx.sort_by_key(|&i| (hilbert_key(quantized[i as usize]), i));
    idx
}

/// Quantize coordinates into `[0, 2^BITS)` integers per axis using the
/// bounding box of the point set.
fn quantize(coords: &[[f32; 3]]) -> Vec<[u32; 3]> {
    if coords.is_empty() {
        return Vec::new();
    }
    let mut lo = [f32::INFINITY; 3];
    let mut hi = [f32::NEG_INFINITY; 3];
    for c in coords {
        for a in 0..3 {
            lo[a] = lo[a].min(c[a]);
            hi[a] = hi[a].max(c[a]);
        }
    }
    let scale: [f32; 3] = std::array::from_fn(|a| {
        let span = hi[a] - lo[a];
        if span > 0.0 {
            ((1u32 << BITS) - 1) as f32 / span
        } else {
            0.0
        }
    });
    coords
        .iter()
        .map(|c| {
            std::array::from_fn(|a| {
                (((c[a] - lo[a]) * scale[a]).round() as u32).min((1 << BITS) - 1)
            })
        })
        .collect()
}

/// Hilbert curve key via the transpose representation (Skilling's
/// algorithm): convert axes to transposed Hilbert coordinates, then
/// interleave.
fn hilbert_key(q: [u32; 3]) -> u128 {
    let mut x = q;
    let n = 3usize;
    // inverse undo excess work
    let m = 1u32 << (BITS - 1);
    let mut t;
    let mut p = m;
    while p > 1 {
        let p1 = p.wrapping_sub(1);
        for i in 0..n {
            if x[i] & p != 0 {
                x[0] ^= p1; // invert
            } else {
                t = (x[0] ^ x[i]) & p1;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        p >>= 1;
    }
    // gray encode
    for i in 1..n {
        x[i] ^= x[i - 1];
    }
    t = 0;
    p = m;
    while p > 1 {
        if x[n - 1] & p != 0 {
            t ^= p - 1;
        }
        p >>= 1;
    }
    for xi in x.iter_mut() {
        *xi ^= t;
    }
    // interleave the transposed coordinates into a single key: bit `b` of
    // axis `a` contributes to position `(BITS-1-b)*3 + a` from the top
    let mut key: u128 = 0;
    for bit in (0..BITS).rev() {
        for &v in &x {
            let b = ((v >> bit) & 1) as u128;
            key = (key << 1) | b;
        }
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_permutation;

    fn grid_points(k: usize) -> Vec<[f32; 3]> {
        let mut pts = Vec::new();
        for x in 0..k {
            for y in 0..k {
                for z in 0..k {
                    pts.push([x as f32, y as f32, z as f32]);
                }
            }
        }
        pts
    }

    #[test]
    fn orders_are_permutations() {
        let pts = grid_points(3);
        assert!(is_permutation(&hilbert_order(&pts), 27));
        // collinear points: the 3D Hilbert curve leaves and re-enters the
        // axis, so only the permutation is asserted
        let line: Vec<[f32; 3]> = (0..10).map(|i| [i as f32, 0.0, 0.0]).collect();
        assert!(is_permutation(&hilbert_order(&line), 10));
    }

    #[test]
    fn hilbert_visits_cube_corners_as_gray_code() {
        // the first-order 3D Hilbert curve visits the 8 corners of a cube in
        // a Gray-code order: consecutive corners differ in exactly one axis
        let pts: Vec<[f32; 3]> = (0..8)
            .map(|i| [(i & 1) as f32, ((i >> 1) & 1) as f32, ((i >> 2) & 1) as f32])
            .collect();
        let order = hilbert_order(&pts);
        assert!(is_permutation(&order, 8));
        for w in order.windows(2) {
            let a = pts[w[0] as usize];
            let b = pts[w[1] as usize];
            let changed = (0..3).filter(|&k| (a[k] - b[k]).abs() > 0.5).count();
            assert_eq!(changed, 1, "corners {a:?} -> {b:?} differ in {changed} axes");
        }
    }

    #[test]
    fn identical_points_keep_index_order() {
        let pts = vec![[1.0, 1.0, 1.0]; 5];
        assert_eq!(hilbert_order(&pts), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn curve_locality_beats_random_order() {
        // measure total jump distance along the order: a space-filling
        // curve should travel much less than a scrambled order
        let pts = grid_points(4);
        let travel = |order: &[u32]| -> f32 {
            order
                .windows(2)
                .map(|w| {
                    let a = pts[w[0] as usize];
                    let b = pts[w[1] as usize];
                    ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)).sqrt()
                })
                .sum()
        };
        // deterministic scramble
        let mut scrambled: Vec<u32> = (0..64).collect();
        scrambled.sort_by_key(|&i| (i * 37) % 64);
        let t_scrambled = travel(&scrambled);
        let t_hilbert = travel(&hilbert_order(&pts));
        assert!(t_hilbert < t_scrambled, "hilbert {t_hilbert} vs scrambled {t_scrambled}");
        // the Hilbert curve never jumps: each step is a unit move on the grid
        assert!((t_hilbert - 63.0).abs() < 1e-3, "hilbert travel should be 63, got {t_hilbert}");
    }

    #[test]
    fn empty_input() {
        assert!(hilbert_order(&[]).is_empty());
    }
}
