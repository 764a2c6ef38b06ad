//! The synthetic graph ensembles of Section VI-A.

use mgk_graph::{generators, Graph, Unlabeled};
use rand::Rng;

/// Which random ensemble an [`EnsembleStream`] draws from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum EnsembleKind {
    /// Newman–Watts–Strogatz small-world graphs.
    SmallWorld {
        /// Ring-lattice neighborhood radius `k`.
        k: usize,
        /// Shortcut probability `p`.
        p: f64,
    },
    /// Barabási–Albert scale-free graphs.
    ScaleFree {
        /// Attachment count `m`.
        m: usize,
    },
}

/// An endless stream of ensemble graphs, generated lazily and
/// deterministically from its RNG; [`small_world`] and [`scale_free`] take
/// a prefix of it.
#[derive(Debug)]
struct EnsembleStream<R> {
    rng: R,
    nodes: usize,
    kind: EnsembleKind,
}

impl<R: Rng> EnsembleStream<R> {
    /// Stream of the paper's small-world ensemble graphs (`nodes` vertices,
    /// neighborhood `k`, shortcut probability `p`).
    fn small_world(nodes: usize, k: usize, p: f64, rng: R) -> Self {
        EnsembleStream { rng, nodes, kind: EnsembleKind::SmallWorld { k, p } }
    }

    /// Stream of the paper's scale-free ensemble graphs (`nodes` vertices,
    /// attachment `m`).
    fn scale_free(nodes: usize, m: usize, rng: R) -> Self {
        EnsembleStream { rng, nodes, kind: EnsembleKind::ScaleFree { m } }
    }
}

impl<R: Rng> Iterator for EnsembleStream<R> {
    type Item = Graph<Unlabeled, Unlabeled>;

    fn next(&mut self) -> Option<Self::Item> {
        Some(match self.kind {
            EnsembleKind::SmallWorld { k, p } => {
                generators::newman_watts_strogatz(self.nodes, k, p, &mut self.rng)
            }
            EnsembleKind::ScaleFree { m } => {
                generators::barabasi_albert(self.nodes, m, &mut self.rng)
            }
        })
    }
}

/// The paper's small-world ensemble: `count` Newman–Watts–Strogatz graphs
/// with 96 nodes, `k = 3`, `p = 0.1` (Section VII-A uses `count = 160`).
pub fn small_world<R: Rng + ?Sized>(count: usize, rng: &mut R) -> Vec<Graph<Unlabeled, Unlabeled>> {
    EnsembleStream::small_world(96, 3, 0.1, rng).take(count).collect()
}

/// The paper's scale-free ensemble: `count` Barabási–Albert graphs with 96
/// nodes and attachment `m = 6`.
pub fn scale_free<R: Rng + ?Sized>(count: usize, rng: &mut R) -> Vec<Graph<Unlabeled, Unlabeled>> {
    EnsembleStream::scale_free(96, 6, rng).take(count).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgk_graph::EnsembleStats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn small_world_ensemble_matches_paper_parameters() {
        let mut rng = StdRng::seed_from_u64(1);
        let set = small_world(8, &mut rng);
        let stats = EnsembleStats::of(&set);
        assert_eq!(stats.num_graphs, 8);
        assert_eq!(stats.min_vertices, 96);
        assert_eq!(stats.max_vertices, 96);
        // ring lattice with k=3 gives 288 edges plus ~10% shortcuts
        for g in &set {
            assert!(g.num_edges() >= 288 && g.num_edges() < 340, "{} edges", g.num_edges());
        }
    }

    #[test]
    fn scale_free_ensemble_has_hubs() {
        let mut rng = StdRng::seed_from_u64(2);
        let set = scale_free(4, &mut rng);
        for g in &set {
            assert_eq!(g.num_vertices(), 96);
            let max_degree = (0..96).map(|i| g.vertex_degree(i)).max().unwrap();
            assert!(max_degree >= 15, "scale-free graph should have hubs, max degree {max_degree}");
        }
    }

    #[test]
    fn streams_are_lazy_deterministic_and_match_the_batch_helpers() {
        // the same seed through the stream and the batch helper yields the
        // same graphs (the batch helpers are thin wrappers over the stream)
        let batch = small_world(3, &mut StdRng::seed_from_u64(9));
        let streamed: Vec<_> =
            EnsembleStream::small_world(96, 3, 0.1, StdRng::seed_from_u64(9)).take(3).collect();
        assert_eq!(batch.len(), streamed.len());
        for (a, b) in batch.iter().zip(&streamed) {
            assert_eq!(a.num_edges(), b.num_edges());
        }

        // streams are endless: pulling more keeps producing fresh graphs
        let mut stream = EnsembleStream::scale_free(32, 4, StdRng::seed_from_u64(2));
        let many: Vec<_> = stream.by_ref().take(5).collect();
        assert_eq!(many.len(), 5);
        assert!(stream.next().is_some());
        for g in &many {
            assert_eq!(g.num_vertices(), 32);
        }
    }
}
