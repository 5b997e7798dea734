//! Edge-cut partitioning of the router graph.
//!
//! Kept only for `benchmark/`'s `topology.partition2_q27_ms` probe: the
//! sharded engine it was written for is deleted (README, "Measured and
//! deleted"), and this module goes with the benchmark's shard probes
//! (ROADMAP 1(a)). It grows balanced parts by a deterministic greedy
//! BFS while heuristically shrinking the cut: the same topology and
//! part count give the same partition on every run.

use crate::{bfs_from, BfsControl, RouterId, Topology};

impl Topology {
    /// Partitions the routers into `parts` balanced, BFS-contiguous
    /// groups; returns the part index of each router. Kept only for
    /// `benchmark/`'s partition probe (ROADMAP 1(a)).
    ///
    /// Part sizes differ by at most one (`nr mod parts` parts get one
    /// extra router), every part is non-empty when `parts ≤ nr`, and
    /// the result is fully deterministic — growth order is fixed by
    /// router index and the sorted adjacency lists.
    ///
    /// `parts` is clamped to `1..=router_count()`.
    #[must_use]
    pub fn partition(&self, parts: usize) -> Vec<usize> {
        let nr = self.router_count();
        let parts = parts.clamp(1, nr.max(1));
        let mut assign = vec![usize::MAX; nr];
        let (base, extra) = (nr / parts, nr % parts);
        for part in 0..parts {
            let target = base + usize::from(part < extra);
            let mut size = 0;
            while size < target {
                // Grow from the lowest-index unassigned router —
                // re-seeds here when the current frontier dies out
                // (disconnected graph or fully surrounded part).
                let Some(seed) = (0..nr).find(|&r| assign[r] == usize::MAX) else {
                    break;
                };
                bfs_from(
                    nr,
                    RouterId(seed),
                    |r| self.neighbors(r),
                    |r, _| {
                        if assign[r.index()] != usize::MAX {
                            return BfsControl::Prune; // claimed by an earlier part
                        }
                        assign[r.index()] = part;
                        size += 1;
                        if size < target {
                            BfsControl::Descend
                        } else {
                            BfsControl::Stop
                        }
                    },
                );
            }
        }
        assign
    }

    /// Counts the undirected links whose endpoints sit in different
    /// parts of `assign` — the boundary-message cost of a partition.
    ///
    /// # Panics
    ///
    /// Panics if `assign.len() != router_count()`.
    #[must_use]
    pub fn edge_cut(&self, assign: &[usize]) -> usize {
        assert_eq!(assign.len(), self.router_count(), "one part per router");
        self.links()
            .filter(|&(a, b)| assign[a.index()] != assign[b.index()])
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sizes(assign: &[usize], parts: usize) -> Vec<usize> {
        let mut sizes = vec![0usize; parts];
        for &p in assign {
            sizes[p] += 1;
        }
        sizes
    }

    #[test]
    fn parts_are_balanced_and_cover_every_router() {
        for parts in [1, 2, 3, 4, 7] {
            let t = Topology::slim_noc(5, 1).unwrap(); // 50 routers
            let assign = t.partition(parts);
            assert_eq!(assign.len(), 50);
            let sizes = sizes(&assign, parts);
            assert_eq!(sizes.iter().sum::<usize>(), 50);
            let (min, max) = (sizes.iter().min(), sizes.iter().max());
            assert!(max.unwrap() - min.unwrap() <= 1, "parts={parts}: {sizes:?}");
        }
    }

    #[test]
    fn single_part_has_no_cut() {
        let t = Topology::mesh(4, 4, 1);
        let assign = t.partition(1);
        assert!(assign.iter().all(|&p| p == 0));
        assert_eq!(t.edge_cut(&assign), 0);
    }

    #[test]
    fn bfs_growth_beats_striping_on_a_mesh() {
        // Contiguous halves of an 8x8 mesh cut ~8 links; assigning
        // routers round-robin cuts nearly every link. The heuristic
        // must land close to the former.
        let t = Topology::mesh(8, 8, 1);
        let grown = t.edge_cut(&t.partition(2));
        let striped: Vec<usize> = (0..64).map(|r| r % 2).collect();
        assert!(
            grown * 4 <= t.edge_cut(&striped),
            "grown cut {grown} vs striped {}",
            t.edge_cut(&striped)
        );
    }

    #[test]
    fn partition_is_deterministic() {
        let t = Topology::slim_noc(7, 1).unwrap();
        assert_eq!(t.partition(4), t.partition(4));
    }

    #[test]
    fn more_parts_than_routers_clamps() {
        let t = Topology::mesh(2, 2, 1);
        let assign = t.partition(16);
        assert_eq!(assign.len(), 4);
        let mut seen = assign.clone();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3], "one router per part");
    }
}
