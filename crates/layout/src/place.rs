//! Router placement: the four Slim NoC layouts of §3.3 plus natural
//! placements for all baseline topologies.

use crate::{Layout, LayoutError, LayoutKind, SnLayout};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use snoc_topology::{Topology, TopologyKind};

/// Builds a Slim NoC layout from the router labels.
pub(crate) fn slim_noc(topo: &Topology, which: SnLayout) -> Result<Layout, LayoutError> {
    let TopologyKind::SlimNoc { q, labels } = topo.kind() else {
        return Err(LayoutError::NotSlimNoc);
    };
    let q = *q;
    let coords: Vec<(usize, usize)> = match which {
        // Paper (1-based): [G|a,b] → (b, a + G·q). 0-based below.
        SnLayout::Basic => labels.iter().map(|l| (l.b, l.a + l.g * q)).collect(),
        // Paper (1-based): [G|a,b] → (b, 2a − (1 − G)). 0-based: (b, 2a + G).
        SnLayout::Subgroup => labels.iter().map(|l| (l.b, 2 * l.a + l.g)).collect(),
        // Groups (subgroup pairs, 2q routers each) as near-square blocks
        // tiled in a near-square grid. For q = 9 this yields 3×3 groups of
        // 6×3 routers — exactly the paper's SN-L arrangement (Fig. 7b).
        SnLayout::Group => {
            let (bw, bh) = group_block_dims(q);
            let gw = (q as f64).sqrt().ceil() as usize; // groups per row
            labels
                .iter()
                .map(|l| {
                    let group = l.a;
                    let t = l.b + l.g * q; // 0..2q within the group
                    let (gx, gy) = (group % gw, group / gw);
                    (gx * bw + t % bw, gy * bh + t / bw)
                })
                .collect()
        }
        // Uniform shuffle over the q × 2q slot grid.
        SnLayout::Random(seed) => {
            let mut slots: Vec<(usize, usize)> = (0..2 * q)
                .flat_map(|y| (0..q).map(move |x| (x, y)))
                .collect();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            slots.shuffle(&mut rng);
            slots.truncate(topo.router_count());
            slots
        }
    };
    Ok(Layout::from_coords(coords, LayoutKind::SlimNoc(which)))
}

/// Block dimensions `(width, height)` holding the `2q` routers of one
/// group, chosen near-square with `width · height = 2q` when possible.
fn group_block_dims(q: usize) -> (usize, usize) {
    let total = 2 * q;
    // Prefer an exact factorization close to sqrt; fall back to a ceil.
    let target = (total as f64).sqrt();
    let mut best = (total, 1);
    for h in 1..=total {
        if h as f64 > target + 0.5 {
            break;
        }
        if total.is_multiple_of(h) {
            best = (total / h, h);
        }
    }
    best
}

/// Natural layout dispatch for any topology.
pub(crate) fn natural(topo: &Topology) -> Layout {
    match topo.kind() {
        TopologyKind::SlimNoc { .. } => slim_noc(topo, SnLayout::Subgroup).expect("kind checked"),
        TopologyKind::Mesh { x, .. } | TopologyKind::FlattenedButterfly { x, .. } => {
            grid(topo.router_count(), *x)
        }
        TopologyKind::Torus { x, y } => folded_torus(*x, *y),
        TopologyKind::PartitionedFbf { parts_x, sub_x, .. } => {
            grid(topo.router_count(), parts_x * sub_x)
        }
        TopologyKind::Dragonfly { h } => dragonfly_blocks(*h),
        _ => {
            // Future topology kinds: fall back to a near-square grid.
            let x = (topo.router_count() as f64).sqrt().ceil() as usize;
            grid(topo.router_count(), x.max(1))
        }
    }
}

/// Row-major grid placement with `x_dim` routers per row.
fn grid(count: usize, x_dim: usize) -> Layout {
    let coords = (0..count).map(|i| (i % x_dim, i / x_dim)).collect();
    Layout::from_coords(coords, LayoutKind::Grid)
}

/// Folded torus placement: dimension order 0, 2, 4, …, 5, 3, 1 turns wrap
/// links into length-2 physical wires (standard practice; the paper's T2D
/// "mostly uses single-cycle wires").
fn folded_torus(x_dim: usize, y_dim: usize) -> Layout {
    let fold = |i: usize, dim: usize| -> usize {
        // Physical position of logical ring index i in the interleaved
        // ordering 0, n−1, 1, n−2, 2, …: every ring link (including the
        // wrap link) spans at most 2 tiles.
        if i < dim.div_ceil(2) {
            2 * i
        } else {
            2 * (dim - 1 - i) + 1
        }
    };
    let coords = (0..x_dim * y_dim)
        .map(|r| {
            let (x, y) = (r % x_dim, r / x_dim);
            (fold(x, x_dim), fold(y, y_dim))
        })
        .collect();
    Layout::from_coords(coords, LayoutKind::Folded)
}

/// Dragonfly: each group occupies a contiguous block; groups tile a
/// near-square grid of blocks.
fn dragonfly_blocks(h: usize) -> Layout {
    let a = 2 * h;
    let groups = a * h + 1;
    let bw = (a as f64).sqrt().ceil() as usize;
    let bh = a.div_ceil(bw);
    let gw = (groups as f64).sqrt().ceil() as usize;
    let coords = (0..a * groups)
        .map(|r| {
            let (g, t) = (r / a, r % a);
            let (gx, gy) = (g % gw, g / gw);
            (gx * bw + t % bw, gy * bh + t / bw)
        })
        .collect();
    Layout::from_coords(coords, LayoutKind::Blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoc_topology::RouterId;

    fn sn(q: usize) -> Topology {
        Topology::slim_noc(q, 1).unwrap()
    }

    #[test]
    fn basic_layout_is_rectangular_q_by_2q() {
        for q in [3, 5, 9] {
            let t = sn(q);
            let l = Layout::slim_noc(&t, SnLayout::Basic).unwrap();
            assert_eq!(l.grid(), (q, 2 * q), "q = {q}");
        }
    }

    #[test]
    fn subgroup_layout_is_rectangular_q_by_2q() {
        for q in [3, 5, 9] {
            let t = sn(q);
            let l = Layout::slim_noc(&t, SnLayout::Subgroup).unwrap();
            assert_eq!(l.grid(), (q, 2 * q), "q = {q}");
        }
    }

    #[test]
    fn subgroup_layout_interleaves_types() {
        // Rows alternate subgroup types: row y holds type (y mod 2).
        let t = sn(5);
        let l = Layout::slim_noc(&t, SnLayout::Subgroup).unwrap();
        let labels = t.slim_noc_labels().unwrap().to_vec();
        for r in t.routers() {
            let (_, y) = l.coord(r);
            assert_eq!(y % 2, labels[r.index()].g);
        }
    }

    #[test]
    fn group_layout_for_q9_is_paper_die() {
        // SN-L: 9 groups of 6×3 routers in a 3×3 arrangement = 18×9 die.
        let t = sn(9);
        let l = Layout::slim_noc(&t, SnLayout::Group).unwrap();
        assert_eq!(l.grid(), (18, 9));
    }

    #[test]
    fn group_block_dims_are_exact_factorizations() {
        assert_eq!(group_block_dims(9), (6, 3));
        assert_eq!(group_block_dims(5), (5, 2));
        assert_eq!(group_block_dims(8), (4, 4));
        assert_eq!(group_block_dims(2), (2, 2));
    }

    #[test]
    fn group_layout_keeps_groups_contiguous() {
        let t = sn(9);
        let l = Layout::slim_noc(&t, SnLayout::Group).unwrap();
        let labels = t.slim_noc_labels().unwrap().to_vec();
        for r in t.routers() {
            let (x, y) = l.coord(r);
            let group = labels[r.index()].a;
            assert_eq!((x / 6, y / 3), (group % 3, group / 3));
        }
    }

    #[test]
    fn random_layout_is_deterministic_per_seed() {
        let t = sn(5);
        let a = Layout::slim_noc(&t, SnLayout::Random(7)).unwrap();
        let b = Layout::slim_noc(&t, SnLayout::Random(7)).unwrap();
        let c = Layout::slim_noc(&t, SnLayout::Random(8)).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn folded_torus_neighbors() {
        // In a folded 4-ring the physical order is 0, 3, 1, 2; every ring
        // link (including the wrap link 3-0) spans at most 2 tiles.
        let l = folded_torus(4, 1);
        let xs: Vec<usize> = (0..4).map(|i| l.coord(RouterId(i)).0).collect();
        assert_eq!(xs, vec![0, 2, 3, 1]);
        for i in 0..4usize {
            let j = (i + 1) % 4;
            assert!(xs[i].abs_diff(xs[j]) <= 2, "link {i}-{j}");
        }
    }

    #[test]
    fn layouts_reduce_wire_length_as_paper_orders_them() {
        // Fig. 5a ordering: sn_subgr and sn_gr shorten wires by roughly a
        // quarter versus sn_basic and sn_rand.
        for q in [5, 9] {
            let t = sn(q);
            let m_basic = Layout::slim_noc(&t, SnLayout::Basic)
                .unwrap()
                .average_wire_length(&t);
            let m_rand = Layout::slim_noc(&t, SnLayout::Random(1))
                .unwrap()
                .average_wire_length(&t);
            let m_subgr = Layout::slim_noc(&t, SnLayout::Subgroup)
                .unwrap()
                .average_wire_length(&t);
            let m_gr = Layout::slim_noc(&t, SnLayout::Group)
                .unwrap()
                .average_wire_length(&t);
            assert!(m_subgr < m_basic, "q = {q}: {m_subgr} vs {m_basic}");
            assert!(m_subgr < m_rand, "q = {q}: {m_subgr} vs {m_rand}");
            assert!(m_gr < m_rand, "q = {q}: {m_gr} vs {m_rand}");
        }
    }

    #[test]
    fn theoretical_bound_on_max_distance() {
        // §3.3.3: same-subgroup routers are at distance ≤ q − 1; any two
        // routers at distance ≤ 2q − 1 + (q − 1) in the subgroup layout
        // (bounded by the die semi-perimeter).
        let t = sn(7);
        let l = Layout::slim_noc(&t, SnLayout::Subgroup).unwrap();
        let (gx, gy) = l.grid();
        assert!(l.max_wire_length(&t) < gx - 1 + gy);
    }

    #[test]
    fn dragonfly_blocks_cover_all_routers() {
        let df = Topology::dragonfly(2);
        assert_eq!(natural(&df).router_count(), df.router_count());
    }
}
