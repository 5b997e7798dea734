//! On-chip placement, wire, buffer and cost models (§3.2–§3.3).
//!
//! A [`Layout`] assigns each router of a topology a coordinate on a 2D
//! grid of tiles (a tile = one router plus its attached nodes). From the
//! layout this crate derives everything the paper's cost analysis needs:
//!
//! - **wires**: the Manhattan L-shaped path of every link, with the
//!   paper's tie-breaking rule, plus the per-tile wire-crossing counts and
//!   the technology constraint of Eq. (3);
//! - **average wire length** `M` (Eq. 4) and link-distance histograms
//!   (Fig. 6);
//! - **buffer sizes**: round-trip times, per-link edge-buffer sizes
//!   `δ_ij = T_ij·|VC|` flits (Eq. 5's `δ_ij = T_ij·b·|VC|/L` with one
//!   flit per link cycle), central-buffer totals (Eq. 6), and SMART-link
//!   variants;
//! - **bisection** link counts for layout-defined cuts.
//!
//! # Example
//!
//! ```
//! use snoc_topology::Topology;
//! use snoc_layout::{Layout, SnLayout};
//!
//! let sn = Topology::slim_noc(5, 4)?;
//! let subgr = Layout::slim_noc(&sn, SnLayout::Subgroup)?;
//! let basic = Layout::slim_noc(&sn, SnLayout::Basic)?;
//! // The subgroup layout shortens average wires versus the basic layout.
//! assert!(subgr.average_wire_length(&sn) <= basic.average_wire_length(&sn));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffers;
mod place;
mod tech;
mod wires;

pub use buffers::{per_router_central_buffers, total_central_buffers, BufferModel, BufferSpec};
pub use tech::{max_wires_per_tile, TechNode};
pub use wires::{WirePath, WireStats};

use snoc_topology::{RouterId, Topology};
use std::fmt;

/// Which Slim NoC layout family to use (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SnLayout {
    /// `sn_basic`: subgroups of the same type stacked together;
    /// `[G|a,b] → (b, a + G·q)`.
    Basic,
    /// `sn_subgr`: subgroups of different types interleaved pairwise;
    /// `[G|a,b] → (b, 2a + G)`.
    Subgroup,
    /// `sn_gr`: subgroups merged pairwise into groups placed as
    /// near-square blocks tiled in a near-square grid (the layout of the
    /// paper's SN-L, 3×3 groups of 6×3 routers).
    Group,
    /// `sn_rand`: routers shuffled uniformly over the `q × 2q` slots with
    /// the given seed (the paper's randomized baseline).
    Random(u64),
}

impl fmt::Display for SnLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnLayout::Basic => write!(f, "sn_basic"),
            SnLayout::Subgroup => write!(f, "sn_subgr"),
            SnLayout::Group => write!(f, "sn_gr"),
            SnLayout::Random(_) => write!(f, "sn_rand"),
        }
    }
}

impl SnLayout {
    /// The stable name used by the `snoc` CLI and the campaign-spec
    /// wire format: `basic`, `subgr`, `gr`, or `rand:<seed>` (the
    /// randomized baseline carries its shuffle seed).
    #[must_use]
    pub fn spec_name(&self) -> String {
        match self {
            SnLayout::Basic => "basic".to_string(),
            SnLayout::Subgroup => "subgr".to_string(),
            SnLayout::Group => "gr".to_string(),
            SnLayout::Random(seed) => format!("rand:{seed}"),
        }
    }

    /// The inverse of [`SnLayout::spec_name`]. Bare `rand` defaults to
    /// seed 1 (the CLI's historical default).
    #[must_use]
    pub fn from_spec_name(name: &str) -> Option<SnLayout> {
        Some(match name {
            "basic" => SnLayout::Basic,
            "subgr" => SnLayout::Subgroup,
            "gr" => SnLayout::Group,
            "rand" => SnLayout::Random(1),
            other => SnLayout::Random(other.strip_prefix("rand:")?.parse().ok()?),
        })
    }
}

/// Describes which concrete layout a [`Layout`] instance uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum LayoutKind {
    /// One of the Slim NoC layouts of §3.3.
    SlimNoc(SnLayout),
    /// Natural row-major grid placement (meshes, FBF, PFBF).
    Grid,
    /// Folded placement (tori): wrap links become length-2 hops.
    Folded,
    /// Block placement for group-structured topologies (Dragonfly).
    Blocks,
}

/// A placement of routers on a 2D grid of tiles.
///
/// Coordinates are 0-based; the paper's formulas are 1-based, and the
/// translation is documented on each constructor. Multiple routers never
/// share a tile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    coords: Vec<(usize, usize)>,
    grid: (usize, usize),
    kind: LayoutKind,
}

/// Errors produced by layout construction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LayoutError {
    /// A Slim NoC layout was requested for a non-Slim-NoC topology.
    NotSlimNoc,
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::NotSlimNoc => {
                write!(f, "slim-noc layout requested for a non-slim-noc topology")
            }
        }
    }
}

impl std::error::Error for LayoutError {}

impl Layout {
    pub(crate) fn from_coords(coords: Vec<(usize, usize)>, kind: LayoutKind) -> Self {
        let grid_x = coords.iter().map(|c| c.0).max().map_or(0, |m| m + 1);
        let grid_y = coords.iter().map(|c| c.1).max().map_or(0, |m| m + 1);
        // Placement invariant: one router per tile.
        let mut seen = vec![false; grid_x * grid_y];
        for &(x, y) in &coords {
            let slot = y * grid_x + x;
            assert!(!seen[slot], "two routers share tile ({x}, {y})");
            seen[slot] = true;
        }
        Layout {
            coords,
            grid: (grid_x, grid_y),
            kind,
        }
    }

    /// Builds one of the §3.3 Slim NoC layouts.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::NotSlimNoc`] if the topology is not a Slim
    /// NoC.
    pub fn slim_noc(topo: &Topology, which: SnLayout) -> Result<Self, LayoutError> {
        place::slim_noc(topo, which)
    }

    /// Builds the natural layout for any topology: the paper's layouts for
    /// Slim NoC (subgroup by default), row-major grids for meshes and
    /// butterflies, folded grids for tori, block placements for
    /// Dragonfly.
    #[must_use]
    pub fn natural(topo: &Topology) -> Self {
        place::natural(topo)
    }

    /// The grid extent `(X, Y)` in tiles.
    #[must_use]
    pub fn grid(&self) -> (usize, usize) {
        self.grid
    }

    /// Which layout this is.
    #[must_use]
    pub fn kind(&self) -> LayoutKind {
        self.kind
    }

    /// Coordinate of a router.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn coord(&self, r: RouterId) -> (usize, usize) {
        self.coords[r.index()]
    }

    /// Number of placed routers.
    #[must_use]
    pub fn router_count(&self) -> usize {
        self.coords.len()
    }

    /// Manhattan distance between two routers, in tile hops.
    #[must_use]
    pub fn manhattan(&self, a: RouterId, b: RouterId) -> usize {
        let (xa, ya) = self.coord(a);
        let (xb, yb) = self.coord(b);
        xa.abs_diff(xb) + ya.abs_diff(yb)
    }

    /// Average router–router wire length `M` over all links (Eq. 4).
    #[must_use]
    pub fn average_wire_length(&self, topo: &Topology) -> f64 {
        let mut total = 0usize;
        let mut links = 0usize;
        for (a, b) in topo.links() {
            total += self.manhattan(a, b);
            links += 1;
        }
        if links == 0 {
            0.0
        } else {
            total as f64 / links as f64
        }
    }

    /// Histogram of link Manhattan distances, `hist[d]` = number of links
    /// of length `d` (Fig. 6 uses this binned by 2).
    #[must_use]
    pub fn link_distance_histogram(&self, topo: &Topology) -> Vec<usize> {
        let mut hist = Vec::new();
        for (a, b) in topo.links() {
            let d = self.manhattan(a, b);
            if d >= hist.len() {
                hist.resize(d + 1, 0);
            }
            hist[d] += 1;
        }
        hist
    }

    /// Probability density over distance ranges `[1,2], [3,4], …` as
    /// plotted in Fig. 6.
    #[must_use]
    pub fn link_distance_density(&self, topo: &Topology, bin: usize) -> Vec<f64> {
        assert!(bin > 0, "bin width must be positive");
        let hist = self.link_distance_histogram(topo);
        let links: usize = hist.iter().sum();
        if links == 0 {
            return Vec::new();
        }
        // Distance 0 never occurs (no self-links); bins start at 1.
        let bins = hist.len().div_ceil(bin);
        let mut density = vec![0.0; bins];
        for (d, &count) in hist.iter().enumerate() {
            if d == 0 {
                continue;
            }
            density[(d - 1) / bin] += count as f64 / links as f64;
        }
        density
    }

    /// The maximum Manhattan link length in this layout.
    #[must_use]
    pub fn max_wire_length(&self, topo: &Topology) -> usize {
        topo.links()
            .map(|(a, b)| self.manhattan(a, b))
            .max()
            .unwrap_or(0)
    }

    /// Counts links crossing the vertical midline of the die — the layout
    /// bisection used to match PFBF to Slim NoC's bisection bandwidth.
    #[must_use]
    pub fn bisection_links(&self, topo: &Topology) -> usize {
        let half = self.grid.0 / 2;
        topo.cut_links(|r| self.coord(r).0 < half)
    }

    /// Full wire statistics: per-tile crossing counts, maximum crossing
    /// count, and Eq. (3) verification. See [`WireStats`].
    #[must_use]
    pub fn wire_stats(&self, topo: &Topology) -> WireStats {
        wires::wire_stats(self, topo)
    }

    /// The L-shaped wire path for a link per the §3.2.1 tie-breaking rule.
    #[must_use]
    pub fn wire_path(&self, a: RouterId, b: RouterId) -> WirePath {
        wires::wire_path(self.coord(a), self.coord(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoc_topology::Topology;

    #[test]
    fn natural_layouts_place_all_routers_uniquely() {
        let topos = [
            Topology::slim_noc(5, 4).unwrap(),
            Topology::mesh(8, 8, 3),
            Topology::torus(10, 5, 4),
            Topology::flattened_butterfly(10, 5, 4),
            Topology::partitioned_fbf(2, 2, 4, 4, 3),
            Topology::dragonfly(2),
        ];
        for t in &topos {
            let l = Layout::natural(t);
            assert_eq!(l.router_count(), t.router_count(), "{}", t.name());
        }
    }

    #[test]
    fn average_wire_length_of_mesh_is_one() {
        let m = Topology::mesh(6, 6, 1);
        let l = Layout::natural(&m);
        assert_eq!(l.average_wire_length(&m), 1.0);
        assert_eq!(l.max_wire_length(&m), 1);
    }

    #[test]
    fn folded_torus_wires_are_at_most_two() {
        let t = Topology::torus(8, 8, 1);
        let l = Layout::natural(&t);
        assert!(matches!(l.kind(), LayoutKind::Folded));
        assert!(l.max_wire_length(&t) <= 2, "max {}", l.max_wire_length(&t));
    }

    #[test]
    fn distance_density_sums_to_one() {
        let sn = Topology::slim_noc(5, 4).unwrap();
        let l = Layout::slim_noc(&sn, SnLayout::Subgroup).unwrap();
        let d = l.link_distance_density(&sn, 2);
        let sum: f64 = d.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum = {sum}");
    }

    #[test]
    fn bisection_of_fbf_exceeds_sn() {
        // PFBF exists because FBF's bisection is much higher than SN's.
        let sn = Topology::slim_noc(5, 4).unwrap();
        let sn_l = Layout::slim_noc(&sn, SnLayout::Subgroup).unwrap();
        let fbf = Topology::flattened_butterfly(10, 5, 4);
        let fbf_l = Layout::natural(&fbf);
        assert!(fbf_l.bisection_links(&fbf) > sn_l.bisection_links(&sn));
    }

    #[test]
    fn layout_error_for_non_sn() {
        let m = Topology::mesh(4, 4, 1);
        assert_eq!(
            Layout::slim_noc(&m, SnLayout::Basic).unwrap_err(),
            LayoutError::NotSlimNoc
        );
    }
}
