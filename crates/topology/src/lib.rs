//! NoC topologies for the Slim NoC reproduction.
//!
//! The centerpiece is [`Topology::slim_noc`], which constructs the MMS
//! graph of the paper (Eqs. 8–10) from a finite field. The crate also
//! implements every baseline the paper evaluates against (§5.1, Table 4):
//!
//! - 2D torus (`T2D`) and concentrated mesh (`CM`),
//! - full-bandwidth Flattened Butterfly (`FBF`),
//! - partitioned Flattened Butterfly (`PFBF`) — the paper's fairness
//!   baseline matching Slim NoC's radix and bisection bandwidth,
//! - Dragonfly (`DF`, §2.2),
//!
//! plus graph analysis (diameter, average path length, bisection) and the
//! paper's named configurations (Tables 2 and 4).
//!
//! # Example
//!
//! ```
//! use snoc_topology::Topology;
//!
//! // SN-S: the paper's 200-node design (q = 5, p = 4).
//! let sn = Topology::slim_noc(5, 4)?;
//! assert_eq!(sn.router_count(), 50);
//! assert_eq!(sn.network_radix(), 7);
//! assert_eq!(sn.diameter(), 2);
//!
//! // The torus baseline of the same size class.
//! let t2d = Topology::torus(10, 5, 4);
//! assert_eq!(t2d.node_count(), 200);
//! # Ok::<(), snoc_topology::TopologyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod bfs;
mod configs;
mod dragonfly;
mod error;
mod grids;
mod partition;
mod resilience;
mod slimnoc;

pub use analysis::PathStats;
pub use bfs::{bfs_distances, bfs_forest, bfs_from, BfsControl, BfsForest};
pub use configs::{paper_config, paper_config_names, table2_rows, ConfigDescriptor, Table2Row};
pub use error::TopologyError;
pub use resilience::ResilienceReport;
pub use slimnoc::RouterLabel;

use std::fmt;

/// Identifier of a router in a topology (index in `0..router_count`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct RouterId(pub usize);

impl RouterId {
    /// The underlying index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for RouterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Identifier of an endpoint node (core) in a topology
/// (index in `0..node_count`). Node `n` attaches to router
/// `n / concentration`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The underlying index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Which family a [`Topology`] instance belongs to, with the structural
/// details the layout crate needs to place it on a die.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TopologyKind {
    /// Slim NoC (MMS graph) with parameter `q`.
    SlimNoc {
        /// The Slim Fly input parameter.
        q: usize,
        /// Per-router labels `[G|a,b]` in index order.
        labels: Vec<RouterLabel>,
    },
    /// Plain 2D mesh (`x × y` routers). With concentration > 1 this is the
    /// paper's concentrated mesh (CM).
    Mesh {
        /// Routers along X.
        x: usize,
        /// Routers along Y.
        y: usize,
    },
    /// 2D torus (`x × y` routers with wraparound links).
    Torus {
        /// Routers along X.
        x: usize,
        /// Routers along Y.
        y: usize,
    },
    /// Flattened Butterfly: routers fully connected along each row and
    /// each column of an `x × y` grid.
    FlattenedButterfly {
        /// Routers along X.
        x: usize,
        /// Routers along Y.
        y: usize,
    },
    /// Partitioned Flattened Butterfly (Fig. 9): a `parts_x × parts_y`
    /// grid of identical `sub_x × sub_y` FBFs, adjacent partitions joined
    /// by one port per router per partitioned dimension.
    PartitionedFbf {
        /// Partitions along X.
        parts_x: usize,
        /// Partitions along Y.
        parts_y: usize,
        /// Routers along X inside one partition.
        sub_x: usize,
        /// Routers along Y inside one partition.
        sub_y: usize,
    },
    /// Balanced Dragonfly: groups of `a = 2h` fully connected routers,
    /// `h` global links per router, one cable between every two groups.
    Dragonfly {
        /// Global links per router.
        h: usize,
    },
}

/// A NoC topology: a router graph plus a uniform concentration
/// (nodes per router).
///
/// Construction never produces self-loops or duplicate edges; adjacency
/// lists are sorted. See the crate docs for an example.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    kind: TopologyKind,
    name: String,
    adj: Vec<Vec<RouterId>>,
    concentration: usize,
}

impl Topology {
    /// Internal constructor from an edge list; validates, sorts and
    /// dedupes adjacency.
    pub(crate) fn from_edges(
        kind: TopologyKind,
        name: impl Into<String>,
        router_count: usize,
        concentration: usize,
        edges: impl IntoIterator<Item = (usize, usize)>,
    ) -> Self {
        let mut adj: Vec<Vec<RouterId>> = vec![Vec::new(); router_count];
        for (a, b) in edges {
            assert!(a < router_count && b < router_count, "edge out of range");
            assert_ne!(a, b, "self-loop");
            adj[a].push(RouterId(b));
            adj[b].push(RouterId(a));
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        Topology {
            kind,
            name: name.into(),
            adj,
            concentration,
        }
    }

    /// Builds a Slim NoC from the Slim Fly parameter `q` and a
    /// concentration `p`, using the canonical field `GF(q)`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] if `q` is not a valid Slim Fly parameter
    /// or `p == 0`.
    pub fn slim_noc(q: usize, concentration: usize) -> Result<Self, TopologyError> {
        slimnoc::build(q, concentration)
    }

    /// Builds a 2D mesh of `x × y` routers with `p` nodes per router
    /// (`p > 1` makes this the paper's concentrated mesh, CM).
    ///
    /// # Panics
    ///
    /// Panics if any dimension or the concentration is zero.
    #[must_use]
    pub fn mesh(x: usize, y: usize, concentration: usize) -> Self {
        grids::mesh(x, y, concentration)
    }

    /// Builds a 2D torus (T2D) of `x × y` routers with `p` nodes each.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or the concentration is zero.
    #[must_use]
    pub fn torus(x: usize, y: usize, concentration: usize) -> Self {
        grids::torus(x, y, concentration)
    }

    /// Builds a full-bandwidth Flattened Butterfly (FBF) on an `x × y`
    /// router grid with `p` nodes per router.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or the concentration is zero.
    #[must_use]
    pub fn flattened_butterfly(x: usize, y: usize, concentration: usize) -> Self {
        grids::flattened_butterfly(x, y, concentration)
    }

    /// Builds a partitioned FBF (PFBF, Fig. 9): `parts_x × parts_y`
    /// identical FBFs of `sub_x × sub_y` routers, with one port per router
    /// toward each adjacent partition in each partitioned dimension.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or the concentration is zero.
    #[must_use]
    pub fn partitioned_fbf(
        parts_x: usize,
        parts_y: usize,
        sub_x: usize,
        sub_y: usize,
        concentration: usize,
    ) -> Self {
        grids::partitioned_fbf(parts_x, parts_y, sub_x, sub_y, concentration)
    }

    /// Builds a balanced Dragonfly with `h` global links per router
    /// (`a = 2h` routers per group, `g = 2h² + 1` groups, `p = h` nodes
    /// per router).
    ///
    /// # Panics
    ///
    /// Panics if `h == 0`.
    #[must_use]
    pub fn dragonfly(h: usize) -> Self {
        dragonfly::dragonfly(h)
    }

    /// The family and structural details of this topology.
    #[must_use]
    pub fn kind(&self) -> &TopologyKind {
        &self.kind
    }

    /// Short human-readable name (e.g. `"sn q=5"`, `"t2d 10x5"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of routers `N_r`.
    #[must_use]
    pub fn router_count(&self) -> usize {
        self.adj.len()
    }

    /// Nodes per router (`p`, the concentration).
    #[must_use]
    pub fn concentration(&self) -> usize {
        self.concentration
    }

    /// Total number of endpoint nodes `N = N_r · p`.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.router_count() * self.concentration
    }

    /// Routers adjacent to `r` (sorted, no duplicates).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn neighbors(&self, r: RouterId) -> &[RouterId] {
        &self.adj[r.0]
    }

    /// Network radix `k'`: the maximum router-to-router degree.
    #[must_use]
    pub fn network_radix(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Minimum router-to-router degree.
    #[must_use]
    pub fn min_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Full router radix `k = k' + p`.
    #[must_use]
    pub fn router_radix(&self) -> usize {
        self.network_radix() + self.concentration
    }

    /// `true` if every router has the same router-to-router degree.
    #[must_use]
    pub fn is_regular(&self) -> bool {
        self.network_radix() == self.min_degree()
    }

    /// Total number of (undirected) router-to-router links.
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// `true` if routers `a` and `b` are directly connected.
    #[must_use]
    pub fn connected(&self, a: RouterId, b: RouterId) -> bool {
        self.adj[a.0].binary_search(&b).is_ok()
    }

    /// The router that node `n` attaches to.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    #[must_use]
    pub fn router_of(&self, n: NodeId) -> RouterId {
        assert!(n.0 < self.node_count(), "node {} out of range", n.0);
        RouterId(n.0 / self.concentration)
    }

    /// The nodes attached to router `r`.
    #[must_use]
    pub fn nodes_of(&self, r: RouterId) -> Vec<NodeId> {
        let first = r.0 * self.concentration;
        (first..first + self.concentration).map(NodeId).collect()
    }

    /// Iterates over all routers.
    pub fn routers(&self) -> impl Iterator<Item = RouterId> {
        (0..self.router_count()).map(RouterId)
    }

    /// Iterates over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count()).map(NodeId)
    }

    /// Iterates over all undirected links as `(a, b)` pairs with `a < b`.
    pub fn links(&self) -> impl Iterator<Item = (RouterId, RouterId)> + '_ {
        self.adj.iter().enumerate().flat_map(|(a, list)| {
            list.iter()
                .filter(move |b| a < b.0)
                .map(move |&b| (RouterId(a), b))
        })
    }

    /// Shortest-path hop counts from `src` to every router (BFS).
    #[must_use]
    pub fn distances_from(&self, src: RouterId) -> Vec<usize> {
        analysis::bfs(self, src)
    }

    /// Network diameter in router hops.
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected.
    #[must_use]
    pub fn diameter(&self) -> usize {
        self.path_stats().diameter
    }

    /// Average shortest-path length over all ordered router pairs.
    #[must_use]
    pub fn average_path_length(&self) -> f64 {
        self.path_stats().average
    }

    /// Full shortest-path statistics (diameter, average, histogram).
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected.
    #[must_use]
    pub fn path_stats(&self) -> PathStats {
        analysis::path_stats(self)
    }

    /// Counts links crossing a partition of routers given by `side`
    /// (`side(r) == true` means `r` is on the "left"). Used to compute
    /// bisection bandwidth for layout-defined cuts.
    #[must_use]
    pub fn cut_links(&self, side: impl Fn(RouterId) -> bool) -> usize {
        self.links().filter(|&(a, b)| side(a) != side(b)).count()
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (N_r = {}, p = {}, k' = {})",
            self.name,
            self.router_count(),
            self.concentration,
            self.network_radix()
        )
    }
}

impl Topology {
    /// Returns the router labels if this is a Slim NoC topology.
    #[must_use]
    pub fn slim_noc_labels(&self) -> Option<&[RouterLabel]> {
        match &self.kind {
            TopologyKind::SlimNoc { labels, .. } => Some(labels),
            _ => None,
        }
    }
}
