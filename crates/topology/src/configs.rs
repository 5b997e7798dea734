//! The paper's named configurations (Table 4) and the Slim NoC
//! configuration space (Table 2).

use crate::{Topology, TopologyError};
use snoc_field::{factor_prime_power, SlimFlyParams};

/// One row of the paper's Table 2: a Slim NoC configuration with
/// `N ≤ 1300` nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Row {
    /// The Slim Fly input parameter `q`.
    pub q: usize,
    /// `true` when `GF(q)` is a prime field (lower half of Table 2).
    pub prime_field: bool,
    /// Network radix `k'`.
    pub network_radix: usize,
    /// Concentration `p`.
    pub concentration: usize,
    /// The "ideal" concentration `⌈k'/2⌉`.
    pub ideal_concentration: usize,
    /// Over-/under-subscription `p / ⌈k'/2⌉` in percent (column `**`).
    pub subscription_percent: usize,
    /// Network size `N`.
    pub network_size: usize,
    /// Router count `N_r = 2q²`.
    pub router_count: usize,
    /// Bold in the paper: `N` is a power of two.
    pub n_power_of_two: bool,
    /// Grey shade in the paper: equally many groups per die side
    /// (`q` is a perfect square).
    pub equal_groups_per_side: bool,
    /// Dark grey: additionally `N` is a perfect square.
    pub n_perfect_square: bool,
}

/// Enumerates the Slim NoC configuration space up to `node_limit` nodes,
/// reproducing the paper's Table 2 (which uses `node_limit = 1300`).
///
/// For each prime-power `q`, concentrations range over
/// `⌈⅔·p_ideal⌉ ..= ⌊4/3·p_ideal⌋` (the paper's 66%–133% subscription
/// band), filtered by the node limit.
#[must_use]
pub fn table2_rows(node_limit: usize) -> Vec<Table2Row> {
    let mut rows = Vec::new();
    for q in 2..=64 {
        let Some((_, n_ext)) = factor_prime_power(q) else {
            continue;
        };
        let Ok(params) = SlimFlyParams::new(q) else {
            continue;
        };
        let nr = params.router_count();
        let k = params.network_radix();
        let ideal = params.ideal_concentration();
        let p_min = (2 * ideal).div_ceil(3);
        let p_max = 4 * ideal / 3;
        for p in p_min..=p_max {
            let n = nr * p;
            if n > node_limit {
                continue;
            }
            rows.push(Table2Row {
                q,
                prime_field: n_ext == 1,
                network_radix: k,
                concentration: p,
                ideal_concentration: ideal,
                subscription_percent: p * 100 / ideal,
                network_size: n,
                router_count: nr,
                n_power_of_two: n.is_power_of_two(),
                equal_groups_per_side: is_perfect_square(q),
                n_perfect_square: is_perfect_square(n),
            });
        }
    }
    // Paper orders by field class (non-prime first), then by radix.
    rows.sort_by_key(|r| (r.prime_field, r.network_radix, r.concentration));
    rows
}

fn is_perfect_square(n: usize) -> bool {
    let r = (n as f64).sqrt().round() as usize;
    r * r == n
}

/// A named experiment configuration from the paper's Table 4 (plus the
/// `N = 54` class of §5.6 and the sizes of §5.5): a topology together
/// with its router cycle time.
///
/// Cycle times follow §5.1: 0.5 ns for SN and PFBF, 0.4 ns for the
/// low-radix T2D and CM, 0.6 ns for the high-radix FBF.
#[derive(Debug, Clone)]
pub struct ConfigDescriptor {
    /// The paper's name for this configuration (e.g. `"fbf3"`).
    pub name: &'static str,
    /// Router cycle time in nanoseconds.
    pub cycle_time_ns: f64,
    /// The constructed topology.
    pub topology: Topology,
}

/// All configuration names accepted by [`paper_config`].
#[must_use]
pub fn paper_config_names() -> Vec<&'static str> {
    vec![
        // N ∈ {192, 200} class.
        "t2d3", "t2d4", "cm3", "cm4", "fbf3", "fbf4", "pfbf3", "pfbf4", "sn_s",
        // N = 1296 class.
        "t2d9", "t2d8", "cm9", "cm8", "fbf9", "fbf8", "pfbf9", "pfbf8", "sn_l",
        // N = 1024 power-of-two design.
        "sn_p2", // N = 54 class (§5.6).
        "t2d54", "cm54", "fbf54", "pfbf54", "sn54",
        // Balanced Dragonflies (§2.2 baseline; the energy-comparison
        // class uses df3, the size nearest the N ∈ {192, 200} networks).
        "df2", "df3",
        // §5.5's other sizes: SN at concentrations 3 and 5 beside sn_s,
        // and SN with its equal-N torus at N = 588 and 1024 (sn_p2).
        "sn150", "sn250", "sn588", "t2d588", "t2d1024",
    ]
}

/// Builds a named configuration from the paper (Table 4, §3.4, §5.5,
/// §5.6).
///
/// # Errors
///
/// Returns [`TopologyError::UnknownConfig`] for unknown names, and
/// propagates Slim NoC construction errors.
pub fn paper_config(name: &str) -> Result<ConfigDescriptor, TopologyError> {
    let (cycle_time_ns, topology) = match name {
        // --- N ∈ {192, 200} ---
        "t2d3" => (0.4, Topology::torus(8, 8, 3)),
        "t2d4" => (0.4, Topology::torus(10, 5, 4)),
        "cm3" => (0.4, Topology::mesh(8, 8, 3)),
        "cm4" => (0.4, Topology::mesh(10, 5, 4)),
        "fbf3" => (0.6, Topology::flattened_butterfly(8, 8, 3)),
        "fbf4" => (0.6, Topology::flattened_butterfly(10, 5, 4)),
        "pfbf3" => (0.5, Topology::partitioned_fbf(2, 2, 4, 4, 3)),
        "pfbf4" => (0.5, Topology::partitioned_fbf(2, 1, 5, 5, 4)),
        "sn_s" => (0.5, Topology::slim_noc(5, 4)?),
        // --- N = 1296 ---
        "t2d9" => (0.4, Topology::torus(12, 12, 9)),
        "t2d8" => (0.4, Topology::torus(18, 9, 8)),
        "cm9" => (0.4, Topology::mesh(12, 12, 9)),
        "cm8" => (0.4, Topology::mesh(18, 9, 8)),
        "fbf9" => (0.6, Topology::flattened_butterfly(12, 12, 9)),
        "fbf8" => (0.6, Topology::flattened_butterfly(18, 9, 8)),
        "pfbf9" => (0.5, Topology::partitioned_fbf(2, 2, 6, 6, 9)),
        "pfbf8" => (0.5, Topology::partitioned_fbf(2, 1, 9, 9, 8)),
        "sn_l" => (0.5, Topology::slim_noc(9, 8)?),
        // --- N = 1024 ---
        "sn_p2" => (0.5, Topology::slim_noc(8, 8)?),
        // --- N = 54 (§5.6, KNL-scale) ---
        "t2d54" => (0.4, Topology::torus(6, 3, 3)),
        "cm54" => (0.4, Topology::mesh(6, 3, 3)),
        "fbf54" => (0.6, Topology::flattened_butterfly(6, 3, 3)),
        "pfbf54" => (0.5, Topology::partitioned_fbf(2, 1, 3, 3, 3)),
        "sn54" => (0.5, Topology::slim_noc(3, 3)?),
        // --- Balanced Dragonflies (h global links/router; N = 72, 342).
        // Cycle times by radix class: df2 has k = 7 (low-radix, 0.4 ns),
        // df3 has k = 11 (the SN/PFBF class, 0.5 ns).
        "df2" => (0.4, Topology::dragonfly(2)),
        "df3" => (0.5, Topology::dragonfly(3)),
        // --- §5.5 sensitivity sizes ---
        "sn150" => (0.5, Topology::slim_noc(5, 3)?),
        "sn250" => (0.5, Topology::slim_noc(5, 5)?),
        "sn588" => (0.5, Topology::slim_noc(7, 6)?),
        "t2d588" => (0.4, Topology::torus(14, 7, 6)),
        "t2d1024" => (0.4, Topology::torus(16, 8, 8)),
        _ => {
            return Err(TopologyError::UnknownConfig {
                name: name.to_string(),
            })
        }
    };
    Ok(ConfigDescriptor {
        name: paper_config_names()
            .into_iter()
            .find(|&n| n == name)
            .expect("name validated above"),
        cycle_time_ns,
        topology,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_contains_all_paper_rows() {
        // Every (q, p, N) row printed in Table 2 of the paper.
        let expected: &[(usize, usize, usize)] = &[
            // Non-prime finite fields.
            (4, 2, 64),
            (4, 3, 96),
            (4, 4, 128),
            (8, 4, 512),
            (8, 5, 640),
            (8, 6, 768),
            (8, 7, 896),
            (8, 8, 1024),
            (9, 5, 810),
            (9, 6, 972),
            (9, 7, 1134),
            (9, 8, 1296),
            // Prime finite fields.
            (2, 2, 16),
            (3, 2, 36),
            (3, 3, 54),
            (3, 4, 72),
            (5, 3, 150),
            (5, 4, 200),
            (5, 5, 250),
            (7, 4, 392),
            (7, 5, 490),
            (7, 6, 588),
            (7, 7, 686),
            (7, 8, 784),
        ];
        let rows = table2_rows(1300);
        for &(q, p, n) in expected {
            assert!(
                rows.iter()
                    .any(|r| r.q == q && r.concentration == p && r.network_size == n),
                "missing Table 2 row (q={q}, p={p}, N={n})"
            );
        }
    }

    #[test]
    fn table2_radix_and_router_columns() {
        let rows = table2_rows(1300);
        for r in &rows {
            let params = SlimFlyParams::new(r.q).unwrap();
            assert_eq!(r.network_radix, params.network_radix());
            assert_eq!(r.router_count, params.router_count());
            assert_eq!(r.network_size, r.router_count * r.concentration);
        }
    }

    #[test]
    fn table2_highlights() {
        let rows = table2_rows(1300);
        // Bold rows (power-of-two N): 16, 64, 128, 512, 1024.
        let bold: Vec<usize> = rows
            .iter()
            .filter(|r| r.n_power_of_two)
            .map(|r| r.network_size)
            .collect();
        assert!(bold.contains(&16));
        assert!(bold.contains(&64));
        assert!(bold.contains(&128));
        assert!(bold.contains(&512));
        assert!(bold.contains(&1024));
        // Dark grey: q = 9, N = 1296 is a perfect square with equal groups.
        let sn_l = rows
            .iter()
            .find(|r| r.q == 9 && r.network_size == 1296)
            .unwrap();
        assert!(sn_l.equal_groups_per_side);
        assert!(sn_l.n_perfect_square);
    }

    #[test]
    fn table2_subscription_band() {
        for r in table2_rows(1300) {
            assert!(
                (66..=133).contains(&r.subscription_percent),
                "row q={} p={} has subscription {}%",
                r.q,
                r.concentration,
                r.subscription_percent
            );
        }
    }

    #[test]
    fn all_paper_configs_build() {
        for name in paper_config_names() {
            let cfg = paper_config(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(cfg.topology.router_count() > 0, "{name}");
            assert!(cfg.cycle_time_ns > 0.0, "{name}");
        }
    }

    #[test]
    fn config_sizes_match_table4() {
        let sizes: &[(&str, usize, usize)] = &[
            // (name, N, k)
            ("t2d3", 192, 7),
            ("t2d4", 200, 8),
            ("cm3", 192, 7),
            ("cm4", 200, 8),
            ("fbf3", 192, 17),
            ("fbf4", 200, 17),
            ("pfbf3", 192, 11),
            ("pfbf4", 200, 13),
            ("sn_s", 200, 11),
            ("t2d9", 1296, 13),
            ("t2d8", 1296, 12),
            ("cm9", 1296, 13),
            ("cm8", 1296, 12),
            ("fbf9", 1296, 31),
            ("fbf8", 1296, 33),
            ("pfbf9", 1296, 21),
            ("pfbf8", 1296, 25),
            ("sn_l", 1296, 21),
            ("sn_p2", 1024, 20),
            ("sn150", 150, 10),
            ("sn250", 250, 12),
            ("sn588", 588, 17),
            ("t2d588", 588, 10),
            ("t2d1024", 1024, 12),
        ];
        for &(name, n, k) in sizes {
            let cfg = paper_config(name).unwrap();
            assert_eq!(cfg.topology.node_count(), n, "{name} node count");
            assert_eq!(cfg.topology.router_radix(), k, "{name} router radix");
        }
    }

    #[test]
    fn dragonfly_configs_match_balanced_construction() {
        // Balanced DF: a = 2h routers/group, g = a·h + 1 groups, p = h.
        let df2 = paper_config("df2").unwrap();
        assert_eq!(df2.topology.node_count(), 72);
        assert_eq!(df2.topology.router_radix(), 7); // (a-1) + h + p
        assert_eq!(df2.topology.diameter(), 3);
        let df3 = paper_config("df3").unwrap();
        assert_eq!(df3.topology.node_count(), 342);
        assert_eq!(df3.topology.router_radix(), 11);
        assert_eq!(df3.cycle_time_ns, 0.5, "same radix class as sn_s");
    }

    #[test]
    fn unknown_config_is_reported() {
        assert!(matches!(
            paper_config("hypercube"),
            Err(TopologyError::UnknownConfig { .. })
        ));
    }

    #[test]
    fn cycle_times_follow_radix_classes() {
        assert_eq!(paper_config("fbf3").unwrap().cycle_time_ns, 0.6);
        assert_eq!(paper_config("t2d3").unwrap().cycle_time_ns, 0.4);
        assert_eq!(paper_config("sn_s").unwrap().cycle_time_ns, 0.5);
        assert_eq!(paper_config("pfbf9").unwrap().cycle_time_ns, 0.5);
    }
}
