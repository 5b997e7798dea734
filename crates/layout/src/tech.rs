//! Technology-node constants for the wiring constraint (§3.3.2).

use std::fmt;

/// A manufacturing technology node.
///
/// The paper evaluates 45 nm (1.0 V) and 22 nm (0.8 V), and checks wiring
/// feasibility additionally at 11 nm. Constants follow §3.3.2: wiring
/// densities of 3.5k / 7k / 14k wires/mm and processing-core areas of
/// 4 / 1 / 0.25 mm².
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TechNode {
    /// 45 nm, 1.0 V.
    N45,
    /// 22 nm, 0.8 V.
    N22,
    /// 11 nm (wiring-feasibility analysis only).
    N11,
}

impl TechNode {
    /// Wiring density of one intermediate metal layer, in wires per mm.
    #[must_use]
    pub fn wiring_density_per_mm(self) -> f64 {
        match self {
            TechNode::N45 => 3_500.0,
            TechNode::N22 => 7_000.0,
            TechNode::N11 => 14_000.0,
        }
    }

    /// Processing-core area in mm².
    #[must_use]
    pub fn core_area_mm2(self) -> f64 {
        match self {
            TechNode::N45 => 4.0,
            TechNode::N22 => 1.0,
            TechNode::N11 => 0.25,
        }
    }

    /// Supply voltage in volts.
    #[must_use]
    pub fn voltage(self) -> f64 {
        match self {
            TechNode::N45 => 1.0,
            TechNode::N22 => 0.8,
            TechNode::N11 => 0.7,
        }
    }

    /// Feature size in nanometres.
    #[must_use]
    pub fn nanometres(self) -> f64 {
        match self {
            TechNode::N45 => 45.0,
            TechNode::N22 => 22.0,
            TechNode::N11 => 11.0,
        }
    }
}

impl fmt::Display for TechNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}nm", self.nanometres() as u64)
    }
}

impl TechNode {
    /// Parses the [`fmt::Display`] form (`45nm`), as used by the
    /// campaign-spec wire format; the bare number is accepted too for
    /// CLI convenience.
    #[must_use]
    pub fn from_name(name: &str) -> Option<TechNode> {
        Some(match name {
            "45nm" | "45" => TechNode::N45,
            "22nm" | "22" => TechNode::N22,
            "11nm" | "11" => TechNode::N11,
            _ => return None,
        })
    }
}

/// The maximum number of wires `W` that may be routed over one tile
/// (a router plus its `concentration` attached cores) in a single metal
/// layer — the right-hand side of Eq. (3).
///
/// `W` is the wiring density times the tile side; the tile side grows
/// with the square root of the number of cores in the tile.
#[must_use]
pub fn max_wires_per_tile(tech: TechNode, concentration: usize) -> usize {
    let tile_area = tech.core_area_mm2() * concentration.max(1) as f64;
    (tech.wiring_density_per_mm() * tile_area.sqrt()) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_core_limit_is_constant_across_nodes() {
        // 3.5k/mm × 2mm = 7k/mm × 1mm = 14k/mm × 0.5mm = 7000 — density
        // doubles as the core side halves, so the per-core W is constant.
        for t in [TechNode::N45, TechNode::N22, TechNode::N11] {
            assert_eq!(max_wires_per_tile(t, 1), 7_000, "{t}");
        }
    }

    #[test]
    fn limit_grows_with_concentration() {
        assert!(max_wires_per_tile(TechNode::N45, 4) > max_wires_per_tile(TechNode::N45, 1));
        assert_eq!(max_wires_per_tile(TechNode::N45, 4), 14_000);
    }

    #[test]
    fn displays() {
        assert_eq!(TechNode::N45.to_string(), "45nm");
        assert_eq!(TechNode::N22.to_string(), "22nm");
    }

    #[test]
    fn voltages_match_paper() {
        assert_eq!(TechNode::N45.voltage(), 1.0);
        assert_eq!(TechNode::N22.voltage(), 0.8);
    }
}
