//! Analytic area, power and energy model — the reproduction's stand-in
//! for MIT DSENT (§5.1; how it is driven by measured activity is in the
//! README, "Energy-efficiency pipeline").
//!
//! The model mirrors the structural cost terms the paper's analysis
//! rests on:
//!
//! - **buffers**: SRAM area and leakage proportional to buffered bits,
//!   access energy per read/write;
//! - **crossbars**: matrix crossbar area `(k·w)²·pitch²` — the radix-
//!   squared term that makes high-radix FBFs expensive;
//! - **allocators**: `k²·|VC|²` control logic;
//! - **wires**: area, repeater leakage and switching energy proportional
//!   to wire millimetres, derived from the layout's Manhattan lengths.
//!
//! Outputs are broken down the way the paper plots them (routers vs.
//! wires; buffers vs. crossbars vs. wires for dynamic power) and feed
//! the combined metrics of §5.4: throughput/power and energy–delay
//! product.
//!
//! # Example
//!
//! ```
//! use snoc_topology::Topology;
//! use snoc_layout::Layout;
//! use snoc_power::{PowerModel, TechNode};
//!
//! let sn = Topology::slim_noc(5, 4)?;
//! let fbf = Topology::flattened_butterfly(10, 5, 4);
//! let model = PowerModel::new(TechNode::N45);
//! let a_sn = model.area(&sn, &Layout::natural(&sn), 150);
//! let a_fbf = model.area(&fbf, &Layout::natural(&fbf), 150);
//! // The headline claim: Slim NoC needs much less area than FBF.
//! assert!(a_sn.total_mm2() < a_fbf.total_mm2());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use snoc_layout::TechNode;

use snoc_layout::Layout;
use snoc_sim::{ActivityCounters, SimReport};
use snoc_topology::Topology;

/// Technology-dependent circuit constants.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TechConstants {
    /// Global-layer wire pitch in µm.
    wire_pitch_um: f64,
    /// SRAM cell area in µm² per bit.
    sram_bit_um2: f64,
    /// Logic/SRAM leakage density in W/mm².
    leakage_w_per_mm2: f64,
    /// Repeated-wire leakage in µW per wire per mm.
    wire_leak_uw_per_mm: f64,
    /// Wire capacitance in pF per mm per wire.
    wire_cap_pf_per_mm: f64,
    /// SRAM access energy in pJ per bit.
    sram_pj_per_bit: f64,
    /// Crossbar traversal energy in pJ per bit per port.
    xbar_pj_per_bit_port: f64,
    /// Allocator grant energy in pJ per grant per port (the arbiter
    /// trees scale with radix; a few percent of a crossbar traversal).
    alloc_pj_per_grant_port: f64,
}

/// Fraction of a wire bundle's metal footprint charged to the silicon
/// area budget (repeaters, drivers and via stacks; the metal itself
/// lives on dedicated routing layers above the logic).
const WIRE_AREA_FACTOR: f64 = 0.10;

fn constants(tech: TechNode) -> TechConstants {
    match tech {
        TechNode::N45 => TechConstants {
            wire_pitch_um: 0.6,
            sram_bit_um2: 0.50,
            leakage_w_per_mm2: 0.050,
            wire_leak_uw_per_mm: 3.0,
            wire_cap_pf_per_mm: 0.020,
            sram_pj_per_bit: 0.150,
            xbar_pj_per_bit_port: 0.025,
            alloc_pj_per_grant_port: 0.15,
        },
        TechNode::N22 => TechConstants {
            wire_pitch_um: 0.30,
            sram_bit_um2: 0.12,
            leakage_w_per_mm2: 0.060,
            wire_leak_uw_per_mm: 2.2,
            wire_cap_pf_per_mm: 0.018,
            sram_pj_per_bit: 0.060,
            xbar_pj_per_bit_port: 0.010,
            alloc_pj_per_grant_port: 0.06,
        },
        TechNode::N11 => TechConstants {
            wire_pitch_um: 0.15,
            sram_bit_um2: 0.030,
            leakage_w_per_mm2: 0.070,
            wire_leak_uw_per_mm: 1.6,
            wire_cap_pf_per_mm: 0.016,
            sram_pj_per_bit: 0.025,
            xbar_pj_per_bit_port: 0.004,
            alloc_pj_per_grant_port: 0.025,
        },
    }
}

/// Area breakdown in mm², following the paper's plot categories.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AreaReport {
    /// Router buffers (intermediate-layer SRAM; "i-routers").
    pub buffers_mm2: f64,
    /// Crossbars (active layer; the dominant "a-routers" term).
    pub crossbars_mm2: f64,
    /// Allocators and arbiters (active layer).
    pub allocators_mm2: f64,
    /// Router-to-router wires (global layer; "RRg-wires").
    pub rr_wires_mm2: f64,
    /// Router-to-node wires ("RNg-wires").
    pub rn_wires_mm2: f64,
    /// Endpoint count for per-node normalization.
    pub nodes: usize,
}

impl AreaReport {
    /// Total router area (buffers + crossbars + allocators).
    #[must_use]
    pub fn routers_mm2(&self) -> f64 {
        self.buffers_mm2 + self.crossbars_mm2 + self.allocators_mm2
    }

    /// Total wire area.
    #[must_use]
    pub fn wires_mm2(&self) -> f64 {
        self.rr_wires_mm2 + self.rn_wires_mm2
    }

    /// Total network area.
    #[must_use]
    pub fn total_mm2(&self) -> f64 {
        self.routers_mm2() + self.wires_mm2()
    }

    /// Area per node in cm² (the unit of Figs. 16–17).
    #[must_use]
    pub fn per_node_cm2(&self) -> f64 {
        self.total_mm2() / 100.0 / self.nodes.max(1) as f64
    }
}

/// Static (leakage) power breakdown in watts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StaticPowerReport {
    /// Routers and crossbars.
    pub routers_w: f64,
    /// Repeated wires.
    pub wires_w: f64,
    /// Endpoint count for per-node normalization.
    pub nodes: usize,
}

impl StaticPowerReport {
    /// Total static power.
    #[must_use]
    pub fn total_w(&self) -> f64 {
        self.routers_w + self.wires_w
    }

    /// Static power per node in watts.
    #[must_use]
    pub fn per_node_w(&self) -> f64 {
        self.total_w() / self.nodes.max(1) as f64
    }
}

/// Dynamic power breakdown in watts, from simulation activity.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DynamicPowerReport {
    /// Buffer read/write energy.
    pub buffers_w: f64,
    /// Crossbar traversal energy.
    pub crossbars_w: f64,
    /// Allocator grant energy (switch-allocation arbiters).
    pub allocators_w: f64,
    /// Wire switching energy.
    pub wires_w: f64,
    /// Endpoint count for per-node normalization.
    pub nodes: usize,
}

impl DynamicPowerReport {
    /// Total dynamic power.
    #[must_use]
    pub fn total_w(&self) -> f64 {
        self.buffers_w + self.crossbars_w + self.allocators_w + self.wires_w
    }

    /// Dynamic power per node in watts.
    #[must_use]
    pub fn per_node_w(&self) -> f64 {
        self.total_w() / self.nodes.max(1) as f64
    }
}

/// Combined evaluation of one simulated configuration (§5.4 metrics).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerReport {
    /// Area breakdown.
    pub area: AreaReport,
    /// Static power breakdown.
    pub static_power: StaticPowerReport,
    /// Dynamic power breakdown.
    pub dynamic_power: DynamicPowerReport,
    /// Accepted throughput in flits/cycle (network-wide).
    pub throughput_flits_per_cycle: f64,
    /// Average packet latency in seconds.
    pub latency_s: f64,
    /// Router cycle time in seconds.
    pub cycle_time_s: f64,
    /// Flits delivered in the measurement window (energy-per-flit
    /// denominator).
    pub delivered_flits: u64,
    /// Length of the measurement window in cycles.
    pub measured_cycles: u64,
}

impl PowerReport {
    /// Total power (static + dynamic) in watts.
    #[must_use]
    pub fn total_power_w(&self) -> f64 {
        self.static_power.total_w() + self.dynamic_power.total_w()
    }

    /// Throughput per power in flits/J — Table 5's metric ("the number
    /// of flits delivered in a cycle divided by the power consumed").
    ///
    /// # Examples
    ///
    /// ```
    /// use snoc_power::{AreaReport, DynamicPowerReport, PowerReport, StaticPowerReport};
    ///
    /// // 2 flits/cycle at 2 GHz is 4e9 flits/s; at 1 W total power the
    /// // network delivers 4e9 flits per joule.
    /// let report = PowerReport {
    ///     area: AreaReport::default(),
    ///     static_power: StaticPowerReport { routers_w: 0.3, wires_w: 0.2, nodes: 4 },
    ///     dynamic_power: DynamicPowerReport {
    ///         buffers_w: 0.25,
    ///         crossbars_w: 0.15,
    ///         allocators_w: 0.05,
    ///         wires_w: 0.05,
    ///         nodes: 4,
    ///     },
    ///     throughput_flits_per_cycle: 2.0,
    ///     latency_s: 10e-9,
    ///     cycle_time_s: 0.5e-9,
    ///     delivered_flits: 4_000,
    ///     measured_cycles: 2_000,
    /// };
    /// assert!((report.throughput_per_power() - 4.0e9).abs() < 1.0);
    /// ```
    #[must_use]
    pub fn throughput_per_power(&self) -> f64 {
        if self.total_power_w() == 0.0 {
            0.0
        } else {
            self.throughput_flits_per_cycle / self.cycle_time_s / self.total_power_w()
        }
    }

    /// Network energy spent per delivered flit, in joules: total power
    /// integrated over the measurement window divided by the flits that
    /// window delivered. Positive and finite even at zero load, where
    /// it degrades to the window's (leakage-dominated) energy bill.
    #[must_use]
    pub fn energy_per_flit(&self) -> f64 {
        let window_s = self.measured_cycles.max(1) as f64 * self.cycle_time_s;
        self.total_power_w() * window_s / self.delivered_flits.max(1) as f64
    }

    /// Energy–delay product in J·s (Fig. 18 normalizes this to FBF):
    /// network energy over one second of execution times average packet
    /// latency.
    #[must_use]
    pub fn energy_delay(&self) -> f64 {
        self.total_power_w() * self.latency_s
    }
}

/// The analytic power/area model for one technology node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    tech: TechNode,
    /// Link width in bits (the paper uses 128-bit links).
    pub link_bits: usize,
    /// Router cycle time in nanoseconds (0.4/0.5/0.6 per radix class).
    pub cycle_time_ns: f64,
}

impl PowerModel {
    /// Creates a model at the paper's defaults: 128-bit links, 0.5 ns
    /// cycle time.
    #[must_use]
    pub fn new(tech: TechNode) -> Self {
        PowerModel {
            tech,
            link_bits: 128,
            cycle_time_ns: 0.5,
        }
    }

    /// Sets the router cycle time in nanoseconds.
    #[must_use]
    pub fn with_cycle_time(mut self, ns: f64) -> Self {
        self.cycle_time_ns = ns;
        self
    }

    /// The technology node.
    #[must_use]
    pub fn tech(&self) -> TechNode {
        self.tech
    }

    /// Total router-to-router wire length in mm for a placed topology.
    #[must_use]
    pub fn total_wire_mm(&self, topo: &Topology, layout: &Layout) -> f64 {
        let tile_mm = self.tile_side_mm(topo);
        let tiles: usize = topo.links().map(|(a, b)| layout.manhattan(a, b)).sum();
        tiles as f64 * tile_mm
    }

    /// Physical side length of one tile (router + its nodes) in mm.
    #[must_use]
    pub fn tile_side_mm(&self, topo: &Topology) -> f64 {
        (self.tech.core_area_mm2() * topo.concentration().max(1) as f64).sqrt()
    }

    /// Area model. `buffer_flits_per_router` is the total buffering in
    /// one router (edge buffers from `snoc_layout::BufferModel`, or
    /// `δ_cb + 2k'·|VC|` for CBRs).
    #[must_use]
    pub fn area(
        &self,
        topo: &Topology,
        layout: &Layout,
        buffer_flits_per_router: usize,
    ) -> AreaReport {
        let c = constants(self.tech);
        let nr = topo.router_count() as f64;
        let k = topo.router_radix() as f64;
        let w = self.link_bits as f64;

        let buffer_bits = buffer_flits_per_router as f64 * w;
        let buffers_mm2 = nr * buffer_bits * c.sram_bit_um2 * 1e-6;
        // Matrix crossbar: (k·w · pitch)².
        let xbar_side_mm = k * w * c.wire_pitch_um * 1e-3;
        let crossbars_mm2 = nr * xbar_side_mm * xbar_side_mm;
        // Allocator: k² · VC² grant cells (VC fixed at 2 in the model;
        // the term is small either way).
        let allocators_mm2 = nr * k * k * 4.0 * 40.0 * c.sram_bit_um2 * 1e-6;

        let bundle_mm_per_mm = w * c.wire_pitch_um * 1e-3 * WIRE_AREA_FACTOR;
        let rr_wires_mm2 = self.total_wire_mm(topo, layout) * bundle_mm_per_mm;
        // Router-to-node wires: each node sits within its tile, average
        // half a tile of wiring each way.
        let rn_mm = topo.node_count() as f64 * self.tile_side_mm(topo) * 0.5;
        let rn_wires_mm2 = rn_mm * bundle_mm_per_mm;

        AreaReport {
            buffers_mm2,
            crossbars_mm2,
            allocators_mm2,
            rr_wires_mm2,
            rn_wires_mm2,
            nodes: topo.node_count(),
        }
    }

    /// Static (leakage) power from the area breakdown.
    #[must_use]
    pub fn static_power(
        &self,
        topo: &Topology,
        layout: &Layout,
        area: &AreaReport,
    ) -> StaticPowerReport {
        let c = constants(self.tech);
        let scale = self.tech.voltage(); // leakage roughly tracks V
        let routers_w = area.routers_mm2() * c.leakage_w_per_mm2 * scale;
        let wire_mm = self.total_wire_mm(topo, layout);
        let wires_w = wire_mm * self.link_bits as f64 * c.wire_leak_uw_per_mm * 1e-6 * scale;
        StaticPowerReport {
            routers_w,
            wires_w,
            nodes: topo.node_count(),
        }
    }

    /// Dynamic power from simulation activity over `cycles` cycles.
    #[must_use]
    pub fn dynamic_power(
        &self,
        topo: &Topology,
        activity: &ActivityCounters,
        cycles: u64,
    ) -> DynamicPowerReport {
        let c = constants(self.tech);
        let w = self.link_bits as f64;
        let v = self.tech.voltage();
        let vscale = v * v; // energy ∝ V² (constants are 1 V-referred)
        let time_s = cycles.max(1) as f64 * self.cycle_time_ns * 1e-9;
        let tile_mm = self.tile_side_mm(topo);

        // Buffers: measured reads and writes (edge buffers and CBR
        // staging) plus central-buffer accesses. `buffer_accesses`
        // (read+write pairs) is the legacy aggregate kept for
        // counter-invariant checks; the energy charge uses the exact
        // per-event counters.
        let buf_events = (activity.buffer_reads
            + activity.buffer_writes
            + activity.cb_writes
            + activity.cb_reads) as f64;
        let buffers_j = buf_events * w * c.sram_pj_per_bit * 1e-12 * vscale;

        let k = topo.router_radix() as f64;
        let xbar_j =
            activity.crossbar_traversals as f64 * w * k * c.xbar_pj_per_bit_port * 1e-12 * vscale;

        // Allocators: the arbiter trees burn energy per successful
        // grant, scaling with radix (small next to the crossbar term).
        let alloc_j = activity.alloc_grants as f64 * k * c.alloc_pj_per_grant_port * 1e-12 * vscale;

        // Wires: energy per flit per mm.
        let wire_mm_travelled = activity.wire_flit_tiles as f64 * tile_mm;
        let wires_j = wire_mm_travelled * w * c.wire_cap_pf_per_mm * 1e-12 * vscale;

        DynamicPowerReport {
            buffers_w: buffers_j / time_s,
            crossbars_w: xbar_j / time_s,
            allocators_w: alloc_j / time_s,
            wires_w: wires_j / time_s,
            nodes: topo.node_count(),
        }
    }

    /// The measured-activity path of the energy pipeline: converts the
    /// activity factors a simulation *measured* (buffer reads/writes,
    /// crossbar traversals, allocator grants, link flit·tiles) into
    /// dynamic + static power, energy per flit, and the energy–delay
    /// product — no analytic activity guesses anywhere.
    ///
    /// `buffer_flits_per_router` sizes the buffer area/leakage terms
    /// (use `Setup::buffer_flits_per_router` for the §5.1 presets).
    #[must_use]
    pub fn evaluate_from_sim(
        &self,
        report: &SimReport,
        topo: &Topology,
        layout: &Layout,
        buffer_flits_per_router: usize,
    ) -> PowerReport {
        let area = self.area(topo, layout, buffer_flits_per_router);
        let static_power = self.static_power(topo, layout, &area);
        let dynamic_power = self.dynamic_power(topo, &report.activity, report.measured_cycles);
        PowerReport {
            area,
            static_power,
            dynamic_power,
            throughput_flits_per_cycle: report.throughput() * report.nodes as f64,
            latency_s: report.avg_packet_latency() * self.cycle_time_ns * 1e-9,
            cycle_time_s: self.cycle_time_ns * 1e-9,
            delivered_flits: report.delivered_flits,
            measured_cycles: report.measured_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoc_layout::{BufferModel, BufferSpec, SnLayout};
    use snoc_sim::{SimConfig, Simulator};
    use snoc_traffic::TrafficPattern;

    fn sn200() -> (Topology, Layout) {
        let t = Topology::slim_noc(5, 4).unwrap();
        let l = Layout::slim_noc(&t, SnLayout::Subgroup).unwrap();
        (t, l)
    }

    fn fbf200() -> (Topology, Layout) {
        let t = Topology::flattened_butterfly(10, 5, 4);
        let l = Layout::natural(&t);
        (t, l)
    }

    fn buffer_flits(t: &Topology, l: &Layout) -> usize {
        BufferModel::edge_buffers(t, l, BufferSpec::standard()).average_per_router() as usize
    }

    #[test]
    fn sn_area_below_fbf_by_paper_margin() {
        // Fig. 15b / §6: SN reduces area over FBF by roughly a third.
        let model = PowerModel::new(TechNode::N45);
        let (sn, sn_l) = sn200();
        let (fbf, fbf_l) = fbf200();
        let a_sn = model.area(&sn, &sn_l, buffer_flits(&sn, &sn_l));
        let a_fbf = model.area(&fbf, &fbf_l, buffer_flits(&fbf, &fbf_l));
        let reduction = 1.0 - a_sn.total_mm2() / a_fbf.total_mm2();
        assert!(
            (0.15..0.75).contains(&reduction),
            "SN vs FBF area reduction {reduction:.2}"
        );
    }

    #[test]
    fn low_radix_networks_have_least_router_area() {
        let model = PowerModel::new(TechNode::N45);
        let (sn, sn_l) = sn200();
        let t2d = Topology::torus(10, 5, 4);
        let t2d_l = Layout::natural(&t2d);
        let a_sn = model.area(&sn, &sn_l, buffer_flits(&sn, &sn_l));
        let a_t2d = model.area(&t2d, &t2d_l, buffer_flits(&t2d, &t2d_l));
        assert!(
            a_t2d.total_mm2() < a_sn.total_mm2(),
            "torus {} must undercut SN {}",
            a_t2d.total_mm2(),
            a_sn.total_mm2()
        );
    }

    #[test]
    fn per_node_area_matches_paper_magnitude() {
        // Figs. 16a: area/node around 1e-3..4e-3 cm² at 45 nm.
        let model = PowerModel::new(TechNode::N45);
        let (sn, sn_l) = sn200();
        let a = model.area(&sn, &sn_l, buffer_flits(&sn, &sn_l));
        let per_node = a.per_node_cm2();
        assert!((1e-4..1e-2).contains(&per_node), "area/node {per_node} cm²");
    }

    #[test]
    fn static_power_ordering_matches_paper() {
        // Fig. 15c: FBF > SN > T2D in static power.
        let model = PowerModel::new(TechNode::N45);
        let (sn, sn_l) = sn200();
        let (fbf, fbf_l) = fbf200();
        let t2d = Topology::torus(10, 5, 4);
        let t2d_l = Layout::natural(&t2d);
        let p = |t: &Topology, l: &Layout| {
            let a = model.area(t, l, buffer_flits(t, l));
            model.static_power(t, l, &a).total_w()
        };
        let (p_sn, p_fbf, p_t2d) = (p(&sn, &sn_l), p(&fbf, &fbf_l), p(&t2d, &t2d_l));
        assert!(p_fbf > p_sn, "fbf {p_fbf} > sn {p_sn}");
        assert!(p_sn > p_t2d, "sn {p_sn} > t2d {p_t2d}");
        // §6: SN saves roughly half of FBF's static power.
        let saving = 1.0 - p_sn / p_fbf;
        assert!((0.2..0.8).contains(&saving), "saving {saving:.2}");
    }

    #[test]
    fn smaller_tech_node_shrinks_area() {
        let (sn, sn_l) = sn200();
        let f = buffer_flits(&sn, &sn_l);
        let a45 = PowerModel::new(TechNode::N45).area(&sn, &sn_l, f);
        let a22 = PowerModel::new(TechNode::N22).area(&sn, &sn_l, f);
        assert!(a22.total_mm2() < a45.total_mm2());
        // Wires shrink more slowly than logic: their share grows at 22 nm
        // (the paper's observation in §5.5).
        let share45 = a45.wires_mm2() / a45.total_mm2();
        let share22 = a22.wires_mm2() / a22.total_mm2();
        assert!(share22 > share45, "wire share {share22} vs {share45}");
    }

    #[test]
    fn dynamic_power_scales_with_activity() {
        let (sn, _) = sn200();
        let model = PowerModel::new(TechNode::N45);
        let a1 = ActivityCounters {
            buffer_reads: 1000,
            buffer_writes: 1000,
            crossbar_traversals: 1000,
            alloc_grants: 1000,
            wire_flit_tiles: 4000,
            ..Default::default()
        };
        let mut a2 = a1;
        a2.buffer_reads *= 2;
        a2.buffer_writes *= 2;
        a2.crossbar_traversals *= 2;
        a2.alloc_grants *= 2;
        a2.wire_flit_tiles *= 2;
        let p1 = model.dynamic_power(&sn, &a1, 10_000).total_w();
        let p2 = model.dynamic_power(&sn, &a2, 10_000).total_w();
        assert!((p2 / p1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn dynamic_power_is_monotone_in_each_activity_factor() {
        // Physics invariant: more activity of *any* kind never lowers
        // power, and every modeled component contributes.
        let (sn, _) = sn200();
        let model = PowerModel::new(TechNode::N45);
        let base = ActivityCounters {
            buffer_reads: 500,
            buffer_writes: 500,
            cb_writes: 100,
            cb_reads: 100,
            crossbar_traversals: 700,
            alloc_grants: 700,
            wire_flit_tiles: 2_000,
            ..Default::default()
        };
        let p0 = model.dynamic_power(&sn, &base, 10_000).total_w();
        assert!(p0 > 0.0);
        let bumps: [fn(&mut ActivityCounters); 6] = [
            |a| a.buffer_reads += 1_000,
            |a| a.buffer_writes += 1_000,
            |a| a.cb_writes += 1_000,
            |a| a.crossbar_traversals += 1_000,
            |a| a.alloc_grants += 1_000,
            |a| a.wire_flit_tiles += 1_000,
        ];
        for (i, bump) in bumps.iter().enumerate() {
            let mut a = base;
            bump(&mut a);
            let p = model.dynamic_power(&sn, &a, 10_000).total_w();
            assert!(p > p0, "factor {i}: {p} must exceed {p0}");
        }
        // The allocator term stays a small correction, not a dominator.
        let d = model.dynamic_power(&sn, &base, 10_000);
        assert!(d.allocators_w < 0.25 * d.total_w());
    }

    #[test]
    fn energy_per_flit_positive_and_finite_at_zero_load() {
        // A window that delivered nothing still burns leakage; the
        // metric degrades to the window's energy bill, never NaN/inf.
        let (sn, sn_l) = sn200();
        let model = PowerModel::new(TechNode::N45);
        let mut idle = Simulator::build_with_layout(&sn, &sn_l, &SimConfig::default()).unwrap();
        let empty = idle.run_synthetic(TrafficPattern::Random, 0.0, 0, 500);
        assert_eq!(empty.delivered_flits, 0, "true zero load");
        let r = model.evaluate_from_sim(&empty, &sn, &sn_l, buffer_flits(&sn, &sn_l));
        assert!(r.energy_per_flit() > 0.0);
        assert!(r.energy_per_flit().is_finite());
        // And at (low) load it is per-flit: more flits, less J/flit.
        let mut sim = Simulator::build_with_layout(&sn, &sn_l, &SimConfig::default()).unwrap();
        let rep = sim.run_synthetic(TrafficPattern::Random, 0.05, 300, 2_000);
        let loaded = model.evaluate_from_sim(&rep, &sn, &sn_l, buffer_flits(&sn, &sn_l));
        assert!(loaded.energy_per_flit() > 0.0);
        assert!(loaded.energy_per_flit() < r.energy_per_flit());
    }

    #[test]
    fn tech_shrink_scales_area_and_static_power_down() {
        // TechNode shrink invariants: both area and leakage fall from
        // 45 nm to 22 nm to 11 nm for the same design, and per-node
        // static power falls with them.
        let (sn, sn_l) = sn200();
        let f = buffer_flits(&sn, &sn_l);
        let eval = |tech: TechNode| {
            let m = PowerModel::new(tech);
            let a = m.area(&sn, &sn_l, f);
            let s = m.static_power(&sn, &sn_l, &a);
            (a.total_mm2(), s.total_w(), s.per_node_w())
        };
        let (a45, s45, pn45) = eval(TechNode::N45);
        let (a22, s22, pn22) = eval(TechNode::N22);
        let (a11, s11, _) = eval(TechNode::N11);
        assert!(a22 < a45 && a11 < a22, "area: {a45} > {a22} > {a11}");
        assert!(s22 < s45 && s11 < s22, "static: {s45} > {s22} > {s11}");
        assert!(pn22 < pn45);
        // Logic leakage tracks area × density × voltage.
        let c45 = constants(TechNode::N45);
        let c22 = constants(TechNode::N22);
        let a45r = PowerModel::new(TechNode::N45).area(&sn, &sn_l, f);
        let a22r = PowerModel::new(TechNode::N22).area(&sn, &sn_l, f);
        let expect = (a22r.routers_mm2() * c22.leakage_w_per_mm2 * TechNode::N22.voltage())
            / (a45r.routers_mm2() * c45.leakage_w_per_mm2 * TechNode::N45.voltage());
        let got = PowerModel::new(TechNode::N22)
            .static_power(&sn, &sn_l, &a22r)
            .routers_w
            / PowerModel::new(TechNode::N45)
                .static_power(&sn, &sn_l, &a45r)
                .routers_w;
        assert!((got - expect).abs() < 1e-12, "router leakage scaling");
    }

    #[test]
    fn end_to_end_throughput_per_power_favors_sn_over_fbf() {
        // Table 5's shape: SN beats FBF in throughput/power (modestly)
        // and low-radix nets substantially.
        let run = |topo: &Topology, layout: &Layout, cycle_ns: f64| {
            let mut sim =
                Simulator::build_with_layout(topo, layout, &SimConfig::default()).unwrap();
            let rep = sim.run_synthetic(TrafficPattern::Random, 0.10, 500, 3_000);
            let flits = buffer_flits(topo, layout);
            PowerModel::new(TechNode::N45)
                .with_cycle_time(cycle_ns)
                .evaluate_from_sim(&rep, topo, layout, flits)
        };
        let (sn, sn_l) = sn200();
        let (fbf, fbf_l) = fbf200();
        let r_sn = run(&sn, &sn_l, 0.5);
        let r_fbf = run(&fbf, &fbf_l, 0.6);
        assert!(
            r_sn.throughput_per_power() > r_fbf.throughput_per_power(),
            "sn {} vs fbf {}",
            r_sn.throughput_per_power(),
            r_fbf.throughput_per_power()
        );
    }

    #[test]
    fn edp_is_positive_and_finite() {
        let (sn, sn_l) = sn200();
        let mut sim = Simulator::build_with_layout(&sn, &sn_l, &SimConfig::default()).unwrap();
        let rep = sim.run_synthetic(TrafficPattern::Random, 0.05, 500, 2_000);
        let r = PowerModel::new(TechNode::N45).evaluate_from_sim(
            &rep,
            &sn,
            &sn_l,
            buffer_flits(&sn, &sn_l),
        );
        assert!(r.energy_delay() > 0.0);
        assert!(r.energy_delay().is_finite());
        assert!(r.total_power_w() > 0.0);
    }
}
