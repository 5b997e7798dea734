//! `Simulator::reset(seed)` is a fresh build: after any earlier run —
//! saturated, faulted, or cut short by the watchdog — resetting and
//! running gives the report and the work counters of a simulator built
//! anew with `seed`, across every router architecture, link mode,
//! routing algorithm and traffic source. And a network costs its bytes
//! at build: no run and no reset moves its `footprint()`.

use snoc_layout::{Layout, SnLayout};
use snoc_sim::{FaultPlan, RoutingKind, RoutingTable, SimConfig, SimReport, Simulator};
use snoc_topology::Topology;
use snoc_traffic::{TraceWorkload, TrafficPattern};
use std::sync::Arc;

/// The compared run (it arms its own fault plan, if any).
type Run = Box<dyn Fn(&Topology, &mut Simulator) -> SimReport>;

/// One configuration and the run compared on it.
struct Case {
    name: &'static str,
    topo: Topology,
    layout: Option<Layout>,
    cfg: SimConfig,
    run: Run,
}

fn synthetic(pattern: TrafficPattern, load: f64) -> Run {
    Box::new(move |_, sim| sim.run_synthetic(pattern, load, 300, 1_000))
}

fn cases() -> Vec<Case> {
    let sn = Topology::slim_noc(3, 3).unwrap(); // 18 routers, 54 nodes
    let fbf = Topology::flattened_butterfly(4, 4, 2);
    let case = |name, topo: &Topology, layout, cfg, run| Case {
        name,
        topo: topo.clone(),
        layout,
        cfg,
        run,
    };
    let subgroup = Layout::slim_noc(&sn, SnLayout::Subgroup).unwrap();
    let ugal = |routing| SimConfig::default().with_vcs(4).with_routing(routing);
    vec![
        case(
            "eb-small",
            &sn,
            None,
            SimConfig::default(),
            synthetic(TrafficPattern::Random, 0.1),
        ),
        case(
            "eb-var+layout+smart",
            &sn,
            Some(subgroup),
            SimConfig::eb_var().with_smart(),
            synthetic(TrafficPattern::Random, 0.15),
        ),
        case(
            "cbr20",
            &sn,
            None,
            SimConfig::cbr(20),
            synthetic(TrafficPattern::Random, 0.2),
        ),
        case(
            "el-links",
            &sn,
            Some(Layout::natural(&sn)),
            SimConfig::elastic_links(),
            synthetic(TrafficPattern::Random, 0.1),
        ),
        case(
            "ugal-l",
            &sn,
            None,
            ugal(RoutingKind::UgalL),
            synthetic(TrafficPattern::Adversarial1, 0.1),
        ),
        case(
            "ugal-g",
            &sn,
            None,
            ugal(RoutingKind::UgalG),
            synthetic(TrafficPattern::Adversarial1, 0.1),
        ),
        case(
            "xy-fbf",
            &fbf,
            None,
            SimConfig::default().with_routing(RoutingKind::XyAdaptive),
            synthetic(TrafficPattern::Random, 0.15),
        ),
        case(
            "trace-replies",
            &sn,
            None,
            SimConfig::default(),
            Box::new(|topo, sim| {
                let trace = TraceWorkload::by_name("canneal")
                    .unwrap()
                    .generate(topo, 1_500, 42);
                sim.run_trace(&trace, 300)
            }),
        ),
        case(
            "storm+repair",
            &sn,
            None,
            SimConfig::default(),
            Box::new(|topo, sim| {
                sim.set_fault_plan(&FaultPlan::storm(topo, 6, 400, 300, 5))
                    .unwrap();
                sim.run_synthetic(TrafficPattern::Random, 0.1, 300, 1_000)
            }),
        ),
    ]
}

fn build(case: &Case, seed: u64) -> Simulator {
    let cfg = case.cfg.clone().with_seed(seed);
    let table = || Arc::new(RoutingTable::minimal(&case.topo));
    Simulator::build_with_table(&case.topo, case.layout.as_ref(), &cfg, table)
        .unwrap_or_else(|e| panic!("{}: {e}", case.name))
}

#[test]
fn reset_is_a_fresh_build() {
    const SEED: u64 = 7;
    for case in cases() {
        let name = case.name;
        let mut used = build(&case, 99);
        let at_build = used.footprint();
        // Dirty it: a different pattern past saturation (under a link
        // storm where faults are supported, so links stay dead and the
        // degraded table stays in force) ...
        if case.cfg == SimConfig::default() {
            let storm = FaultPlan::storm(&case.topo, 4, 150, 100, 11);
            used.set_fault_plan(&storm).unwrap();
        }
        used.run_synthetic(TrafficPattern::Adversarial2, 0.9, 100, 300);
        // ... then, from where that run stopped, a run with no measured
        // window, which ends with the network full of flits ...
        let at = used.now();
        used.run_synthetic(TrafficPattern::Random, 0.9, at + 200, 0);
        assert!(used.in_flight_flits() > 0, "{name}: flits left in flight");
        assert_eq!(used.footprint(), at_build, "{name}: footprint after a run");
        // ... and on top of it a run cut short by a tiny watchdog bound.
        used.set_watchdog(Some(0));
        let at = used.now();
        let cut = used.run_synthetic(TrafficPattern::Random, 0.05, at + 50, 2_000);
        assert!(
            cut.deadlock.is_some(),
            "{name}: the tiny watchdog must fire"
        );

        used.reset(SEED);
        let mut fresh = build(&case, SEED);
        assert_eq!(used.footprint(), at_build, "{name}: footprint after reset");
        assert_eq!(fresh.footprint(), at_build, "{name}: footprint of a build");
        let states = (format!("{used:?}"), format!("{fresh:?}"));
        let again = (case.run)(&case.topo, &mut used);
        let built = (case.run)(&case.topo, &mut fresh);
        assert!(built.delivered_packets > 0, "{name}: {built}");
        assert_eq!(again.to_json(), built.to_json(), "{name}: report");
        assert_eq!(used.work(), fresh.work(), "{name}: work counters");
        assert_eq!(states.0, states.1, "{name}: state after reset");
    }
}
