//! End-to-end pin of §2.1's resilience claim, tested *dynamically*:
//! under a live link-failure storm severing ≥ 10% of links, Slim NoC
//! retains a strictly higher fraction of its delivered throughput than
//! the mesh. Runs the exact `snoc repro fault_storm` campaign (quick
//! windows) and also pins that degraded-mode campaigns are
//! deterministic across worker-thread counts.

use snoc_bench::fault_storm::{retention_at, retention_rows, storm_spec, FRACTIONS};
use snoc_bench::Args;

#[test]
fn slim_noc_retains_more_throughput_than_mesh_under_storms() {
    let args = Args {
        quick: true,
        ..Args::default()
    };
    let run = |args: &Args| {
        let campaign = args.campaign(storm_spec(args));
        campaign.expect("no cache dir to open").run()
    };
    let result = run(&args);
    let rows = retention_rows(&result);

    // The storm must actually bite: some degraded cell drops packets.
    assert!(
        rows.iter().any(|r| r.fraction > 0.0 && r.dropped > 0),
        "no in-flight casualties anywhere: {rows:#?}"
    );

    // The headline claim, at every fraction ≥ 10%.
    for fraction in FRACTIONS.into_iter().filter(|&f| f >= 0.10) {
        let sn = retention_at(&rows, "sn_s", fraction);
        let mesh = retention_at(&rows, "cm4", fraction);
        assert!(
            sn.retention > mesh.retention,
            "SN must retain strictly more than mesh at {:.0}% failed \
             links: SN {:.3} vs mesh {:.3}",
            fraction * 100.0,
            sn.retention,
            mesh.retention,
        );
    }

    // Same campaign on two worker threads: byte-identical result, so
    // degraded-mode sweeps parallelize (and cache) safely.
    let threaded = run(&Args { threads: 2, ..args });
    assert_eq!(
        threaded.to_json(),
        result.to_json(),
        "fault-storm campaigns must be deterministic across thread counts"
    );
}
