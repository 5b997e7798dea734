//! Topology zoo: construct every topology family in the library at a
//! comparable scale and print the structural comparison the paper's §2
//! builds its case on — radix, diameter, path lengths, link counts and
//! Moore-bound proximity.
//!
//! Run with: `cargo run --release --example topology_zoo`

use slim_noc::field::SlimFlyParams;
use slim_noc::layout::Layout;
use slim_noc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let zoo: Vec<Topology> = vec![
        Topology::slim_noc(5, 4)?,
        Topology::flattened_butterfly(10, 5, 4),
        Topology::partitioned_fbf(2, 1, 5, 5, 4),
        Topology::torus(10, 5, 4),
        Topology::mesh(10, 5, 4),
        Topology::dragonfly(3),
    ];
    println!(
        "{:<18} {:>5} {:>4} {:>4} {:>3} {:>4} {:>9} {:>7} {:>9}",
        "topology", "N", "N_r", "k'", "k", "D", "avg path", "links", "bisection"
    );
    for t in &zoo {
        let layout = Layout::natural(t);
        println!(
            "{:<18} {:>5} {:>4} {:>4} {:>3} {:>4} {:>9.3} {:>7} {:>9}",
            t.name(),
            t.node_count(),
            t.router_count(),
            t.network_radix(),
            t.router_radix(),
            t.diameter(),
            t.average_path_length(),
            t.link_count(),
            layout.bisection_links(t),
        );
    }

    // Moore-bound proximity: why MMS graphs scale (§2.1).
    println!("\nMoore-bound proximity of Slim NoC (D = 2): N_r vs k'^2 + 1");
    for q in [5usize, 7, 8, 9, 11, 13] {
        let p = SlimFlyParams::new(q)?;
        println!(
            "  q = {:>2}: N_r = {:>4}, Moore bound = {:>4}, fraction = {:.2}",
            q,
            p.router_count(),
            p.moore_bound(),
            p.moore_fraction()
        );
    }
    Ok(())
}
