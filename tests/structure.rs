//! The structural rules the design rests on, as one table the test suite
//! reads: one point runner (`Campaign`), one setup-modifier site, one
//! routing-table and one simulator construction site, one clock, one
//! engine, byte routing tables with fixed channel rings, and one JSON
//! writer.
//!
//! A rule is a row of [`RULES`]: substrings no line under its roots may
//! contain, the exact lines where a forbidden name may still stand, and
//! the one place a counted construction may sit. One scanner reads every
//! row, and a breach prints `path:line: token — rule (why)` for every
//! hit. This file spells every token, so the scanner skips it; the
//! planted fixtures below show that every token of every rule trips it
//! under every root. Run alone with `cargo test -q --test structure`.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::Path;

use Token::{EscapedKey, Text};

/// What a rule reads in a file under its roots.
#[derive(Clone, Copy, PartialEq)]
enum Scope {
    /// Every line of every file, whatever its type (`Cargo.toml`,
    /// goldens and spec JSONs too), as `grep -r` reads them.
    Whole,
    /// `.rs` files, each up to its first line that starts with
    /// `#[cfg(test)]`: the test module that ends a file may model what
    /// the code must not do (`link.rs`'s naive channel is a `VecDeque`).
    Code,
}

/// A forbidden piece of a line.
#[derive(Clone, Copy)]
enum Token {
    Text(&'static str),
    /// An escaped JSON key in a Rust string literal — `\"`, one or more
    /// of `[a-z0-9_]`, `\": ` — the mark of a hand-placed JSON emitter.
    EscapedKey,
}

impl Token {
    fn is_in(self, line: &str) -> bool {
        match self {
            Text(text) => line.contains(text),
            EscapedKey => line.match_indices("\\\"").any(|(at, _)| {
                let key = &line[at + 2..];
                let len = key
                    .bytes()
                    .take_while(|b| matches!(b, b'a'..=b'z' | b'0'..=b'9' | b'_'))
                    .count();
                len > 0 && key[len..].starts_with("\\\": ")
            }),
        }
    }

    /// A line the token is in: what the fixtures plant.
    fn sample(self) -> &'static str {
        match self {
            Text(text) => text,
            EscapedKey => r#"out.push_str("{\"points\": ");"#,
        }
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Text(text) => f.write_str(text),
            EscapedKey => f.write_str(r#"escaped key literal \"…\": "#),
        }
    }
}

/// A construction that stands on exactly one line under the rule's
/// roots, lines that start with `//` not counted.
struct Site {
    token: &'static str,
    /// The file that holds it.
    file: &'static str,
    /// A piece of the line just before it, when the site is pinned.
    after: Option<&'static str>,
}

struct Rule {
    name: &'static str,
    /// The README section that states the fact.
    why: &'static str,
    /// Files, or directories read recursively, from the repository root.
    roots: &'static [&'static str],
    scope: Scope,
    forbidden: &'static [Token],
    /// `(file, whole line)`: the only lines a forbidden token may stand on.
    allowed: &'static [(&'static str, &'static str)],
    site: Option<Site>,
}

/// A row's defaults.
const ROW: Rule = Rule {
    name: "",
    why: "",
    roots: &[],
    scope: Scope::Whole,
    forbidden: &[],
    allowed: &[],
    site: None,
};

const EVERYWHERE: &[&str] = &["crates", "src", "tests", "examples"];
const SWEEP: &str = "README.md#sweep-campaigns";
const DELETED: &str = "README.md#measured-and-deleted";

const RULES: &[Rule] = &[
    // Every simulated number a figure prints is a `Campaign` point
    // (coordinate seed, `--threads` / `--cache-dir`, watchdog check). A
    // direct simulator call or a private fan-out in the figure layer
    // would reopen a second runner; only the differential oracle drives
    // simulators itself, through `snoc_refsim::check::run`.
    Rule {
        name: "Figures simulate only through Campaign",
        why: SWEEP,
        roots: &["crates/bench/src"],
        forbidden: &[
            Text(".run_load("),
            Text(".run_load_sharded("),
            Text("evaluate_power"),
            Text("saturation_throughput"),
            Text("parallel_map("),
            Text("parallel_map_with_threads("),
            Text(".run_trace("),
            Text(".run_synthetic("),
            Text("Simulator::build"),
            Text(".simulator()"),
        ],
        ..ROW
    },
    Rule {
        name: "Traces simulate only through Campaign",
        why: SWEEP,
        roots: EVERYWHERE,
        forbidden: &[Text("run_trace_workload")],
        ..ROW
    },
    // A static figure campaign is a committed spec under `specs/`, not
    // Rust: the figure layer's deleted campaign helpers stay deleted.
    Rule {
        name: "Figure campaigns are specs",
        why: SWEEP,
        roots: &["crates/bench", "src"],
        forbidden: &[
            Text("figure_campaign"),
            Text("energy_campaign"),
            Text("latency_curves"),
            Text("trace_campaign"),
            Text("power_rows"),
            Text("saturation_sweep"),
            Text("full_grid"),
            Text("apply_to_spec"),
        ],
        ..ROW
    },
    // `Campaign::from_spec` builds every setup from a recipe, so a cache
    // key names exactly what was simulated; the builder twin stays
    // deleted, and figures take their networks by configuration name.
    Rule {
        name: "A campaign is its spec",
        why: SWEEP,
        roots: EVERYWHERE,
        forbidden: &[
            Text(".with_setups("),
            Text(".with_patterns("),
            Text(".with_workloads("),
            Text(".with_loads("),
            Text(".with_windows("),
            Text(".with_refinement("),
            Text(".with_threads("),
            Text(".with_power("),
            Text(".with_stop_at_saturation("),
            Text("Unrepresentable"),
        ],
        ..ROW
    },
    Rule {
        name: "Figures name their networks",
        why: SWEEP,
        roots: &["crates/bench/src"],
        forbidden: &[Text("Setup::from_topology")],
        ..ROW
    },
    // `SetupSpec::build_on` is the one place a layout, buffering preset,
    // routing, SMART or fault recipe is applied, and a built setup
    // carries its recipe (`Setup::to_spec`). `SimConfig`'s and
    // `RefConfig`'s own `with_routing` / `with_smart` are other types.
    Rule {
        name: "A setup is its recipe",
        why: SWEEP,
        roots: EVERYWHERE,
        forbidden: &[
            Text(".with_sn_layout("),
            Text(".with_buffers("),
            Text(".with_faults("),
        ],
        ..ROW
    },
    Rule {
        name: "A setup mirrors no recipe field",
        why: SWEEP,
        roots: &["crates/core/src/setup.rs"],
        forbidden: &[
            Text("fn with_smart"),
            Text("fn with_routing"),
            Text("pub paper_config:"),
            Text("pub sn_layout:"),
            Text("pub buffers:"),
        ],
        ..ROW
    },
    // A differential case is a `snoc_refsim::check::Case` run by
    // `check::run`: a second two-engine runner would let the verify
    // figure and the fuzzed suite drift apart. The folded Clos, which
    // no engine ever simulated, stays deleted.
    Rule {
        name: "One differential runner, no folded Clos",
        why: "README.md#verification",
        roots: &["crates/bench", "crates/refsim/tests", "src", "examples"],
        forbidden: &[
            Text("RefSimulator::build"),
            Text("folded_clos"),
            Text("FoldedClos"),
        ],
        ..ROW
    },
    Rule {
        name: "No campaign shard knob, no re-seeded shards",
        why: DELETED,
        roots: EVERYWHERE,
        forbidden: &[
            Text("with_shards"),
            Text("effective_shards"),
            Text("derive_seed"),
            Text("\"--shards\""),
        ],
        ..ROW
    },
    // Two monolith-backed shims keep `benchmark/` compiling until its
    // shard probes go; nothing else may name them.
    Rule {
        name: "One engine",
        why: DELETED,
        roots: EVERYWHERE,
        forbidden: &[Text("ShardedSimulator"), Text("run_load_sharded(")],
        allowed: &[
            (
                "crates/sim/src/lib.rs",
                "pub struct ShardedSimulator(Simulator);",
            ),
            ("crates/sim/src/lib.rs", "impl ShardedSimulator {"),
            ("crates/core/src/setup.rs", "    pub fn run_load_sharded("),
        ],
        ..ROW
    },
    Rule {
        name: "One engine (no cut-channel hooks)",
        why: DELETED,
        roots: &["crates/sim/src"],
        forbidden: &[
            Text("trait Boundary"),
            Text("push_at("),
            Text("push_credit_at("),
        ],
        ..ROW
    },
    // `Setup::minimal_table`, reached through the `Setup::paper` memo,
    // builds one table per configuration per process; a second site
    // would bring a per-point rebuild back.
    Rule {
        name: "One routing table construction site in snoc_core",
        why: SWEEP,
        roots: &["crates/core/src"],
        scope: Scope::Code,
        site: Some(Site {
            token: "RoutingTable::minimal(",
            file: "crates/core/src/setup.rs",
            after: Some("fn minimal_table("),
        }),
        ..ROW
    },
    // `Setup::seeded_simulator` builds; a campaign worker resets the
    // simulator it holds for the next point of the same setup.
    Rule {
        name: "One simulator construction site in snoc_core",
        why: SWEEP,
        roots: &["crates/core/src"],
        scope: Scope::Code,
        site: Some(Site {
            token: "Simulator::build_with_table(",
            file: "crates/core/src/setup.rs",
            after: None,
        }),
        ..ROW
    },
    // The clock has one statement, `now += 1`: a second clock would
    // bring back the invariant that every future event is a registered
    // wake-up.
    Rule {
        name: "One clock (no cycle skipper)",
        why: DELETED,
        roots: EVERYWHERE,
        forbidden: &[
            Text("cycle_skip"),
            Text("next_local_event"),
            Text("set_cycle_skipping"),
        ],
        ..ROW
    },
    // A network costs its bytes at build: one byte per router pair and
    // no distance matrix in the routing table, and a credited channel's
    // flits and credits in two rings fixed at build.
    Rule {
        name: "Network bytes (byte routing table)",
        why: "README.md#simulation-engine",
        roots: &["crates/sim/src/routing.rs"],
        forbidden: &[Text("dist: Vec<u16>"), Text("next_port: Vec<u16>")],
        ..ROW
    },
    Rule {
        name: "Network bytes (fixed channel rings)",
        why: "README.md#simulation-engine",
        roots: &["crates/sim/src/link.rs"],
        scope: Scope::Code,
        forbidden: &[Text("VecDeque")],
        ..ROW
    },
    // `json::Writer` places the quotes, separators and escapes and
    // renders floats by its document's rule.
    Rule {
        name: "One JSON writer in snoc_core and snoc_bench",
        why: "README.md#what-a-replay-costs",
        roots: &["crates/core/src", "crates/bench/src"],
        scope: Scope::Code,
        forbidden: &[EscapedKey],
        ..ROW
    },
];

/// This file, which names every token.
const SELF: &str = "tests/structure.rs";

/// Files by their path from the repository root.
type Files = BTreeMap<String, String>;

/// Every breach of `rule` in `files`, one `path:line: token — rule
/// (why)` each.
fn breaches(rule: &Rule, files: &Files) -> Vec<String> {
    let hit = |path: &str, line: usize, token: &dyn fmt::Display| {
        format!("{path}:{line}: {token} — {} ({})", rule.name, rule.why)
    };
    let mut out = Vec::new();
    // (path, line number, the line before) of every counted site.
    let mut sites = Vec::new();
    for (path, text) in files {
        let under = rule.roots.iter().any(|root| {
            path.strip_prefix(root)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
        });
        if !under || (rule.scope == Scope::Code && !path.ends_with(".rs")) {
            continue;
        }
        let mut before = "";
        for (n, line) in text.split('\n').enumerate() {
            if rule.scope == Scope::Code && line.starts_with("#[cfg(test)]") {
                break;
            }
            for token in rule.forbidden {
                if token.is_in(line) && !rule.allowed.contains(&(path.as_str(), line)) {
                    out.push(hit(path, n + 1, token));
                }
            }
            if let Some(site) = &rule.site {
                if line.contains(site.token) && !line.trim_start_matches(' ').starts_with("//") {
                    sites.push((path.as_str(), n + 1, before));
                }
            }
            before = line;
        }
    }
    if let Some(site) = &rule.site {
        let pinned = |before: &str| site.after.is_none_or(|after| before.contains(after));
        match sites[..] {
            [(path, _, before)] if path == site.file && pinned(before) => {}
            [] => out.push(hit(site.file, 0, &format!("no {}", site.token))),
            _ => out.extend(sites.iter().map(|&(path, n, _)| hit(path, n, &site.token))),
        }
    }
    out
}

/// Every file under every rule's roots, except this one.
fn tree() -> Files {
    let base = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Files::new();
    let mut todo: Vec<String> = RULES
        .iter()
        .flat_map(|rule| rule.roots.iter().map(|root| root.to_string()))
        .collect();
    while let Some(rel) = todo.pop() {
        let path = base.join(&rel);
        if path.is_dir() {
            for entry in fs::read_dir(&path).unwrap_or_else(|e| panic!("{rel}: {e}")) {
                let name = entry.expect("a directory entry").file_name();
                todo.push(format!("{rel}/{}", name.to_string_lossy()));
            }
        } else if rel != SELF && !files.contains_key(&rel) {
            let bytes = fs::read(&path).unwrap_or_else(|e| panic!("{rel}: {e}"));
            files.insert(rel, String::from_utf8_lossy(&bytes).into_owned());
        }
    }
    files
}

#[test]
fn the_tree_keeps_every_rule() {
    let files = tree();
    let found: Vec<String> = RULES
        .iter()
        .flat_map(|rule| breaches(rule, &files))
        .collect();
    assert!(found.is_empty(), "\n{}", found.join("\n"));
}

/// `files` from `(path, text)` pairs.
fn fixture<const N: usize>(files: [(&str, String); N]) -> Files {
    files
        .into_iter()
        .map(|(path, text)| (path.to_string(), text))
        .collect()
}

/// A file a planted line may go in under `root`: the root itself when
/// it is a file, otherwise one of each kind the rule reads.
fn plant_paths(root: &str, scope: Scope) -> Vec<String> {
    if root.ends_with(".rs") {
        return vec![root.to_string()];
    }
    let mut paths = vec![format!("{root}/planted.rs")];
    if scope == Scope::Whole {
        paths.extend([format!("{root}/Cargo.toml"), format!("{root}/planted.json")]);
    }
    paths
}

/// The tree a site rule keeps: its one site, where it belongs.
fn one_site(site: &Site) -> String {
    format!(
        "{}\n    {}\n",
        site.after.unwrap_or("fn build() {"),
        site.token
    )
}

#[test]
fn every_token_trips_its_rule_under_every_root() {
    for rule in RULES {
        for &token in rule.forbidden {
            for root in rule.roots {
                for path in plant_paths(root, rule.scope) {
                    // A comment line trips too: only the site counts skip
                    // `//` lines. A whole-file rule reads past a test
                    // module; a code rule stops at it.
                    let line = format!("    // {}", token.sample());
                    let planted = format!("// planted\n{line}\n#[cfg(test)]\n{line}\n");
                    let found = breaches(rule, &fixture([(path.as_str(), planted)]));
                    let lines: &[usize] = match rule.scope {
                        Scope::Whole => &[2, 4],
                        Scope::Code => &[2],
                    };
                    for n in lines {
                        let want = format!("{path}:{n}: {token} — {} ({})", rule.name, rule.why);
                        assert!(found.contains(&want), "{want}\n{found:?}");
                    }
                    // Tokens may overlap (`cycle_skip` is in
                    // `set_cycle_skipping`), but every hit is planted.
                    let planted = |hit: &String| {
                        lines
                            .iter()
                            .any(|n| hit.starts_with(&format!("{path}:{n}: ")))
                    };
                    assert!(found.iter().all(planted), "{path}: {found:?}");
                }
                if rule.scope == Scope::Code && !root.ends_with(".rs") {
                    let json = format!("{root}/planted.json");
                    let found = breaches(
                        rule,
                        &fixture([(json.as_str(), token.sample().to_string())]),
                    );
                    assert!(
                        found.is_empty(),
                        "{}: a code rule reads only .rs",
                        rule.name
                    );
                }
            }
        }
        if rule.forbidden.is_empty() {
            continue;
        }
        let outside = fixture([(
            "benchmark/src/planted.rs",
            rule.forbidden
                .iter()
                .map(|t| t.sample())
                .collect::<Vec<_>>()
                .join("\n"),
        )]);
        assert!(
            breaches(rule, &outside).is_empty(),
            "{}: outside its roots",
            rule.name
        );
    }
}

#[test]
fn each_site_rule_trips_on_a_second_or_a_moved_site() {
    for rule in RULES {
        let Some(site) = &rule.site else { continue };
        let kept = (site.file, one_site(site));
        assert!(
            breaches(rule, &fixture([kept.clone()])).is_empty(),
            "{}",
            rule.name
        );
        for root in rule.roots {
            let path = format!("{root}/planted.rs");
            let second = |line: String| fixture([kept.clone(), (path.as_str(), line)]);
            let found = breaches(rule, &second(format!("    {}\n", site.token)));
            assert_eq!(found.len(), 2, "{}: a second site {found:?}", rule.name);
            let comment = second(format!("    // {}\n", site.token));
            assert!(
                breaches(rule, &comment).is_empty(),
                "{}: a comment",
                rule.name
            );
            let in_tests = second(format!("#[cfg(test)]\n    {}\n", site.token));
            assert!(
                breaches(rule, &in_tests).is_empty(),
                "{}: after the cut",
                rule.name
            );
            let moved = fixture([(path.as_str(), one_site(site))]);
            assert_eq!(breaches(rule, &moved).len(), 1, "{}: moved", rule.name);
        }
        let twice = fixture([(site.file, one_site(site).repeat(2))]);
        assert_eq!(
            breaches(rule, &twice).len(),
            2,
            "{}: twice in its file",
            rule.name
        );
        let missing = breaches(rule, &fixture([(site.file, String::new())]));
        assert_eq!(missing.len(), 1, "{}: missing", rule.name);
        if site.after.is_some() {
            let unpinned = format!("fn other() {{\n    {}\n", site.token);
            let found = breaches(rule, &fixture([(site.file, unpinned)]));
            assert_eq!(found.len(), 1, "{}: off its pin", rule.name);
        }
    }
}

#[test]
fn an_allowed_line_is_allowed_only_where_it_stands() {
    for rule in RULES {
        for &(file, line) in rule.allowed {
            let kept = fixture([(file, line.to_string())]);
            assert!(breaches(rule, &kept).is_empty(), "{}: {line}", rule.name);
            let edited = fixture([(file, format!("{line} // edited"))]);
            assert_eq!(breaches(rule, &edited).len(), 1, "{}: {line}", rule.name);
            for root in rule.roots {
                let path = format!("{root}/planted.rs");
                let moved = fixture([(path.as_str(), line.to_string())]);
                assert_eq!(
                    breaches(rule, &moved).len(),
                    1,
                    "{}: {line} in {root}",
                    rule.name
                );
            }
        }
    }
}

/// The escaped-key test is `\\"[a-z0-9_]+\\": ` and nothing looser.
#[test]
fn an_escaped_key_is_backslash_quote_key_backslash_quote_colon_space() {
    for line in [
        r#"format!("{{\"hits\": {hits}}}")"#,
        r#"out.push_str("\"drained\": true");"#,
        r#"  \"k_2\": "#,
        r#"\\\"a\": "#,
        r#"\"\" \"x\": "#,
    ] {
        assert!(EscapedKey.is_in(line), "{line}");
    }
    for line in [
        r#"w.key("hits");"#,
        r#""hits": 3"#,
        r#"\"Hits\": "#,
        r#"\"\": "#,
        r#"\"a-b\": "#,
        r#"\"hits\":3"#,
        r#"\"hits": "#,
        r#"\"hits\"  : "#,
    ] {
        assert!(!EscapedKey.is_in(line), "{line}");
    }
}

/// Lines a regression would write, each where it would land, and the
/// rule it must trip.
const PLANTED: &[(&str, &str, &str)] = &[
    (
        "Figures simulate only through Campaign",
        "crates/bench/src/figures/studies.rs",
        "    let rows = snoc_core::parallel_map_with_threads(args.threads, &points, run);",
    ),
    (
        "Figures simulate only through Campaign",
        "crates/bench/src/figures.rs",
        "        let report = sim.run_synthetic(&traffic, load, warmup, measure);",
    ),
    (
        "Figures simulate only through Campaign",
        "crates/bench/src/figures/verify.rs",
        "    let mut sim = Simulator::build(&topo, cfg.clone())?;",
    ),
    (
        "Figures simulate only through Campaign",
        "crates/bench/src/fault_storm.rs",
        "    let mut sim = setup.simulator();",
    ),
    (
        "One JSON writer in snoc_core and snoc_bench",
        "crates/core/src/cache.rs",
        r#"        out.push_str(&format!("{{\"hits\": {hits}, \"misses\": {misses}}}"));"#,
    ),
];

#[test]
fn planted_regressions_trip_their_rule() {
    for &(name, path, line) in PLANTED {
        let rule = RULES.iter().find(|rule| rule.name == name).expect("a rule");
        let found = breaches(rule, &fixture([(path, format!("fn f() {{\n{line}\n}}\n"))]));
        assert!(
            !found.is_empty()
                && found
                    .iter()
                    .all(|hit| hit.starts_with(&format!("{path}:2: "))),
            "{name}: {line}\n{found:?}"
        );
    }
}

/// Each `why` names a README section, by its GitHub anchor.
#[test]
fn every_why_is_a_readme_section() {
    let readme = fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md"))
        .expect("README.md");
    let anchors: Vec<String> = readme
        .lines()
        .filter_map(|line| line.strip_prefix('#'))
        .map(|heading| {
            let heading = heading.trim_start_matches('#').trim().to_lowercase();
            let kept = heading
                .chars()
                .filter(|c| c.is_alphanumeric() || " -_".contains(*c));
            kept.map(|c| if c == ' ' { '-' } else { c }).collect()
        })
        .collect();
    for rule in RULES {
        let anchor = rule
            .why
            .strip_prefix("README.md#")
            .expect("a README anchor");
        assert!(
            anchors.iter().any(|a| a == anchor),
            "{}: {}",
            rule.name,
            rule.why
        );
    }
}
