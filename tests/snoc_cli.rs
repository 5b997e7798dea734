//! Drives the real `snoc` executable through the commands that replaced
//! the per-figure binaries: `repro --list`, `repro <name>`, and
//! `run --spec`, plus their usage-error exit code.

use snoc_bench::figures::REGISTRY;
use std::process::{Command, Output};

fn snoc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_snoc"))
        .args(args)
        .output()
        .expect("spawn snoc")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("UTF-8 stdout")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn repro_list_lists_exactly_the_registry() {
    let out = snoc(&["repro", "--list"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let listed: Vec<String> = stdout(&out)
        .lines()
        .map(|l| {
            l.split_whitespace()
                .next()
                .expect("name column")
                .to_string()
        })
        .collect();
    let registry: Vec<&str> = REGISTRY.iter().map(|f| f.name).collect();
    assert_eq!(listed, registry);
}

#[test]
fn repro_runs_a_figure_and_prints_csv() {
    let out = snoc(&["repro", "fig1", "--smoke", "--csv"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let csv = stdout(&out);
    assert!(csv.starts_with("# Fig 1a"), "got: {csv}");
    assert!(csv.lines().any(|l| l.starts_with("load,")), "got: {csv}");
}

#[test]
fn run_spec_replays_byte_identically_from_a_shared_cache() {
    let dir = std::env::temp_dir().join(format!("snoc_cli_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/campaign_quick.json");
    let args = [
        "run",
        "--spec",
        spec,
        "--smoke",
        "--cache-dir",
        dir.to_str().expect("utf-8"),
    ];
    let cold = snoc(&args);
    assert!(cold.status.success(), "{}", stderr(&cold));
    assert!(stdout(&cold).contains("\"points\""));
    assert!(
        stderr(&cold).contains("snoc-cache-stats: hits=0 "),
        "cold run simulates every point: {}",
        stderr(&cold)
    );
    let warm = snoc(&args);
    assert!(warm.status.success(), "{}", stderr(&warm));
    assert_eq!(warm.stdout, cold.stdout, "warm replay is byte-identical");
    let stats = stderr(&warm);
    assert!(
        stats.contains("snoc-cache-stats: hits=") && stats.contains(" misses=0 "),
        "warm run replays every point: {stats}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_command_reads_inline_flag_values() {
    let spaced = snoc(&[
        "sim",
        "--config",
        "sn54",
        "--load",
        "0.02",
        "--warmup",
        "50",
        "--measure",
        "100",
    ]);
    assert!(spaced.status.success(), "{}", stderr(&spaced));
    let inline = snoc(&[
        "sim",
        "--config=sn54",
        "--load=0.02",
        "--warmup=50",
        "--measure=100",
    ]);
    assert!(inline.status.success(), "{}", stderr(&inline));
    assert!(stdout(&inline).contains("avg latency"));
    assert_eq!(inline.stdout, spaced.stdout);
    // `--work` adds the engine's counters and the network's bytes on
    // stderr, and nothing on stdout.
    let work = snoc(&[
        "sim",
        "--config=sn54",
        "--load=0.02",
        "--warmup=50",
        "--measure=100",
        "--work",
    ]);
    assert!(work.status.success(), "{}", stderr(&work));
    assert_eq!(work.stdout, spaced.stdout);
    assert!(stderr(&spaced).is_empty());
    for counter in [
        "cycles stepped",
        "ports examined",
        "grants",
        "routing table bytes",
        "router bytes",
        "channel bytes",
    ] {
        assert!(stderr(&work).contains(counter), "{}", stderr(&work));
    }
    // `run --spec=…` reaches the spec reader (exit 2 names the file,
    // not an unknown flag).
    let missing = snoc(&["run", "--spec=/nonexistent/spec.json", "--threads=1"]);
    assert_eq!(missing.status.code(), Some(2));
    assert!(stderr(&missing).contains("/nonexistent/spec.json"));
}

#[test]
fn modifiers_apply_to_a_custom_topology() {
    let windows = ["--warmup", "50", "--measure", "200"];
    let fbf = [
        "sim",
        "--topology",
        "fbf",
        "--x",
        "4",
        "--y",
        "4",
        "--p",
        "1",
        "--buffers",
        "cbr20",
        "--routing",
        "xy",
        "--smart",
    ];
    let sn = [
        "sim",
        "--topology",
        "sn",
        "--q",
        "5",
        "--p",
        "2",
        "--layout",
        "subgr",
        "--buffers",
        "eb-var",
    ];
    for (args, title) in [
        (&fbf[..], "buffers CBR-20 | H=9"),
        (&sn, "buffers EB-Var | H=1"),
    ] {
        let out = snoc(&[args, &windows].concat());
        assert!(out.status.success(), "snoc {args:?}: {}", stderr(&out));
        let first = stdout(&out).lines().next().unwrap_or_default().to_string();
        assert!(first.contains(title), "snoc {args:?}: {first}");
    }
}

#[test]
fn usage_errors_exit_2() {
    for args in [
        &["repro", "fig2"][..],
        &["repro"],
        &["repro", "fig1", "--spec", "x"],
        &["run"],
        &["run", "--spec", "/nonexistent/spec.json"],
        &["sim", "--pattern", "nope"],
        &["sim", "--buffers", "cbrX"],
        &["sim", "--config", "sn54", "--load", "-0.1"],
        &["sim", "--config", "sn54", "--load", "nan"],
        &["sim", "--topology", "mesh", "--x", "0"],
        &["analyze", "--topology", "mesh", "--p", "0"],
        &["sim", "--config", "sn54", "--routing", "xy"],
        // Radix 299: a routing table stores a port in one byte.
        &["sim", "--topology", "fbf", "--x", "300", "--y", "1"],
        // A layout is a Slim NoC modifier, never silently dropped.
        &["sim", "--config", "fbf3", "--layout", "subgr"],
        &["sim", "--topology", "mesh", "--layout", "gr"],
        &["analyze", "--config", "fbf3", "--layout", "subgr"],
        &["analyze", "--topology", "mesh", "--layout", "gr"],
    ] {
        let out = snoc(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "snoc {args:?}: {}",
            stderr(&out)
        );
        assert!(stderr(&out).starts_with("error: "), "snoc {args:?}");
    }
    // Campaign points run monolithic: a shard count is not a flag.
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/campaign_quick.json");
    for args in [
        &["repro", "fig12", "--smoke", "--shards=2"][..],
        &["run", "--spec", spec, "--shards=2"],
    ] {
        let out = snoc(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "snoc {args:?}: {err}");
        assert!(
            err.contains("unknown flag `--shards`"),
            "snoc {args:?}: {err}"
        );
    }
}

#[test]
fn help_after_any_command_prints_the_usage_and_exits_0() {
    let usage = stdout(&snoc(&["--help"]));
    assert!(usage.contains("USAGE:"));
    for command in ["sim", "analyze", "repro", "run", "serve", "submit", "list"] {
        for args in [&[command, "--help"][..], &[command, "-h"]] {
            let out = snoc(args);
            assert!(out.status.success(), "snoc {args:?}: {}", stderr(&out));
            assert_eq!(stdout(&out), usage, "snoc {args:?}");
        }
    }
    // After other arguments too; an unknown command stays an error.
    let out = snoc(&["repro", "fig12", "--smoke", "--help"]);
    assert_eq!((out.status.success(), stdout(&out)), (true, usage));
    assert_eq!(snoc(&["nope", "--help"]).status.code(), Some(2));
}

#[test]
fn specs_no_simulator_can_run_exit_2_without_panicking() {
    for name in [
        "duplicate_name",
        "cbr0",
        "faults_ugal",
        "phantom_router",
        "unknown_workload",
        "xy_off_fbf",
        "shards",
        "repeated_pattern",
        "unsorted_loads",
    ] {
        let spec = format!(
            "{}/tests/specs/unrunnable_{name}.json",
            env!("CARGO_MANIFEST_DIR")
        );
        let out = snoc(&["run", "--spec", &spec]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{name}: {err}");
        assert!(err.starts_with("error: "), "{name}: {err}");
        assert!(!err.contains("panicked"), "{name}: {err}");
    }
}

#[test]
fn json_is_answered_by_one_campaign_figures_and_refused_elsewhere() {
    let usage = stdout(&snoc(&["--help"]));
    let listed: Vec<&str> = usage.split_whitespace().collect();
    for figure in REGISTRY {
        // The help's `--json` entry is derived from the same rule.
        assert_eq!(
            listed.contains(&figure.name),
            figure.answers_json(),
            "{}",
            figure.name
        );
        if figure.answers_json() {
            continue;
        }
        let out = snoc(&["repro", figure.name, "--smoke", "--json"]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{}: {err}", figure.name);
        assert!(
            err.starts_with("error: ") && err.contains(figure.name),
            "{err}"
        );
        assert!(out.stdout.is_empty(), "{} simulated first", figure.name);
    }
    // fig20's two pattern sweeps are one committed campaign now.
    let out = snoc(&["repro", "fig20", "--smoke", "--json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("\"campaign\": \"fig20\""));
}

#[test]
fn an_unopenable_cache_dir_fails_repro_and_run_alike() {
    let file = std::env::temp_dir().join(format!("snoc_cli_not_a_dir_{}", std::process::id()));
    std::fs::write(&file, "").expect("temp file");
    let cache = file.join("cache");
    let cache = cache.to_str().expect("utf-8");
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/campaign_quick.json");
    let repro = snoc(&["repro", "fig14", "--smoke", "--cache-dir", cache]);
    let run = snoc(&["run", "--spec", spec, "--smoke", "--cache-dir", cache]);
    let _ = std::fs::remove_file(&file);
    let diagnostic = |out: &Output| {
        assert_eq!(out.status.code(), Some(2), "{}", stderr(out));
        assert!(out.stdout.is_empty(), "ran uncached");
        let err = stderr(out);
        let cause = err
            .split_once("spec cache: ")
            .map(|(_, cause)| cause.to_string());
        cause.unwrap_or_else(|| panic!("no cache diagnostic: {err}"))
    };
    assert_eq!(diagnostic(&repro), diagnostic(&run));
}
