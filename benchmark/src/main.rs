//! `snoc-perf`: the repository's benchmark.
//!
//! ```text
//! snoc-perf run --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--smoke]
//! snoc-perf all [--seed N] [--seconds S] [--out FILE] [--smoke]
//! snoc-perf selfcheck [--seed N] [--smoke]
//! snoc-perf compare A.jsonl B.jsonl
//! snoc-perf tables FILE [--paper-scale FILE]
//! snoc-perf paper-scale [--out FILE]
//! ```
//!
//! `run` prints every metric by name with its unit, checks the outputs,
//! and ends with the one-line JSON result the benchmark driver reads.
//! See `benchmark/README.md` for the metric and workload definitions.

mod big_point;
mod campaign;
mod contract;
mod inputs;
mod probes;
mod report;
mod run;
mod served;
mod timing;
mod trace;
mod workload;

use contract::Contract;
use inputs::Scale;
use run::{Report, RunConfig};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::Env;

const USAGE: &str = "usage: snoc-perf run --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
                     [--out FILE] [--smoke]\n       snoc-perf all [--seed N] [--seconds S] \
                     [--out FILE] [--smoke]\n       snoc-perf selfcheck [--seed N] [--smoke]\n       \
                     snoc-perf compare A.jsonl B.jsonl\n       snoc-perf tables FILE \
                     [--paper-scale FILE]\n       snoc-perf paper-scale [--out FILE]";

/// The flags shared by the subcommands.
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<String>,
    smoke: bool,
    paper_scale: Option<String>,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        out: None,
        smoke: false,
        paper_scale: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => flags.workload = Some(value(arg)?),
            "--seed" => flags.seed = value(arg)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value(arg)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                flags.seconds = Some(s);
            }
            "--trace" => {
                flags.trace = match value(arg)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => flags.out = Some(value(arg)?),
            "--paper-scale" => flags.paper_scale = Some(value(arg)?),
            "--smoke" => flags.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            _ => flags.positional.push(arg.clone()),
        }
    }
    Ok(flags)
}

/// The per-pid scratch directory, beside the executable (inside the
/// build directory, so inside the checkout and ignored by git), removed
/// on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locate executable: {e}"))?;
        let dir = exe
            .parent()
            .unwrap_or(Path::new("."))
            .join(format!("snoc-perf-tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn append_line(path: &str, line: &str) -> Result<(), String> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{path}: {e}"))?;
    writeln!(file, "{line}").map_err(|e| format!("{path}: {e}"))
}

/// Runs one workload and prints its report; the result line goes last.
fn run_one(
    contract: &Contract,
    flags: &Flags,
    workload: &str,
    result_line: bool,
) -> Result<bool, String> {
    let scratch = Scratch::create()?;
    let mut env = Env::new(&scratch.0);
    let config = RunConfig {
        workload: workload.to_string(),
        seed: flags.seed,
        seconds: flags.seconds.unwrap_or(contract.run_seconds as f64),
        trace: flags.trace,
        scale: Scale { smoke: flags.smoke },
    };
    let report: Report = if flags.trace {
        run::traced(config, &mut env)?
    } else {
        run::untraced(config, &mut env)?
    };
    let line = report.result_line(contract)?;
    print!("{}", report.human(contract));
    if let Some(out) = &flags.out {
        append_line(out, &report.out_line(contract)?)?;
    }
    if result_line {
        println!("{line}");
    }
    Ok(report.correct())
}

/// `selfcheck`: two untraced passes, the once-per-run checks, the twin
/// identity and the workload's cross-checks, on every workload; then
/// the reference-simulator identity.
fn selfcheck(flags: &Flags) -> Result<bool, String> {
    let scale = Scale { smoke: flags.smoke };
    let mut ok = true;
    for name in workload::NAMES {
        let scratch = Scratch::create()?;
        let mut env = Env::new(&scratch.0);
        inputs::generate(&env.paths, name, flags.seed, scale).map_err(|e| e.to_string())?;
        let mut workload = workload::setup(name, &mut env)?;
        let passes = [workload.pass(), workload.pass()];
        let mut failures: Vec<String> = passes.iter().flat_map(|p| p.failures.clone()).collect();
        let digests = passes
            .each_ref()
            .map(|p| timing::fnv64(p.result.as_bytes()));
        if digests[0] != digests[1] {
            failures.push("two passes print different result digests".to_string());
        }
        failures.extend(workload.verify_once());
        let mut rec = trace::Recorder::new();
        let twin = workload.twin(&mut rec)?;
        if twin.result != passes[0].result {
            failures.push("twin bytes differ from the untraced result".to_string());
        }
        failures.extend(twin.failures);
        failures.extend(workload.cross_checks());
        println!(
            "{name}: result_digest {:016x}, {} ops/pass, {}",
            digests[0],
            passes[0].ops.len(),
            if failures.is_empty() { "ok" } else { "FAILED" }
        );
        for f in &failures {
            println!("  FAILED: {f}");
        }
        ok &= failures.is_empty();
    }
    let mismatches = probes::refsim_mismatches(flags.seed, scale)?;
    println!("refsim: {mismatches} exact mismatches on the held-out seed");
    Ok(ok && mismatches == 0)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let (command, rest) = args.split_first().ok_or(USAGE)?;
    let flags = parse_flags(rest)?;
    let contract = Contract::load();
    match command.as_str() {
        "run" => {
            let workload = flags.workload.as_deref().ok_or("run needs --workload")?;
            run_one(&contract, &flags, workload, true)
        }
        "all" => {
            let mut ok = true;
            for workload in workload::NAMES {
                ok &= run_one(&contract, &flags, workload, false)?;
            }
            Ok(ok)
        }
        "selfcheck" => selfcheck(&flags),
        "compare" => match flags.positional.as_slice() {
            [a, b] => report::compare(&contract, a, b).map(|table| {
                print!("{table}");
                true
            }),
            _ => Err("compare needs two run files".to_string()),
        },
        "tables" => match flags.positional.as_slice() {
            [file] => report::tables(file, flags.paper_scale.as_deref()).map(|tables| {
                print!("{tables}");
                true
            }),
            _ => Err("tables needs one run file".to_string()),
        },
        "paper-scale" => {
            let line = probes::paper_scale()?;
            println!("{line}");
            if let Some(out) = &flags.out {
                append_line(out, &line)?;
            }
            Ok(true)
        }
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(true)
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("snoc-perf: {e}");
            ExitCode::from(2)
        }
    }
}
