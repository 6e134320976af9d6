//! The repository's benchmark: four sustained workloads over `LeapStore`
//! and `leap-memdb`, end-to-end metrics from untraced runs, per-layer
//! metrics from traced runs and the layer ladder. See `README.md`.

mod check;
mod gen;
mod kv;
mod ladder;
mod lane;
mod memdb;
mod open;
mod report;
mod run;
mod stats;
mod sys;

use report::{Json, Meta, WORKLOADS};
use std::process::ExitCode;

const USAGE: &str = "usage:
  leap-benchmark [run] [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
      Runs the named workloads (default: all four), untraced for the end-to-end
      metrics and/or traced for the per-layer metrics (default: both), checks
      the outputs, prints every metric by name with unit and sample count and,
      after each run, one JSON result line. --out also writes the set to FILE.
  leap-benchmark compare A.json B.json
      Compares two set files metric by metric against the bounds.
  leap-benchmark describe
      Prints BENCHMARK.json.";

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    out: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: report::RUN_SECONDS,
        trace: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.iter().any(|known| known.0 == w) {
                    return Err(format!("unknown workload {w}"));
                }
                parsed.workloads.push(w.clone());
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&parsed.seconds) {
                    return Err("--seconds must be 1 to 60".into());
                }
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            "--out" => parsed.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.workloads.is_empty() {
        parsed.workloads = WORKLOADS.iter().map(|w| w.0.to_string()).collect();
    }
    Ok(parsed)
}

/// Runs one workload in one mode in this process: prints every metric,
/// the first violation if any, and the result line; writes the run's set
/// file when asked.
fn run_one(args: &Args, workload: &str, trace: bool) -> ExitCode {
    let Some(result) = run::run(workload, args.seed, args.seconds, trace) else {
        eprintln!("unknown workload {workload}");
        return ExitCode::from(2);
    };
    print!("{}", report::table(workload, trace, &result));
    if let Some(v) = &result.first_violation {
        println!("FIRST VIOLATION: {v}");
    }
    if let Some(path) = &args.out {
        let section = (workload.to_string(), trace, report::section_json(&result));
        if let Err(e) = write_set(args, path, vec![section]) {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    }
    println!("{}", report::result_line(&result));
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_set(args: &Args, path: &str, sections: Vec<(String, bool, Json)>) -> Result<(), String> {
    let plan = run::plan(args.seconds, false);
    let meta = report::meta_json(&Meta {
        seed: args.seed,
        slices: plan.measured,
        slice_s: plan.slice.as_secs_f64(),
    });
    std::fs::write(path, report::set_json(meta, sections).render())
        .map_err(|e| format!("{path}: {e}"))
}

/// Runs a set: every requested workload untraced, then traced, each in a
/// process of its own, exactly as the driver runs them, so that no run
/// inherits another's heap (resident-set growth is a metric). Collects
/// the runs' sections into one set file when asked.
fn run_set(args: &Args, modes: &[bool]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let parts = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&parts).map_err(|e| format!("{}: {e}", parts.display()))?;
    let mut sections = Vec::new();
    let mut correct = true;
    for &trace in modes {
        for workload in &args.workloads {
            let part = parts.join(format!("part-{workload}-t{}.json", u8::from(trace)));
            let status = std::process::Command::new(&exe)
                .args([
                    "--workload",
                    workload,
                    "--trace",
                    if trace { "1" } else { "0" },
                ])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .arg("--out")
                .arg(&part)
                .status()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            match status.code() {
                Some(0) => {}
                Some(1) => correct = false,
                _ => return Err(format!("{workload} (trace {trace}) ended with {status}")),
            }
            let text =
                std::fs::read_to_string(&part).map_err(|e| format!("{}: {e}", part.display()))?;
            let set = Json::parse(&text).map_err(|e| format!("{}: {e}", part.display()))?;
            let section = set
                .get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get(report::section_name(trace)))
                .ok_or_else(|| format!("{}: no section of {workload}", part.display()))?;
            sections.push((workload.clone(), trace, section.clone()));
        }
    }
    if let Some(path) = &args.out {
        write_set(args, path, sections)?;
    }
    Ok(correct)
}

fn run(args: &Args) -> ExitCode {
    let modes: &[bool] = match args.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    if let ([workload], [trace]) = (&args.workloads[..], modes) {
        return run_one(args, workload, *trace);
    }
    match run_set(args, modes) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn compare(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (report, ok) = report::compare(&load(a)?, &load(b)?);
    print!("{report}");
    println!("{}", if ok { "within bounds" } else { "OUT OF BOUNDS" });
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => match compare(&args[1], &args[2]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        },
        Some("describe") if args.len() == 1 => {
            print!("{}", report::benchmark_json());
            ExitCode::SUCCESS
        }
        Some("compare" | "describe" | "--help" | "-h") => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        first => {
            let rest = if first == Some("run") {
                &args[1..]
            } else {
                &args[..]
            };
            match parse(rest) {
                Ok(parsed) => run(&parsed),
                Err(e) => {
                    eprintln!("{e}\n{USAGE}");
                    ExitCode::from(2)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "--workload",
            "write_batch",
            "--seed",
            "42",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workloads, ["write_batch"]);
        assert_eq!((a.seed, a.seconds, a.trace), (42, 15, Some(true)));
        let all = args(&[]).unwrap();
        assert_eq!(all.workloads.len(), 4);
        assert_eq!((all.trace, all.seconds), (None, report::RUN_SECONDS));
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }
}
