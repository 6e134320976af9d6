//! CLI that regenerates the paper's evaluation figures as text tables.
//!
//! ```text
//! figures [--scale quick|medium|paper] [all|fig14a|fig14b|fig15a|fig15b|
//!          fig16a|fig16b|fig17a|fig17b|fig17c|fig17d|fig17]...
//! ```
//!
//! No panel means `all`. `fig17` prints the four Fig. 17 panels from one
//! shared prefill. Every name is checked before the first sweep starts: a
//! bad panel or scale name exits 2 with nothing on stdout.

use leap_bench::figures as f;
use leap_bench::scale::Scale;

/// Runs one panel (or group of panels) and prints its tables.
type Panel = fn(&Scale);

/// Every accepted panel name, in `--help` order.
const PANELS: [(&str, Panel); 12] = [
    ("all", all),
    ("fig14a", |s| show(f::fig14a(s))),
    ("fig14b", |s| show(f::fig14b(s))),
    ("fig15a", |s| show(f::fig15a(s))),
    ("fig15b", |s| show(f::fig15b(s))),
    ("fig16a", |s| show(f::fig16a(s))),
    ("fig16b", |s| show(f::fig16b(s))),
    ("fig17a", |s| show(f::fig17a(s))),
    ("fig17b", |s| show(f::fig17b(s))),
    ("fig17c", |s| show(f::fig17c(s))),
    ("fig17d", |s| show(f::fig17d(s))),
    ("fig17", fig17),
];

fn show(fig: f::Figure) {
    print!("{}", fig.to_table());
}

fn fig17(scale: &Scale) {
    f::fig17_all(scale).into_iter().for_each(show);
}

fn all(scale: &Scale) {
    for panel in [
        f::fig14a,
        f::fig14b,
        f::fig15a,
        f::fig15b,
        f::fig16a,
        f::fig16b,
    ] {
        show(panel(scale));
    }
    fig17(scale);
}

fn usage() -> String {
    let names: Vec<&str> = PANELS.iter().map(|(name, _)| *name).collect();
    format!(
        "usage: figures [--scale quick|medium|paper] [{}]...",
        names.join("|")
    )
}

/// What a command line asks for.
enum Cmd {
    Help,
    Run(Scale, Vec<Panel>),
}

/// Resolves the whole command line, so a typo in the last panel name is
/// reported before the first panel's sweep is spent.
fn parse(args: impl IntoIterator<Item = String>) -> Result<Cmd, String> {
    let mut scale = Scale::medium();
    let mut panels = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let name = it.next().unwrap_or_default();
                scale = Scale::from_name(&name)
                    .ok_or_else(|| format!("unknown scale '{name}' (quick|medium|paper)"))?;
            }
            "--help" | "-h" => return Ok(Cmd::Help),
            other => {
                let (_, run) = PANELS
                    .iter()
                    .find(|(name, _)| *name == other)
                    .ok_or_else(|| format!("unknown panel '{other}'\n{}", usage()))?;
                panels.push(*run);
            }
        }
    }
    if panels.is_empty() {
        panels.push(all);
    }
    Ok(Cmd::Run(scale, panels))
}

fn main() {
    let (scale, panels) = match parse(std::env::args().skip(1)) {
        Ok(Cmd::Run(scale, panels)) => (scale, panels),
        Ok(Cmd::Help) => {
            eprintln!("{}", usage());
            return;
        }
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "# scale={} duration={:?} repeats={} threads={:?} (host cores: {})",
        scale.name,
        scale.duration,
        scale.repeats,
        scale.threads,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    for panel in panels {
        panel(&scale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn a_bad_panel_name_is_refused_before_any_sweep_runs() {
        // `parse` runs nothing, so an `Err` here means `fig14a` was not swept.
        let err = match parse(args("--scale quick fig14a typo")) {
            Err(e) => e,
            Ok(_) => panic!("'typo' must be refused"),
        };
        assert!(err.contains("unknown panel 'typo'"), "{err}");
        for gone in ["leapstore", "memdb"] {
            assert!(parse(args(gone)).is_err(), "{gone} is no longer a panel");
        }
        assert!(parse(args("--scale huge fig14a")).is_err());
        assert!(parse(args("fig14a --scale")).is_err(), "missing scale name");
    }

    #[test]
    fn every_listed_panel_is_accepted_and_usage_lists_exactly_those() {
        let names: Vec<&str> = PANELS.iter().map(|(name, _)| *name).collect();
        assert_eq!(
            names,
            [
                "all", "fig14a", "fig14b", "fig15a", "fig15b", "fig16a", "fig16b", "fig17a",
                "fig17b", "fig17c", "fig17d", "fig17"
            ]
        );
        match parse(names.iter().map(|n| n.to_string())) {
            Ok(Cmd::Run(_, panels)) => assert_eq!(panels.len(), names.len()),
            _ => panic!("every listed panel must parse"),
        }
        assert!(usage().contains(&names.join("|")), "{}", usage());
        match parse(args("--scale quick")) {
            Ok(Cmd::Run(scale, panels)) => {
                assert_eq!(scale.name, "quick");
                assert_eq!(panels.len(), 1, "no panel named means `all`");
            }
            _ => panic!("a bare --scale must parse"),
        }
        assert!(matches!(parse(args("fig14a --help")), Ok(Cmd::Help)));
    }
}
