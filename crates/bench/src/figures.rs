//! Parameter sweeps reproducing every panel of the paper's evaluation
//! (Figures 14-17). Each function returns a [`Figure`] whose series carry
//! the same labels and x-axes as the published plots.

use crate::driver::{run_throughput, RunCfg};
use crate::scale::Scale;
use crate::target::{make_target, Algo, BenchTarget};
use crate::workload::{Mix, Workload};
use leaplist::Params;
use std::sync::Arc;

/// One plotted line.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label (paper naming).
    pub label: &'static str,
    /// `(x, ops/sec)` points.
    pub points: Vec<(f64, f64)>,
}

/// One figure panel.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Panel id, e.g. `fig14a`.
    pub id: &'static str,
    /// Human title including the workload description.
    pub title: String,
    /// X axis meaning.
    pub x_label: &'static str,
    /// The plotted lines.
    pub series: Vec<Series>,
}

impl Figure {
    /// Renders the panel as an aligned text table (one row per x value).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {}: {} ==\n", self.id, self.title));
        out.push_str(&format!("{:>12}", self.x_label));
        for s in &self.series {
            out.push_str(&format!("{:>14}", s.label));
        }
        out.push('\n');
        let rows = self.series.first().map_or(0, |s| s.points.len());
        for r in 0..rows {
            out.push_str(&format!("{:>12}", format_x(self.series[0].points[r].0)));
            for s in &self.series {
                out.push_str(&format!("{:>14}", format_ops(s.points[r].1)));
            }
            out.push('\n');
        }
        out
    }
}

fn format_x(x: f64) -> String {
    if x >= 1000.0 {
        format!("{}", x as u64)
    } else {
        format!("{x}")
    }
}

fn format_ops(v: f64) -> String {
    format!("{:.0}", v)
}

/// The paper's structure settings: node size 300, max level 10.
pub fn paper_params() -> Params {
    Params::default()
}

fn cfg(scale: &Scale, threads: usize) -> RunCfg {
    RunCfg {
        threads,
        duration: scale.duration,
        repeats: scale.repeats,
        seed: 0x1EA9_115D,
    }
}

/// Sweeps thread counts for a set of algorithms on one workload,
/// prefilling each algorithm's structure once and reusing it across the
/// sweep (updates and removes balance, so the population stays near its
/// initial size).
#[allow(clippy::too_many_arguments)] // one parameter per figure knob
fn sweep_threads(
    id: &'static str,
    title: String,
    algos: &[Algo],
    lists: usize,
    elements: u64,
    key_range: u64,
    mix: Mix,
    scale: &Scale,
) -> Figure {
    let wl = Workload::paper(mix, key_range);
    let mut series = Vec::new();
    for &algo in algos {
        let target = make_target(algo, lists, paper_params());
        target.prefill(elements);
        let mut points = Vec::new();
        for &t in &scale.threads {
            let ops = run_throughput(&target, &wl, &cfg(scale, t));
            points.push((t as f64, ops));
        }
        series.push(Series {
            label: algo.label(),
            points,
        });
    }
    Figure {
        id,
        title,
        x_label: "threads",
        series,
    }
}

/// Fig. 14(a): four Leap-List variants, L=4 lists of 100k elements, 100%
/// modifications, thread sweep.
pub fn fig14a(scale: &Scale) -> Figure {
    sweep_threads(
        "fig14a",
        format!(
            "100% modify, L=4 lists, {} elements ({})",
            scale.elements, scale.name
        ),
        &Algo::leap_variants(),
        4,
        scale.elements,
        scale.elements.max(2),
        Mix::write_only(),
        scale,
    )
}

/// Fig. 14(b): 40% lookup / 40% range-query / 20% modify, thread sweep.
pub fn fig14b(scale: &Scale) -> Figure {
    sweep_threads(
        "fig14b",
        format!(
            "40% lookup, 40% range-query, 20% modify, L=4, {} elements ({})",
            scale.elements, scale.name
        ),
        &Algo::leap_variants(),
        4,
        scale.elements,
        scale.elements.max(2),
        Mix::read_dominated(),
        scale,
    )
}

/// Sweeps initial element counts at a fixed thread count (Fig. 15).
fn sweep_elements(id: &'static str, title: String, mix: Mix, scale: &Scale) -> Figure {
    let mut series: Vec<Series> = Algo::leap_variants()
        .iter()
        .map(|a| Series {
            label: a.label(),
            points: Vec::new(),
        })
        .collect();
    for &elements in &scale.element_sweep {
        let wl = Workload::paper(mix, elements.max(2));
        for (si, &algo) in Algo::leap_variants().iter().enumerate() {
            let target = make_target(algo, 4, paper_params());
            target.prefill(elements);
            let ops = run_throughput(&target, &wl, &cfg(scale, scale.fixed_threads));
            series[si].points.push((elements as f64, ops));
        }
    }
    Figure {
        id,
        title,
        x_label: "elements",
        series,
    }
}

/// Fig. 15(a): element sweep, 100% modifications, fixed threads.
pub fn fig15a(scale: &Scale) -> Figure {
    sweep_elements(
        "fig15a",
        format!(
            "100% modify, {} threads, element sweep ({})",
            scale.fixed_threads, scale.name
        ),
        Mix::write_only(),
        scale,
    )
}

/// Fig. 15(b): element sweep, 100% lookups, fixed threads.
pub fn fig15b(scale: &Scale) -> Figure {
    sweep_elements(
        "fig15b",
        format!(
            "100% lookup, {} threads, element sweep ({})",
            scale.fixed_threads, scale.name
        ),
        Mix::lookup_only(),
        scale,
    )
}

/// Sweeps the read percentage (Fig. 16): x% of `read_kind`, the rest
/// modifications.
fn sweep_read_pct(
    id: &'static str,
    title: String,
    range_not_lookup: bool,
    scale: &Scale,
) -> Figure {
    let mut series: Vec<Series> = Algo::leap_variants()
        .iter()
        .map(|a| Series {
            label: a.label(),
            points: Vec::new(),
        })
        .collect();
    for (si, &algo) in Algo::leap_variants().iter().enumerate() {
        let target = make_target(algo, 4, paper_params());
        target.prefill(scale.elements);
        for pct in (0..=90).step_by(10) {
            let mix = if range_not_lookup {
                Mix::new(0, pct, 100 - pct)
            } else {
                Mix::new(pct, 0, 100 - pct)
            };
            let wl = Workload::paper(mix, scale.elements.max(2));
            let ops = run_throughput(&target, &wl, &cfg(scale, scale.fixed_threads));
            series[si].points.push((pct as f64, ops));
        }
    }
    Figure {
        id,
        title,
        x_label: if range_not_lookup {
            "range-query %"
        } else {
            "lookup %"
        },
        series,
    }
}

/// Fig. 16(a): lookup% from 0 to 90 (no range queries), rest modify.
pub fn fig16a(scale: &Scale) -> Figure {
    sweep_read_pct(
        "fig16a",
        format!(
            "{} threads, {} elements, 0% range-query ({})",
            scale.fixed_threads, scale.elements, scale.name
        ),
        false,
        scale,
    )
}

/// Fig. 16(b): range-query% from 0 to 90 (no lookups), rest modify.
pub fn fig16b(scale: &Scale) -> Figure {
    sweep_read_pct(
        "fig16b",
        format!(
            "{} threads, {} elements, 0% lookup ({})",
            scale.fixed_threads, scale.elements, scale.name
        ),
        true,
        scale,
    )
}

fn fig17_panel(
    id: &'static str,
    mix: Mix,
    mix_name: &str,
    scale: &Scale,
    prefilled: &[(Algo, Arc<dyn BenchTarget>)],
) -> Figure {
    let wl = Workload::paper(mix, scale.fig17_elements.max(2));
    let mut series = Vec::new();
    for (algo, target) in prefilled {
        let mut points = Vec::new();
        for &t in &scale.threads {
            let ops = run_throughput(target, &wl, &cfg(scale, t));
            points.push((t as f64, ops));
        }
        series.push(Series {
            label: algo.label(),
            points,
        });
    }
    Figure {
        id,
        title: format!(
            "{mix_name}, single list, {} elements ({})",
            scale.fig17_elements, scale.name
        ),
        x_label: "threads",
        series,
    }
}

/// Prefills the three Fig. 17 structures (shared across the four panels).
fn fig17_targets(scale: &Scale) -> Vec<(Algo, Arc<dyn BenchTarget>)> {
    Algo::skiplist_comparison()
        .iter()
        .map(|&algo| {
            let t = make_target(algo, 1, paper_params());
            t.prefill(scale.fig17_elements);
            (algo, t)
        })
        .collect()
}

/// Fig. 17(a): 100% modify, Leap-LT vs the skip-list baselines.
pub fn fig17a(scale: &Scale) -> Figure {
    fig17_panel(
        "fig17a",
        Mix::write_only(),
        "100% modify",
        scale,
        &fig17_targets(scale),
    )
}

/// Fig. 17(b): 40% lookup / 40% range-query / 20% modify.
pub fn fig17b(scale: &Scale) -> Figure {
    fig17_panel(
        "fig17b",
        Mix::read_dominated(),
        "40% lookup, 40% range-query, 20% modify",
        scale,
        &fig17_targets(scale),
    )
}

/// Fig. 17(c): 100% lookup.
pub fn fig17c(scale: &Scale) -> Figure {
    fig17_panel(
        "fig17c",
        Mix::lookup_only(),
        "100% lookup",
        scale,
        &fig17_targets(scale),
    )
}

/// Fig. 17(d): 100% range-query — the paper's headline panel.
pub fn fig17d(scale: &Scale) -> Figure {
    fig17_panel(
        "fig17d",
        Mix::range_only(),
        "100% range-query",
        scale,
        &fig17_targets(scale),
    )
}

/// All four Fig. 17 panels sharing one prefill per algorithm (the paper
/// reuses the same initialized structure per configuration).
pub fn fig17_all(scale: &Scale) -> Vec<Figure> {
    let targets = fig17_targets(scale);
    vec![
        fig17_panel("fig17a", Mix::write_only(), "100% modify", scale, &targets),
        fig17_panel(
            "fig17b",
            Mix::read_dominated(),
            "40% lookup, 40% range-query, 20% modify",
            scale,
            &targets,
        ),
        fig17_panel("fig17c", Mix::lookup_only(), "100% lookup", scale, &targets),
        fig17_panel(
            "fig17d",
            Mix::range_only(),
            "100% range-query",
            scale,
            &targets,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tiny() -> Scale {
        Scale {
            name: "test",
            duration: Duration::from_millis(20),
            repeats: 1,
            threads: vec![1, 2],
            fixed_threads: 2,
            elements: 300,
            element_sweep: vec![100, 300],
            fig17_elements: 300,
        }
    }

    #[test]
    fn fig14a_has_all_series_and_points() {
        let f = fig14a(&tiny());
        assert_eq!(f.series.len(), 4);
        for s in &f.series {
            assert_eq!(s.points.len(), 2);
            for (_, ops) in &s.points {
                assert!(*ops > 0.0, "{} produced zero throughput", s.label);
            }
        }
        let table = f.to_table();
        assert!(table.contains("Leap-LT"));
        assert!(table.contains("Leap-rwlock"));
    }

    #[test]
    fn fig15b_sweeps_elements() {
        let f = fig15b(&tiny());
        assert_eq!(f.series[0].points.len(), 2);
        assert_eq!(f.series[0].points[0].0, 100.0);
        assert_eq!(f.series[0].points[1].0, 300.0);
    }

    #[test]
    fn fig17d_compares_against_skiplists() {
        let f = fig17d(&tiny());
        let labels: Vec<_> = f.series.iter().map(|s| s.label).collect();
        assert!(labels.contains(&"Skiplist-tm"));
        assert!(labels.contains(&"Skiplist-cas"));
        assert!(labels.contains(&"Leap-LT"));
    }
}
