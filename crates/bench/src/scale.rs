//! Scale presets: the paper's full settings versus laptop/CI-sized runs.

use std::time::Duration;

/// How big a figure sweep should be.
///
/// `paper` reproduces the published parameters (10-second runs, three
/// repetitions, thread counts to 80, 10M-element points); `quick` and
/// `medium` shrink durations and sweeps for constrained machines — the
/// *shape* comparisons (who wins, by what factor) remain meaningful.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Human-readable preset name.
    pub name: &'static str,
    /// Measured duration per point.
    pub duration: Duration,
    /// Repetitions averaged per point.
    pub repeats: usize,
    /// Thread sweep for Figs. 14 and 17.
    pub threads: Vec<usize>,
    /// Thread count for the fixed-thread figures (15 and 16; paper: 80).
    pub fixed_threads: usize,
    /// Initial elements per list for Figs. 14, 16 and the element sweep cap
    /// for Fig. 15.
    pub elements: u64,
    /// Element sweep for Fig. 15 (paper: 1k..10M).
    pub element_sweep: Vec<u64>,
    /// Initial elements for Fig. 17 (paper: 1M).
    pub fig17_elements: u64,
}

impl Scale {
    /// Seconds-long smoke preset (CI).
    pub fn quick() -> Self {
        Scale {
            name: "quick",
            duration: Duration::from_millis(200),
            repeats: 1,
            threads: vec![1, 2, 4],
            fixed_threads: 4,
            elements: 20_000,
            element_sweep: vec![1_000, 10_000, 100_000],
            fig17_elements: 50_000,
        }
    }

    /// Minutes-long preset, the `figures` default. `EXPERIMENTS.md` records
    /// every panel at this scale on a 2-vCPU guest (variant ordering at 1–2
    /// threads and the range-vs-point crossover are readable there; scaling
    /// is not).
    pub fn medium() -> Self {
        Scale {
            name: "medium",
            duration: Duration::from_millis(500),
            repeats: 2,
            threads: vec![1, 2, 4, 8],
            fixed_threads: 8,
            elements: 100_000,
            element_sweep: vec![1_000, 10_000, 100_000, 1_000_000],
            fig17_elements: 300_000,
        }
    }

    /// The paper's settings (hours on a large machine).
    pub fn paper() -> Self {
        Scale {
            name: "paper",
            duration: Duration::from_secs(10),
            repeats: 3,
            threads: vec![1, 2, 4, 8, 16, 32, 40, 64, 80],
            fixed_threads: 80,
            elements: 100_000,
            element_sweep: vec![1_000, 10_000, 100_000, 1_000_000, 10_000_000],
            fig17_elements: 1_000_000,
        }
    }

    /// Parses a preset name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "quick" => Some(Self::quick()),
            "medium" => Some(Self::medium()),
            "paper" => Some(Self::paper()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_parse_by_name() {
        assert_eq!(Scale::from_name("quick").unwrap().name, "quick");
        assert_eq!(Scale::from_name("medium").unwrap().name, "medium");
        assert_eq!(Scale::from_name("paper").unwrap().name, "paper");
        assert!(Scale::from_name("bogus").is_none());
    }

    #[test]
    fn paper_matches_published_settings() {
        let p = Scale::paper();
        assert_eq!(p.duration, Duration::from_secs(10));
        assert_eq!(p.repeats, 3);
        assert_eq!(*p.threads.last().unwrap(), 80);
        assert_eq!(p.elements, 100_000);
        assert_eq!(p.fig17_elements, 1_000_000);
        assert_eq!(*p.element_sweep.last().unwrap(), 10_000_000);
    }
}
