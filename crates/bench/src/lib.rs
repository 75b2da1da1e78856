// float arithmetic is the domain here; the workspace lint exists for
// exact-arithmetic code (clk-cert escalates it to deny)
#![allow(clippy::float_arithmetic)]
#![warn(missing_docs)]

//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§5). Each `src/bin/<id>.rs` binary prints the rows/series
//! of one table or figure; `benches/` holds the Criterion performance
//! counterparts. See DESIGN.md §5 for the experiment index and
//! EXPERIMENTS.md for recorded paper-vs-measured results.

pub mod suite;

pub use suite::{suite_cases, PreparedCase, SuiteCase};

use std::time::Instant;

/// The source revision a recorded artifact comes from: the commit and
/// whether the tracked files differ from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// `HEAD`'s 12-digit short hash; `unknown` outside a git checkout.
    pub rev: String,
    /// Whether tracked files differ from `HEAD`; `None` when git cannot
    /// tell.
    pub dirty: Option<bool>,
}

impl Provenance {
    /// Reads the provenance of the working directory's checkout.
    pub fn of_checkout() -> Self {
        let git = |args: &[&str]| {
            std::process::Command::new("git")
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
        };
        let rev = git(&["rev-parse", "--short=12", "HEAD"])
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty());
        let dirty = rev.as_ref().and(
            git(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.trim().is_empty()),
        );
        Provenance {
            rev: rev.unwrap_or_else(|| "unknown".to_string()),
            dirty,
        }
    }

    /// The stamp recorded artifacts carry: the rev, suffixed `-dirty`
    /// unless the tree is known to be clean.
    pub fn stamp(&self) -> String {
        match self.dirty {
            Some(false) => self.rev.clone(),
            _ if self.rev == "unknown" => self.rev.clone(),
            _ => format!("{}-dirty", self.rev),
        }
    }
}

/// Simple elapsed-time scope guard used by the experiment binaries.
pub struct Stopwatch {
    label: String,
    start: Instant,
}

impl Stopwatch {
    /// Starts timing `label`.
    pub fn start(label: impl Into<String>) -> Self {
        Stopwatch {
            label: label.into(),
            start: clk_obs::wall_now(),
        }
    }

    /// Prints and returns the elapsed seconds.
    pub fn report(&self) -> f64 {
        let s = self.start.elapsed().as_secs_f64();
        eprintln!("[{}] {:.1}s", self.label, s);
        s
    }
}

/// Parses `--sinks N` / `--seed N` / `--quick` style experiment flags.
#[derive(Debug, Clone)]
pub struct ExpArgs {
    /// Sink count per testcase (scaled-down default per experiment).
    pub sinks: Option<usize>,
    /// Generator seed.
    pub seed: u64,
    /// Quick mode: smallest sizes, for smoke runs.
    pub quick: bool,
}

impl ExpArgs {
    /// Parses the process arguments (unknown flags are ignored).
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().collect())
    }

    /// Parses an explicit argument vector (`args[0]` is the program name).
    pub fn parse_from(args: Vec<String>) -> Self {
        let mut out = ExpArgs {
            sinks: None,
            seed: 1,
            quick: false,
        };
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--sinks" => {
                    if let Some(v) = args.get(i + 1).and_then(|v| v.parse().ok()) {
                        out.sinks = Some(v);
                        i += 1;
                    }
                }
                "--seed" => {
                    if let Some(v) = args.get(i + 1).and_then(|v| v.parse().ok()) {
                        out.seed = v;
                        i += 1;
                    }
                }
                "--quick" => out.quick = true,
                _ => {}
            }
            i += 1;
        }
        out
    }
}

/// Renders a crude ASCII histogram (one row per bin) for figure-style
/// outputs.
pub fn ascii_histogram(values: &[f64], n_bins: usize, width: usize) -> String {
    if values.is_empty() {
        return String::from("(no data)\n");
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-12);
    let mut bins = vec![0usize; n_bins];
    for &v in values {
        let b = (((v - lo) / span) * n_bins as f64) as usize;
        bins[b.min(n_bins - 1)] += 1;
    }
    let peak = bins.iter().copied().max().unwrap_or(1).max(1) as f64;
    let mut out = String::new();
    for (i, &count) in bins.iter().enumerate() {
        let a = lo + span * i as f64 / n_bins as f64;
        let b = lo + span * (i + 1) as f64 / n_bins as f64;
        let bar = "#".repeat(((count as f64 / peak) * width as f64).round() as usize);
        out.push_str(&format!("[{a:8.2} .. {b:8.2})  {count:5}  {bar}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        std::iter::once("prog")
            .chain(parts.iter().copied())
            .map(String::from)
            .collect()
    }

    #[test]
    fn exp_args_parse_all_flags() {
        let a = ExpArgs::parse_from(argv(&["--sinks", "96", "--seed", "7", "--quick"]));
        assert_eq!(a.sinks, Some(96));
        assert_eq!(a.seed, 7);
        assert!(a.quick);
    }

    #[test]
    fn exp_args_defaults_and_garbage() {
        let a = ExpArgs::parse_from(argv(&["--bogus", "--sinks", "not-a-number"]));
        assert_eq!(a.sinks, None);
        assert_eq!(a.seed, 1);
        assert!(!a.quick);
    }

    #[test]
    fn stopwatch_reports_nonnegative() {
        let sw = Stopwatch::start("t");
        assert!(sw.report() >= 0.0);
    }

    #[test]
    fn histogram_covers_all_values() {
        // bins are half-open: [0, 0.5) gets only 0.0; [0.5, 1.0] the rest
        let h = ascii_histogram(&[0.0, 0.5, 1.0, 1.0, 1.0], 2, 10);
        assert!(h.contains("    1  "), "{h}");
        assert!(h.contains("    4  "), "{h}");
        assert_eq!(ascii_histogram(&[], 3, 10), "(no data)\n");
    }

    #[test]
    fn provenance_stamp_marks_all_but_a_clean_tree() {
        let at = |dirty| Provenance {
            rev: "0123456789ab".to_string(),
            dirty,
        };
        assert_eq!(at(Some(false)).stamp(), "0123456789ab");
        assert_eq!(at(Some(true)).stamp(), "0123456789ab-dirty");
        assert_eq!(at(None).stamp(), "0123456789ab-dirty");
        let unknown = Provenance {
            rev: "unknown".to_string(),
            dirty: None,
        };
        assert_eq!(unknown.stamp(), "unknown");
    }
}
