//! Noise-aware snapshot diffing: per-metric tolerance bands with
//! improve / neutral / regress verdicts, and the text report the
//! `clk-bench --bin gate` prints.
//!
//! Gating rules:
//!
//! * *QoR* metrics (variation sum, per-corner skew, cells, area,
//!   power, wirelength — all lower-is-better) gate with a relative
//!   band plus an absolute floor, so tiny designs are not failed on
//!   sub-picosecond jitter.
//! * *Performance* metrics (runtime, per-phase wall clock) and all raw
//!   counters are informational: they are reported but never fail the
//!   gate, because wall clock on a loaded CI machine is not a QoR
//!   regression.
//! * A schema-version or suite mismatch fails the gate outright — a
//!   diff across schemas is meaningless.

use std::fmt::Write as _;

use crate::snapshot::{QorSnapshot, TestcaseQor};

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Smaller is better (skew, area, power…).
    LowerBetter,
    /// Larger is better.
    HigherBetter,
    /// Reported, never gated (runtime, counters).
    Info,
}

/// Tolerance band of one metric family.
#[derive(Debug, Clone, Copy)]
pub struct Tolerance {
    /// Relative band as a fraction of the baseline value.
    pub rel: f64,
    /// Absolute floor of the band, in the metric's own unit.
    pub abs: f64,
    /// Gating direction.
    pub direction: Direction,
}

impl Tolerance {
    const fn new(rel: f64, abs: f64, direction: Direction) -> Self {
        Tolerance {
            rel,
            abs,
            direction,
        }
    }

    /// The half-width of the neutral band around `base`.
    pub fn band(&self, base: f64) -> f64 {
        self.abs.max(self.rel * base.abs())
    }
}

/// Maps metric names (the key's last segment) to tolerance bands.
///
/// Rules match by prefix so `skew_after_ps[c1]` hits the
/// `skew_after_ps` rule; the first matching rule wins; everything
/// unmatched is informational.
#[derive(Debug, Clone)]
pub struct TolerancePolicy {
    rules: Vec<(String, Tolerance)>,
}

impl TolerancePolicy {
    /// The default QoR gate: 2% relative bands with unit-scaled
    /// absolute floors on after-metrics; before-metrics, runtime and
    /// counters informational.
    pub fn default_qor() -> Self {
        let gate = |name: &str, rel: f64, abs: f64| {
            (
                name.to_string(),
                Tolerance::new(rel, abs, Direction::LowerBetter),
            )
        };
        TolerancePolicy {
            rules: vec![
                gate("variation_after_ps", 0.02, 1.0),
                gate("skew_after_ps", 0.02, 0.5),
                gate("cells_after", 0.02, 2.0),
                gate("area_after_um2", 0.02, 5.0),
                gate("power_after_mw", 0.02, 0.05),
                gate("wirelength_um", 0.02, 10.0),
                gate("faults_absorbed", 0.0, 0.0),
            ],
        }
    }

    /// Overrides or appends the band for one metric family.
    pub fn set(&mut self, name: &str, tol: Tolerance) {
        if let Some(slot) = self.rules.iter_mut().find(|(n, _)| n == name) {
            slot.1 = tol;
        } else {
            self.rules.push((name.to_string(), tol));
        }
    }

    /// The band for `metric` (an informational band when no rule
    /// matches).
    pub fn for_metric(&self, metric: &str) -> Tolerance {
        self.rules
            .iter()
            .find(|(n, _)| metric.starts_with(n.as_str()))
            .map_or(Tolerance::new(0.0, 0.0, Direction::Info), |(_, t)| *t)
    }
}

/// Outcome of one metric comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Beyond tolerance in the good direction.
    Improved,
    /// Within the tolerance band.
    Neutral,
    /// Beyond tolerance in the bad direction — fails the gate.
    Regressed,
    /// Informational metric; never gates.
    Info,
}

impl Verdict {
    /// Short tag used in the text report.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Neutral => "neutral",
            Verdict::Regressed => "REGRESSED",
            Verdict::Info => "info",
        }
    }
}

/// One compared metric.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Full metric key, `"{testcase}/{flow}.{metric}"`.
    pub key: String,
    /// Baseline value.
    pub base: f64,
    /// Current value.
    pub cur: f64,
    /// Verdict under the applied tolerance.
    pub verdict: Verdict,
}

impl Delta {
    /// Relative change vs the baseline (`0.0` when the baseline is 0).
    pub fn rel_change(&self) -> f64 {
        if self.base.abs() <= f64::EPSILON {
            0.0
        } else {
            (self.cur - self.base) / self.base.abs()
        }
    }
}

/// Result of diffing two snapshots.
#[derive(Debug, Clone, Default)]
pub struct QorDiff {
    /// Every compared metric.
    pub deltas: Vec<Delta>,
    /// Structural problems (schema mismatch, missing testcases). Any
    /// note fails the gate.
    pub notes: Vec<String>,
}

impl QorDiff {
    /// Whether the gate must fail: any regressed metric or structural
    /// note.
    pub fn has_regressions(&self) -> bool {
        !self.notes.is_empty() || self.deltas.iter().any(|d| d.verdict == Verdict::Regressed)
    }

    /// The regressed metrics.
    pub fn regressions(&self) -> impl Iterator<Item = &Delta> {
        self.deltas
            .iter()
            .filter(|d| d.verdict == Verdict::Regressed)
    }

    /// Renders the diff as an aligned text report. `verbose` includes
    /// neutral and informational rows; otherwise only improvements and
    /// regressions are listed.
    pub fn to_text(&self, verbose: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<44} {:>12} {:>12} {:>8}  verdict",
            "metric", "baseline", "current", "Δ%"
        );
        for d in &self.deltas {
            if !verbose && matches!(d.verdict, Verdict::Neutral | Verdict::Info) {
                continue;
            }
            let _ = writeln!(
                out,
                "{:<44} {:>12.3} {:>12.3} {:>7.2}%  {}",
                d.key,
                d.base,
                d.cur,
                100.0 * d.rel_change(),
                d.verdict.as_str()
            );
        }
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        let (mut imp, mut neu, mut reg, mut info) = (0usize, 0usize, 0usize, 0usize);
        for d in &self.deltas {
            match d.verdict {
                Verdict::Improved => imp += 1,
                Verdict::Neutral => neu += 1,
                Verdict::Regressed => reg += 1,
                Verdict::Info => info += 1,
            }
        }
        let _ = writeln!(
            out,
            "summary: {imp} improved, {neu} neutral, {reg} regressed, {info} informational"
        );
        out
    }
}

/// Flattens one testcase record into `(metric name, value)` pairs.
fn metrics_of(tc: &TestcaseQor) -> Vec<(String, f64)> {
    let mut m: Vec<(String, f64)> = vec![
        ("variation_before_ps".to_string(), tc.variation_before_ps),
        ("variation_after_ps".to_string(), tc.variation_after_ps),
        ("cells_before".to_string(), tc.cells_before as f64),
        ("cells_after".to_string(), tc.cells_after as f64),
        ("area_before_um2".to_string(), tc.area_before_um2),
        ("area_after_um2".to_string(), tc.area_after_um2),
        ("power_before_mw".to_string(), tc.power_before_mw),
        ("power_after_mw".to_string(), tc.power_after_mw),
        ("wirelength_um".to_string(), tc.wirelength_um),
        ("runtime_ms".to_string(), tc.runtime_ms),
        ("lp_rounds".to_string(), tc.lp_rounds as f64),
        ("lp_iterations".to_string(), tc.lp_iterations as f64),
        ("eco_accepts".to_string(), tc.eco_accepts as f64),
        ("eco_rejects".to_string(), tc.eco_rejects as f64),
        ("local_accepts".to_string(), tc.local_accepts as f64),
        ("local_rejects".to_string(), tc.local_rejects as f64),
        ("golden_evals".to_string(), tc.golden_evals as f64),
        ("faults_absorbed".to_string(), tc.faults_absorbed as f64),
        ("cert_checked".to_string(), tc.cert_checked as f64),
        ("cert_max_resid".to_string(), tc.cert_max_resid),
        ("lp_pivots".to_string(), tc.lp_pivots as f64),
        ("lp_bound_flips".to_string(), tc.lp_bound_flips as f64),
        (
            "lp_degenerate_pivots".to_string(),
            tc.lp_degenerate_pivots as f64,
        ),
        ("lp_degenerate_ratio".to_string(), tc.lp_degenerate_ratio),
    ];
    for c in &tc.corners {
        m.push((format!("skew_before_ps[{}]", c.name), c.skew_before_ps));
        m.push((format!("skew_after_ps[{}]", c.name), c.skew_after_ps));
    }
    for p in &tc.phases {
        m.push((format!("wall_ms[{}]", p.name), p.wall_ms));
    }
    m
}

/// Diffs `cur` against `base` under `policy`.
///
/// Testcases are matched by `(id, flow)`; a testcase present in the
/// baseline but absent from the current run (or vice versa) is a
/// structural note and fails the gate. Counters are compared only when
/// both sides carry them, always informationally.
pub fn diff_snapshots(base: &QorSnapshot, cur: &QorSnapshot, policy: &TolerancePolicy) -> QorDiff {
    let mut diff = QorDiff::default();
    if base.schema_version != cur.schema_version {
        diff.notes.push(format!(
            "schema_version mismatch: baseline {} vs current {}",
            base.schema_version, cur.schema_version
        ));
        return diff;
    }
    if base.suite != cur.suite {
        diff.notes.push(format!(
            "suite mismatch: baseline '{}' vs current '{}'",
            base.suite, cur.suite
        ));
    }
    if base.seed != cur.seed {
        diff.notes.push(format!(
            "seed mismatch: baseline {} vs current {} (the gate needs a fixed seed)",
            base.seed, cur.seed
        ));
    }
    for btc in &base.testcases {
        let Some(ctc) = cur
            .testcases
            .iter()
            .find(|t| t.id == btc.id && t.flow == btc.flow)
        else {
            diff.notes.push(format!(
                "testcase {}/{} missing from current run",
                btc.id, btc.flow
            ));
            continue;
        };
        let cur_metrics = metrics_of(ctc);
        for (metric, bval) in metrics_of(btc) {
            let Some((_, cval)) = cur_metrics.iter().find(|(m, _)| *m == metric) else {
                diff.notes.push(format!(
                    "{}/{}.{metric} missing from current run",
                    btc.id, btc.flow
                ));
                continue;
            };
            let tol = policy.for_metric(&metric);
            let d = *cval - bval;
            let band = tol.band(bval);
            let verdict = match tol.direction {
                Direction::Info => Verdict::Info,
                Direction::LowerBetter if d > band => Verdict::Regressed,
                Direction::LowerBetter if d < -band => Verdict::Improved,
                Direction::HigherBetter if d < -band => Verdict::Regressed,
                Direction::HigherBetter if d > band => Verdict::Improved,
                _ => Verdict::Neutral,
            };
            diff.deltas.push(Delta {
                key: format!("{}/{}.{metric}", btc.id, btc.flow),
                base: bval,
                cur: *cval,
                verdict,
            });
        }
        for (name, bval) in &btc.counters {
            if let Some((_, cval)) = ctc.counters.iter().find(|(n, _)| n == name) {
                diff.deltas.push(Delta {
                    key: format!("{}/{}.counter.{name}", btc.id, btc.flow),
                    base: *bval,
                    cur: *cval,
                    verdict: Verdict::Info,
                });
            }
        }
    }
    for ctc in &cur.testcases {
        if !base
            .testcases
            .iter()
            .any(|t| t.id == ctc.id && t.flow == ctc.flow)
        {
            diff.notes.push(format!(
                "testcase {}/{} absent from the baseline (refresh qor-baseline.json)",
                ctc.id, ctc.flow
            ));
        }
    }
    diff
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{CornerQor, PhaseQor};

    fn tc(id: &str) -> TestcaseQor {
        TestcaseQor {
            id: id.to_string(),
            flow: "global-local".to_string(),
            variation_before_ps: 100.0,
            variation_after_ps: 80.0,
            corners: vec![CornerQor {
                name: "c0".to_string(),
                skew_before_ps: 30.0,
                skew_after_ps: 29.0,
            }],
            cells_before: 50,
            cells_after: 51,
            area_before_um2: 200.0,
            area_after_um2: 205.0,
            power_before_mw: 1.0,
            power_after_mw: 1.02,
            wirelength_um: 5000.0,
            runtime_ms: 900.0,
            phases: vec![PhaseQor {
                name: "phase.global".to_string(),
                wall_ms: 500.0,
            }],
            lp_rounds: 4,
            lp_iterations: 120,
            eco_accepts: 2,
            eco_rejects: 2,
            local_accepts: 3,
            local_rejects: 9,
            golden_evals: 12,
            faults_absorbed: 0,
            cert_checked: 4,
            cert_max_resid: 1e-9,
            lp_pivots: 120,
            lp_bound_flips: 6,
            lp_degenerate_pivots: 30,
            lp_degenerate_ratio: 0.25,
            counters: vec![("lp.solves".to_string(), 4.0)],
        }
    }

    fn snap() -> QorSnapshot {
        let mut s = QorSnapshot::new("rev", 2015, "quick");
        s.testcases.push(tc("CLS1v1"));
        s
    }

    #[test]
    fn self_diff_is_clean() {
        let s = snap();
        let d = diff_snapshots(&s, &s, &TolerancePolicy::default_qor());
        assert!(!d.has_regressions(), "{}", d.to_text(true));
        assert!(d.regressions().next().is_none());
    }

    #[test]
    fn regression_beyond_band_fails_and_is_reported() {
        let base = snap();
        let mut cur = snap();
        cur.testcases[0].variation_after_ps = 90.0; // +12.5% > 2%
        let d = diff_snapshots(&base, &cur, &TolerancePolicy::default_qor());
        assert!(d.has_regressions());
        let r: Vec<&Delta> = d.regressions().collect();
        assert_eq!(r.len(), 1);
        assert!(r[0].key.ends_with("variation_after_ps"), "{}", r[0].key);
        assert!(d.to_text(false).contains("REGRESSED"));
    }

    #[test]
    fn improvement_beyond_band_is_not_a_failure() {
        let base = snap();
        let mut cur = snap();
        cur.testcases[0].variation_after_ps = 60.0;
        cur.testcases[0].corners[0].skew_after_ps = 20.0;
        let d = diff_snapshots(&base, &cur, &TolerancePolicy::default_qor());
        assert!(!d.has_regressions(), "{}", d.to_text(true));
        assert_eq!(
            d.deltas
                .iter()
                .filter(|x| x.verdict == Verdict::Improved)
                .count(),
            2
        );
    }

    #[test]
    fn noise_within_band_is_neutral() {
        let base = snap();
        let mut cur = snap();
        cur.testcases[0].variation_after_ps = 80.9; // < max(1.0, 2%·80)
        cur.testcases[0].corners[0].skew_after_ps = 29.3;
        let d = diff_snapshots(&base, &cur, &TolerancePolicy::default_qor());
        assert!(!d.has_regressions(), "{}", d.to_text(true));
    }

    #[test]
    fn runtime_blowup_is_informational() {
        let base = snap();
        let mut cur = snap();
        cur.testcases[0].runtime_ms = 90000.0;
        cur.testcases[0].phases[0].wall_ms = 80000.0;
        cur.testcases[0].counters[0].1 = 99.0;
        let d = diff_snapshots(&base, &cur, &TolerancePolicy::default_qor());
        assert!(!d.has_regressions(), "{}", d.to_text(true));
    }

    #[test]
    fn new_absorbed_fault_regresses() {
        let base = snap();
        let mut cur = snap();
        cur.testcases[0].faults_absorbed = 1;
        let d = diff_snapshots(&base, &cur, &TolerancePolicy::default_qor());
        assert!(d.has_regressions());
    }

    #[test]
    fn schema_or_membership_mismatch_fails_the_gate() {
        let base = snap();
        let mut cur = snap();
        cur.schema_version = 2;
        assert!(diff_snapshots(&base, &cur, &TolerancePolicy::default_qor()).has_regressions());
        let mut cur = snap();
        cur.testcases.clear();
        let d = diff_snapshots(&base, &cur, &TolerancePolicy::default_qor());
        assert!(d.has_regressions());
        assert!(d.notes[0].contains("missing"), "{:?}", d.notes);
    }

    #[test]
    fn policy_overrides_apply() {
        let mut p = TolerancePolicy::default_qor();
        p.set(
            "runtime_ms",
            Tolerance {
                rel: 0.5,
                abs: 0.0,
                direction: Direction::LowerBetter,
            },
        );
        let base = snap();
        let mut cur = snap();
        cur.testcases[0].runtime_ms = 2000.0;
        assert!(diff_snapshots(&base, &cur, &p).has_regressions());
    }
}
