//! The checked metrics dictionary.
//!
//! Every metric the workspace emits is declared here exactly once,
//! with its kind and unit. Two enforcement layers keep the dictionary
//! honest, in the spirit of `clk-analyze`:
//!
//! - **Runtime**: [`check_snapshot`] reports any metric present in a
//!   [`MetricsSnapshot`] that is undeclared or declared with a
//!   different kind. The `trace-diff --run` gate and the workbench
//!   integration tests fail on a non-empty report.
//! - **Lexical**: `crates/bench/tests/dict.rs` scans the workspace
//!   sources for metric-name literals at emission sites and fails on
//!   names missing from the dictionary (*undeclared*) and on
//!   dictionary entries no source emits (*stale*).
//!
//! Naming convention (enforced by [`check_dictionary`]):
//! time histograms end in `.ms` and carry [`Unit::Millis`]; counts are
//! bare names (no `.count`, `.us`, `_ms` suffixes). Dynamic name
//! families use a single `*` wildcard segment (`cancel.interrupts.*`),
//! which matches one or more characters.

use crate::metrics::{MetricValue, MetricsSnapshot};

/// What a metric measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Wall-clock milliseconds (histograms only; name ends `.ms`).
    Millis,
    /// A plain count of events/items (bare name).
    Count,
    /// A dimensionless quantity (residuals, ratios).
    Unitless,
}

/// Which metric type backs the name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

/// One dictionary entry. `name` may contain a single `*` wildcard.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub kind: MetricKind,
    pub unit: Unit,
    pub help: &'static str,
}

const fn c(name: &'static str, help: &'static str) -> MetricDef {
    MetricDef {
        name,
        kind: MetricKind::Counter,
        unit: Unit::Count,
        help,
    }
}

const fn h(name: &'static str, unit: Unit, help: &'static str) -> MetricDef {
    MetricDef {
        name,
        kind: MetricKind::Histogram,
        unit,
        help,
    }
}

const fn g(name: &'static str, help: &'static str) -> MetricDef {
    MetricDef {
        name,
        kind: MetricKind::Gauge,
        unit: Unit::Count,
        help,
    }
}

/// Every metric the workspace may emit. Exact names first, wildcard
/// families last ([`lookup`] returns the first match).
pub const DICTIONARY: &[MetricDef] = &[
    // --- clk-lp: simplex ---
    c("lp.solves", "LP solves attempted"),
    c("lp.pivots", "simplex pivots across all solves"),
    c(
        "lp.warm_solves",
        "solves started from the previous optimal basis (also in lp.solves)",
    ),
    c(
        "lp.warm_fallbacks",
        "warm solves re-run cold after failing or failing their certificate",
    ),
    c("lp.bound_flips", "nonbasic bound-flip iterations"),
    c("lp.degenerate_pivots", "pivots with zero primal step"),
    c(
        "lp.reduced_costs",
        "reduced costs computed by pricing: every column at each phase start, then per pivot the columns that read a changed dual",
    ),
    c(
        "lp.refactors",
        "kernel inverses K⁻¹ rebuilt from scratch by Gauss–Jordan elimination",
    ),
    c("lp.infeasible", "solves proven infeasible"),
    c("lp.unbounded", "solves proven unbounded"),
    c("lp.iteration_limit", "solves hitting the pivot budget"),
    c("lp.interrupted", "solves cut by a deadline/cancel"),
    c("lp.bad_problem", "solves rejected before pivoting"),
    h("lp.iters", Unit::Count, "pivots per successful solve"),
    h(
        "lp.cancel.ack_pivots",
        Unit::Count,
        "pivots the phase had run at the acknowledging poll, capped at the 16-pivot poll stride",
    ),
    // --- clk-sta: timer ---
    c(
        "sta.analyzes",
        "timing analyses, one per corner, full and cone-incremental",
    ),
    c(
        "sta.analyze.incremental",
        "cone-incremental analyses (also counted in sta.analyzes)",
    ),
    c("sta.analyze.errors", "analyses that returned an error"),
    c("sta.violations", "constraint violations observed"),
    c("sta.nodes_timed", "node retimings summed over corners"),
    h("sta.analyze.ms", Unit::Millis, "wall time per analysis"),
    h(
        "sta.eval.nodes",
        Unit::Count,
        "nodes re-timed per analysis (one observation per corner)",
    ),
    // --- clk-skewopt: fault runtime ---
    c("fault.absorbed", "faults absorbed by the recovery ladder"),
    h(
        "cancel.ack.ms",
        Unit::Millis,
        "cancellation acknowledgement latency",
    ),
    // --- clk-skewopt: global phase ---
    c("global.rounds", "global λ-iteration rounds"),
    c("global.lp_rows_built", "LP constraint rows assembled"),
    c("global.eco_interrupted", "ECO sweeps cut by cancellation"),
    c(
        "global.eco_unrealizable",
        "ECO candidates dropped as unrealizable",
    ),
    c("global.eco_accepted", "ECO candidates committed"),
    c("global.eco_rollback", "ECO sweeps rolled back"),
    // --- clk-skewopt: LP certificate checking ---
    c("cert.checks", "exact certificate checks run"),
    c("cert.violations", "certificate checks that failed"),
    h(
        "cert.check.ms",
        Unit::Millis,
        "wall time per certificate check",
    ),
    h(
        "cert.max_resid",
        Unit::Unitless,
        "max exact residual per check (decoded dyadic)",
    ),
    // --- clk-skewopt: local phase ---
    c(
        "local.predicted_positive",
        "candidates the predictor scored > 0",
    ),
    c(
        "local.golden_evals",
        "golden (full STA) candidate evaluations",
    ),
    c(
        "local.reject.panicked",
        "candidates rejected: worker panicked",
    ),
    c(
        "local.reject.apply_failed",
        "candidates rejected: move not applicable",
    ),
    c(
        "local.reject.timing_failed",
        "candidates rejected: STA error",
    ),
    c(
        "local.reject.drc",
        "candidates rejected: design-rule violation",
    ),
    c(
        "local.reject.not_improving",
        "candidates rejected: no metric gain",
    ),
    c("local.rollback", "local moves rolled back"),
    c("local.accepted", "local moves committed"),
    g("local.workers", "worker threads in the local-phase pool"),
    c(
        "local.predict.routes",
        "Steiner routes built by ranking sweeps (one per net and topology)",
    ),
    c(
        "local.predict.extractions",
        "RC extractions + moment analyses of ranking sweeps",
    ),
    h(
        "local.predict.err_ps",
        Unit::Unitless,
        "predicted-minus-golden gain error per candidate (ps)",
    ),
    // --- clk-obs: decision ledger ---
    c("ledger.records", "decision-ledger records appended"),
    c(
        "ledger.dropped_nonfinite",
        "ledger records dropped for NaN/Inf floats",
    ),
    // --- clk-bench: analyze gate ---
    c("analyze.files", "source files scanned by the analyze gate"),
    c("analyze.findings", "unsuppressed analyzer findings"),
    h(
        "analyze.ms",
        Unit::Millis,
        "wall time per workspace analysis",
    ),
    // --- clk-bench: criterion overhead probes ---
    c("bench.ctr", "overhead-probe counter (benches only)"),
    h(
        "bench.hist",
        Unit::Unitless,
        "overhead-probe histogram (benches only)",
    ),
    // --- wildcard families ---
    c("cancel.interrupts.*", "interrupts acknowledged, by phase"),
    c("global.ladder.*", "LP degradation-ladder outcomes, by rung"),
    c(
        "sta.corner.*.nodes_timed",
        "node retimings for one corner, by corner index",
    ),
    h("span.*.ms", Unit::Millis, "span durations, by span name"),
];

/// Whether `pattern` (at most one `*`, matching one or more
/// characters) matches `name`.
#[must_use]
pub fn pattern_matches(pattern: &str, name: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == name,
        Some((pre, suf)) => {
            name.len() > pre.len() + suf.len() && name.starts_with(pre) && name.ends_with(suf)
        }
    }
}

/// The dictionary entry covering `name`, if any (first match wins).
#[must_use]
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    DICTIONARY.iter().find(|d| pattern_matches(d.name, name))
}

/// Checks a live snapshot against the dictionary. Returns one line per
/// problem (undeclared name, or kind mismatch); empty means clean.
#[must_use]
pub fn check_snapshot(snap: &MetricsSnapshot) -> Vec<String> {
    let mut problems = Vec::new();
    for (name, value) in snap {
        match lookup(name) {
            None => problems.push(format!("undeclared metric: {name}")),
            Some(def) => {
                let kind = match value {
                    MetricValue::Counter(_) => MetricKind::Counter,
                    MetricValue::Gauge(_) => MetricKind::Gauge,
                    MetricValue::Histogram(_) => MetricKind::Histogram,
                };
                if kind != def.kind {
                    problems.push(format!(
                        "kind mismatch for {name}: emitted {kind:?}, declared {:?}",
                        def.kind
                    ));
                }
            }
        }
    }
    problems
}

/// Internal-consistency check of the dictionary itself: unique names,
/// unit-suffix convention, at most one `*` per pattern. Returns one
/// line per violation; pinned empty by a unit test.
#[must_use]
pub fn check_dictionary() -> Vec<String> {
    let mut problems = Vec::new();
    for (i, d) in DICTIONARY.iter().enumerate() {
        if DICTIONARY[..i].iter().any(|p| p.name == d.name) {
            problems.push(format!("duplicate entry: {}", d.name));
        }
        if d.name.matches('*').count() > 1 {
            problems.push(format!("more than one wildcard: {}", d.name));
        }
        let ends_ms = d.name.ends_with(".ms");
        match d.unit {
            Unit::Millis => {
                if !ends_ms {
                    problems.push(format!("Millis metric must end .ms: {}", d.name));
                }
                if d.kind != MetricKind::Histogram {
                    problems.push(format!("Millis metric must be a histogram: {}", d.name));
                }
            }
            Unit::Count | Unit::Unitless => {
                if ends_ms {
                    problems.push(format!(".ms name must be Unit::Millis: {}", d.name));
                }
            }
        }
        for bad in [".us", "_ms", "_us", ".count"] {
            if d.name.ends_with(bad) {
                problems.push(format!("forbidden suffix {bad}: {}", d.name));
            }
        }
        if d.kind == MetricKind::Counter && d.unit != Unit::Count {
            problems.push(format!("counter must be Unit::Count: {}", d.name));
        }
        if d.help.is_empty() {
            problems.push(format!("missing help: {}", d.name));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn dictionary_is_internally_consistent() {
        assert_eq!(check_dictionary(), Vec::<String>::new());
    }

    #[test]
    fn wildcard_matching() {
        assert!(pattern_matches("span.*.ms", "span.phase.global.ms"));
        assert!(pattern_matches("span.*.ms", "span.lp.solve.ms"));
        assert!(!pattern_matches("span.*.ms", "span..ms"));
        assert!(!pattern_matches("span.*.ms", "sta.analyze.ms"));
        assert!(pattern_matches(
            "cancel.interrupts.*",
            "cancel.interrupts.global"
        ));
        assert!(!pattern_matches(
            "cancel.interrupts.*",
            "cancel.interrupts."
        ));
        assert!(pattern_matches("lp.solves", "lp.solves"));
        assert!(!pattern_matches("lp.solves", "lp.solves2"));
    }

    #[test]
    fn lookup_prefers_exact_entries() {
        let d = lookup("sta.analyze.ms").expect("declared");
        assert_eq!(d.name, "sta.analyze.ms");
        let d = lookup("span.sta.analyze.ms").expect("wildcard");
        assert_eq!(d.name, "span.*.ms");
        assert!(lookup("no.such.metric").is_none());
    }

    #[test]
    fn snapshot_check_flags_undeclared_and_mismatched() {
        let reg = Registry::default();
        reg.counter("lp.solves").add(1);
        reg.counter("made.up.metric").add(1);
        reg.histogram("sta.analyzes").observe(1.0); // declared as counter
        let problems = check_snapshot(&reg.snapshot());
        assert_eq!(problems.len(), 2);
        assert!(problems.iter().any(|p| p.contains("made.up.metric")));
        assert!(problems
            .iter()
            .any(|p| p.contains("kind mismatch for sta.analyzes")));
    }

    #[test]
    fn clean_snapshot_passes() {
        let reg = Registry::default();
        reg.counter("lp.solves").add(1);
        reg.histogram("span.flow.ms").observe(3.0);
        reg.counter("cancel.interrupts.global").add(1);
        assert!(check_snapshot(&reg.snapshot()).is_empty());
    }
}
