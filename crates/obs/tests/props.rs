//! Property and concurrency tests for the `clk-obs` primitives:
//! histogram quantiles against a sorted-vec oracle, histogram-snapshot
//! merging, the folded-stack exporter, counter updates from racing
//! threads, and JSONL sink round-trip parsing.

// float arithmetic is the domain here; the workspace lint exists for
// exact-arithmetic code (clk-cert escalates it to deny)
#![allow(clippy::float_arithmetic, clippy::float_cmp)]

use clk_obs::ledger::{self, LedgerError, LedgerRecord, MoveRec};
use clk_obs::profile::{from_folded, to_folded};
use clk_obs::{
    json, kv, AppendOutcome, AttrNode, HistSnapshot, Ledger, Level, Obs, ObsConfig, SharedBuf,
    Value,
};
use proptest::prelude::*;

/// Exact nearest-rank quantile over a sample set — the oracle the
/// log-linear histogram is checked against.
fn oracle_quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn histogram_quantiles_track_oracle(
        samples in prop::collection::vec(1e-6f64..1e6, 1..400),
        q in 0.0f64..=1.0,
    ) {
        let h = clk_obs::Histogram::default();
        for &s in &samples {
            h.observe(s);
        }
        let snap = h.snapshot();
        prop_assert_eq!(snap.count, samples.len() as u64);

        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        let exact = oracle_quantile(&sorted, q);
        let est = snap.quantile(q);
        // log-linear buckets are ~9% wide; allow 15% relative slack
        prop_assert!(
            (est - exact).abs() <= exact.abs() * 0.15 + 1e-9,
            "q={} est={} exact={}", q, est, exact
        );

        let exact_sum: f64 = samples.iter().sum();
        prop_assert!((snap.sum - exact_sum).abs() <= exact_sum.abs() * 1e-9 + 1e-9);
        prop_assert_eq!(snap.min, sorted[0]);
        prop_assert_eq!(snap.max, sorted[sorted.len() - 1]);
    }

    #[test]
    fn histogram_handles_zero_and_negative(
        samples in prop::collection::vec(-100.0f64..100.0, 1..100),
    ) {
        let h = clk_obs::Histogram::default();
        for &s in &samples {
            h.observe(s);
        }
        let snap = h.snapshot();
        prop_assert_eq!(snap.count, samples.len() as u64);
        // quantiles stay inside the observed range
        for &q in &[0.0, 0.5, 1.0] {
            let est = snap.quantile(q);
            prop_assert!(est >= snap.min - 1e-12 && est <= snap.max + 1e-12);
        }
    }

    #[test]
    fn jsonl_round_trips_arbitrary_fields(
        n in 0u64..1_000_000,
        x in -1e9f64..1e9,
        s in prop::collection::vec(0u8..128, 0..32),
    ) {
        let text: String = s.into_iter().map(|b| b as char).collect();
        let obs = Obs::new(ObsConfig { verbosity: Level::Trace, ..ObsConfig::default() });
        let buf = SharedBuf::new();
        obs.add_jsonl_buffer(&buf);
        obs.event(
            Level::Debug,
            "prop.event",
            vec![kv("n", n), kv("x", x), kv("s", text.as_str())],
        );
        obs.flush();
        let line = buf.contents();
        let v = json::parse(line.trim()).expect("emitted line parses");
        let fields = v.get("fields").expect("fields present");
        prop_assert_eq!(fields.get("n").and_then(Value::as_u64), Some(n));
        let got_x = fields.get("x").and_then(Value::as_f64).expect("x");
        prop_assert!((got_x - x).abs() <= x.abs() * 1e-12 + 1e-12);
        prop_assert_eq!(fields.get("s").and_then(Value::as_str), Some(text.as_str()));
    }
}

/// Builds an attribution tree from `(path, self_us)` leaves with
/// whole-microsecond self times, the unit the folded format carries
/// exactly.
fn tree_from_paths(paths: &[(Vec<String>, u64)]) -> AttrNode {
    fn insert(node: &mut AttrNode, path: &[String], self_us: u64) {
        node.total_ns += self_us * 1000;
        let Some((head, rest)) = path.split_first() else {
            return;
        };
        let at = match node.children.iter().position(|c| &c.name == head) {
            Some(i) => i,
            None => {
                let mut fresh = AttrNode::root();
                fresh.name = head.clone();
                node.children.push(fresh);
                node.children.len() - 1
            }
        };
        node.children[at].count += 1;
        insert(&mut node.children[at], rest, self_us);
    }
    fn sort(node: &mut AttrNode) {
        node.children.sort_by(|a, b| a.name.cmp(&b.name));
        for c in &mut node.children {
            sort(c);
        }
    }
    let mut root = AttrNode::root();
    for (path, self_us) in paths {
        insert(&mut root, path, *self_us);
    }
    sort(&mut root);
    root
}

/// Total folded weight (µs) of a folded-stack document.
fn folded_weight(s: &str) -> u64 {
    s.lines()
        .filter_map(|l| l.rsplit_once(' '))
        .filter_map(|(_, w)| w.parse::<u64>().ok())
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `to_folded` → `from_folded` → `to_folded` is a fixpoint, and
    /// the total self-time weight survives the round trip.
    #[test]
    fn folded_stack_round_trips(
        raw in prop::collection::vec(
            (prop::collection::vec(0usize..4, 1..4), 0u64..5000),
            1..24,
        ),
    ) {
        const FRAMES: [&str; 4] = ["lp.solve", "pricing", "ratio_test", "basis_update"];
        let paths: Vec<(Vec<String>, u64)> = raw
            .into_iter()
            .map(|(segs, w)| (segs.into_iter().map(|i| FRAMES[i].to_string()).collect(), w))
            .collect();
        let tree = tree_from_paths(&paths);
        let folded = to_folded(&tree);
        let back = from_folded(&folded);
        let folded2 = to_folded(&back);
        prop_assert_eq!(&folded, &folded2, "round trip must be a fixpoint");
        // every whole-µs self weight is representable, so nothing is
        // lost to truncation and the totals must agree exactly
        let total_us: u64 = paths.iter().map(|(_, w)| *w).sum();
        prop_assert_eq!(folded_weight(&folded), total_us);
        prop_assert_eq!(folded_weight(&folded2), total_us);
    }

    /// Merging two snapshots equals snapshotting one histogram fed
    /// both sample sets (modulo float summation order).
    #[test]
    fn hist_merge_matches_combined_histogram(
        a in prop::collection::vec(1e-3f64..1e4, 0..80),
        b in prop::collection::vec(1e-3f64..1e4, 0..80),
    ) {
        let (ha, hb, hab) = (
            clk_obs::Histogram::default(),
            clk_obs::Histogram::default(),
            clk_obs::Histogram::default(),
        );
        for &v in &a { ha.observe(v); hab.observe(v); }
        for &v in &b { hb.observe(v); hab.observe(v); }
        let mut merged = ha.snapshot();
        merged.merge(&hb.snapshot());
        let combined = hab.snapshot();
        prop_assert_eq!(merged.count, combined.count);
        prop_assert_eq!(merged.min, combined.min);
        prop_assert_eq!(merged.max, combined.max);
        prop_assert_eq!(&merged.buckets, &combined.buckets);
        prop_assert!((merged.sum - combined.sum).abs() <= combined.sum.abs() * 1e-12 + 1e-12);
    }
}

#[test]
fn hist_merge_of_two_empties_is_empty() {
    let mut a = HistSnapshot::default();
    a.merge(&HistSnapshot::default());
    assert_eq!(a.count, 0);
    assert_eq!(a.sum, 0.0);
    assert!(a.buckets.is_empty());
    assert_eq!(a.quantile(0.5), 0.0);
}

#[test]
fn hist_merge_into_empty_clones_the_other_side() {
    let h = clk_obs::Histogram::default();
    h.observe(3.5);
    h.observe(7.0);
    let other = h.snapshot();
    let mut empty = HistSnapshot::default();
    empty.merge(&other);
    assert_eq!(empty, other);
    // and the reverse direction leaves the populated side unchanged
    let mut populated = other.clone();
    populated.merge(&HistSnapshot::default());
    assert_eq!(populated, other);
}

#[test]
fn hist_merge_single_bucket_accumulates() {
    // identical samples land in one bucket; merging adds counts there
    let (h1, h2) = (clk_obs::Histogram::default(), clk_obs::Histogram::default());
    for _ in 0..3 {
        h1.observe(42.0);
    }
    for _ in 0..5 {
        h2.observe(42.0);
    }
    let mut s = h1.snapshot();
    s.merge(&h2.snapshot());
    assert_eq!(s.count, 8);
    assert_eq!(s.buckets.len(), 1);
    assert_eq!(s.buckets[0].1, 8);
    assert_eq!(s.min, 42.0);
    assert_eq!(s.max, 42.0);
}

#[test]
#[should_panic(expected = "mismatched histogram boundaries")]
fn hist_merge_rejects_foreign_bucket_ranges() {
    let mut a = HistSnapshot::default();
    let foreign = HistSnapshot {
        count: 1,
        sum: 1.0,
        min: 1.0,
        max: 1.0,
        buckets: vec![(u32::MAX, 1)],
    };
    a.merge(&foreign);
}

#[test]
fn counters_survive_racing_threads() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    let obs = Obs::new(ObsConfig::default());
    let counter = obs.counter("race.hits").expect("enabled");
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let counter = std::sync::Arc::clone(&counter);
            let obs = obs.clone();
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    counter.inc();
                    // exercise the by-name path concurrently too
                    if i % 100 == 0 {
                        obs.count("race.named", 1);
                    }
                }
            });
        }
    });
    assert_eq!(counter.get(), THREADS as u64 * PER_THREAD);
    let snap = obs.metrics_snapshot().expect("enabled");
    match snap.get("race.named") {
        Some(clk_obs::MetricValue::Counter(n)) => {
            assert_eq!(*n, (THREADS as u64) * (PER_THREAD / 100));
        }
        other => panic!("expected counter, got {other:?}"),
    }
}

#[test]
fn histogram_observe_is_thread_safe() {
    let obs = Obs::new(ObsConfig::default());
    let hist = obs.histogram("race.ms").expect("enabled");
    std::thread::scope(|scope| {
        for t in 0..4 {
            let hist = std::sync::Arc::clone(&hist);
            scope.spawn(move || {
                for i in 1..=1000u32 {
                    hist.observe(f64::from(i + t * 1000));
                }
            });
        }
    });
    let snap = hist.snapshot();
    assert_eq!(snap.count, 4000);
    assert_eq!(snap.min, 1.0);
    assert_eq!(snap.max, 4000.0);
}

// ------------------------------------------------------------------
// Decision-ledger properties. The vendored proptest shim has no
// `prop_oneof!` / `any` / `option` combinators, so the record
// generator draws directly from the shim's `TestRng`.

/// A finite float of every flavor the ledger writer can meet: large,
/// tiny, integral, negative zero.
fn finite(rng: &mut proptest::TestRng) -> f64 {
    match rng.below(4) {
        0 => 0.0,
        1 => -0.0,
        2 => (rng.below(2_000_000_000) as i64 - 1_000_000_000) as f64 * 1e-6,
        _ => (rng.unit_f64() - 0.5) * 2e12,
    }
}

fn opt_f(rng: &mut proptest::TestRng) -> Option<f64> {
    (rng.below(2) == 0).then(|| finite(rng))
}

fn vec_f(rng: &mut proptest::TestRng) -> Vec<f64> {
    (0..rng.below(4)).map(|_| finite(rng)).collect()
}

fn opt_u(rng: &mut proptest::TestRng, span: u128) -> Option<u64> {
    (rng.below(2) == 0).then(|| rng.below(span) as u64)
}

fn pick_name(rng: &mut proptest::TestRng) -> String {
    const NAMES: [&str; 6] = ["global", "local", "ladder", "ok", "improving", "cand"];
    NAMES[rng.below(NAMES.len() as u128) as usize].to_string()
}

fn gen_move(rng: &mut proptest::TestRng) -> MoveRec {
    MoveRec {
        t: rng.below(4) as u64,
        node: rng.below(u128::from(u32::MAX)) as u64,
        dir: opt_u(rng, 8),
        resize: ["none", "up", "down"][rng.below(3) as usize].to_string(),
        child: opt_u(rng, u128::from(u32::MAX)),
        new_parent: opt_u(rng, u128::from(u32::MAX)),
    }
}

/// One arbitrary decision-ledger record covering all ten kinds.
fn gen_record(rng: &mut proptest::TestRng) -> LedgerRecord {
    match rng.below(10) {
        0 => LedgerRecord::FlowInit {
            flow: pick_name(rng),
            sinks: rng.below(5000) as u64,
            corners: 1 + rng.below(7) as u64,
            var: finite(rng),
        },
        1 => LedgerRecord::PhaseStart {
            phase: pick_name(rng),
        },
        2 => LedgerRecord::PhaseEnd {
            phase: pick_name(rng),
            committed: rng.below(2) == 0,
            var: finite(rng),
        },
        3 => LedgerRecord::RoundStart {
            round: rng.below(64) as u64,
            var: finite(rng),
        },
        4 => LedgerRecord::Lambda {
            round: rng.below(64) as u64,
            lambda: finite(rng),
            rung: pick_name(rng),
            cert: pick_name(rng),
            lp_objective: opt_f(rng),
            arcs_changed: rng.below(1000) as u64,
            accepted: rng.below(2) == 0,
            var: opt_f(rng),
        },
        5 => LedgerRecord::EcoArc {
            round: rng.below(64) as u64,
            lambda: finite(rng),
            arc: rng.below(10_000) as u64,
            d_lp: vec_f(rng),
            d_now: vec_f(rng),
            realized: (rng.below(2) == 0).then(|| vec_f(rng)),
            accepted: rng.below(2) == 0,
            var: opt_f(rng),
        },
        6 => LedgerRecord::RoundEnd {
            round: rng.below(64) as u64,
            winner_lambda: opt_f(rng),
            adopted: rng.below(2) == 0,
            var: finite(rng),
        },
        7 => LedgerRecord::LocalCand {
            iter: rng.below(64) as u64,
            slot: rng.below(256) as u64,
            mv: gen_move(rng),
            predicted: finite(rng),
            measured: opt_f(rng),
            deltas: (rng.below(2) == 0).then(|| vec_f(rng)),
            outcome: pick_name(rng),
        },
        8 => LedgerRecord::LocalCommit {
            iter: rng.below(64) as u64,
            mv: gen_move(rng),
            gain: finite(rng),
            committed: rng.below(2) == 0,
            var: opt_f(rng),
        },
        _ => LedgerRecord::FlowEnd { var: finite(rng) },
    }
}

/// Strategy yielding `lo..hi` arbitrary ledger records.
#[derive(Debug)]
struct LedgerRecords(usize, usize);

impl Strategy for LedgerRecords {
    type Value = Vec<LedgerRecord>;
    fn new_value(&self, rng: &mut proptest::TestRng) -> Vec<LedgerRecord> {
        let n = self.0 + rng.below((self.1 - self.0) as u128) as usize;
        (0..n).map(|_| gen_record(rng)).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The replay/waterfall contract: encode -> parse is structurally
    /// lossless and re-encoding is **byte-identical**.
    #[test]
    fn ledger_jsonl_round_trips_byte_identical(records in LedgerRecords(0, 24)) {
        let text = ledger::encode_jsonl(&records);
        let parsed = ledger::parse_jsonl(&text).expect("own encoding parses");
        prop_assert_eq!(&parsed, &records);
        prop_assert_eq!(ledger::encode_jsonl(&parsed), text);
    }

    /// Truncating the final line anywhere inside it is a typed
    /// [`LedgerError::Malformed`], never a silently shortened ledger.
    #[test]
    fn truncated_ledger_line_is_typed_error(
        records in LedgerRecords(1, 8),
        cut in 1usize..4096,
    ) {
        let text = ledger::encode_jsonl(&records);
        let body = text.trim_end_matches('\n');
        let last_len = body.rsplit('\n').next().map_or(body.len(), str::len);
        // strictly inside the last line: dropping it whole would leave
        // a well-formed shorter ledger (records are ASCII, so byte
        // slicing is char-safe)
        let cut = 1 + cut % (last_len - 1);
        let truncated = &body[..body.len() - cut];
        let err = ledger::parse_jsonl(truncated).expect_err("truncated line must not parse");
        prop_assert!(
            matches!(err, LedgerError::Malformed { .. }),
            "expected Malformed, got {:?}", err
        );
    }

    /// NaN/Inf never survives: dropped (and counted) at append time,
    /// and the serialized `null` parses as a typed error, not a zero.
    #[test]
    fn nonfinite_floats_never_round_trip(sel in 0usize..3) {
        let rec = LedgerRecord::FlowEnd {
            var: [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][sel],
        };
        let led = Ledger::enabled();
        prop_assert_eq!(led.append(rec.clone()), AppendOutcome::DroppedNonFinite);
        prop_assert_eq!(led.len(), 0);
        // force-encode anyway: the reader refuses it with the field name
        let text = ledger::encode_jsonl(&[rec]);
        match ledger::parse_jsonl(&text) {
            Err(LedgerError::NonFinite { field, .. }) => prop_assert_eq!(field, "var"),
            other => prop_assert!(false, "expected NonFinite, got {:?}", other),
        }
    }
}

#[test]
fn jsonl_stream_of_full_run_parses_line_by_line() {
    let obs = Obs::new(ObsConfig {
        verbosity: Level::Trace,
        ..ObsConfig::default()
    });
    let buf = SharedBuf::new();
    obs.add_jsonl_buffer(&buf);
    {
        let mut flow = obs.span("flow");
        for round in 0..3u64 {
            let mut span = obs.span_at(Level::Debug, "global.round", vec![kv("round", round)]);
            span.record("lp_iters", round * 7);
        }
        obs.fault("timer_timeout", 0, vec![kv("phase", "local")]);
        flow.record("rounds", 3u64);
    }
    obs.emit_metrics();
    obs.flush();
    let contents = buf.contents();
    let mut kinds = std::collections::BTreeMap::new();
    for line in contents.lines() {
        let v = json::parse(line).expect("line parses");
        let t = v
            .get("t")
            .and_then(Value::as_str)
            .expect("t present")
            .to_string();
        *kinds.entry(t).or_insert(0u32) += 1;
    }
    assert_eq!(kinds.get("span_start"), Some(&4));
    assert_eq!(kinds.get("span_end"), Some(&4));
    assert_eq!(kinds.get("fault"), Some(&1));
    assert_eq!(kinds.get("flight_dump"), Some(&1));
    assert_eq!(kinds.get("metrics"), Some(&1));
}
