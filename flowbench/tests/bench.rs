//! Tests of the benchmark itself: its metric catalogue agrees with
//! `BENCHMARK.json`, each workload exercises the layers it claims and
//! no others, the output check rejects tampered results, and the seed
//! drives the generated inputs.
//!
//! The flows are slow unoptimized; run with
//! `cargo test --release --manifest-path flowbench/Cargo.toml`.

use clk_flowbench::check::{check_report, CaseRef};
use clk_flowbench::workload::{flow_config, prepare, workload, Workload, WORKLOADS};
use clk_flowbench::{run, MetricDef, RunSpec, END_TO_END, PER_LAYER};
use clk_obs::json::{parse, Value};
use clk_skewopt::Flow;

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

fn listed(v: &Value, key: &str) -> Vec<(String, String, String)> {
    v.get(key)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (s("name"), s("unit"), s("better"))
        })
        .collect()
}

fn catalogue(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
        .collect()
}

#[test]
fn metric_catalogue_is_well_formed_and_matches_benchmark_json() {
    assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|d| d.name)
        .collect();
    assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names.len(),
        END_TO_END.len() + PER_LAYER.len(),
        "names are unique"
    );
    assert!(END_TO_END.iter().chain(&PER_LAYER).all(|d| {
        d.unit.len() <= 16
            && d.unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            && matches!(d.better, "lower" | "higher")
    }));
    assert!(END_TO_END.contains(&MetricDef {
        name: "setup_s",
        unit: "s",
        better: "lower"
    }));

    let json = benchmark_json();
    assert_eq!(listed(&json, "end_to_end"), catalogue(&END_TO_END));
    assert_eq!(listed(&json, "per_layer"), catalogue(&PER_LAYER));
    let wl: Vec<&str> = json
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(wl, ours);
}

/// A workload shrunk so a traced run finishes in seconds.
fn tiny(name: &str) -> Workload {
    Workload {
        sinks: 8,
        draws: 1,
        ..workload(name).expect("known workload")
    }
}

fn traced(name: &str) -> clk_flowbench::RunOutput {
    let out = run(&RunSpec {
        workload: tiny(name),
        seed: 2015,
        seconds: 0.0,
        trace: true,
    })
    .expect("traced run");
    assert!(out.correct, "{:#?}", out.info);
    assert_eq!(out.failed, 0);
    let names: Vec<&str> = out.metrics.iter().map(|(d, _)| d.name).collect();
    let want: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
    assert_eq!(names, want, "every per-layer metric, in order");
    assert!(out.metrics.iter().all(|(_, v)| v.is_finite()));
    out
}

const GLOBAL_ONLY: [&str; 10] = [
    "lut.characterize_ms",
    "global.phase_ms",
    "global.rounds",
    "global.lp_rows_built",
    "lp.solves",
    "lp.pivots",
    "lp.solve_ms",
    "lp.us_per_pivot",
    "cert.checks",
    "cert.check_ms",
];

const LOCAL_ONLY: [&str; 14] = [
    "predictor.train_ms",
    "local.phase_ms",
    "local.iterations",
    "local.golden_evals",
    "local.predicted_positive",
    "local.predict_ms",
    "moves.enumerated",
    "moves.enumerate_ms",
    "predictor.moves_ranked",
    "predictor.rank_us_per_move",
    "predictor.features_us_per_move",
    "route.rsmt_us",
    "delay.extract_us",
    "sta.incremental_ms",
];

#[test]
fn workloads_separate_the_layers() {
    let g = traced("global_lp");
    let l = traced("local_rank");
    let gl = traced("global_local");
    let v = |o: &clk_flowbench::RunOutput, n: &str| o.metric(n).expect(n);
    for n in GLOBAL_ONLY {
        assert!(v(&g, n) > 0.0, "{n} on global_lp");
        assert!(v(&gl, n) > 0.0, "{n} on global_local");
        assert_eq!(v(&l, n), 0.0, "{n} on local_rank");
    }
    for n in LOCAL_ONLY {
        assert!(v(&l, n) > 0.0, "{n} on local_rank");
        assert!(v(&gl, n) > 0.0, "{n} on global_local");
        assert_eq!(v(&g, n), 0.0, "{n} on global_lp");
    }
    for o in [&g, &l, &gl] {
        assert!(v(o, "cts.generate_ms") > 0.0);
        assert!(v(o, "sta.full_ms") > 0.0);
        assert!(v(o, "sta.nodes_timed") > 0.0);
    }
}

#[test]
fn output_check_rejects_tampered_reports() {
    let w = tiny("global_lp");
    let cfg = flow_config(1);
    let (cases, _) = prepare(&w, 2015, &cfg);
    let p = &cases[0];
    let cref = CaseRef::new(&p.tc, Flow::Global, &cfg).expect("input times");
    let (report, _) = p.run(Flow::Global, &cfg).expect("flow runs");
    let outcome = check_report(&p.tc, &cref, &cfg, &report).expect("clean report passes");
    assert!(outcome.contains("skew_after_ps"));

    let mut off_by_ulp = report.clone();
    off_by_ulp.variation_after = f64::from_bits(report.variation_after.to_bits() + 1);
    let err = check_report(&p.tc, &cref, &cfg, &off_by_ulp).expect_err("ulp-off variation");
    assert!(err.contains("variation_after"), "{err}");

    let mut corrupted = report.clone();
    let sink = corrupted.tree.sinks().next().expect("a sink");
    let parent = corrupted.tree.parent(sink).expect("sinks have parents");
    corrupted.tree.debug_unlink_child(parent, sink);
    assert!(check_report(&p.tc, &cref, &cfg, &corrupted).is_err());

    let mut resized = report.clone();
    let buf = resized.tree.buffers().next().expect("a buffer");
    let cell = resized.tree.cell(buf).expect("buffers have cells");
    let other = (0..p.tc.lib.cells().len())
        .map(clk_liberty::CellId)
        .find(|&c| c != cell)
        .expect("a second cell");
    resized.tree.set_cell(buf, other).expect("resize");
    assert!(check_report(&p.tc, &cref, &cfg, &resized).is_err());
}

#[test]
fn seed_drives_the_generated_inputs() {
    let w = tiny("local_rank");
    let cfg = flow_config(1);
    let sinks = |seed| {
        let (cases, _) = prepare(&w, seed, &cfg);
        cases
            .iter()
            .map(|p| {
                p.tc.tree
                    .sinks()
                    .map(|s| p.tc.tree.loc(s))
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(sinks(7), sinks(7), "same seed, same inputs");
    assert_ne!(sinks(7), sinks(8), "another seed, other inputs");
}
