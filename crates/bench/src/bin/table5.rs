//! Table 5: the main experimental results — for each testcase, the
//! `orig` / `global` / `local` / `global-local` rows with the sum of
//! normalized skew variation (the `norm` ratio), local skew per corner,
//! number of clock cells, clock power and clock-cell area.
//!
//! Paper reference points (foundry 28nm, 36K–270K sinks): global up to
//! 16%, local up to 5%, global-local up to 22% variation reduction with
//! no local-skew degradation and ~0–2% cell/power/area overhead. The
//! scaled reproduction should reproduce those *shapes*.
//!
//! ```sh
//! cargo run --release -p clk-bench --bin table5 -- [--sinks N] [--quick]
//! ```

use clk_bench::{suite_cases, suite_config, ExpArgs, PreparedCase, Stopwatch};
use clk_skewopt::Flow;

fn main() {
    let args = ExpArgs::parse();
    let (default_n, cfg) = suite_config(args.quick);
    let n = args.sinks.unwrap_or(default_n);

    let flows = [Flow::Global, Flow::Local, Flow::GlobalLocal];
    println!("Table 5: Experimental results ({n} sinks per testcase, scaled)");
    for case in suite_cases(args.seed) {
        let sw = Stopwatch::start(case.kind.name());
        let prep = PreparedCase::generate(case, n, &cfg, &flows);
        println!("\n--- {} ---", case.kind.name());
        println!(
            "{}",
            clockvar_workbench::table5_header(&prep.corner_names())
        );
        let mut printed = false;
        for flow in flows {
            let (report, _ms) = match prep.run(flow, &cfg) {
                Ok(r) => r,
                Err(e) => panic!("{e}"),
            };
            if !printed {
                println!("{}", clockvar_workbench::table5_orig_row(&report));
                printed = true;
            }
            println!(
                "{}",
                clockvar_workbench::table5_row(&flow.to_string(), &report)
            );
        }
        sw.report();
    }
    println!("\npaper: global -9..16%, local -4..5%, global-local -13..22%, skews never degrade");
}
