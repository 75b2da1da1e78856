//! `flowbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints provenance and per-case information lines, then, as the last
//! line, the JSON result. See the library documentation.

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use clk_flowbench::workload::{workload, WORKLOADS};
use clk_flowbench::{run, RunSpec};

const USAGE: &str = "usage: flowbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]";

fn parse(args: &[String]) -> Result<RunSpec, String> {
    let mut spec = RunSpec {
        workload: WORKLOADS[0],
        seed: 2015,
        seconds: 30.0,
        trace: false,
    };
    let mut named = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => {
                spec.workload = workload(val).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {val} (have: {})", names.join(", "))
                })?;
                named = true;
            }
            "--seed" => spec.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => {
                spec.seconds = val.parse().map_err(|_| bad())?;
                if !(spec.seconds >= 0.0 && spec.seconds.is_finite()) {
                    return Err(format!("bad value for --seconds: {val}"));
                }
            }
            "--trace" => {
                spec.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if named {
        Ok(spec)
    } else {
        Err("--workload is required".into())
    }
}

/// `git` output in the current directory, only when it is itself a
/// repository root (never searching the parent directories).
fn git(args: &[&str]) -> Option<String> {
    if !Path::new(".git").exists() {
        return None;
    }
    let out = Command::new("git")
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", "..")
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = match parse(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("flowbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let rev = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty = git(&["status", "--porcelain", "--untracked-files=no"]).map_or("unknown", |s| {
        if s.is_empty() {
            "no"
        } else {
            "yes"
        }
    });
    println!(
        "provenance git_rev={rev} dirty={dirty} trace={}",
        u8::from(spec.trace)
    );
    match run(&spec) {
        Ok(out) => {
            for line in &out.info {
                println!("{line}");
            }
            println!("{}", out.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("flowbench: {e}");
            ExitCode::FAILURE
        }
    }
}
