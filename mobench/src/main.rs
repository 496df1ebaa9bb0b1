//! Command-line front end:
//!
//! ```text
//! mobench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints report lines starting with `#`, then one JSON result line.
//! Exits 1 when a correctness or determinism check fails, 2 on bad
//! arguments.

use std::process::ExitCode;

use mobench::{result_line, run, Options, Workload};

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("mobench: {msg}");
    eprintln!(
        "usage: mobench --workload <{}> --seed <u64> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Workload::parse(value);
                workload.is_some()
            }
            "--seed" => {
                seed = value.parse().ok();
                seed.is_some()
            }
            "--seconds" => value.parse().map(|s| seconds = s).is_ok(),
            "--trace" => match value.as_str() {
                "0" => true,
                "1" => {
                    trace = true;
                    true
                }
                _ => false,
            },
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        return usage("--workload and --seed are required");
    };
    let out = run(&Options {
        workload,
        seed,
        seconds,
        trace,
        sink_spin_ns: 0,
    });
    for line in &out.report {
        println!("{line}");
    }
    for e in &out.errors {
        eprintln!("mobench: check failed: {e}");
    }
    println!("{}", result_line(&out));
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
