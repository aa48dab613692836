//! `stackbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one line per metric (name, value, unit, sample count) and, as the
//! last line, the JSON result object.  Exits 0 when every correctness gate
//! passed, 1 when one failed, 2 on a usage error.

use stackbench::workload::{Kind, Scale};
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    eprintln!("stackbench: {problem}");
    eprintln!(
        "usage: stackbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Kind::ALL.map(Kind::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut seconds, mut traced) = (None, None, 10.0, false);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage("every flag takes a value");
        };
        match flag.as_str() {
            "--workload" => kind = Kind::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 => seconds = s,
                _ => return usage("--seconds takes a positive number"),
            },
            "--trace" => match value.as_str() {
                "0" => traced = false,
                "1" => traced = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(kind), Some(seed)) = (kind, seed) else {
        return usage("--workload and --seed are required");
    };
    let root = match std::env::current_dir() {
        Ok(dir) => dir.join(".stackbench"),
        Err(e) => return usage(&format!("no working directory: {e}")),
    };
    let outcome = stackbench::invoke(kind, Scale::Full, seed, seconds, traced, &root);
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in &outcome.metrics {
        println!(
            "{:<34} {:>14.6} {:<6} ({})",
            m.name, m.value, m.unit, m.samples
        );
    }
    for failure in &outcome.gate_failures {
        println!("GATE FAILED: {failure}");
    }
    println!("{}", outcome.result_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
