//! Tiny-scale self-test of the benchmark: the catalogue matches
//! `BENCHMARK.json`, and the deterministic fields repeat exactly at one seed
//! and change at another.
//!
//! Run with `cargo test --release --manifest-path stackbench/Cargo.toml`.

use stackbench::measure::Outcome;
use stackbench::metrics::{END_TO_END, PER_LAYER};
use stackbench::workload::{Kind, Scale};
use std::path::PathBuf;

fn root(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("stackbench-selftest-{tag}"))
}

/// Every `"key": "value"` string pair in `text`, in order.
fn string_pairs(text: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(start) = rest.find('"') {
        let after = &rest[start + 1..];
        let Some(end) = after.find('"') else { break };
        let key = &after[..end];
        let tail = after[end + 1..].trim_start();
        rest = &after[end + 1..];
        if let Some(value) = tail.strip_prefix(':').map(str::trim_start) {
            if let Some(value) = value.strip_prefix('"') {
                if let Some(close) = value.find('"') {
                    out.push((key.to_string(), value[..close].to_string()));
                }
            }
        }
    }
    out
}

/// `(name, unit)` of every metric object in one section of the manifest.
fn section(manifest: &str, key: &str) -> Vec<(String, String)> {
    let start = manifest
        .find(&format!("\"{key}\""))
        .expect("section present");
    let body = &manifest[start..];
    let end = body.find(']').expect("section closes");
    let pairs = string_pairs(&body[..end]);
    let mut out = Vec::new();
    let mut name = None;
    for (k, v) in pairs {
        match k.as_str() {
            "name" => name = Some(v),
            "unit" | "why" => {
                if let Some(n) = name.take() {
                    out.push((n, if k == "unit" { v } else { String::new() }));
                }
            }
            _ => {}
        }
    }
    out
}

fn owned(defs: &[(&str, &str)]) -> Vec<(String, String)> {
    defs.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn catalogue_matches_the_manifest() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json beside the benchmark directory");
    assert_eq!(section(&manifest, "end_to_end"), owned(END_TO_END));
    assert_eq!(section(&manifest, "per_layer"), owned(PER_LAYER));
    let workloads: Vec<String> = section(&manifest, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let kinds: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
    assert_eq!(workloads, kinds);
}

/// The fields that must repeat exactly at one seed.
fn deterministic(outcome: &Outcome) -> (Vec<String>, u64, Vec<(String, u64)>) {
    let digest = outcome
        .notes
        .iter()
        .filter(|n| n.starts_with("input digest"))
        .cloned()
        .collect();
    let exact = outcome
        .metrics
        .iter()
        .filter(|m| matches!(m.name, "pair_f1" | "disk_bytes_per_op"))
        .map(|m| (m.name.to_string(), m.value.to_bits()))
        .collect();
    (digest, outcome.attempted, exact)
}

fn check_end_to_end(kind: Kind) {
    let run = |seed, tag: &str| {
        let outcome = stackbench::invoke(kind, Scale::Tiny, seed, 0.01, false, &root(tag));
        assert!(
            outcome.correct(),
            "{}: {:?}",
            kind.name(),
            outcome.gate_failures
        );
        let names: Vec<(String, String)> = outcome
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(names, owned(END_TO_END));
        assert!(
            outcome.metrics.iter().all(|m| m.value > 0.0),
            "{:?}",
            outcome.metrics
        );
        outcome
    };
    let a = run(7, kind.name());
    let b = run(7, kind.name());
    let c = run(8, kind.name());
    assert_eq!(
        deterministic(&a),
        deterministic(&b),
        "{} repeats at one seed",
        kind.name()
    );
    let (da, _, ea) = deterministic(&a);
    let (dc, _, ec) = deterministic(&c);
    assert_ne!(da, dc, "{}: another seed gives another input", kind.name());
    assert_ne!(ea, ec, "{}: another seed gives other counts", kind.name());
}

#[test]
fn linkage_burst_is_deterministic_per_seed() {
    check_end_to_end(Kind::LinkageBurst);
}

#[test]
fn access_requests_is_deterministic_per_seed() {
    check_end_to_end(Kind::AccessRequests);
}

#[test]
fn traced_ladder_reports_every_layer_metric() {
    for kind in Kind::ALL {
        let outcome = stackbench::invoke(kind, Scale::Tiny, 3, 0.01, true, &root("traced"));
        assert!(
            outcome.correct(),
            "{}: {:?}",
            kind.name(),
            outcome.gate_failures
        );
        let names: Vec<(String, String)> = outcome
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(names, owned(PER_LAYER), "{}", kind.name());
    }
}
