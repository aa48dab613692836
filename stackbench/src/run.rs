//! The end-to-end run (`--trace 0`): measured serving windows through the
//! front door, each followed by correctness checks and a kill-and-recover
//! probe.  Windows cycle over three set-ups with inputs from seeds derived
//! from the run's seed; each set-up's first window pays the full set-up.
//! Telemetry stays off.

use crate::drive::{drive, Window};
use crate::front_door::{self, State};
use crate::measure::{copy_dir, dir_bytes, median, peak_rss_mb, quantile, Outcome};
use crate::trace::Tracer;
use crate::workload::{expected_dataset, generate, train, Inputs, Kind, Scale, Trained};
use dc_core::{DynamicC, PipelinedEngine, ShardedDurableEngine};
use dc_types::{Dataset, ObjectId, Operation};
use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

/// Inputs per run: each set-up generates its own input from a seed derived
/// from the run's seed, so a run's medians average over inputs as well as
/// over windows.
const SETUPS: usize = 3;

/// Most measured windows a run makes.
const MAX_WINDOWS: usize = 15;

/// No window starts once this many seconds of the run have passed.
const RUN_BUDGET_S: f64 = 100.0;

/// After each window the killed directory is copied and reopened until the
/// reopens add up to this many seconds.
const RECOVERY_BUDGET_S: f64 = 0.3;

/// Rounds logged past the last checkpoint when the stream workload is
/// killed.
const STREAM_REPLAY_ROUNDS: usize = 4;

/// The seed of set-up `k`: the run's own seed first, then derived ones.
pub fn setup_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// What one window measured.
struct Measured {
    setup: usize,
    window: WindowStats,
    recovery_s: Vec<f64>,
    pair_f1: f64,
    disk_bytes: u64,
    attempted: u64,
    state: State,
}

struct WindowStats {
    ops: usize,
    wall_s: f64,
    cpu_s: f64,
    latencies_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
}

/// Run `kind` for at least `seconds` of serving, in rounds of one window
/// per set-up, with engine directories under `work`.
pub fn run(kind: Kind, scale: Scale, seed: u64, seconds: f64, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let started = Instant::now();
    let mut windows: Vec<Measured> = Vec::new();
    let mut setup_s: Vec<f64> = Vec::new();
    let mut served_s = 0.0;
    let mut prepared: Vec<(Inputs, Trained)> = Vec::new();
    while windows.len() < MAX_WINDOWS {
        let n = windows.len();
        let elapsed = started.elapsed().as_secs_f64();
        if n > 0 && n.is_multiple_of(SETUPS) && (served_s >= seconds || elapsed > RUN_BUDGET_S) {
            break;
        }
        let dir = work.join(format!("window-{n}"));
        let _ = std::fs::remove_dir_all(&dir);
        let engine_dir = dir.join("engine");
        // The first window of each set-up pays the full set-up; later ones
        // open a fresh directory from a copy of its trained state.
        let k = n % SETUPS;
        let opened = if let Some((_, trained)) = prepared.get(k) {
            open_and_start(&engine_dir, kind, trained.clone())
        } else {
            let t0 = Instant::now();
            let inputs = generate(kind, scale, setup_seed(seed, k));
            let (trained, _) = train(kind, &inputs);
            let trained_s = t0.elapsed().as_secs_f64();
            let kept = trained.clone();
            let t1 = Instant::now();
            let opened = open_and_start(&engine_dir, kind, trained);
            setup_s.push(trained_s + t1.elapsed().as_secs_f64());
            prepared.push((inputs, kept));
            opened
        };
        let (inputs, trained) = &prepared[k];
        match opened.and_then(|pipe| window(kind, k, inputs, trained, pipe, &dir, &mut out)) {
            Ok(m) => {
                served_s += m.window.wall_s;
                windows.push(m);
            }
            Err(e) => {
                out.attempted += 1;
                out.gate(false, 1, || format!("window {n}: {e}"));
                break;
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    for (inputs, _) in &prepared {
        out.notes
            .push(format!("input digest {:016x}", inputs.digest));
    }
    for (i, m) in windows.iter().enumerate() {
        out.notes.push(format!(
            "window {i} (set-up {}): {} ops in {:.3} s, {:.3} CPU-s, {} reopens",
            m.setup,
            m.window.ops,
            m.window.wall_s,
            m.window.cpu_s,
            m.recovery_s.len()
        ));
    }
    if kind.deterministic() {
        let same = windows.iter().all(|m| {
            windows
                .iter()
                .find(|first| first.setup == m.setup)
                .is_some_and(|first| first.state == m.state)
        });
        out.gate(same, 0, || {
            "final state differs between windows of one set-up".into()
        });
    }
    report(kind, &setup_s, &windows, &mut out);
    out
}

fn report(kind: Kind, setup_s: &[f64], windows: &[Measured], out: &mut Outcome) {
    let n = windows.len();
    let per = |f: &dyn Fn(&Measured) -> f64| windows.iter().map(f).collect::<Vec<f64>>();
    let latencies: Vec<f64> = windows
        .iter()
        .flat_map(|m| m.window.latencies_ms.iter().copied())
        .collect();
    let recovery: Vec<f64> = windows
        .iter()
        .flat_map(|m| m.recovery_s.iter().copied())
        .collect();
    let what = match kind {
        Kind::AccessRequests => "requests (submit to flush return)",
        _ => "operations (due time to durable ack)",
    };
    out.metric(
        "setup_s",
        median(setup_s),
        format!("median of {} set-ups", setup_s.len()),
    );
    out.metric(
        "ingest_ops_per_s",
        median(&per(&|m| m.window.ops as f64 / m.window.wall_s)),
        format!("median of {n} windows"),
    );
    out.metric(
        "latency_p50_ms",
        quantile(&latencies, 0.50),
        format!("{} {what}", latencies.len()),
    );
    out.metric(
        "latency_p99_ms",
        quantile(&latencies, 0.99),
        format!("{} {what}", latencies.len()),
    );
    out.metric(
        "cpu_ms_per_op",
        median(&per(&|m| m.window.cpu_s * 1e3 / m.window.ops as f64)),
        format!("median of {n} windows"),
    );
    out.metric(
        "recovery_s",
        median(&recovery),
        format!("median of {} reopens after kill", recovery.len()),
    );
    out.metric(
        "pair_f1",
        median(&per(&|m| m.pair_f1)),
        format!("median of {n} final refined clusterings"),
    );
    out.metric(
        "disk_bytes_per_op",
        median(&per(&|m| m.disk_bytes as f64 / m.attempted as f64)),
        format!("median of {n} engine directories"),
    );
    out.metric("peak_rss_mb", peak_rss_mb(), "VmHWM at exit");
    let lateness: Vec<f64> = windows
        .iter()
        .flat_map(|m| m.window.lateness_ms.iter().copied())
        .collect();
    out.notes.push(format!(
        "generator lateness p99 {:.3} ms over {} submissions",
        quantile(&lateness, 0.99),
        lateness.len()
    ));
}

fn open_and_start(dir: &Path, kind: Kind, trained: Trained) -> Result<PipelinedEngine, String> {
    let engine = front_door::open_fresh(dir, kind, trained)?;
    Ok(front_door::start(
        engine,
        front_door::pipeline_options(kind, false),
    ))
}

/// One window: serve through the started pipeline, check, kill, recover.
fn window(
    kind: Kind,
    setup: usize,
    inputs: &Inputs,
    trained: &Trained,
    pipe: PipelinedEngine,
    dir: &Path,
    out: &mut Outcome,
) -> Result<Measured, String> {
    let (window_ops, held_back) = split_tail(kind, &inputs.stream);
    let builds_before = dc_similarity::full_build_count();
    let Window {
        ops,
        wall_s,
        cpu_s,
        latencies_ms,
        lateness_ms,
        engine,
        ..
    } = drive(kind, pipe, window_ops, &mut Tracer::off())?;
    let mut served: Vec<Operation> = window_ops.to_vec();
    let engine = match kind {
        Kind::AccessStream => serve_kill_tail(kind, engine, held_back, &mut served)?,
        _ => engine,
    };
    let attempted = served.len() as u64;
    out.attempted += attempted;
    let builds = dc_similarity::full_build_count() - builds_before;
    out.gate(builds == 0, attempted, || {
        format!("{builds} full aggregate builds while serving")
    });

    let expected = expected_dataset(inputs, &served);
    out.failed += unverified_ops(&engine, &expected, &served);
    let truth = dc_datagen::ground_truth(&expected);
    let pair_f1 = dc_eval::pair_counts(&front_door::refined(&engine), &truth).f1();
    let disk_bytes = dir_bytes(&dir.join("engine")).0;
    let state = front_door::state(&engine);
    let dynamicc = trained.dynamicc.clone();
    let recovery_s = kill_and_recover(kind, engine, dir, dynamicc, &state, attempted, out)?;
    Ok(Measured {
        setup,
        window: WindowStats {
            ops,
            wall_s,
            cpu_s,
            latencies_ms,
            lateness_ms,
        },
        recovery_s,
        pair_f1,
        disk_bytes,
        attempted,
        state,
    })
}

/// Operations held back from the stream workload's open-loop window, so it
/// can be killed a fixed number of rounds past a checkpoint: enough
/// requests to reach the next checkpoint from any round, plus the replayed
/// ones.
fn split_tail(kind: Kind, stream: &[Operation]) -> (&[Operation], &[Operation]) {
    if kind != Kind::AccessStream {
        return (stream, &[]);
    }
    let held =
        (front_door::checkpoint_every(kind) - 1 + STREAM_REPLAY_ROUNDS) * front_door::REQUEST_OPS;
    stream.split_at(stream.len().saturating_sub(held))
}

/// After the stream window, serve closed-loop requests from the held-back
/// tail until the next automatic checkpoint, then exactly
/// [`STREAM_REPLAY_ROUNDS`] more, so the kill leaves a fixed number of
/// logged rounds past the checkpoint whatever round count the adaptive
/// batcher produced.
fn serve_kill_tail(
    kind: Kind,
    engine: ShardedDurableEngine,
    held_back: &[Operation],
    served: &mut Vec<Operation>,
) -> Result<ShardedDurableEngine, String> {
    let every = front_door::checkpoint_every(kind);
    let to_checkpoint = (every - front_door::rounds_served(&engine) % every) % every;
    let requests = to_checkpoint + STREAM_REPLAY_ROUNDS;
    let ops = &held_back[..(requests * front_door::REQUEST_OPS).min(held_back.len())];
    let pipe = front_door::start(engine, front_door::fixed_rounds(front_door::REQUEST_OPS));
    for request in ops.chunks(front_door::REQUEST_OPS) {
        for op in request {
            front_door::submit(&pipe, op.clone()).map_err(|e| format!("tail submit: {e}"))?;
        }
        front_door::flush(&pipe).map_err(|e| format!("tail flush: {e}"))?;
    }
    served.extend_from_slice(ops);
    let (engine, _) = front_door::close(pipe).map_err(|e| format!("tail close: {e}"))?;
    Ok(engine)
}

/// Operations whose effect is missing from the final state: every live
/// object must hold exactly the record its last operation wrote, and no
/// removed object may remain.
fn unverified_ops(engine: &ShardedDurableEngine, expected: &Dataset, served: &[Operation]) -> u64 {
    let live = front_door::live_records(engine);
    let mut wrong: BTreeSet<ObjectId> = BTreeSet::new();
    for (id, record) in expected.iter() {
        if live.get(&id) != Some(record) {
            wrong.insert(id);
        }
    }
    wrong.extend(live.keys().filter(|id| !expected.contains(**id)));
    served
        .iter()
        .filter(|op| wrong.contains(&op.object_id()))
        .count() as u64
}

/// Kill the (drained, acknowledged) engine and reopen copies of its
/// directory until [`RECOVERY_BUDGET_S`] is spent; each recovered state
/// must equal the acknowledged one bit for bit.
fn kill_and_recover(
    kind: Kind,
    engine: ShardedDurableEngine,
    dir: &Path,
    dynamicc: DynamicC,
    acknowledged: &State,
    ops: u64,
    out: &mut Outcome,
) -> Result<Vec<f64>, String> {
    front_door::kill(front_door::start(
        engine,
        front_door::pipeline_options(kind, false),
    ));
    let killed = dir.join("engine");
    let mut samples = Vec::new();
    while samples.is_empty() || samples.iter().sum::<f64>() < RECOVERY_BUDGET_S {
        let copy = dir.join(format!("recover-{}", samples.len()));
        copy_dir(&killed, &copy).map_err(|e| format!("copy {}: {e}", killed.display()))?;
        let t = Instant::now();
        let (recovered, _) = front_door::reopen(&copy, kind, dynamicc.clone())?;
        samples.push(t.elapsed().as_secs_f64());
        let same = front_door::state(&recovered) == *acknowledged;
        out.gate(same, ops, || {
            "recovered state differs from the acknowledged state".into()
        });
        drop(recovered);
        let _ = std::fs::remove_dir_all(&copy);
        if !same || samples.len() >= 50 {
            break;
        }
    }
    Ok(samples)
}
