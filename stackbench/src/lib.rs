//! # stackbench
//!
//! The repository's benchmark: three deterministic workloads driven end to
//! end through the production front door (`ShardedDurableEngine` at two
//! shards, refinement and group commit on, behind a `PipelinedEngine`), and
//! a traced run that replays the same rounds through a ladder of stack
//! configurations to attribute cost to layers.  See `README.md` beside this
//! crate for the workloads, metrics and policies.

pub mod drive;
pub mod front_door;
pub mod ladder;
pub mod measure;
pub mod metrics;
pub mod run;
pub mod trace;
pub mod workload;

use measure::Outcome;
use std::path::Path;
use workload::{Kind, Scale};

/// Run one invocation: the end-to-end run, or with `traced` the ladder.
/// Engine directories live under `root/work-<pid>` and are removed before
/// returning; trace files are written under `root/traces`.
pub fn invoke(
    kind: Kind,
    scale: Scale,
    seed: u64,
    seconds: f64,
    traced: bool,
    root: &Path,
) -> Outcome {
    let work = root.join(format!("work-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let (steal0, total0) = measure::cpu_ticks();
    let mut outcome = if traced {
        ladder::run(kind, scale, seed, &work, &root.join("traces"))
    } else {
        run::run(kind, scale, seed, seconds, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    let (steal1, total1) = measure::cpu_ticks();
    outcome.notes.push(format!(
        "hypervisor steal {:.1} % of CPU time during the run (timings are inflated by it)",
        100.0 * steal1.saturating_sub(steal0) as f64 / total1.saturating_sub(total0).max(1) as f64
    ));
    outcome
}
