//! The clients: how each workload pushes its stream through a running
//! pipeline, and what the client observes.

use crate::front_door;
use crate::measure::process_cpu_s;
use crate::trace::Tracer;
use crate::workload::Kind;
use dc_core::{PipelineReport, PipelinedEngine, ShardedDurableEngine};
use dc_types::Operation;
use std::time::{Duration, Instant};

/// Offered rate of the open-loop stream client, in operations per second:
/// about half of the pipeline's capacity on the access workload.
pub const STREAM_RATE_OPS_PER_S: f64 = 600.0;

/// What one measured window did, as the client saw it.
pub struct Window {
    /// Operations submitted and acknowledged.
    pub ops: usize,
    /// First submit to the final flush's return, in seconds.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    /// Latency samples in milliseconds: per request on the request
    /// workload (submit to flush return), per operation otherwise (due time
    /// to group-commit acknowledgement).
    pub latencies_ms: Vec<f64>,
    /// How late the client submitted each sample's first operation
    /// relative to its due time, in milliseconds.
    pub lateness_ms: Vec<f64>,
    /// The pipeline's own report, from `close`.
    pub report: PipelineReport,
    /// The drained engine.
    pub engine: ShardedDurableEngine,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Drive `ops` through `pipe` the way `kind`'s client does, then close the
/// pipeline.  Every public call is recorded in `tracer` (a no-op when off).
pub fn drive(
    kind: Kind,
    pipe: PipelinedEngine,
    ops: &[Operation],
    tracer: &mut Tracer,
) -> Result<Window, String> {
    let mut latencies_ms = Vec::new();
    let mut lateness_ms = Vec::with_capacity(ops.len());
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    match kind {
        Kind::LinkageBurst | Kind::AccessStream => {
            // Burst: every operation is due at t0.  Stream: operation i is
            // due at t0 + i / rate; the client sleeps until then.
            let interval = match kind {
                Kind::AccessStream => Duration::from_secs_f64(1.0 / STREAM_RATE_OPS_PER_S),
                _ => Duration::ZERO,
            };
            for (i, op) in ops.iter().enumerate() {
                let due = t0 + interval * i as u32;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                lateness_ms.push(ms(Instant::now().saturating_duration_since(due)));
                tracer
                    .call("PipelinedEngine::submit", Some(i as u64), || {
                        front_door::submit(&pipe, op.clone())
                    })
                    .map_err(|e| format!("submit: {e}"))?;
            }
        }
        Kind::AccessRequests => {
            for (i, request) in ops.chunks(front_door::REQUEST_OPS).enumerate() {
                let start = Instant::now();
                tracer.enter("request", Some(i as u64));
                for op in request {
                    tracer
                        .call("PipelinedEngine::submit", Some(i as u64), || {
                            front_door::submit(&pipe, op.clone())
                        })
                        .map_err(|e| format!("submit: {e}"))?;
                }
                tracer
                    .call("PipelinedEngine::flush", Some(i as u64), || {
                        front_door::flush(&pipe)
                    })
                    .map_err(|e| format!("flush: {e}"))?;
                tracer.exit();
                latencies_ms.push(ms(start.elapsed()));
                lateness_ms.push(0.0);
            }
        }
    }
    tracer
        .call("PipelinedEngine::flush", None, || front_door::flush(&pipe))
        .map_err(|e| format!("final flush: {e}"))?;
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let (engine, report) = tracer
        .call("PipelinedEngine::close", None, || front_door::close(pipe))
        .map_err(|e| format!("close: {e}"))?;
    if kind != Kind::AccessRequests {
        // One producer and a FIFO admission queue: commit order is
        // submission order, so latency i belongs to operation i.
        if report.op_latencies_ns.len() != ops.len() {
            return Err(format!(
                "{} operation latencies for {} operations",
                report.op_latencies_ns.len(),
                ops.len()
            ));
        }
        latencies_ms = lateness_ms
            .iter()
            .zip(&report.op_latencies_ns)
            .map(|(late, &ns)| late + ns as f64 / 1e6)
            .collect();
    }
    Ok(Window {
        ops: ops.len(),
        wall_s,
        cpu_s,
        latencies_ms,
        lateness_ms,
        report,
        engine,
    })
}
