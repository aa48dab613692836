//! # dc-telemetry
//!
//! Hand-rolled, zero-dependency metrics and span timers for the DynamicC
//! serving stack — the observability substrate every other crate in the
//! workspace instruments itself with (vendored-shim philosophy: no crates.io
//! access, so the subset of a metrics library the repo needs is written
//! here, deterministic by construction).
//!
//! ## Model
//!
//! Three metric kinds live in one [`Registry`]:
//!
//! * **counters** — monotonically increasing `u64` sums
//!   ([`Registry::add`]), e.g. fsync counts, WAL bytes appended, boundary
//!   pairs computed;
//! * **gauges** — last-written `f64` values ([`Registry::gauge`]), e.g. the
//!   per-round batch-size imbalance across shards;
//! * **histograms** — log-bucketed latency distributions
//!   ([`Registry::record_ns`], [`Histogram`]) with p50/p90/p99/max within a
//!   documented ≤ 12.5 % bucket error, mergeable across threads.
//!
//! [`Span`] timers feed the histograms: [`Registry::span`] captures a start
//! instant, [`Span::finish_ns`] records the elapsed nanoseconds under the
//! span's name and returns them.  Phase spans nest lexically (route → WAL
//! append → shard apply → cross-edge recovery → repair → checkpoint), giving a
//! per-round phase breakdown whose sum is comparable against the enclosing
//! round span.
//!
//! ## Thread locality and the off mode
//!
//! The registry is **thread-local**, exactly like the full-build counter it
//! absorbs from `dc-similarity`: recordings go to the calling thread's sink,
//! so exact-count assertions stay correct under `cargo test`'s parallel test
//! execution and no lock is ever taken on the serving hot path.  Fan-out
//! points (the sharded engine's scoped thread pool) propagate the mode to
//! their workers and merge the workers' whole sinks back into the spawning
//! thread ([`Registry::drain`] / [`ThreadDelta::merge_into_current`]) —
//! counters add, histograms merge, gauges last-writer-wins in worker order.
//!
//! Telemetry is **off by default** ([`TelemetryMode::Off`]).  Off-mode cost
//! on the hot path is one thread-local load and a branch per call site — no
//! allocation, no map lookup, no clock read (spans still read the clock,
//! because their elapsed time also feeds existing report fields that must
//! stay populated with telemetry off).  The one exception is the
//! *unconditional* counter ([`Registry::add_always`]) used for the
//! full-aggregate-build count, which equivalence tests assert on without
//! enabling telemetry; full builds are O(E) events, so counting them
//! unconditionally is free by comparison.
//!
//! ## Snapshots
//!
//! [`Registry::snapshot`] captures the calling thread's sink as a
//! [`TelemetrySnapshot`]; [`TelemetrySnapshot::to_json`] renders a stable,
//! `BinCodec`-independent JSON document — sorted keys, one key per line, and
//! the naming convention that **every nondeterministic (timing) value lives
//! on a line whose key ends in `_ns`**, so CI diffs the structural fields of
//! two runs with `grep -vE '_ns"' | diff`.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod clock;
mod histogram;
mod sink;
mod snapshot;
mod span;

pub use histogram::Histogram;
pub use sink::ThreadDelta;
pub use snapshot::TelemetrySnapshot;
pub use span::Span;

/// Whether telemetry recording is on for the current thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryMode {
    /// Recording disabled (the default): every mode-gated call site costs
    /// one thread-local load and a branch.
    #[default]
    Off,
    /// Recording enabled: counters, gauges, and histograms accumulate in
    /// the thread's sink.
    On,
}

/// Configuration for the telemetry subsystem.
///
/// The registry itself is ambient (thread-local); the config is how callers
/// express intent at the edges — the `experiments` binary builds one from
/// `--telemetry` and applies it before serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryConfig {
    /// The recording mode to apply.
    pub mode: TelemetryMode,
}

impl TelemetryConfig {
    /// Config with recording enabled.
    pub fn enabled() -> Self {
        TelemetryConfig {
            mode: TelemetryMode::On,
        }
    }

    /// Apply the config to the current thread (fan-out points propagate it
    /// to their workers).
    pub fn apply(&self) {
        sink::set_enabled(self.mode == TelemetryMode::On);
    }
}

/// Handle to the current thread's metric sink.
///
/// Zero-sized: [`registry()`] hands one out anywhere, and every method
/// resolves to the calling thread's sink.  See the crate docs for the
/// threading model.
#[derive(Debug, Clone, Copy)]
pub struct Registry;

/// The ambient registry handle for the calling thread.
pub fn registry() -> Registry {
    Registry
}

impl Registry {
    /// Is recording enabled on this thread?
    pub fn is_enabled(&self) -> bool {
        sink::enabled()
    }

    /// Enable or disable recording on this thread.
    pub fn set_enabled(&self, enabled: bool) {
        sink::set_enabled(enabled);
    }

    /// Add `delta` to the counter `name` (no-op while disabled).
    #[inline]
    pub fn add(&self, name: &'static str, delta: u64) {
        if sink::enabled() {
            sink::counter_add(name, delta);
        }
    }

    /// Add `delta` to the counter `name` **regardless of mode**.  Reserved
    /// for counts that existing correctness tests assert on without turning
    /// telemetry on (the full-aggregate-build counter); everything else
    /// should use [`Registry::add`].
    #[inline]
    pub fn add_always(&self, name: &'static str, delta: u64) {
        sink::counter_add(name, delta);
    }

    /// Current value of the counter `name` on this thread (0 if never
    /// written).
    pub fn counter(&self, name: &str) -> u64 {
        sink::counter_value(name)
    }

    /// Set the gauge `name` to `value` (no-op while disabled).
    #[inline]
    pub fn gauge(&self, name: &'static str, value: f64) {
        if sink::enabled() {
            sink::gauge_set(name, value);
        }
    }

    /// Record `ns` into the histogram `name` (no-op while disabled).
    #[inline]
    pub fn record_ns(&self, name: &'static str, ns: u64) {
        if sink::enabled() {
            sink::histogram_record(name, ns);
        }
    }

    /// Start a span timer that records into the histogram `name` when
    /// finished (see [`Span`]).  The clock is read unconditionally so
    /// [`Span::finish_ns`] can feed report fields that must stay populated
    /// with telemetry off; the histogram recording is mode-gated.
    #[inline]
    pub fn span(&self, name: &'static str) -> Span {
        Span::start(name)
    }

    /// Capture the calling thread's sink as a snapshot (non-destructive).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        sink::snapshot()
    }

    /// Take the calling thread's whole sink, leaving it empty.  Fan-out
    /// points call this on each (fresh) worker thread and merge the deltas
    /// back into the spawning thread; do **not** drain a long-lived thread
    /// mid-measurement — counter deltas observed across a drain are wrong.
    pub fn drain(&self) -> ThreadDelta {
        sink::drain()
    }

    /// Clear the calling thread's sink (tests).
    pub fn reset(&self) {
        let _ = sink::drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_mode_records_nothing_but_always_counter_still_counts() {
        let reg = registry();
        reg.reset();
        reg.set_enabled(false);
        reg.add("t.counter", 3);
        reg.gauge("t.gauge", 1.5);
        reg.record_ns("t.hist", 100);
        assert_eq!(reg.counter("t.counter"), 0);
        let snap = reg.snapshot();
        assert!(snap.is_empty());
        reg.add_always("t.always", 2);
        assert_eq!(reg.counter("t.always"), 2);
        reg.reset();
    }

    #[test]
    fn on_mode_accumulates_and_snapshot_is_nondestructive() {
        let reg = registry();
        reg.reset();
        reg.set_enabled(true);
        reg.add("t.counter", 3);
        reg.add("t.counter", 4);
        reg.gauge("t.gauge", 1.5);
        reg.gauge("t.gauge", 2.5);
        reg.record_ns("t.hist", 100);
        reg.record_ns("t.hist", 200);
        assert_eq!(reg.counter("t.counter"), 7);
        let snap = reg.snapshot();
        assert_eq!(snap.counters.get("t.counter"), Some(&7));
        assert_eq!(snap.gauges.get("t.gauge"), Some(&2.5));
        assert_eq!(snap.histograms.get("t.hist").unwrap().count(), 2);
        // Snapshot again: unchanged (non-destructive).
        assert_eq!(reg.snapshot().counters.get("t.counter"), Some(&7));
        reg.set_enabled(false);
        reg.reset();
    }

    #[test]
    fn drain_and_merge_move_a_worker_sink_into_the_caller() {
        let reg = registry();
        reg.reset();
        reg.set_enabled(true);
        reg.add("t.main", 1);
        let enabled = reg.is_enabled();
        let delta = std::thread::scope(|scope| {
            scope
                .spawn(move || {
                    let reg = registry();
                    reg.set_enabled(enabled);
                    reg.add("t.main", 10);
                    reg.gauge("t.worker_gauge", 9.0);
                    reg.record_ns("t.worker_hist", 5);
                    reg.drain()
                })
                .join()
                .expect("worker")
        });
        delta.merge_into_current();
        assert_eq!(reg.counter("t.main"), 11);
        let snap = reg.snapshot();
        assert_eq!(snap.gauges.get("t.worker_gauge"), Some(&9.0));
        assert_eq!(snap.histograms.get("t.worker_hist").unwrap().count(), 1);
        reg.set_enabled(false);
        reg.reset();
    }

    #[test]
    fn span_elapsed_is_returned_even_when_disabled() {
        let reg = registry();
        reg.reset();
        reg.set_enabled(false);
        let span = reg.span("t.span");
        let ns = span.finish_ns();
        // Elapsed time flows to the caller regardless of mode…
        assert!(ns < u64::MAX);
        // …but nothing was recorded.
        assert!(reg.snapshot().is_empty());

        reg.set_enabled(true);
        let span = reg.span("t.span");
        let _ = span.finish_ns();
        assert_eq!(reg.snapshot().histograms.get("t.span").unwrap().count(), 1);
        reg.set_enabled(false);
        reg.reset();
    }

    #[test]
    fn config_applies_the_mode() {
        let reg = registry();
        TelemetryConfig::enabled().apply();
        assert!(reg.is_enabled());
        TelemetryConfig::default().apply();
        assert!(!reg.is_enabled());
        reg.reset();
    }
}
