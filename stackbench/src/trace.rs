//! In-memory span recorder for the traced run: one span per public call the
//! benchmark makes (name, start, end, parent, round id), written out when
//! the run ends.  Spans are taken from the benchmark's side of each call, so
//! a layer's cost is measured from outside the program.

use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// What was called.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The round (or request) the call served, if any.
    pub round: Option<u64>,
}

/// A span recorder; a disabled one records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that keeps spans.
    pub fn on() -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that drops everything.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::on()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, round: Option<u64>) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(SpanRecord {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            round,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if let Some(index) = self.open.pop() {
            self.spans[index].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span.
    pub fn call<T>(&mut self, name: &'static str, round: Option<u64>, f: impl FnOnce() -> T) -> T {
        self.enter(name, round);
        let out = f();
        self.exit();
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Render the spans as a JSON array, one span per line.
    pub fn to_json(&self) -> String {
        let lines: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "    {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"round\": {}}}",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.round.map_or("null".to_string(), |r| r.to_string()),
                )
            })
            .collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    }
}
