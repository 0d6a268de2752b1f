//! Span recording around the calls the benchmark makes into a layer.
//!
//! Every call is timed the same way whether tracing is on or off
//! ([`Tracer::enter`] / [`Tracer::exit`] return the elapsed time the
//! drivers use as the latency sample); with tracing on the span is also
//! kept in memory — name, start, end, parent span, op id — and written as
//! JSON lines when the run ends. A layer's **self time** is its span's
//! duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// `layer.call`, for example `server.put`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The workload operation this span belongs to; spans of one
    /// operation share it.
    pub op: u64,
}

/// An open span, closed by [`Tracer::exit`].
#[derive(Debug)]
#[must_use = "a span must be closed with Tracer::exit"]
pub struct Open {
    name: &'static str,
    op: u64,
    start: Instant,
    index: Option<u32>,
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer that times calls but keeps no spans.
    pub fn off() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A tracer that keeps every span in memory.
    pub fn on() -> Self {
        Tracer {
            on: true,
            ..Self::off()
        }
    }

    /// Opens a span. Spans nest: one opened before this one is closed
    /// becomes its child.
    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        let index = if self.on {
            let index = self.spans.len() as u32;
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.stack.last().copied(),
                op,
            });
            self.stack.push(index);
            Some(index)
        } else {
            None
        };
        Open {
            name,
            op,
            start: Instant::now(),
            index,
        }
    }

    /// Closes a span and returns its duration in microseconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(index) = open.index {
            let span = &mut self.spans[index as usize];
            debug_assert_eq!((span.name, span.op), (open.name, open.op));
            span.start_ns = open.start.duration_since(self.origin).as_nanos() as u64;
            span.end_ns = end.duration_since(self.origin).as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(index), "spans close innermost first");
        }
        end.duration_since(open.start).as_nanos() as f64 / 1e3
    }

    /// Times `f` as one span and returns its result with the duration in
    /// microseconds.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.enter(name, op);
        let result = f();
        (result, self.exit(open))
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time in microseconds of every span, grouped by span name.
    pub fn self_times_us(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            by_name.entry(s.name).or_default().push(own as f64 / 1e3);
        }
        by_name
    }

    /// The spans as JSON lines: `name`, `start_ns`, `end_ns`, `parent`
    /// (index of the line of the enclosing span, or null) and `op`.
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::on();
        let outer = tr.enter("outer", 1);
        let inner = tr.enter("inner", 1);
        std::hint::black_box((0..10_000).sum::<u64>());
        let inner_us = tr.exit(inner);
        let outer_us = tr.exit(outer);
        assert!(outer_us >= inner_us);
        assert_eq!(tr.spans()[1].parent, Some(0));
        let own = tr.self_times_us();
        assert!(own["outer"][0] <= outer_us - inner_us + 1.0);
        assert_eq!(tr.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn off_tracer_times_but_keeps_nothing() {
        let mut tr = Tracer::off();
        let ((), us) = tr.time("x", 0, || ());
        assert!(us >= 0.0);
        assert!(tr.spans().is_empty());
    }
}
