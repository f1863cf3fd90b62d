//! Host-clock spans recorded from outside the program, around calls into
//! each layer's public functions.
//!
//! Every span is a plain `haft_trace::TraceEvent` stamped in host
//! nanoseconds since the tracer's epoch and carrying three numeric
//! arguments: `id` (the unit of work the span belongs to — one batch,
//! campaign or kernel; all of a unit's spans share it), `span` (unique
//! per span) and `parent` (the enclosing span, 0 for a root). Spans stay
//! in memory until the run ends.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use haft::trace::{ArgValue, EventKind, TraceEvent};

/// Trace lane (Chrome `pid`) of the benchmark's own spans.
const PID: u32 = 1;

pub struct Tracer<'c> {
    /// Off in untraced runs: `span` then only calls through.
    enabled: bool,
    epoch: Instant,
    next_span: &'c AtomicU64,
    tid: u32,
    stack: Vec<u64>,
    pub events: Vec<TraceEvent>,
}

impl<'c> Tracer<'c> {
    pub fn new(enabled: bool, epoch: Instant, next_span: &'c AtomicU64) -> Self {
        Tracer { enabled, epoch, next_span, tid: 0, stack: Vec::new(), events: Vec::new() }
    }

    /// A tracer for another OS thread (lane `tid`) whose root spans are
    /// children of this tracer's innermost open span.
    pub fn fork(&self, tid: u32) -> Tracer<'c> {
        Tracer {
            enabled: self.enabled,
            epoch: self.epoch,
            next_span: self.next_span,
            tid,
            stack: self.stack.last().copied().into_iter().collect(),
            events: Vec::new(),
        }
    }

    /// Takes the events a forked tracer recorded.
    pub fn join(&mut self, child: Tracer<'c>) {
        self.events.extend(child.events);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `cat`/`name` of unit `id`.
    pub fn span<R>(
        &mut self,
        cat: &'static str,
        name: &'static str,
        id: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        // Relaxed: the counter only hands out unique numbers.
        let span = self.next_span.fetch_add(1, Ordering::Relaxed) + 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(span);
        let t0 = self.now_ns();
        let out = f(self);
        let dur = self.now_ns() - t0;
        self.stack.pop();
        self.events.push(
            TraceEvent::span(cat, name, t0, dur)
                .lane(PID, self.tid)
                .arg("id", id)
                .arg("span", span)
                .arg("parent", parent),
        );
        out
    }

    /// Duration in host nanoseconds of the span that closed last.
    pub fn last_ns(&self) -> u64 {
        match self.events.last().map(|e| e.kind) {
            Some(EventKind::Span { dur }) => dur,
            _ => 0,
        }
    }

    /// Attaches an argument to the span that closed last.
    pub fn arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if let (true, Some(ev)) = (self.enabled, self.events.last_mut()) {
            ev.args.push((key, value.into()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{num_arg, self_times};

    #[test]
    fn spans_nest_and_forks_attach_to_the_open_span() {
        let counter = AtomicU64::new(0);
        let mut t = Tracer::new(true, Instant::now(), &counter);
        t.span("c", "root", 7, |t| {
            t.span("c", "child", 7, |_| ());
            let mut w = t.fork(1);
            w.span("c", "worker", 7, |_| ());
            t.join(w);
        });
        t.arg("extra", 3u64);
        let by_name = |n: &str| t.events.iter().find(|e| e.name == n).unwrap();
        let root = num_arg(by_name("root"), "span").unwrap();
        assert_eq!(num_arg(by_name("root"), "parent"), Some(0.0));
        assert_eq!(num_arg(by_name("child"), "parent"), Some(root));
        assert_eq!(num_arg(by_name("worker"), "parent"), Some(root));
        assert_eq!(by_name("worker").tid, 1);
        assert_eq!(num_arg(by_name("root"), "extra"), Some(3.0));
        assert!(t.events.iter().all(|e| num_arg(e, "id") == Some(7.0)));
        assert_eq!(self_times(&t.events).len(), 3);

        let mut off = Tracer::new(false, Instant::now(), &counter);
        assert_eq!(off.span("c", "root", 1, |_| 5), 5);
        off.arg("extra", 1u64);
        assert!(off.events.is_empty());
    }
}
