//! In-memory spans for the traced pass.
//!
//! A span is recorded around each call the benchmark makes into a layer's
//! public API, nested under a per-scenario span and a per-pass span.
//! Spans carry the calling thread's allocation count at entry and exit.
//! A span's self time is its duration minus the durations of its direct
//! children; the traced pass runs on one thread, so children never
//! overlap.

use crate::alloc;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The crate the call goes into (`harness`, `simkit`, ...).
    pub layer: &'static str,
    /// What was called.
    pub name: &'static str,
    /// Scenario index within the pass, for spans under a scenario.
    pub scenario: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Allocations the thread made while the span was open.
    pub allocs: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans in memory until [`Tracer::to_json`] writes them out.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, u64)>,
    scenario: Option<usize>,
}

impl Tracer {
    /// A tracer with room for `capacity` spans, reserved up front so that
    /// recording allocates nothing inside the measured calls.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            scenario: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; spans close in reverse order of opening.
    pub fn enter(&mut self, layer: &'static str, name: &'static str) {
        let parent = self.open.last().map(|&(i, _)| i);
        let allocs = alloc::thread_allocs();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent,
            layer,
            name,
            scenario: self.scenario,
            start_ns,
            end_ns: start_ns,
            allocs: 0,
        });
        self.open.push((self.spans.len() - 1, allocs));
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let allocs = alloc::thread_allocs();
        let (i, start_allocs) = self.open.pop().expect("exit matches an enter");
        let span = &mut self.spans[i];
        span.end_ns = end_ns;
        span.allocs = allocs - start_allocs;
    }

    /// Number of open spans.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes open spans until `depth` remain (after a caught panic).
    pub fn close_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.exit();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(layer, name);
        let r = f();
        self.exit();
        r
    }

    /// Tags spans opened from now on with scenario `index`.
    pub fn set_scenario(&mut self, index: Option<usize>) {
        self.scenario = index;
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed self time per layer, nanoseconds.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            *by_layer.entry(s.layer).or_insert(0) += s.duration_ns().saturating_sub(children);
        }
        by_layer
    }

    /// Summed duration (ns) and allocations of the `layer` spans named
    /// `name`.
    pub fn total(&self, layer: &str, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .fold((0, 0), |(ns, a), s| (ns + s.duration_ns(), a + s.allocs))
    }

    /// The spans as a JSON document, with the per-layer self times.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n  \"self_ms_by_layer\": {{"
        );
        for (i, (layer, ns)) in self.self_ns_by_layer().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{layer}\": {}", *ns as f64 / 1e6);
        }
        out.push_str("\n  },\n  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "{sep}\n    {{\"id\": {i}, \"parent\": {}, \"layer\": \"{}\", \"name\": \"{}\", \
                 \"scenario\": {}, \"start_ns\": {}, \"end_ns\": {}, \"allocs\": {}}}",
                opt(s.parent),
                s.layer,
                s.name,
                opt(s.scenario),
                s.start_ns,
                s.end_ns,
                s.allocs
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::with_capacity(4);
        t.enter("harness", "pass");
        t.span("simkit", "run", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit();
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        let by_layer = t.self_ns_by_layer();
        assert_eq!(
            by_layer["harness"] + by_layer["simkit"],
            spans[0].duration_ns(),
            "self times partition the root span"
        );
        assert!(by_layer["simkit"] >= 2_000_000);
    }
}
