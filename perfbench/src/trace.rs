//! In-memory spans for the traced run.
//!
//! A span is opened and closed by the benchmark's own code around one
//! call into a crate's public API. It records its name, its parent, the
//! cell it belongs to, start and end, and the BDD manager's `mk_calls`
//! and computed-cache lookups consumed in between. Nothing is written
//! until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use bfvr_bdd::BddManager;

/// One closed (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `bfv.reparam.union`.
    pub name: &'static str,
    /// Cell id the span belongs to.
    pub cell: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Node creations inside the span.
    pub mk_calls: u64,
    /// Computed-cache lookups inside the span.
    pub cache_lookups: u64,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Per-name aggregate of a span set.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// Spans of this name.
    pub calls: u64,
    /// Summed duration, children included.
    pub incl_s: f64,
    /// Summed duration minus the children's.
    pub self_s: f64,
    /// Summed `mk_calls`.
    pub mk_calls: u64,
}

/// Span recorder for one traced pass.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    cell: u32,
    /// Highest computed-cache residency seen at any span boundary.
    pub cache_bytes_max: usize,
    /// Highest unique-table residency seen at any span boundary.
    pub unique_bytes_max: usize,
}

impl Tracer {
    /// An empty tracer whose timestamps count from `epoch`.
    #[must_use]
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            cell: 0,
            cache_bytes_max: 0,
            unique_bytes_max: 0,
        }
    }

    /// Tags the spans opened from now on with `cell`.
    pub fn set_cell(&mut self, cell: u32) {
        self.cell = cell;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; `m` is the manager the
    /// call will use, when one exists yet.
    pub fn open(&mut self, name: &'static str, m: Option<&BddManager>) -> usize {
        let (mk, lookups) = m.map_or((0, 0), |m| {
            let s = m.stats();
            (s.mk_calls, s.cache_lookups)
        });
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            cell: self.cell,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            // Hold the opening counters until `close` turns them into deltas.
            mk_calls: mk,
            cache_lookups: lookups,
        });
        self.open.push(idx);
        idx
    }

    /// Closes span `idx`, which must be the innermost open one.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order: a bug in the replay.
    pub fn close(&mut self, idx: usize, m: Option<&BddManager>) {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(idx), "spans closed out of order");
        let span = &mut self.spans[idx];
        span.end_ns = end;
        match m {
            Some(m) => {
                let s = m.stats();
                span.mk_calls = s.mk_calls - span.mk_calls;
                span.cache_lookups = s.cache_lookups - span.cache_lookups;
                self.cache_bytes_max = self.cache_bytes_max.max(s.cache_bytes);
                self.unique_bytes_max = self.unique_bytes_max.max(s.unique_bytes);
            }
            None => {
                span.mk_calls = 0;
                span.cache_lookups = 0;
            }
        }
    }

    /// Closes every span opened inside span `idx` that an early return
    /// left open, so `idx` becomes the innermost again.
    pub fn unwind_to(&mut self, idx: usize) {
        while let Some(&top) = self.open.last() {
            if top == idx {
                break;
            }
            self.close(top, None);
        }
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Aggregates the spans by name, with self time.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_s = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.secs();
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.incl_s += s.secs();
            t.self_s += s.secs() - child_s[i];
            t.mk_calls += s.mk_calls;
        }
        out
    }

    /// The spans as JSON lines.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"cell\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"mk_calls\":{},\"cache_lookups\":{}}}",
                s.cell, s.name, s.start_ns, s.end_ns, s.mk_calls, s.cache_lookups
            );
        }
        out
    }
}
