//! The benchmark's own spans: recorded around each call it makes into the
//! program, kept in memory, and written out when the run ends.

use std::fmt::Write as _;
use std::ops::Range;
use std::time::Instant;

/// One timed call (or loop of `calls` identical calls) into the program.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    /// Id of the enclosing span; 0 for a root.
    pub parent: u32,
    /// The request this span serves (its sequence number); 0 when none.
    pub request: u64,
    pub calls: u32,
}

/// In-memory span store. Ids are 1-based indices; 0 means "no span". A
/// disabled store records nothing and hands out id 0, so the untraced run
/// pays one branch per call site.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    cap: usize,
    list: Vec<Span>,
    pub dropped: u64,
}

impl Spans {
    pub fn new(enabled: bool, cap: usize) -> Self {
        Self {
            enabled,
            cap,
            list: Vec::with_capacity(if enabled { cap } else { 0 }),
            dropped: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn push(&mut self, span: Span) -> u32 {
        if !self.enabled {
            return 0;
        }
        if self.list.len() >= self.cap {
            self.dropped += 1;
            return 0;
        }
        self.list.push(span);
        self.list.len() as u32
    }

    /// Closes a span opened earlier (a request root whose end is known only
    /// when its response is observed).
    pub fn close(&mut self, id: u32, end: Instant) {
        if id > 0 {
            self.list[id as usize - 1].end = end;
        }
    }

    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Durations in nanoseconds of the spans named `name` at positions
    /// `range` (a phase's spans), ascending.
    pub fn durations_ns(&self, name: &str, range: Range<usize>) -> Vec<u64> {
        let end = range.end.min(self.list.len());
        let mut out: Vec<u64> = self.list[range.start.min(end)..end]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end.saturating_duration_since(s.start).as_nanos() as u64)
            .collect();
        out.sort_unstable();
        out
    }

    /// JSON lines, one span each, times in nanoseconds since `origin`.
    pub fn to_jsonl(&self, origin: Instant) -> String {
        let mut out = String::new();
        for (i, s) in self.list.iter().enumerate() {
            let at = |t: Instant| t.saturating_duration_since(origin).as_nanos();
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{},\"calls\":{}}}",
                i + 1,
                s.name,
                at(s.start),
                at(s.end),
                s.parent,
                s.request,
                s.calls
            );
        }
        out
    }
}
