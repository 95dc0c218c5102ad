//! Spans around the calls the benchmark makes into the program.
//!
//! A [`Probe`] brackets one call. [`Off`] compiles to nothing, so the
//! untraced rounds — the ones the gated numbers come from — run the bare
//! calls. [`Recorder`] stamps `{name, start, end, parent, round}` into a
//! buffer sized before the rounds start, and keeps per-name totals for every
//! span, including those beyond the buffer. A span's self time is its
//! duration minus the part its child spans cover.

use std::time::Instant;

use crate::json::Json;

/// The spans the workloads record. A span around a call carries the name of
/// the ledger row the call belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    SimLoop,
    ReadBatch,
    Free,
    Compact,
    RecoveryRead,
    Alloc,
    Write,
}

impl Name {
    pub const ALL: [Name; 7] = [
        Name::SimLoop,
        Name::ReadBatch,
        Name::Free,
        Name::Compact,
        Name::RecoveryRead,
        Name::Alloc,
        Name::Write,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Name::SimLoop => "bench.sim_loop_ns",
            Name::ReadBatch => "core.read_batch_ns_per_entry",
            Name::Free => "core.server_free_ns",
            Name::Compact => "core.compact_ns_per_object",
            Name::RecoveryRead => "core.recovery_read_ns",
            Name::Alloc => "core.server_alloc_ns",
            Name::Write => "core.server_write_ns",
        }
    }
}

/// Brackets calls into the program. `enter`/`exit` pairs nest.
pub trait Probe {
    fn enter(&mut self, name: Name);
    fn exit(&mut self);
}

/// The untraced probe.
pub struct Off;

impl Probe for Off {
    #[inline(always)]
    fn enter(&mut self, _name: Name) {}
    #[inline(always)]
    fn exit(&mut self) {}
}

/// One recorded span; times are nanoseconds since the recorder was made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: Name,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the buffer, if it was kept.
    pub parent: Option<u32>,
    pub round: u32,
}

/// Calls, total and self nanoseconds of every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: Name,
    start: u64,
    children_ns: u64,
    slot: Option<u32>,
}

/// The tracing probe.
pub struct Recorder {
    origin: Instant,
    round: u32,
    kept: Vec<Span>,
    dropped: u64,
    stack: Vec<Open>,
    totals: [NameTotal; Name::ALL.len()],
}

impl Recorder {
    /// A recorder that keeps the first `capacity` spans individually.
    pub fn new(capacity: usize) -> Self {
        Recorder {
            origin: Instant::now(),
            round: 0,
            kept: Vec::with_capacity(capacity),
            dropped: 0,
            stack: Vec::with_capacity(8),
            totals: [NameTotal::default(); Name::ALL.len()],
        }
    }

    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// `enter` at an explicit time; the tests drive this directly.
    fn enter_at(&mut self, name: Name, start: u64) {
        let parent = self.stack.last().and_then(|o| o.slot);
        let slot = if self.kept.len() < self.kept.capacity() {
            self.kept.push(Span { name, start, end: start, parent, round: self.round });
            Some(self.kept.len() as u32 - 1)
        } else {
            self.dropped += 1;
            None
        };
        self.stack.push(Open { name, start, children_ns: 0, slot });
    }

    /// `exit` at an explicit time; the tests drive this directly.
    fn exit_at(&mut self, end: u64) {
        let open = self.stack.pop().expect("exit without enter");
        let dur = end - open.start;
        if let Some(slot) = open.slot {
            self.kept[slot as usize].end = end;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.children_ns += dur;
        }
        let t = &mut self.totals[open.name as usize];
        t.calls += 1;
        t.total_ns += dur;
        t.self_ns += dur - open.children_ns.min(dur);
    }

    /// Totals of one span name (zero if it never ran).
    pub fn total(&self, name: Name) -> NameTotal {
        self.totals[name as usize]
    }

    /// The spans file: per-name totals over every span, then the kept spans.
    pub fn to_json(&self) -> Json {
        let totals = Name::ALL
            .iter()
            .map(|&name| (name, self.total(name)))
            .filter(|(_, t)| t.calls > 0)
            .map(|(name, t)| {
                Json::obj([
                    ("name", Json::Str(name.as_str().into())),
                    ("calls", Json::UInt(t.calls)),
                    ("total_ns", Json::UInt(t.total_ns)),
                    ("self_ns", Json::UInt(t.self_ns)),
                ])
            })
            .collect();
        let spans = self
            .kept
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::Str(s.name.as_str().into())),
                    ("start", Json::UInt(s.start)),
                    ("end", Json::UInt(s.end)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::UInt(p as u64))),
                    ("round", Json::UInt(s.round as u64)),
                ])
            })
            .collect();
        Json::obj([
            ("unit", Json::Str("ns".into())),
            ("dropped", Json::UInt(self.dropped)),
            ("totals", Json::Arr(totals)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

impl Probe for Recorder {
    #[inline]
    fn enter(&mut self, name: Name) {
        let now = self.now();
        self.enter_at(name, now);
    }
    #[inline]
    fn exit(&mut self) {
        let now = self.now();
        self.exit_at(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut r = Recorder::new(16);
        r.enter_at(Name::SimLoop, 0);
        r.enter_at(Name::Free, 10);
        r.exit_at(40);
        r.enter_at(Name::Free, 50);
        r.enter_at(Name::Write, 55);
        r.exit_at(60);
        r.exit_at(70);
        r.exit_at(100);
        assert_eq!(r.total(Name::SimLoop), NameTotal { calls: 1, total_ns: 100, self_ns: 50 });
        assert_eq!(r.total(Name::Free), NameTotal { calls: 2, total_ns: 50, self_ns: 45 });
        assert_eq!(r.total(Name::Write), NameTotal { calls: 1, total_ns: 5, self_ns: 5 });
        assert_eq!(r.total(Name::Alloc), NameTotal::default());
    }

    #[test]
    fn parents_point_at_enclosing_spans() {
        let mut r = Recorder::new(16);
        r.set_round(3);
        r.enter_at(Name::SimLoop, 0);
        r.enter_at(Name::Free, 1);
        r.exit_at(2);
        r.exit_at(3);
        assert_eq!(
            r.kept,
            vec![
                Span { name: Name::SimLoop, start: 0, end: 3, parent: None, round: 3 },
                Span { name: Name::Free, start: 1, end: 2, parent: Some(0), round: 3 },
            ]
        );
    }

    #[test]
    fn totals_keep_counting_once_the_buffer_is_full() {
        let mut r = Recorder::new(1);
        for i in 0..3 {
            r.enter_at(Name::Free, i * 10);
            r.exit_at(i * 10 + 4);
        }
        assert_eq!(r.kept.len(), 1);
        assert_eq!(r.dropped, 2);
        assert_eq!(r.total(Name::Free), NameTotal { calls: 3, total_ns: 12, self_ns: 12 });
        assert!(r.to_json().render().contains("\"dropped\":2"));
    }
}
