//! Exporters over a drained event stream.
//!
//! Three formats, all deterministic functions of the (sorted) event list:
//!
//! - **Perfetto / chrome-tracing JSON** ([`perfetto_json`]): `ph:"X"`
//!   duration events on one track per client / NIC / engine unit / worker /
//!   compaction leader, loadable in `ui.perfetto.dev` or
//!   `chrome://tracing`. Timestamps are virtual microseconds.
//! - **Canonical lines** ([`canonical_lines`]): one plain-text line per
//!   event; the byte-comparable artifact `trace diff` operates on.
//! - **Per-stage breakdown** ([`breakdown`]): count/total/p50/p99/p999 per
//!   stage, plus [`reconcile`], which checks that every client op's leaf
//!   stages sum exactly to its total virtual latency.
//!
//! [`validate_perfetto`] is a dependency-free JSON syntax check used by the
//! CI tracing smoke gate (the repo deliberately has no serde).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use corm_sim_core::stats::Histogram;
use corm_sim_core::time::SimDuration;

use crate::recorder::Event;
use crate::stage::{Stage, StageClass, Track};

/// Renders events as a chrome-tracing JSON document.
///
/// Every track present in the stream gets a `thread_name` metadata record
/// so the Perfetto UI shows "client", "engine-unit-0", "worker-3", … as row
/// labels. `ts`/`dur` are virtual time in microseconds (3 decimals — exact
/// for nanosecond-resolution [`SimTime`](corm_sim_core::time::SimTime)).
pub fn perfetto_json(events: &[Event]) -> String {
    let mut tracks: Vec<Track> = events.iter().map(|e| e.track).collect();
    tracks.sort_unstable();
    tracks.dedup();

    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for t in &tracks {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            t.tid(),
            t.label()
        );
    }
    for e in events {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"name\":\"{}\",\"args\":{{\"op\":{}}}}}",
            e.track.tid(),
            e.start.as_nanos() as f64 / 1_000.0,
            e.dur.as_nanos() as f64 / 1_000.0,
            e.stage.name(),
            e.op
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Renders events as canonical text: one `track stage op start_ns dur_ns`
/// line per event, in drain order. Byte-identical canonical text is the
/// replay-determinism artifact that [`diff_canonical`] checks.
///
/// [`diff_canonical`]: crate::diff::diff_canonical
pub fn canonical_lines(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 48);
    for e in events {
        let _ = writeln!(
            out,
            "{} {} {} {} {}",
            e.track.label(),
            e.stage.name(),
            e.op,
            e.start.as_nanos(),
            e.dur.as_nanos()
        );
    }
    out
}

/// One row of the per-stage latency-breakdown table.
#[derive(Debug, Clone)]
pub struct StageRow {
    /// The stage.
    stage: Stage,
    /// Number of spans recorded for the stage.
    count: u64,
    /// Sum of span durations.
    total: SimDuration,
    /// Median span duration in microseconds.
    p50_us: f64,
    /// 99th-percentile span duration in microseconds.
    p99_us: f64,
    /// 99.9th-percentile span duration in microseconds.
    p999_us: f64,
}

/// Aggregates events into per-stage count/total/p50/p99/p999 rows, in
/// taxonomy order, skipping stages with no events.
pub fn breakdown(events: &[Event]) -> Vec<StageRow> {
    let mut hists: BTreeMap<Stage, (u64, Histogram)> = BTreeMap::new();
    for e in events {
        let (total_ns, h) = hists.entry(e.stage).or_default();
        *total_ns += e.dur.as_nanos();
        h.record_duration(e.dur);
    }
    Stage::ALL
        .iter()
        .filter_map(|&stage| {
            let (total_ns, h) = hists.get(&stage)?;
            let qs = h.quantiles(&[0.5, 0.99, 0.999]).expect("non-empty histogram");
            Some(StageRow {
                stage,
                count: h.len() as u64,
                total: SimDuration::from_nanos(*total_ns),
                p50_us: qs[0],
                p99_us: qs[1],
                p999_us: qs[2],
            })
        })
        .collect()
}

/// Plain-text rendering of a breakdown (for bins and test output).
pub fn render_breakdown(rows: &[StageRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<20} {:<7} {:>9} {:>14} {:>11} {:>11} {:>11}",
        "stage", "class", "count", "total_us", "p50_us", "p99_us", "p999_us"
    );
    for r in rows {
        let class = match r.stage.class() {
            StageClass::Op => "op",
            StageClass::Leaf => "leaf",
            StageClass::Detail => "detail",
        };
        let _ = writeln!(
            out,
            "{:<20} {:<7} {:>9} {:>14.3} {:>11.3} {:>11.3} {:>11.3}",
            r.stage.name(),
            class,
            r.count,
            r.total.as_micros_f64(),
            r.p50_us,
            r.p99_us,
            r.p999_us
        );
    }
    out
}

/// Result of checking per-op leaf sums against op totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reconciliation {
    /// Client ops seen (events with an `Op`-class span).
    pub ops: usize,
    /// Ops whose leaf durations did not sum to the op total.
    pub mismatched: usize,
    /// Largest absolute per-op discrepancy, in nanoseconds.
    pub max_error_ns: u64,
}

impl Reconciliation {
    /// Whether every op reconciled exactly.
    pub fn is_clean(&self) -> bool {
        self.mismatched == 0
    }
}

/// Checks, for every client op in the stream, that the sum of its `Leaf`
/// span durations equals its `Op` span duration exactly (integer
/// nanoseconds — no tolerance). The leaves are recorded at the same
/// `total += cost` sites that build the op total, so any mismatch is a
/// missed or double-counted charge site.
pub fn reconcile(events: &[Event]) -> Reconciliation {
    let mut op_total: BTreeMap<u64, u64> = BTreeMap::new();
    let mut leaf_sum: BTreeMap<u64, u64> = BTreeMap::new();
    for e in events {
        match e.stage.class() {
            StageClass::Op => *op_total.entry(e.op).or_default() += e.dur.as_nanos(),
            StageClass::Leaf => *leaf_sum.entry(e.op).or_default() += e.dur.as_nanos(),
            StageClass::Detail => {}
        }
    }
    let mut rec = Reconciliation { ops: op_total.len(), mismatched: 0, max_error_ns: 0 };
    for (op, &total) in &op_total {
        let leaves = leaf_sum.get(op).copied().unwrap_or(0);
        let err = total.abs_diff(leaves);
        if err > 0 {
            rec.mismatched += 1;
            rec.max_error_ns = rec.max_error_ns.max(err);
        }
    }
    rec
}

/// Validates that `s` is syntactically well-formed JSON whose top level is
/// an object containing a `traceEvents` array, and returns the number of
/// complete (`"ph":"X"`) duration events. Dependency-free by design: the CI
/// smoke gate runs it where no JSON library exists.
pub fn validate_perfetto(s: &str) -> Result<usize, String> {
    let mut p = JsonChecker { bytes: s.as_bytes(), pos: 0 };
    p.skip_ws();
    if p.peek() != Some(b'{') {
        return Err("top level is not a JSON object".to_string());
    }
    p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    if !s.contains("\"traceEvents\"") {
        return Err("missing traceEvents array".to_string());
    }
    Ok(s.matches("\"ph\":\"X\"").count())
}

/// Minimal recursive-descent JSON syntax checker (no tree, no allocation).
struct JsonChecker<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonChecker<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at offset {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => return Err(format!("bad object separator {other:?} at {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => return Err(format!("bad array separator {other:?} at {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => self.pos += 2,
                Some(_) => self.pos += 1,
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E') | Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            Err(format!("empty number at {start}"))
        } else {
            Ok(())
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corm_sim_core::time::SimTime;

    fn span(start_us: u64, dur_us: u64, track: Track, stage: Stage, op: u64) -> Event {
        Event {
            start: SimTime::from_micros(start_us),
            dur: SimDuration::from_micros(dur_us),
            track,
            stage,
            op,
        }
    }

    fn sample_events() -> Vec<Event> {
        vec![
            span(0, 5, Track::Client, Stage::ClientOp, 1),
            span(0, 2, Track::Client, Stage::Verb, 1),
            span(2, 1, Track::Client, Stage::VersionCheck, 1),
            span(2, 2, Track::Client, Stage::Backoff, 1),
            span(1, 1, Track::EngineUnit(0), Stage::EngineService, 1),
            span(5, 3, Track::Worker(2), Stage::WorkerServe, 0),
        ]
    }

    #[test]
    fn perfetto_json_is_valid_and_counts_events() {
        let json = perfetto_json(&sample_events());
        let n = validate_perfetto(&json).expect("valid json");
        assert_eq!(n, 6);
        assert!(json.contains("\"engine-unit-0\""));
        assert!(json.contains("\"worker-2\""));
        assert!(json.contains("\"client\""));
    }

    #[test]
    fn validate_rejects_malformed_json() {
        assert!(validate_perfetto("").is_err());
        assert!(validate_perfetto("[]").is_err(), "top level must be an object");
        assert!(validate_perfetto("{\"traceEvents\":[").is_err());
        assert!(validate_perfetto("{\"traceEvents\":[]} x").is_err());
        assert_eq!(validate_perfetto("{\"traceEvents\":[]}"), Ok(0));
    }

    #[test]
    fn reconcile_accepts_exact_leaf_sums() {
        let rec = reconcile(&sample_events());
        assert_eq!(rec.ops, 1);
        assert!(rec.is_clean(), "2+1+2 leaf == 5 op total");
    }

    #[test]
    fn reconcile_flags_missing_leaf() {
        let mut events = sample_events();
        events.retain(|e| e.stage != Stage::Backoff);
        let rec = reconcile(&events);
        assert_eq!(rec.mismatched, 1);
        assert_eq!(rec.max_error_ns, 2_000);
    }

    #[test]
    fn breakdown_orders_by_taxonomy_and_skips_empty() {
        let rows = breakdown(&sample_events());
        let stages: Vec<Stage> = rows.iter().map(|r| r.stage).collect();
        assert_eq!(
            stages,
            [
                Stage::ClientOp,
                Stage::Verb,
                Stage::VersionCheck,
                Stage::Backoff,
                Stage::EngineService,
                Stage::WorkerServe,
            ]
        );
        let op = &rows[0];
        assert_eq!(op.count, 1);
        assert_eq!(op.total, SimDuration::from_micros(5));
        assert_eq!(op.p50_us, 5.0);
        let text = render_breakdown(&rows);
        assert!(text.contains("client_op"));
        assert!(text.contains("worker_serve"));
    }

    #[test]
    fn canonical_lines_round_trip_format() {
        let lines = canonical_lines(&sample_events());
        let first = lines.lines().next().unwrap();
        assert_eq!(first, "client client_op 1 0 5000");
        assert_eq!(lines.lines().count(), 6);
    }
}
