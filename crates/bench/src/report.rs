//! Result presentation: the typed row sheet every figure fills, and JSON
//! metrics snapshots.
//!
//! A figure fills a [`Sheet`] once; the aligned text it prints, the CSV
//! under `results/` and the JSON rows next to it are three renderings of
//! those rows, so they cannot disagree. JSON is hand-rolled — the
//! workspace builds offline, without serde.

use std::fmt::{self, Write as _};
use std::path::PathBuf;

use corm_core::CompactionReport;
use corm_sim_core::stats::Histogram;
use corm_sim_core::time::SimTime;
use corm_sim_rdma::{FaultKind, Rnic, DELAY_SPIKE};
use corm_trace::TraceHandle;

/// One cell of a [`Sheet`]: text, or a number that remembers how it
/// prints while keeping its full value for JSON and for gates.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A label.
    Text(String),
    /// An unsigned count.
    Int(u64),
    /// A float printed with `decimals` places, or in the shortest form
    /// that round-trips when `None`.
    Float {
        /// The unrounded value.
        value: f64,
        /// Decimal places in text and CSV.
        decimals: Option<usize>,
    },
}

impl Cell {
    /// The numeric value. Panics on a text cell: a gate that reads a label
    /// as a number is a bug in the figure.
    pub fn num(&self) -> f64 {
        match self {
            Cell::Int(n) => *n as f64,
            Cell::Float { value, .. } => *value,
            Cell::Text(s) => panic!("cell {s:?} is not numeric"),
        }
    }

    fn json(&self) -> Json {
        match self {
            Cell::Text(s) => Json::Str(s.clone()),
            Cell::Int(n) => Json::UInt(*n),
            Cell::Float { value, .. } => Json::Float(*value),
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Text(s) => f.write_str(s),
            Cell::Int(n) => write!(f, "{n}"),
            Cell::Float { value, decimals: Some(d) } => write!(f, "{value:.d$}"),
            Cell::Float { value, decimals: None } => write!(f, "{value}"),
        }
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Text(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Self {
        Cell::Text(s)
    }
}

impl From<u64> for Cell {
    fn from(n: u64) -> Self {
        Cell::Int(n)
    }
}

impl From<usize> for Cell {
    fn from(n: usize) -> Self {
        Cell::Int(n as u64)
    }
}

impl From<f64> for Cell {
    fn from(value: f64) -> Self {
        Cell::Float { value, decimals: None }
    }
}

/// One row of a [`Sheet`], addressed by column name.
#[derive(Debug, Clone, Copy)]
pub struct Row<'a> {
    header: &'a [String],
    cells: &'a [Cell],
}

impl Row<'_> {
    fn cell(&self, column: &str) -> &Cell {
        let at = self.header.iter().position(|h| h == column);
        &self.cells[at.unwrap_or_else(|| panic!("no column {column:?} in {:?}", self.header))]
    }

    /// The numeric value under `column`.
    pub fn num(&self, column: &str) -> f64 {
        self.cell(column).num()
    }

    /// The text under `column`, as the CSV shows it.
    pub fn text(&self, column: &str) -> String {
        self.cell(column).to_string()
    }
}

/// A titled sheet of typed rows.
#[derive(Debug, Clone)]
pub struct Sheet {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl Sheet {
    /// Creates a sheet with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Sheet {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: &[Cell]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// The rows, in insertion order.
    pub fn rows(&self) -> impl Iterator<Item = Row<'_>> + Clone {
        self.rows.iter().map(|cells| Row { header: &self.header, cells })
    }

    /// The rows whose `column` reads `value`.
    pub fn rows_where<'a>(
        &'a self,
        column: &'a str,
        value: &'a str,
    ) -> impl Iterator<Item = Row<'a>> + Clone {
        self.rows().filter(move |r| r.text(column) == value)
    }

    /// The first row whose columns read as `keys` say. Panics when there
    /// is none: a gate that looks up a cell the figure did not sweep is a
    /// bug in the figure.
    pub fn find(&self, keys: &[(&str, &str)]) -> Row<'_> {
        self.rows()
            .find(|r| keys.iter().all(|(column, value)| r.text(column) == *value))
            .unwrap_or_else(|| panic!("no row with {keys:?} in {:?}", self.title))
    }

    /// Renders the aligned text form.
    pub fn render(&self) -> String {
        let text: Vec<Vec<String>> =
            self.rows.iter().map(|r| r.iter().map(Cell::to_string).collect()).collect();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &text {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(s, "{:>w$}  ", cell, w = widths[i]);
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let total: usize = widths.iter().map(|w| w + 2).sum();
        let _ = writeln!(out, "{}", "-".repeat(total.saturating_sub(2)));
        for row in &text {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Prints the aligned text form to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// CSV form (header + rows).
    pub fn to_csv(&self) -> String {
        let esc = |s: String| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.header.iter().map(|h| esc(h.clone())).collect::<Vec<_>>().join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c.to_string())).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// The rows as a JSON array of objects keyed by the column headers;
    /// numeric cells carry their unrounded value.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.rows
                .iter()
                .map(|row| {
                    Json::Obj(self.header.iter().cloned().zip(row.iter().map(Cell::json)).collect())
                })
                .collect(),
        )
    }
}

/// Directory figures write to: `results/` at the workspace root, wherever
/// the process was started from.
pub fn results_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"))
}

/// A JSON value (the subset the metrics exports need).
#[derive(Debug, Clone)]
pub enum Json {
    /// A boolean.
    Bool(bool),
    /// An unsigned integer.
    UInt(u64),
    /// A float (rendered with enough precision to round-trip).
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered fields.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Serializes the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Builder for a JSON object with insertion-ordered fields.
#[derive(Debug, Clone, Default)]
pub struct JsonObject {
    fields: Vec<(String, Json)>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        JsonObject::default()
    }

    /// Adds any JSON value.
    pub fn field(mut self, key: &str, value: Json) -> Self {
        self.fields.push((key.to_string(), value));
        self
    }

    /// Adds an unsigned integer.
    pub fn uint(self, key: &str, value: u64) -> Self {
        self.field(key, Json::UInt(value))
    }

    /// Adds a float.
    pub fn float(self, key: &str, value: f64) -> Self {
        self.field(key, Json::Float(value))
    }

    /// Adds a string.
    pub fn str(self, key: &str, value: &str) -> Self {
        self.field(key, Json::Str(value.to_string()))
    }

    /// Finishes the object.
    pub fn build(self) -> Json {
        Json::Obj(self.fields)
    }
}

/// The canonical name of a fault kind in exports.
pub fn fault_kind_name(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::Transient => "transient",
        FaultKind::DelaySpike => "delay_spike",
        FaultKind::CacheMiss => "cache_miss",
        FaultKind::QpBreak => "qp_break",
    }
}

/// Snapshot of a NIC's injected faults — counted by kind from its fault
/// log — and the client's recovery counters as a JSON object, including
/// the replayable fault log.
pub fn fault_metrics(
    rnic: &Rnic,
    qp_breaks: u64,
    qp_reconnects: u64,
    client_recoveries: u64,
) -> Json {
    let fired = rnic.fault_log();
    let count = |kind| fired.iter().filter(|&&(_, k)| k == kind).count() as u64;
    let log: Vec<Json> = fired
        .iter()
        .map(|&(op, kind)| {
            JsonObject::new().uint("op", op).str("kind", fault_kind_name(kind)).build()
        })
        .collect();
    JsonObject::new()
        .uint("injected_faults", count(FaultKind::Transient))
        .uint("injected_qp_breaks", count(FaultKind::QpBreak))
        .uint("injected_delays", count(FaultKind::DelaySpike))
        .uint("injected_delay_ns", count(FaultKind::DelaySpike) * DELAY_SPIKE.as_nanos())
        .uint("forced_cache_misses", count(FaultKind::CacheMiss))
        .uint("qp_breaks", qp_breaks)
        .uint("qp_reconnects", qp_reconnects)
        .uint("client_recoveries", client_recoveries)
        .field("fault_log", Json::Arr(log))
        .build()
}

/// Snapshot of the NIC's doorbell counters and inbound verb engine as a
/// JSON object — exported next to `fault_metrics` so runs can correlate
/// batching behaviour with fault/recovery activity.
///
/// `elapsed` is the virtual-time horizon the run covered (its final clock
/// minus its starting clock); utilization is engine busy time over that
/// window.
pub fn engine_metrics(rnic: &Rnic, elapsed: SimTime) -> Json {
    use std::sync::atomic::Ordering::Relaxed;
    let s = &rnic.stats;
    let mut obj = JsonObject::new()
        .uint("doorbells", s.doorbells.load(Relaxed))
        .uint("wqes", s.wqes.load(Relaxed))
        .uint("engine_admitted", rnic.engine_admitted())
        .uint("engine_busy_ns", rnic.engine_busy().as_nanos())
        .float("engine_utilization", rnic.engine_utilization(elapsed));
    // With a far tier attached, append residency gauges and the tier's
    // counters so oversubscription runs export the fault path: the pin
    // faults and hard misses the NIC took and what the tier moved
    // (spills/fetches with byte volumes).
    if let Some(tier) = rnic.tier() {
        let res = rnic.aspace().phys().residency_counts();
        let t = tier.stats();
        obj = obj.field(
            "tiering",
            JsonObject::new()
                .uint("frames_pinned", res.pinned)
                .uint("frames_resident", res.resident)
                .uint("frames_far", res.far)
                .uint("spills", t.spills)
                .uint("fetches", t.fetches)
                .uint("pin_faults", t.pin_faults)
                .uint("hard_misses", t.hard_misses)
                .uint("bytes_spilled", t.bytes_spilled)
                .uint("bytes_fetched", t.bytes_fetched)
                .uint("nic_tier_fetches", s.tier_fetches.load(Relaxed))
                .build(),
        );
    }
    obj.build()
}

/// Server-side tiering state — the pin-budget manager's eviction and heat
/// counters — as a JSON object, exported next to [`engine_metrics`] (which
/// covers the NIC/tier side) by oversubscription runs. Returns an empty
/// object when the server runs without a pin budget.
pub fn tier_metrics(server: &corm_core::CormServer) -> Json {
    let Some(t) = server.tiering() else {
        return JsonObject::new().build();
    };
    let histogram = Json::Arr(t.heat_histogram().into_iter().map(Json::UInt).collect());
    JsonObject::new()
        .uint("pin_budget_frames", t.budget() as u64)
        .uint("evictions", t.evictions())
        .field("heat_histogram", histogram)
        .build()
}

/// Median of a latency histogram, `0.0` when empty. The figure binaries
/// record latencies in microseconds, so this is the paper's "median µs"
/// column; it is the one shared quantile helper the binaries use instead
/// of per-binary `median().unwrap()` copies.
pub fn median_us(h: &Histogram) -> f64 {
    h.median().unwrap_or(0.0)
}

/// Throughput in kreq/s implied by a median latency recorded in µs
/// (`0.0` when the histogram is empty).
pub fn kreqs_from_median(h: &Histogram) -> f64 {
    let m = median_us(h);
    if m > 0.0 {
        1e3 / m
    } else {
        0.0
    }
}

/// Throughput in Mreq/s implied by a median latency recorded in µs
/// (`0.0` when the histogram is empty).
pub fn mreqs_from_median(h: &Histogram) -> f64 {
    let m = median_us(h);
    if m > 0.0 {
        1.0 / m
    } else {
        0.0
    }
}

/// One compaction pass's [`CompactionReport`] as a JSON object, so the
/// compaction figures can export per-pass work and stage costs next to
/// their latency tables.
pub fn compaction_metrics(report: &CompactionReport) -> Json {
    // Pause chunks (the busy intervals between yields) as a latency
    // distribution: p50/p99 of how long serving is held off by the pass.
    let mut pauses = Histogram::new();
    for &chunk in &report.chunks {
        pauses.record_duration(chunk);
    }
    JsonObject::new()
        .uint("class", u64::from(report.class.0))
        .uint("collected", report.collected as u64)
        .uint("merges", report.merges as u64)
        .uint("objects_relocated", report.objects_relocated as u64)
        .uint("objects_copied", report.objects_copied as u64)
        .float("collection_us", report.collection_cost.as_micros_f64())
        .float("compaction_us", report.compaction_cost.as_micros_f64())
        .float("total_us", report.total_cost().as_micros_f64())
        .uint("yields", report.yields as u64)
        .uint("extra_remaps", report.extra_remaps)
        .float("pause_p50_us", pauses.median().unwrap_or(0.0))
        .float("pause_p99_us", pauses.p99().unwrap_or(0.0))
        .build()
}

/// Snapshot of a trace handle's aggregate metrics — counters, virtual
/// duration totals, and wall-clock totals per stage — as one JSON object.
/// It is one of five metric exports, beside `fault_metrics`,
/// `engine_metrics`, `tier_metrics` and `compaction_metrics`; `figures
/// --trace` adds it to an entry's JSON as `trace_metrics`.
pub fn trace_counters(trace: &TraceHandle) -> Json {
    let counters = Json::Obj(
        trace.counters().into_iter().map(|(s, n)| (s.name().to_string(), Json::UInt(n))).collect(),
    );
    let totals = |rows: Vec<corm_trace::StageTotal>| {
        Json::Arr(
            rows.into_iter()
                .map(|t| {
                    JsonObject::new()
                        .str("stage", t.stage.name())
                        .uint("count", t.count)
                        .uint("total_ns", t.total_ns)
                        .build()
                })
                .collect(),
        )
    };
    JsonObject::new()
        .field("counters", counters)
        .field("virtual_stage_totals", totals(trace.sample_totals()))
        .field("wall_stage_totals", totals(trace.wall_totals()))
        .uint("dropped_events", trace.dropped())
        .build()
}

/// A float cell printed with 1 decimal.
pub fn f1(value: f64) -> Cell {
    Cell::Float { value, decimals: Some(1) }
}

/// A float cell printed with 2 decimals.
pub fn f2(value: f64) -> Cell {
    Cell::Float { value, decimals: Some(2) }
}

/// A float cell printed with 3 decimals.
pub fn f3(value: f64) -> Cell {
    Cell::Float { value, decimals: Some(3) }
}

/// Bytes as a GiB cell printed with 3 decimals.
pub fn gib(bytes: u64) -> Cell {
    f3(bytes as f64 / (1u64 << 30) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Sheet::new("demo", &["name", "value"]);
        t.row(&["a".into(), 1u64.into()]);
        t.row(&["long-name".into(), 22u64.into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-name"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5); // title, header, rule, 2 rows
        assert_eq!(t.rows().count(), 2);
    }

    /// A field holding a comma or a quote is quoted, with its quotes
    /// doubled; a plain or empty field is written as is.
    #[test]
    fn csv_escapes() {
        let mut t = Sheet::new("x", &["a", "b,c"]);
        t.row(&["he,llo".into(), "quo\"te".into()]);
        t.row(&["plain".into(), "".into()]);
        assert_eq!(t.to_csv(), "a,\"b,c\"\n\"he,llo\",\"quo\"\"te\"\nplain,\n");
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_checked() {
        Sheet::new("x", &["a"]).row(&["1".into(), "2".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f1(1.25).to_string(), "1.2");
        assert_eq!(f2(1.256).to_string(), "1.26");
        assert_eq!(f3(0.12345).to_string(), "0.123");
        assert_eq!(gib(1 << 30).to_string(), "1.000");
        assert_eq!(Cell::from(0.99).to_string(), "0.99");
        assert_eq!(Cell::from(7usize).to_string(), "7");
    }

    /// One sheet, three renderings: the JSON rows are keyed by the CSV
    /// header, and every numeric CSV cell is the JSON number rounded to
    /// the cell's decimals.
    #[test]
    fn json_rows_and_csv_are_renderings_of_the_same_cells() {
        let mut t = Sheet::new("x", &["name", "count", "one", "two", "three", "free"]);
        let values = [(3u64, 1.25, 2.0 / 3.0), (40, 1234.5678, 0.0004)];
        for (n, a, b) in values {
            t.row(&["r,\"".into(), n.into(), f1(a), f2(a), f3(b), b.into()]);
        }
        let csv = t.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("name,count,one,two,three,free"));
        let Json::Arr(rows) = t.to_json() else { panic!("rows render as an array") };
        assert_eq!(rows.len(), values.len());
        for ((json, line), (n, a, b)) in rows.iter().zip(lines).zip(values) {
            let Json::Obj(fields) = json else { panic!("a row renders as an object") };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["name", "count", "one", "two", "three", "free"]);
            let number = |at: usize| match fields[at].1 {
                Json::UInt(v) => v as f64,
                Json::Float(v) => v,
                ref other => panic!("column {at} is not a number: {other:?}"),
            };
            assert!(matches!(&fields[0].1, Json::Str(s) if s == "r,\""));
            assert_eq!(
                (number(1), number(2), number(3), number(4), number(5)),
                (n as f64, a, a, b, b)
            );
            let want = format!(
                "\"r,\"\"\",{n},{:.1},{:.2},{:.3},{}",
                number(2),
                number(3),
                number(4),
                number(5)
            );
            assert_eq!(line, want);
        }
    }

    #[test]
    fn rows_are_addressed_by_column_name() {
        let mut t = Sheet::new("x", &["dist", "kreqs"]);
        t.row(&["uniform".into(), f1(1396.74)]);
        t.row(&["zipf".into(), f1(1395.12)]);
        let zipf: Vec<f64> = t.rows_where("dist", "zipf").map(|r| r.num("kreqs")).collect();
        assert_eq!(zipf, [1395.12]);
        assert_eq!(t.rows().next().unwrap().text("kreqs"), "1396.7");
        assert_eq!(t.find(&[("dist", "zipf"), ("kreqs", "1395.1")]).num("kreqs"), 1395.12);
    }

    /// `results/` is anchored at the workspace root, not found by probing
    /// from the working directory.
    #[test]
    fn results_dir_is_the_workspace_roots() {
        let dir = results_dir();
        assert!(dir.ends_with("results"), "{}", dir.display());
        let manifest = dir.parent().expect("results has a parent").join("Cargo.toml");
        let text = std::fs::read_to_string(&manifest).expect("workspace manifest beside results/");
        assert!(text.contains("[workspace]"), "{} is not the workspace root", manifest.display());
    }

    #[test]
    fn json_renders_nested_structures() {
        let j = JsonObject::new()
            .uint("ops", 1000)
            .float("rate", 0.5)
            .str("name", "sweep")
            .field("flags", Json::Bool(true))
            .field(
                "log",
                Json::Arr(vec![JsonObject::new().uint("op", 3).str("kind", "qp_break").build()]),
            )
            .build();
        assert_eq!(
            j.render(),
            r#"{"ops":1000,"rate":0.5,"name":"sweep","flags":true,"log":[{"op":3,"kind":"qp_break"}]}"#
        );
    }

    #[test]
    fn json_escapes_strings() {
        let j = Json::Str("a\"b\\c\nd".into());
        assert_eq!(j.render(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn engine_metrics_snapshot_counts_batch_activity() {
        use std::sync::Arc;

        use corm_sim_mem::{AddressSpace, PhysicalMemory};
        use corm_sim_rdma::{QueuePair, ReadReq, RnicConfig};

        let pm = Arc::new(PhysicalMemory::new());
        let frames = pm.alloc_n(1).unwrap();
        let aspace = Arc::new(AddressSpace::new(pm));
        let va = aspace.mmap(&frames).unwrap();
        let rnic = Arc::new(Rnic::new(aspace.clone(), RnicConfig::default()));
        let (mr, _) = rnic.register(va, 1, false).unwrap();
        aspace.write(va, &[9u8; 128]).unwrap();

        let qp = QueuePair::connect(rnic.clone());
        let reqs: Vec<ReadReq> =
            (0..4u64).map(|i| ReadReq::new(i, mr.rkey, va + i * 32, 32)).collect();
        let mut outs = vec![Vec::new(); 4];
        let mut results = Vec::new();
        qp.read_batch_into(&reqs, &mut outs, SimTime::ZERO, &mut results);
        let end = results.iter().map(|r| r.completed_at).max().unwrap();

        let j = engine_metrics(&rnic, end).render();
        assert!(j.contains("\"doorbells\":1"), "{j}");
        assert!(j.contains("\"wqes\":4"), "{j}");
        assert!(j.contains("\"engine_admitted\":4"), "{j}");
        assert!(j.contains("\"engine_utilization\":0."), "{j}");
        // No per-class rows, and no tier block without a far tier.
        assert!(!j.contains("classes") && !j.contains("tiering"), "{j}");
    }

    #[test]
    fn fault_metrics_counts_the_fault_log_by_kind() {
        use std::sync::Arc;

        use corm_sim_mem::{AddressSpace, PhysicalMemory};
        use corm_sim_rdma::{FaultConfig, RnicConfig, ScheduledFault};

        let pm = Arc::new(PhysicalMemory::new());
        let frames = pm.alloc_n(1).unwrap();
        let aspace = Arc::new(AddressSpace::new(pm));
        let va = aspace.mmap(&frames).unwrap();
        let kinds =
            [FaultKind::Transient, FaultKind::QpBreak, FaultKind::DelaySpike, FaultKind::CacheMiss];
        let schedule = kinds
            .iter()
            .enumerate()
            .map(|(op, &kind)| ScheduledFault { at_op: 2 * op as u64 + 1, kind })
            .collect();
        let faults = FaultConfig::scripted(schedule);
        let rnic = Rnic::new(aspace, RnicConfig { faults: Some(faults), ..RnicConfig::default() });
        let (mr, _) = rnic.register(va, 1, false).unwrap();
        let mut buf = [0u8; 8];
        for _ in 0..10 {
            let _ = rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO);
        }

        let j = fault_metrics(&rnic, 2, 1, 3).render();
        assert!(
            j.starts_with(
                "{\"injected_faults\":1,\"injected_qp_breaks\":1,\"injected_delays\":1,\
                 \"injected_delay_ns\":50000,\"forced_cache_misses\":1,\"qp_breaks\":2,\
                 \"qp_reconnects\":1,\"client_recoveries\":3,"
            ),
            "{j}"
        );
        assert!(
            j.ends_with(
                r#""fault_log":[{"op":1,"kind":"transient"},{"op":3,"kind":"qp_break"},{"op":5,"kind":"delay_spike"},{"op":7,"kind":"cache_miss"}]}"#
            ),
            "{j}"
        );
    }

    #[test]
    fn fault_kind_names_are_stable() {
        assert_eq!(fault_kind_name(FaultKind::Transient), "transient");
        assert_eq!(fault_kind_name(FaultKind::DelaySpike), "delay_spike");
        assert_eq!(fault_kind_name(FaultKind::CacheMiss), "cache_miss");
        assert_eq!(fault_kind_name(FaultKind::QpBreak), "qp_break");
    }
}
