//! What the driver hands a figure: its trace handle, the writers for its
//! files under `results/`, and the gate its shape checks report to.

use std::fmt::Display;
use std::fs;
use std::path::PathBuf;

use corm_bench::report::{results_dir, trace_counters, Json, JsonObject, Sheet};
use corm_trace::{canonical_lines, perfetto_json, validate_perfetto, Event, TraceHandle};

use crate::Figure;

/// One figure's run.
pub(crate) struct Run {
    figure: &'static Figure,
    trace: TraceHandle,
    dir: PathBuf,
    failures: Vec<String>,
}

impl Run {
    /// A run of `figure`, recording `corm-trace` events when `record` is
    /// set.
    pub(crate) fn new(figure: &'static Figure, record: bool) -> Self {
        let dir = results_dir();
        fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
        let trace = if record { TraceHandle::recording() } else { TraceHandle::disabled() };
        Run { figure, trace, dir, failures: Vec::new() }
    }

    /// The figure's trace handle: recording under `--trace`.
    pub(crate) fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// Records `claim` as failed under the figure's name unless it `holds`.
    /// The driver runs the remaining figures and then exits non-zero, so
    /// one invocation reports every broken shape.
    pub(crate) fn gate(&mut self, holds: bool, claim: impl Display) {
        if holds {
            println!("gate ok: {claim}");
        } else {
            println!("GATE FAILED: {claim}");
            self.failures.push(format!("{}: {claim}", self.figure.name));
        }
    }

    /// Every failed gate, as `figure: claim`.
    pub(crate) fn into_failures(self) -> Vec<String> {
        self.failures
    }

    fn write(&self, file: &str, contents: &str) {
        let path = self.dir.join(file);
        fs::write(&path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }

    /// Writes a tracked file: one the registry entry declares.
    fn write_output(&self, file: String, contents: String) {
        assert!(
            self.figure.outputs.contains(&file.as_str()),
            "{} writes {file}, which its registry entry does not declare",
            self.figure.name
        );
        self.write(&file, &contents);
        println!("wrote results/{file}");
    }

    /// Writes the sheet as `results/<name>.csv`.
    pub(crate) fn csv(&self, name: &str, sheet: &Sheet) {
        self.write_output(format!("{name}.csv"), sheet.to_csv());
    }

    /// Prints the sheet and writes it as `results/<name>.csv`.
    pub(crate) fn emit(&self, name: &str, sheet: &Sheet) {
        sheet.print();
        self.csv(name, sheet);
    }

    /// Writes `results/<name>.json`.
    pub(crate) fn json(&self, name: &str, doc: &Json) {
        self.write_output(format!("{name}.json"), doc.render());
    }

    /// [`Self::json`] for a figure that passes [`Self::trace`] to its
    /// servers: a traced run's document also carries the trace counters,
    /// and its events are written by [`Self::write_trace`].
    pub(crate) fn json_traced(&mut self, name: &str, mut doc: JsonObject) {
        let trace = self.trace.clone();
        if trace.is_enabled() {
            doc = doc.field("trace_metrics", trace_counters(&trace));
        }
        self.json(name, &doc.build());
        if trace.is_enabled() {
            self.write_trace(name, &trace);
        }
    }

    /// Drains a recording trace handle into `results/<name>.trace.json`
    /// (Perfetto/chrome-tracing JSON, checked with [`validate_perfetto`])
    /// and `results/<name>.events` (canonical event lines for
    /// `trace_diff`); both are git-ignored. Prints the per-stage latency
    /// breakdown, gates that per-op leaf spans reconcile with op totals,
    /// and returns the drained events.
    pub(crate) fn write_trace(&mut self, name: &str, trace: &TraceHandle) -> Vec<Event> {
        let events = trace.drain();
        let perfetto = perfetto_json(&events);
        let spans = validate_perfetto(&perfetto)
            .unwrap_or_else(|e| panic!("emitted Perfetto JSON for {name} is invalid: {e}"));
        self.write(&format!("{name}.trace.json"), &perfetto);
        self.write(&format!("{name}.events"), &canonical_lines(&events));
        let recon = corm_trace::reconcile(&events);
        self.gate(
            recon.is_clean(),
            format!(
                "traced ops reconcile with their leaf spans ({} of {} do not, max error {} ns)",
                recon.mismatched, recon.ops, recon.max_error_ns
            ),
        );
        if trace.dropped() > 0 {
            eprintln!("warning: {name} dropped {} trace events (buffers full)", trace.dropped());
        }
        print!("{}", corm_trace::render_breakdown(&corm_trace::breakdown(&events)));
        println!(
            "trace: {} events, {spans} Perfetto spans -> results/{name}.trace.json, \
             results/{name}.events",
            events.len()
        );
        events
    }
}
