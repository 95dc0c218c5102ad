//! The ns/op ledger of one workload.
//!
//! The host side of every workload is one thread, so costs add: a layer
//! costs `ns/call × calls/op`, the top-level rows sum to the end-to-end
//! ns/op up to a residual, and a saving in one layer is at most that
//! layer's row. A row nested in another says where the outer row's time
//! goes; a row's self time is what its nested rows leave over.
//!
//! `ns/call` comes from the layer cells (`cells.rs`). `calls/op` of a
//! top-level row comes from the program's public counters, as deltas around
//! the rounds. The program counts no DMA accesses, gathers or registry
//! look-ups, so nested rows take their `calls/op` from [`EDGES`], which
//! states how often one call of the outer function makes the inner call.

/// `(outer, inner, inner calls per outer call)`, read off the program's
/// code. `churn_compact` adds one measured edge of its own, compaction →
/// `remap`. Edges of functions a workload does not call contribute nothing.
pub const EDGES: &[(&str, &str, f64)] = &[
    ("core.recovery_read_ns", "core.direct_read_ns", 1.0),
    ("core.direct_read_ns", "sim_rdma.qp_read_ns", 1.0),
    ("core.direct_read_ns", "core.gather_ns", 1.0),
    // ODP regions check each page's epoch against the page table per verb.
    ("sim_rdma.qp_read_ns", "sim_mem.translate_ns", 1.0),
    ("sim_rdma.qp_read_ns", "sim_mem.dma_read_ns", 1.0),
    ("core.read_batch_ns_per_entry", "sim_rdma.batch_sync_ns_per_wqe", 1.0),
    ("core.read_batch_ns_per_entry", "core.gather_ns", 1.0),
    ("sim_rdma.batch_sync_ns_per_wqe", "sim_mem.translate_ns", 1.0),
    ("sim_rdma.batch_sync_ns_per_wqe", "sim_mem.dma_read_ns", 1.0),
    ("core.server_read_ns", "core.registry_resolve_ns", 1.0),
    ("core.server_read_ns", "sim_mem.dma_read_ns", 1.0),
    ("core.server_read_ns", "core.gather_ns", 1.0),
    // Header read, then lock, body and unlocked header as three stores.
    ("core.server_write_ns", "core.registry_resolve_ns", 1.0),
    ("core.server_write_ns", "sim_mem.dma_read_ns", 1.0),
    ("core.server_write_ns", "sim_mem.dma_write_ns", 3.0),
    ("core.server_write_ns", "core.scatter_ns", 1.0),
    ("core.server_alloc_ns", "corm_alloc.alloc_ns", 1.0),
    ("core.server_alloc_ns", "core.scatter_ns", 1.0),
    ("core.server_alloc_ns", "sim_mem.translate_ns", 1.0),
    ("core.server_alloc_ns", "sim_mem.dma_write_ns", 1.0),
    ("core.server_free_ns", "core.registry_resolve_ns", 1.0),
    ("core.server_free_ns", "corm_alloc.free_ns", 1.0),
    ("core.server_free_ns", "sim_mem.translate_ns", 2.0),
    ("core.server_free_ns", "sim_mem.dma_read_ns", 1.0),
    ("core.server_free_ns", "sim_mem.dma_write_ns", 1.0),
    // Per object copied: lock (read + write), then copy (read + write).
    ("core.compact_ns_per_object", "sim_mem.translate_ns", 4.0),
    ("core.compact_ns_per_object", "sim_mem.dma_read_ns", 2.0),
    ("core.compact_ns_per_object", "sim_mem.dma_write_ns", 2.0),
];

/// One layer's line in the ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub name: &'static str,
    pub ns_per_call: f64,
    /// Calls per end-to-end op, over every path that reaches the layer.
    pub calls_per_op: f64,
    /// `ns_per_call` minus what the rows nested in this one cost per call.
    pub self_ns_per_call: f64,
    /// Whether the benchmark's own loop (or `run_closed_loop`) makes the
    /// call, so that the row counts towards the end-to-end sum.
    pub top: bool,
}

pub struct Ledger {
    pub rows: Vec<Row>,
    /// The counted `calls/op` the ledger was built from.
    pub top_calls: Vec<(&'static str, f64)>,
}

impl Ledger {
    /// Builds the ledger from each cell's `ns/call`, the counted `calls/op`
    /// of the top-level rows, and the call edges.
    pub fn new(
        cells: &[(&'static str, f64)],
        top_calls: &[(&'static str, f64)],
        edges: &[(&str, &str, f64)],
    ) -> Ledger {
        let ns_of = |name: &str| cells.iter().find(|(n, _)| *n == name).map_or(0.0, |c| c.1);
        let rows = cells
            .iter()
            .map(|&(name, ns_per_call)| {
                let nested: f64 = edges
                    .iter()
                    .filter(|(outer, _, _)| *outer == name)
                    .map(|(_, inner, per_call)| per_call * ns_of(inner))
                    .sum();
                Row {
                    name,
                    ns_per_call,
                    calls_per_op: calls_per_op(name, top_calls, edges),
                    // A function that never ran has no self time.
                    self_ns_per_call: if ns_per_call > 0.0 { ns_per_call - nested } else { 0.0 },
                    top: top_calls.iter().any(|(n, _)| *n == name),
                }
            })
            .collect();
        Ledger { rows, top_calls: top_calls.to_vec() }
    }

    /// Σ `ns/call × calls/op` over the top-level rows, counting a row's
    /// top-level calls only (a function can be both called by the loop and
    /// nested in another top-level row).
    pub fn accounted_ns_per_op(&self) -> f64 {
        self.top_calls
            .iter()
            .map(|(name, calls)| {
                calls * self.rows.iter().find(|r| r.name == *name).map_or(0.0, |r| r.ns_per_call)
            })
            .sum()
    }

    #[cfg(test)]
    fn calls_per_op(&self, name: &str) -> f64 {
        self.rows.iter().find(|r| r.name == name).map_or(0.0, |r| r.calls_per_op)
    }
}

/// Calls of `name` per op: its own top-level calls plus, through every edge
/// into it, the outer function's calls times the edge's multiplicity.
fn calls_per_op(name: &str, top_calls: &[(&'static str, f64)], edges: &[(&str, &str, f64)]) -> f64 {
    let own = top_calls.iter().find(|(n, _)| *n == name).map_or(0.0, |t| t.1);
    let nested: f64 = edges
        .iter()
        .filter(|(_, inner, _)| *inner == name)
        .map(|(outer, _, per_call)| per_call * calls_per_op(outer, top_calls, edges))
        .sum();
    own + nested
}

/// The share of the end-to-end ns/op the top-level rows do not account for,
/// in percent; negative when the rows sum to more than the whole.
pub fn residual_pct(end_to_end_ns: f64, accounted_ns: f64) -> f64 {
    (end_to_end_ns - accounted_ns) / end_to_end_ns * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_EDGES: &[(&str, &str, f64)] =
        &[("outer", "mid", 1.0), ("mid", "leaf", 2.0), ("other", "leaf", 1.0)];

    fn ledger() -> Ledger {
        let cells = [("outer", 100.0), ("mid", 60.0), ("leaf", 10.0), ("other", 30.0)];
        Ledger::new(&cells, &[("outer", 0.5), ("other", 0.25)], TEST_EDGES)
    }

    #[test]
    fn nested_calls_multiply_through_the_edges() {
        let l = ledger();
        assert_eq!(l.calls_per_op("outer"), 0.5);
        assert_eq!(l.calls_per_op("mid"), 0.5);
        // 0.5 × 2 through mid, plus 0.25 × 1 through other.
        assert_eq!(l.calls_per_op("leaf"), 1.25);
        assert_eq!(l.calls_per_op("absent"), 0.0);
    }

    #[test]
    fn self_time_subtracts_nested_rows() {
        let l = ledger();
        let self_of = |n: &str| l.rows.iter().find(|r| r.name == n).unwrap().self_ns_per_call;
        assert_eq!(self_of("outer"), 40.0);
        assert_eq!(self_of("mid"), 40.0);
        assert_eq!(self_of("leaf"), 10.0);
        assert_eq!(self_of("other"), 20.0);
    }

    #[test]
    fn residual_is_what_top_level_rows_leave() {
        let l = ledger();
        // 0.5 × 100 + 0.25 × 30; nested rows are inside those already.
        let accounted = l.accounted_ns_per_op();
        assert_eq!(accounted, 57.5);
        assert!((residual_pct(64.0, accounted) - 10.15625).abs() < 1e-9);
        assert!(residual_pct(50.0, accounted) < 0.0);
        assert!(l.rows.iter().filter(|r| r.top).map(|r| r.name).eq(["outer", "other"]));
    }
}
