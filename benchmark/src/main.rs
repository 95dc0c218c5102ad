//! The repo benchmark: one workload per process.
//!
//! `corm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! builds the workload's store, runs rounds of fixed work for `s` seconds
//! (and at least [`MIN_ROUNDS`]), verifies the store, and prints a line of
//! detail and, last, the result line. With `--trace 0` the result holds the
//! end-to-end metrics; with `--trace 1` rounds alternate between bare and
//! span-recorded for `s / 2` seconds, the layer cells run, and the result
//! holds the per-layer metrics. README.md defines every metric.

mod alloc_count;
mod cells;
mod json;
mod ledger;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use json::Json;
use ledger::Ledger;
use spans::{Name, Off, Recorder};
use stats::{fold, median, p10, quantile, quartile_spread, FNV_BASIS};
use workloads::{Bench, Counters, Kind, SimRound};

#[global_allocator]
static GLOBAL: alloc_count::Counting = alloc_count::Counting;

/// Rounds every run measures at least, and the rounds its simulated
/// statistics cover: a fixed count of fixed-work rounds, so the statistics
/// are a function of the seed alone, however fast the host is.
const MIN_ROUNDS: usize = 30;
/// Store builds per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Spans kept one by one in the spans file; totals cover all of them.
const SPAN_CAPACITY: usize = 1 << 16;
/// EXPERIMENTS.md's anchor for `ycsb_rpc`: the ≈ 700 Kreq/s RPC plateau of
/// Fig. 12. No other workload has a reference there.
const RPC_PLATEAU_KREQS: f64 = 700.0;

/// End-to-end metrics and their units, as BENCHMARK.json lists them.
const END_TO_END: [(&str, &str); 5] = [
    ("host_ns_per_op", "ns/op"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_kreqs", "Kreq/s"),
    ("sim_space_amp", "ratio"),
];

/// Per-layer metrics that are not a cell's ns/call, with their units.
const COUNTED_LAYERS: [(&str, &str); 20] = [
    ("sim_rdma.mtt_hit_ratio", "ratio"),
    ("sim_rdma.wqes_per_doorbell", "count"),
    ("sim_rdma.odp_misses", "count/round"),
    ("sim_rdma.mtt_sync_verbs", "count/round"),
    ("corm_alloc.refills", "count/round"),
    ("core.conflict_ratio", "ratio"),
    ("core.rpc_lock_retries", "count/round"),
    ("core.compact_ns_per_object", "ns"),
    ("core.compact_objects_copied", "count/round"),
    ("core.compact_blocks_freed", "count/round"),
    ("core.alias_count", "count"),
    ("core.corrections_per_kop", "count"),
    ("bench.sim_loop_ns", "ns/op"),
    ("bench.sim_loop_self_ns", "ns/op"),
    ("ledger.residual_pct", "%"),
    ("ledger.allocs_per_op", "count"),
    ("ledger.trace_overhead_pct", "%"),
    ("sim.op_us_p50", "us"),
    ("sim.op_us_p99", "us"),
    ("sim.compact_ms", "ms"),
];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, 335_597u64, 20.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let names = Kind::ALL.map(Kind::name).join(", ");
    let kind = kind.ok_or(format!("--workload is required, one of: {names}"))?;
    Ok(Args { kind, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("corm-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace { run_traced(&args) } else { run_untraced(&args) };
    println!("{}", outcome.detail.render());
    println!("{}", outcome.result_line().render());
    ExitCode::SUCCESS
}

/// What a run reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in BENCHMARK.json's order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    detail: Json,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    fn result_line(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                let m =
                    Json::obj([("value", Json::Float(value)), ("unit", Json::Str(unit.into()))]);
                (name.to_string(), m)
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// Medians of the exact simulated statistics over the first [`MIN_ROUNDS`]
/// rounds, and their fingerprint.
struct SimSummary {
    kreqs: f64,
    op_us_p50: f64,
    op_us_p99: f64,
    space_amp: f64,
    compact_ms: f64,
    fingerprint: u64,
}

fn summarize_sim(rounds: &[SimRound]) -> SimSummary {
    let rounds = &rounds[..MIN_ROUNDS];
    let column = |f: fn(&SimRound) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let ops: u64 = rounds.iter().map(|r| r.ops).sum();
    let virt_ns: u64 = rounds.iter().map(|r| r.virt_ns).sum();
    let fingerprint = rounds.iter().fold(FNV_BASIS, |h, r| {
        [
            r.ops,
            r.virt_ns,
            r.p50_us.to_bits(),
            r.p99_us.to_bits(),
            r.space_amp.to_bits(),
            r.compact_ms.to_bits(),
        ]
        .into_iter()
        .fold(h, fold)
    });
    SimSummary {
        // ops per virtual nanosecond, as thousands per virtual second.
        kreqs: ops as f64 * 1e6 / virt_ns as f64,
        op_us_p50: column(|r| r.p50_us),
        op_us_p99: column(|r| r.p99_us),
        space_amp: column(|r| r.space_amp),
        compact_ms: column(|r| r.compact_ms),
        fingerprint,
    }
}

impl SimSummary {
    fn to_json(&self, kind: Kind) -> Json {
        let reference = match kind {
            Kind::YcsbRpc => format!(
                "Fig. 12 RPC plateau {RPC_PLATEAU_KREQS} Kreq/s: error {:+.2} %",
                (self.kreqs - RPC_PLATEAU_KREQS) / RPC_PLATEAU_KREQS * 100.0
            ),
            _ => "no reference".to_string(),
        };
        Json::obj([
            ("rounds", Json::UInt(MIN_ROUNDS as u64)),
            ("sim_kreqs", Json::Float(self.kreqs)),
            ("sim_kreqs_reference", Json::Str(reference)),
            ("sim_op_us_p50", Json::Float(self.op_us_p50)),
            ("sim_op_us_p99", Json::Float(self.op_us_p99)),
            ("sim_space_amp", Json::Float(self.space_amp)),
            ("sim_compact_ms", Json::Float(self.compact_ms)),
            // As a string: a u64 does not survive a JSON reader's float.
            ("fingerprint", Json::Str(format!("{:016x}", self.fingerprint))),
        ])
    }
}

/// The host's 1-minute load average, read before the run adds to it.
fn load1() -> Json {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .map_or(Json::Null, Json::Float)
}

/// Where and how a run was made, for the detail line.
fn provenance(args: &Args, rounds: usize, load1: Json) -> Vec<(String, Json)> {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    vec![
        ("workload".into(), Json::Str(args.kind.name().into())),
        ("seed".into(), Json::UInt(args.seed)),
        ("trace".into(), Json::Bool(args.trace)),
        ("seconds".into(), Json::Float(args.seconds)),
        ("rounds".into(), Json::UInt(rounds as u64)),
        ("host_cpus".into(), Json::UInt(cpus as u64)),
        ("load1_at_start".into(), load1),
    ]
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(f64::NAN);
    kib / 1024.0
}

/// Builds the store `times` times, dropping each before the next is built;
/// returns the last one and the median build time in seconds.
fn build_timed(kind: Kind, times: usize) -> (Bench, f64) {
    let mut secs = Vec::with_capacity(times);
    let mut bench = None;
    for _ in 0..times {
        drop(bench.take());
        let start = Instant::now();
        bench = Some(Bench::build(kind));
        secs.push(start.elapsed().as_secs_f64());
    }
    (bench.expect("times > 0"), median(&secs))
}

fn run_untraced(args: &Args) -> Outcome {
    let load1 = load1();
    let (mut bench, setup_s) = build_timed(args.kind, SETUPS);
    let warmup = args.kind.warmup_rounds();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for r in 0..warmup {
        failed += bench.round(args.seed + r, &mut Off).failed;
    }

    let budget = Duration::from_secs_f64(args.seconds);
    let (mut ns_per_op, mut sim) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while sim.len() < MIN_ROUNDS || started.elapsed() < budget {
        let round = bench.round(args.seed + warmup + sim.len() as u64, &mut Off);
        ns_per_op.push(round.host_ns as f64 / round.ops as f64);
        sim.push(round.sim);
        attempted += round.ops;
        failed += round.failed;
    }
    let (checked, wrong) = bench.verify();
    attempted += checked;
    failed += wrong;

    let summary = summarize_sim(&sim);
    let values: [f64; END_TO_END.len()] =
        [p10(&ns_per_op), setup_s, peak_rss_mib(), summary.kreqs, summary.space_amp];
    let metrics = END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, v, u)).collect();
    let mut detail = provenance(args, sim.len(), load1);
    // The rounds' centre and tail say how busy the host was, not how fast
    // the program is; they are printed, not gated.
    detail.push(("host_ns_per_op_median".into(), Json::Float(median(&ns_per_op))));
    detail.push(("host_ns_per_op_p80".into(), Json::Float(quantile(&ns_per_op, 0.8))));
    detail.push(("round_spread_host_ns_per_op".into(), Json::Float(quartile_spread(&ns_per_op))));
    let per_round = ns_per_op.iter().map(|&v| Json::Float((v * 10.0).round() / 10.0)).collect();
    detail.push(("rounds_host_ns_per_op".into(), Json::Arr(per_round)));
    detail.push(("sim".into(), summary.to_json(args.kind)));
    Outcome { attempted, failed, metrics, detail: Json::Obj(detail) }
}

/// Counted `calls/op` of the rows the workload's loop (or, for `ycsb_*`,
/// `run_closed_loop`) calls itself, from counter deltas over `ops` ops.
fn top_level_calls(bench: &Bench, d: &Counters, ops: f64) -> Vec<(&'static str, f64)> {
    let per_op = |n: u64| n as f64 / ops;
    match bench {
        // Every pop schedules one event; every pop but a retry draws an op;
        // an RPC passes ingress, NIC and worker stations, a DirectRead that
        // validates passes the NIC.
        Bench::Ycsb(_) => vec![
            ("workloads.next_op_ns", per_op(d.events - d.conflicts)),
            ("sim_core.queue_cycle_ns", 1.0),
            (
                "sim_core.fifo_admit_ns",
                per_op(3 * (d.reads + d.writes) + d.rnic_reads.saturating_sub(d.conflicts)),
            ),
            ("core.direct_read_ns", per_op(d.rnic_reads)),
            ("core.server_read_ns", per_op(d.reads)),
            ("core.server_write_ns", per_op(d.writes)),
        ],
        Bench::Multiget(_) => vec![("core.read_batch_ns_per_entry", per_op(d.wqes))],
        Bench::Churn(_) => vec![
            ("core.server_free_ns", per_op(d.frees)),
            ("core.recovery_read_ns", 1.0 - per_op(d.frees + d.allocs + d.writes)),
            ("core.server_alloc_ns", per_op(d.allocs)),
            ("core.server_write_ns", per_op(d.writes)),
            ("core.compact_ns_per_object", per_op(d.objects_copied)),
        ],
    }
}

fn run_traced(args: &Args) -> Outcome {
    let load1 = load1();
    let mut bench = Bench::build(args.kind);
    let warmup = args.kind.warmup_rounds();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for r in 0..warmup {
        failed += bench.round(args.seed + r, &mut Off).failed;
    }

    // Bare and recorded rounds alternate, so both see the same host. They
    // get half of the time; the layer cells take about as long again.
    let mut recorder = Recorder::new(SPAN_CAPACITY);
    let budget = Duration::from_secs_f64(args.seconds / 2.0);
    let (mut bare_ns, mut traced_ns, mut sim) = (Vec::new(), Vec::new(), Vec::new());
    // Totals over the recorded rounds only: what their spans divide by.
    let (mut traced_ops, mut traced_allocs) = (0u64, 0u64);
    let (mut traced_events, mut traced_copied) = (0u64, 0u64);
    let before = bench.counters();
    let started = Instant::now();
    while sim.len() < MIN_ROUNDS || started.elapsed() < budget {
        let seed = args.seed + warmup + sim.len() as u64;
        let round = if sim.len() % 2 == 0 {
            let round = bench.round(seed, &mut Off);
            bare_ns.push(round.host_ns as f64 / round.ops as f64);
            round
        } else {
            let (c0, a0) = (bench.counters(), alloc_count::allocations());
            recorder.set_round(sim.len() as u32);
            alloc_count::set_counting(true);
            let round = bench.round(seed, &mut recorder);
            alloc_count::set_counting(false);
            traced_allocs += alloc_count::allocations() - a0;
            let d = bench.counters().since(&c0);
            traced_copied += d.objects_copied;
            traced_events += d.events;
            traced_ops += round.ops;
            traced_ns.push(round.host_ns as f64 / round.ops as f64);
            round
        };
        sim.push(round.sim);
        attempted += round.ops;
        failed += round.failed;
    }
    let rounds = sim.len();
    let d = bench.counters().since(&before);
    let ops = attempted as f64;
    let alias_count = bench.store().server.alias_count();
    let (checked, wrong) = bench.verify();
    attempted += checked;
    failed += wrong;

    // ns/call of each layer, then the ledger.
    let cells = cells::run_all(&mut bench, args.seed);
    let compact_ns_per_object = match traced_copied {
        0 => 0.0,
        n => recorder.total(Name::Compact).total_ns as f64 / n as f64,
    };
    // Compaction has no cell: its row comes from its span.
    let mut ns_per_call = cells.clone();
    ns_per_call.push((Name::Compact.as_str(), compact_ns_per_object));
    let top = top_level_calls(&bench, &d, ops);
    let mut edges = ledger::EDGES.to_vec();
    if d.objects_copied > 0 {
        let per_object = d.remaps as f64 / d.objects_copied as f64;
        edges.push(("core.compact_ns_per_object", "sim_mem.remap_ns", per_object));
    }
    let ledger = Ledger::new(&ns_per_call, &top, &edges);
    let end_to_end = p10(&bare_ns);
    let accounted = ledger.accounted_ns_per_op();
    let sim_loop_ns = match traced_events {
        0 => 0.0,
        n => recorder.total(Name::SimLoop).total_ns as f64 / n as f64,
    };
    let sim_loop_self_ns = if traced_events == 0 { 0.0 } else { sim_loop_ns - accounted };

    let summary = summarize_sim(&sim);
    let ratio = |n: u64, of: u64| if of == 0 { 0.0 } else { n as f64 / of as f64 };
    let per_round = |n: u64| n as f64 / rounds as f64;
    let counted: [f64; COUNTED_LAYERS.len()] = [
        ratio(d.cache_hits, d.cache_hits + d.cache_misses),
        ratio(d.wqes, d.doorbells),
        per_round(d.odp_misses),
        per_round(d.mtt_sync_verbs),
        per_round(d.refills),
        ratio(d.conflicts, d.sim_reads),
        per_round(d.lock_retries),
        compact_ns_per_object,
        per_round(d.objects_copied),
        per_round(d.blocks_freed),
        alias_count as f64,
        (d.corrections + d.client_failed_reads) as f64 / ops * 1_000.0,
        sim_loop_ns,
        sim_loop_self_ns,
        ledger::residual_pct(end_to_end, accounted),
        ratio(traced_allocs, traced_ops),
        (p10(&traced_ns) - end_to_end) / end_to_end * 100.0,
        summary.op_us_p50,
        summary.op_us_p99,
        summary.compact_ms,
    ];
    let mut metrics: Vec<(&'static str, f64, &'static str)> =
        cells.iter().map(|&(name, ns)| (name, ns, "ns")).collect();
    metrics.extend(COUNTED_LAYERS.iter().zip(counted).map(|(&(n, u), v)| (n, v, u)));

    let out_dir = std::path::Path::new("benchmark/out");
    let spans_file = out_dir.join(format!("{}.spans.json", args.kind.name()));
    let written = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&spans_file, recorder.to_json().render()));
    if let Err(e) = written {
        eprintln!("corm-benchmark: cannot write {}: {e}", spans_file.display());
    }

    // Beside each cell's ns/call in isolation, what the same call took in
    // the traced rounds (timer included), where the workload has a span
    // around it.
    let in_situ = |row: &str| {
        let span = recorder.total(Name::ALL.into_iter().find(|n| n.as_str() == row)?);
        let calls = top.iter().find(|(n, _)| *n == row)?.1 * traced_ops as f64;
        (span.calls > 0).then(|| span.total_ns as f64 / calls)
    };
    let rows = ledger
        .rows
        .iter()
        .map(|r| {
            Json::obj([
                ("name", Json::Str(r.name.into())),
                ("ns_per_call", Json::Float(r.ns_per_call)),
                ("calls_per_op", Json::Float(r.calls_per_op)),
                ("self_ns_per_call", Json::Float(r.self_ns_per_call)),
                ("top", Json::Bool(r.top)),
                ("in_situ_ns_per_call", in_situ(r.name).map_or(Json::Null, Json::Float)),
            ])
        })
        .collect();
    let mut detail = provenance(args, rounds, load1);
    detail.push(("host_ns_per_op_bare".into(), Json::Float(end_to_end)));
    detail.push(("accounted_ns_per_op".into(), Json::Float(accounted)));
    detail.push(("sim".into(), summary.to_json(args.kind)));
    detail.push(("ledger".into(), Json::Arr(rows)));
    Outcome { attempted, failed, metrics, detail: Json::Obj(detail) }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names under `"section": [ {"name": ...}, ... ]` of BENCHMARK.json.
    fn declared(section: &str) -> Vec<String> {
        let text = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json");
        let from = text.find(&format!("\"{section}\"")).expect("section");
        let body = &text[from..from + text[from..].find(']').expect("array end")];
        body.split("\"name\":")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    fn outcome(names: Vec<&'static str>) -> Outcome {
        let metrics = names.into_iter().map(|n| (n, 1.5, "ns")).collect();
        Outcome { attempted: 9, failed: 0, metrics, detail: Json::Null }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = outcome(vec!["a", "b"]).result_line().render();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":9,\"failed\":0,\"metrics\":\
             {\"a\":{\"value\":1.5,\"unit\":\"ns\"},\"b\":{\"value\":1.5,\"unit\":\"ns\"}}}"
        );
        let mut failing = outcome(vec![]);
        failing.failed = 1;
        assert!(failing.result_line().render().starts_with("{\"correct\":false,"));
    }

    #[test]
    fn end_to_end_names_match_benchmark_json() {
        let ours: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
        assert_eq!(ours, declared("end_to_end"));
    }

    #[test]
    fn workload_names_match_benchmark_json() {
        let ours: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
        assert_eq!(ours, declared("workloads"));
    }

    #[test]
    fn per_layer_names_match_benchmark_json() {
        let counted = COUNTED_LAYERS.iter().map(|m| m.0);
        let ours: Vec<String> = cells::NAMES.into_iter().chain(counted).map(String::from).collect();
        assert_eq!(ours, declared("per_layer"));
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload multiget --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!((a.kind, a.seed, a.seconds, a.trace), (Kind::Multiget, 7, 3.0, true));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload multiget --trace 2").is_err());
        assert!(parse("--workload multiget --seconds 0").is_err());
        assert!(parse("--workload multiget --bogus 1").is_err());
    }

    #[test]
    fn sim_summary_covers_exactly_the_first_min_rounds() {
        let round = |ops| SimRound {
            ops,
            virt_ns: 1_000_000,
            p50_us: 2.0,
            p99_us: 3.0,
            space_amp: 1.5,
            compact_ms: 0.0,
        };
        let mut rounds = vec![round(500); MIN_ROUNDS];
        let a = summarize_sim(&rounds);
        rounds.push(round(9_999));
        let b = summarize_sim(&rounds);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.kreqs, 500.0);
        assert_eq!(b.kreqs, 500.0);
        rounds[0] = round(501);
        assert_ne!(summarize_sim(&rounds).fingerprint, a.fingerprint);
    }
}
