//! The repository benchmark: one verified loopback deployment per run,
//! timed end to end with tracing off (`--trace 0`) or layer by layer with
//! tracing on (`--trace 1`). See `README.md` beside this package for every
//! metric, its unit, layer and source call.
//!
//! ```text
//! perfbench --workload <scan|point|mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
//! when every read verified and matched the oracle, every acknowledged
//! write was found (after a reopen on `mixed`), and every tamper control
//! was rejected.

mod deploy;
mod drive;
mod stats;
mod trace;

use deploy::{queries, Deployment, Workload, ALG, BATCH_INSERTS, CACHE_PAGES};
use drive::{check_present, expected_state, fill, timed_window, Owner, Read, Write, QUEUE_FILL};
use sae_core::durable::MANIFEST_FILE;
use sae_core::ShardedSaeEngine;
use sae_net::ServerTamper;
use sae_storage::{IoSnapshot, Manifest};
use sae_workload::{paper, RangeQuery};
use stats::{median, Latency, Tally};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;
use trace::{io_totals, Tracer};

/// Longest a run waits for the disk to go quiet before it starts.
const SETTLE_LIMIT: Duration = Duration::from_secs(20);
/// Equal sub-windows of the timed window; `read_qps` is the median of their
/// rates, so a burst of host noise shorter than half the run cannot move it.
const RATE_WINDOWS: usize = 10;
/// Sub-windows of a traced run left untraced, as the overhead baseline.
const UNTRACED_WINDOWS: usize = 3;
/// Queries cross-checked against `Dataset::query_oracle` per run.
const ORACLE_SAMPLE: usize = 256;
/// Where runs leave their reports and spans, relative to the working
/// directory.
const OUT_DIR: &str = ".bench_out";
/// Where durable deployments live while a run is in progress.
const WORK_DIR: &str = ".bench_work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <scan|point|mixed> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s: &u64| s > 0)
                        .ok_or(format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything one run reports.
#[derive(Default)]
struct Report {
    tally: Tally,
    /// The metrics the final JSON line carries for this mode.
    metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON line.
    lines: Vec<String>,
    /// Writer lateness, for the run metadata.
    late_max_ms: f64,
    late_p99_ms: f64,
}

impl Report {
    fn line(&mut self, text: String) {
        self.lines.push(text);
    }

    /// Records one check of the run's output.
    fn check(&mut self, what: &str, tally: Tally) {
        self.line(format!(
            "check {what}: {}/{} passed",
            tally.attempted - tally.failed,
            tally.attempted
        ));
        self.tally.merge(tally);
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let settle_s = settle_io();
    let load_before = loadavg();
    let work = PathBuf::from(WORK_DIR).join(format!("run-{}", std::process::id()));
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("creating {} failed: {e}", work.display()))
        .and_then(|()| run(&args, &work));
    drop(std::fs::remove_dir_all(&work));
    drop(std::fs::remove_dir(WORK_DIR));
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let meta = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"commit\":{},\
         \"nproc\":{},\"rustc\":{},\"loadavg_before\":{},\"loadavg_after\":{},\
         \"settle_s\":{},\"loadgen_late_max_ms\":{},\"loadgen_late_p99_ms\":{}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&command_output("git", &["rev-parse", "HEAD"])),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(&command_output("rustc", &["-V"])),
        json_str(&load_before),
        json_str(&loadavg()),
        settle_s,
        report.late_max_ms,
        report.late_p99_ms,
    );
    let correct = report.tally.failed == 0;
    let mut metrics = String::new();
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.tally.attempted, report.tally.failed
    );
    let name = format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let saved = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
        std::fs::write(
            Path::new(OUT_DIR).join(name),
            format!("{{\"meta\": {meta}, \"result\": {result}}}\n"),
        )
    });
    if let Err(e) = saved {
        eprintln!("perfbench: writing the run report failed: {e}");
    }
    for line in &report.lines {
        println!("{line}");
    }
    println!("meta {meta}");
    println!("{result}");
    std::process::exit(if correct { 0 } else { 1 });
}

fn run(args: &Args, work: &Path) -> Result<Report, String> {
    let w = args.workload;
    let mut report = Report::default();
    report.line(format!(
        "perfbench workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));

    // The timed window runs on the first set-up. The repeats that
    // `setup_s` takes its median over come after the checks, so their disk
    // traffic cannot reach into the window.
    let (mut dep, first_setup) = Deployment::setup(w, args.seed, &work.join("deploy-0"))?;
    // The set-up already sent the stream's first query.
    let mut stream = queries(w, args.seed);
    stream.next();
    // Untimed warm-up: one small verified read per shard opens every
    // connection, and on `mixed` the owner fills its queue (see
    // `drive::QUEUE_FILL`).
    let mut warm = Tally::default();
    for shard in 0..dep.engine.shard_count() {
        let lower = dep.engine.layout().range(shard).lower;
        let out = dep
            .client
            .query(&RangeQuery::new(lower, lower.saturating_add(100)));
        warm.record(out.verdict.is_ok() && out.endpoint_errors.is_empty());
    }
    report.check("warm-up reads verified", warm);
    let mut owner = Owner::new(&dep.dataset, args.seed);
    let untimed = if w.durable() {
        fill(&dep.engine, &mut owner, QUEUE_FILL)
    } else {
        Vec::new()
    };

    let mut tracer = Tracer::default();
    tracer.quiescent = !w.durable();
    let untraced = if args.trace {
        UNTRACED_WINDOWS
    } else {
        RATE_WINDOWS
    };
    let io_before = io_totals(&dep.engine);
    let ckpt_before = checkpoints(dep.dir.as_deref())?;
    let window = timed_window(
        &mut dep,
        &mut stream,
        &mut owner,
        w.durable(),
        Duration::from_secs(args.seconds),
        RATE_WINDOWS,
        untraced,
        BATCH_INSERTS,
        args.trace.then_some(&mut tracer),
    )?;
    let io = io_totals(&dep.engine).delta_since(&io_before);
    let ckpts = checkpoints(dep.dir.as_deref())?.saturating_sub(ckpt_before);
    let read_lat = Latency::of(
        &mut window
            .reads
            .iter()
            .map(|r| f64::from(r.elapsed_ms))
            .collect::<Vec<_>>(),
    );

    // Reads: verdicts, plus the oracle's counts where no writer ran beside
    // them.
    let expected = if w.durable() {
        None
    } else {
        let all: Vec<&Read> = window.reads.iter().chain(&window.traced).collect();
        Some(oracle_counts(&dep, &all, &mut report)?)
    };
    let mut reads = Tally::default();
    for (i, r) in window.reads.iter().chain(&window.traced).enumerate() {
        reads.record(r.ok(expected.as_ref().map(|e| e[i])));
    }
    report.check("reads verified (and match the oracle on scan/point)", reads);
    if !w.durable() {
        report.check(
            "inserts returned before their batch deletes them",
            window.checks,
        );
    }

    tamper_controls(&mut dep, w.durable(), &mut report);

    let writes = window.writes;
    let all_writes: Vec<Write> = untimed.iter().chain(&writes).copied().collect();
    let mut acked = Tally::default();
    for wr in &all_writes {
        acked.record(wr.acked);
    }
    report.check("writes acknowledged", acked);
    let final_state = expected_state(&all_writes, &owner);
    let live_records = dep.dataset.len() + owner.live.len();
    let space_amp = if w.durable() {
        reopen_and_check(dep, &final_state, live_records, &mut report)?
    } else {
        report.check(
            "deleted records absent at the end",
            check_present(&dep.engine, &final_state),
        );
        let amp = memory_bytes(&dep.engine) as f64 / (live_records * paper::RECORD_SIZE) as f64;
        dep.teardown()?;
        amp
    };

    let write_lat = Latency::of(
        &mut writes
            .iter()
            .filter(|wr| wr.acked)
            .map(|wr| wr.latency_ms)
            .collect::<Vec<_>>(),
    );
    let late = Latency::of(&mut writes.iter().map(|wr| wr.late_ms).collect::<Vec<_>>());
    report.late_max_ms = writes.iter().map(|wr| wr.late_ms).fold(0.0, f64::max);
    report.late_p99_ms = late.p99;
    let mut setups = vec![first_setup];
    if !args.trace {
        for r in 1..w.setup_repeats() {
            let (dep, secs) = Deployment::setup(w, args.seed, &work.join(format!("deploy-{r}")))?;
            setups.push(secs);
            dep.teardown()?;
        }
    }
    let setup_s = median(&setups);
    let read_qps = median(&window.rates);
    let rss = rss_peak_mb();

    report.line(format!(
        "setup_s runs: {}",
        setups
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    describe_latency(&mut report, "read", &read_lat);
    describe_latency(&mut report, "write", &write_lat);
    let e2e = vec![
        metric("setup_s", setup_s, "s"),
        metric("read_qps", read_qps, "1/s"),
        metric("read_p50_ms", read_lat.p50, "ms"),
        metric("write_p50_ms", write_lat.p50, "ms"),
        metric("rss_peak_mb", rss, "MB"),
        metric("space_amp", space_amp, "ratio"),
    ];
    // Printed by name but left out of the result line: on this class of
    // host their run-to-run spread is wider than any bound the benchmark
    // could hold them to (see README.md).
    let unbound = [
        metric("read_p99_ms", read_lat.p99, "ms"),
        metric("write_p99_ms", write_lat.p99, "ms"),
        metric("fail_frac", report.tally.fail_frac(), "ratio"),
    ];
    for m in e2e.iter().chain(&unbound) {
        report.line(format!("metric {} {} {}", m.name, m.value, m.unit));
    }

    let layers = layer_metrics(&tracer, &window.reads, &writes, io, ckpts);
    if args.trace {
        describe_spans(&mut report, &tracer);
        for m in &layers {
            report.line(format!("layer {} {} {}", m.name, m.value, m.unit));
        }
        let path = Path::new(OUT_DIR).join(format!("trace-{}.tsv", w.name()));
        std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| tracer.write_tsv(&path))
            .map_err(|e| format!("writing {} failed: {e}", path.display()))?;
        report.line(format!("spans written to {}", path.display()));
        report.metrics = layers;
    } else {
        report.metrics = e2e;
    }
    Ok(report)
}

/// Expected record counts for `reads` from the sorted dataset keys, with a
/// sample cross-checked against `Dataset::query_oracle` itself.
fn oracle_counts(
    dep: &Deployment,
    reads: &[&Read],
    report: &mut Report,
) -> Result<Vec<usize>, String> {
    let keys = dep.dataset.sorted_keys();
    let count = |q: &RangeQuery| {
        keys.partition_point(|&k| k <= q.upper) - keys.partition_point(|&k| k < q.lower)
    };
    let counts: Vec<usize> = reads.iter().map(|r| count(&r.query)).collect();
    let step = reads.len().div_ceil(ORACLE_SAMPLE).max(1);
    let mut sample = Tally::default();
    for (r, &c) in reads.iter().zip(&counts).step_by(step) {
        sample.record(dep.dataset.query_oracle(&r.query).len() == c);
    }
    report.check("oracle counts agree with Dataset::query_oracle", sample);
    if sample.failed > 0 {
        return Err("the key-count oracle disagrees with Dataset::query_oracle".into());
    }
    Ok(counts)
}

/// Arms each `ServerTamper` mode on server 0 for one query over shard 0;
/// every one must be rejected. `StaleEpoch` runs only on a durable engine,
/// after an honest query raised the high-water mark, and must be refused
/// by it.
fn tamper_controls(dep: &mut Deployment, durable: bool, report: &mut Report) {
    let q = RangeQuery::new(0, paper::KEY_DOMAIN / 100);
    let mut modes = vec![
        ServerTamper::FlipRecordByte,
        ServerTamper::DropFirstRecord,
        ServerTamper::FlipTokenBit,
    ];
    if durable {
        modes.push(ServerTamper::StaleEpoch);
    }
    let mut tally = Tally::default();
    for mode in modes {
        let honest = dep.client.query(&q);
        let armed_ok = honest.verdict.is_ok() && honest.record_count() > 0;
        let floor = dep.client.high_water_mark(0);
        dep.servers[0].set_tamper(Some(mode));
        let out = dep.client.query(&q);
        dep.servers[0].set_tamper(None);
        let rejected = out.verdict.is_err()
            && (mode != ServerTamper::StaleEpoch || (floor > 0 && out.stale_refused > 0));
        report.line(format!(
            "control {mode:?}: {}",
            if !armed_ok {
                "honest query failed".to_string()
            } else if rejected {
                format!(
                    "rejected ({})",
                    out.verdict.err().map_or(String::new(), |e| e.to_string())
                )
            } else {
                "ACCEPTED".to_string()
            }
        ));
        tally.record(armed_ok && rejected);
    }
    report.check("tamper controls rejected", tally);
}

/// Stops serving, closes the durable engine, measures its directory,
/// reopens it and checks every acknowledged write. Returns `space_amp`.
fn reopen_and_check(
    dep: Deployment,
    final_state: &[(u64, u32, bool)],
    live_records: usize,
    report: &mut Report,
) -> Result<f64, String> {
    let (engine, dir) = dep.stop_serving()?;
    let dir = dir.ok_or("a durable deployment has no directory")?;
    engine
        .close()
        .map_err(|e| format!("closing the engine failed: {e}"))?;
    let bytes = dir_bytes(&dir).map_err(|e| format!("measuring {} failed: {e}", dir.display()))?;
    let amp = bytes as f64 / (live_records * paper::RECORD_SIZE) as f64;
    let reopened = ShardedSaeEngine::open_dir(&dir, ALG, Some(CACHE_PAGES))
        .map_err(|e| format!("reopening {} failed: {e}", dir.display()))?;
    report.check(
        "acknowledged writes survive close and reopen",
        check_present(&reopened, final_state),
    );
    reopened
        .close()
        .map_err(|e| format!("closing the reopened engine failed: {e}"))?;
    std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {} failed: {e}", dir.display()))?;
    Ok(amp)
}

/// Checkpoints taken so far: the manifest's checkpoint sequence number.
fn checkpoints(dir: Option<&Path>) -> Result<u64, String> {
    match dir {
        None => Ok(0),
        Some(dir) => Manifest::load(dir.join(MANIFEST_FILE))
            .map(|m| m.checkpoint_seq)
            .map_err(|e| format!("reading the manifest failed: {e}")),
    }
}

/// Bytes the in-memory engine's SP heaps, indexes and TE trees occupy.
fn memory_bytes(engine: &ShardedSaeEngine) -> u64 {
    (0..engine.shard_count())
        .map(|i| {
            engine.with_sp_mut(i, |sp| sp.dataset_bytes() + sp.index_bytes())
                + engine.with_te_mut(i, |te| te.storage_bytes())
        })
        .sum()
}

fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// The per-layer metrics. Span-derived ones are zero without a trace; the
/// write-side ones are zero where no write touched the layer.
fn layer_metrics(
    tr: &Tracer,
    untraced: &[Read],
    writes: &[Write],
    io: IoSnapshot,
    ckpts: u64,
) -> Vec<Metric> {
    let totals = tr.totals();
    let c = tr.counts;
    let per_query = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.1 as f64 / 1e3 / c.queries.max(1) as f64)
    };
    let rate = |bytes: u64, name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| bytes as f64 / (t.1 as f64 / 1e9) / 1e6)
    };
    let per = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let mean_service = |insert: bool| {
        let v: Vec<f64> = writes
            .iter()
            .filter(|w| matches!(w.op, drive::Op::Insert { .. }) == insert)
            .map(|w| w.service_ms * 1e3)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let pq = tr.per_query();
    let query_us = per_query(trace::QUERY);
    let overhead_us = if pq.is_empty() {
        0.0
    } else {
        pq.iter()
            .map(|&(q, path)| q as f64 - path as f64)
            .sum::<f64>()
            / 1e3
            / pq.len() as f64
    };
    let mut traced_ms: Vec<f64> = pq.iter().map(|&(q, _)| q as f64 / 1e6).collect();
    let untraced_p50 = Latency::of(
        &mut untraced
            .iter()
            .map(|r| f64::from(r.elapsed_ms))
            .collect::<Vec<_>>(),
    )
    .p50;
    let traced_p50 = Latency::of(&mut traced_ms).p50;
    let fold_us = per_query("fold");
    let verify_us = per_query("verify_slices");
    let codec_us =
        per_query("slice_to_message") + per_query("encode_frame") + per_query("decode_frame");
    let share = |us: f64| if query_us > 0.0 { us / query_us } else { 0.0 };
    let mut late: Vec<f64> = writes.iter().map(|w| w.late_ms).collect();
    let hits = io.cache_hits + io.cache_misses;
    vec![
        metric("btree.range_us", per_query("btree.range"), "us"),
        metric(
            "btree.node_reads_per_query",
            per(c.btree_node_reads, c.queries),
            "count",
        ),
        metric("storage.heap_fetch_us", per_query("heap.get_range"), "us"),
        metric("storage.crc32_us", per_query("crc32"), "us"),
        metric("storage.crc32_mb_s", rate(c.crc_bytes, "crc32"), "MB/s"),
        metric(
            "storage.wal_bytes_per_write",
            per(io.wal_bytes, writes.len() as u64),
            "B",
        ),
        metric(
            "storage.wal_syncs_per_write",
            per(io.wal_syncs, writes.len() as u64),
            "count",
        ),
        metric("storage.checkpoints", ckpts as f64, "count"),
        metric("storage.cache_hit_ratio", per(io.cache_hits, hits), "ratio"),
        metric("xbtree.token_us", per_query("xbtree.token"), "us"),
        metric(
            "xbtree.node_reads_per_token",
            per(c.xbtree_node_reads, c.tokens),
            "count",
        ),
        metric("crypto.fold_us", fold_us, "us"),
        metric("crypto.sha1_mb_s", rate(c.fold_bytes, "fold"), "MB/s"),
        metric("core.shard_slice_us", per_query("shard_slice"), "us"),
        metric("core.verify_us", verify_us, "us"),
        metric("core.structural_us", (verify_us - fold_us).max(0.0), "us"),
        metric("core.insert_us", mean_service(true), "us"),
        metric("core.delete_us", mean_service(false), "us"),
        metric("net.query_us", query_us, "us"),
        metric("net.to_message_us", per_query("slice_to_message"), "us"),
        metric("net.encode_us", per_query("encode_frame"), "us"),
        metric("net.decode_us", per_query("decode_frame"), "us"),
        metric("net.bytes_per_query", per(c.wire_bytes, c.queries), "B"),
        metric("net.overhead_us", overhead_us, "us"),
        metric("net.failovers", c.failovers as f64, "count"),
        metric("net.hedges", c.hedges as f64, "count"),
        metric(
            "loadgen.late_max_ms",
            late.iter().copied().fold(0.0, f64::max),
            "ms",
        ),
        metric("loadgen.late_p99_ms", Latency::of(&mut late).p99, "ms"),
        metric("trace.codec_fold_share", share(codec_us + fold_us), "ratio"),
        metric("trace.overhead_share", share(overhead_us), "ratio"),
        metric(
            "trace.overhead_frac",
            if untraced_p50 > 0.0 {
                traced_p50 / untraced_p50 - 1.0
            } else {
                0.0
            },
            "ratio",
        ),
        metric("trace.queries", c.queries as f64, "count"),
    ]
}

fn describe_latency(report: &mut Report, what: &str, lat: &Latency) {
    let tail = match lat.tail_p {
        Some(p) => format!("highest supported percentile p{p}"),
        None => "too few samples for any tail".to_string(),
    };
    let warn = if lat.p99_supported() {
        ""
    } else {
        "; p99 has fewer than 10 samples beyond it"
    };
    report.line(format!(
        "{what} latency: n={} p50={:.4} ms p99={:.4} ms ({tail}{warn})",
        lat.n, lat.p50, lat.p99
    ));
}

/// The per-span table: spans, and inclusive and self microseconds per
/// traced query.
fn describe_spans(report: &mut Report, tr: &Tracer) {
    let q = tr.counts.queries.max(1) as f64;
    report.line(format!(
        "{:<22} {:>9} {:>12} {:>12}",
        "span", "count", "incl_us/q", "self_us/q"
    ));
    for (name, (n, incl, own)) in tr.totals() {
        report.line(format!(
            "{name:<22} {n:>9} {:>12.2} {:>12.2}",
            incl as f64 / 1e3 / q,
            own as f64 / 1e3 / q
        ));
    }
}

fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Waits until the block layer has been quiet for half a second — the
/// cumulative I/O stall time in `/proc/pressure/io` grew by under 1 % of
/// it — so writeback and discards a previous run left behind (the durable
/// workload writes ≈ 800 MB per run) do not land in this one's timed
/// window. Gives up after [`SETTLE_LIMIT`] or when pressure information is
/// unavailable. Returns the seconds waited.
fn settle_io() -> f64 {
    fn stalled_us() -> Option<u64> {
        let text = std::fs::read_to_string("/proc/pressure/io").ok()?;
        let some = text.lines().find(|l| l.starts_with("some"))?;
        some.split_whitespace()
            .find_map(|f| f.strip_prefix("total="))?
            .parse()
            .ok()
    }
    let started = std::time::Instant::now();
    let step = Duration::from_millis(500);
    while let Some(before) = stalled_us() {
        std::thread::sleep(step);
        let Some(after) = stalled_us() else { break };
        if after.saturating_sub(before) < step.as_micros() as u64 / 100
            || started.elapsed() >= SETTLE_LIMIT
        {
            break;
        }
    }
    started.elapsed().as_secs_f64()
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

/// First line of a command's standard output, or `unknown`.
fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_documented_invocation() {
        let a = args(&[
            "--workload",
            "mixed",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::Mixed);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
        assert!(args(&[
            "--workload",
            "bogus",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "scan",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "scan",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--workload", "scan", "--seed", "1"]).is_err());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
