//! The traced run's span recorder and stage replay.
//!
//! Spans are recorded from this package, around calls into each crate's
//! public functions; nothing inside the program is instrumented. For every
//! traced query the real `NetClient::query` runs first under one span, then
//! the same query is replayed stage by stage in the order the served path
//! runs them: `overlapping_clamped`, then per shard `shard_slice` (its index
//! descent, heap fetch and token as child spans), `slice_to_message`,
//! `encode_frame`, `decode_frame`, and finally `verify_slices`.
//!
//! Two spans re-run work that already happened inside an opaque call, to
//! attribute it: `crc32` (the CRC that `encode_frame` and `decode_frame`
//! each compute over the SLICE payload) and `fold` (the SHA-1 fold inside
//! `verify_slices`). They are measured beside the call, not inside it, and
//! are left out of the on-path sum that `net.overhead_us` subtracts.

use crate::deploy::ALG;
use crate::drive::Read;
use crate::stats::{self_times, Span};
use sae_core::{verify_slices, ShardSlice, ShardedSaeEngine};
use sae_crypto::Digest;
use sae_net::frame::{decode_frame, encode_frame, slice_to_message};
use sae_net::{Message, NetClient, FRAME_HEADER_LEN};
use sae_storage::{wal, HeapFile, IoSnapshot, RecordId, StorageResult};
use sae_workload::RangeQuery;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// The real networked query.
pub const QUERY: &str = "NetClient::query";
/// The replay root of one query.
pub const REPLAY: &str = "replay";
/// Spans on the served path, summed for `net.overhead_us`.
pub const ON_PATH: [&str; 6] = [
    "overlapping_clamped",
    "shard_slice",
    "slice_to_message",
    "encode_frame",
    "decode_frame",
    "verify_slices",
];

/// Queries whose spans are written out at the end of the run.
const WRITTEN_QUERIES: u64 = 2_000;

/// Counters taken at the same boundaries as the spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    /// Traced queries.
    pub queries: u64,
    /// SP node reads during index descents.
    pub btree_node_reads: u64,
    /// Tokens generated.
    pub tokens: u64,
    /// TE node reads during token generation.
    pub xbtree_node_reads: u64,
    /// Bytes run through the CRC probe.
    pub crc_bytes: u64,
    /// Bytes hashed by the fold probe.
    pub fold_bytes: u64,
    /// Request plus response bytes of the traced queries.
    pub wire_bytes: u64,
    /// Failover legs of the traced queries.
    pub failovers: u64,
    /// Hedge legs of the traced queries.
    pub hedges: u64,
}

/// In-memory span store for one run.
pub struct Tracer {
    epoch: Instant,
    /// Every span, in the order begun.
    pub spans: Vec<Span>,
    /// Counters.
    pub counts: Counts,
    /// No writer runs beside the reader, so a replay must return exactly
    /// as many records as the real query did.
    pub quiescent: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            counts: Counts::default(),
            quiescent: true,
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, query: u64, parent: Option<usize>) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            query,
            parent,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, span: usize) {
        self.spans[span].end = self.now();
    }

    /// Runs `q` through the client under one span, then replays it stage by
    /// stage. The replayed slices must verify, and on an engine with no
    /// concurrent writer they must hold as many records as the real answer.
    pub fn traced_query(
        &mut self,
        client: &mut NetClient,
        engine: &ShardedSaeEngine,
        q: &RangeQuery,
    ) -> Result<Read, String> {
        let qid = self.counts.queries;
        self.counts.queries += 1;
        let span = self.begin(QUERY, qid, None);
        let out = client.query(q);
        self.end(span);
        let read = Read::of(*q, &out);
        self.counts.wire_bytes += out.bytes_sent + out.bytes_received;
        self.counts.failovers += out.failovers;
        self.counts.hedges += out.hedges;
        drop(out);
        let replayed = self
            .replay(engine, q, qid)
            .map_err(|e| format!("replaying {q} failed: {e}"))?;
        let agrees = match replayed {
            Some(count) => !self.quiescent || count == read.count as usize,
            None => false,
        };
        Ok(Read {
            verified: read.verified && agrees,
            ..read
        })
    }

    /// The stage-by-stage replay; `Ok(None)` when the replayed slices do
    /// not verify.
    fn replay(
        &mut self,
        engine: &ShardedSaeEngine,
        q: &RangeQuery,
        qid: u64,
    ) -> Result<Option<usize>, String> {
        let replay = self.begin(REPLAY, qid, None);
        let root = Some(replay);
        let span = self.begin("overlapping_clamped", qid, root);
        let subs = engine.layout().overlapping_clamped(q);
        self.end(span);
        let mut slices = Vec::with_capacity(subs.len());
        for (shard, sub) in subs {
            let span = self.begin("shard_slice", qid, root);
            let slice = self
                .shard_slice(engine, shard, &sub, qid, Some(span))
                .map_err(|e| e.to_string())?;
            self.end(span);

            let span = self.begin("slice_to_message", qid, root);
            let record_len = slice.records.first().map_or(0, Vec::len);
            let message = slice_to_message(&slice, record_len, engine.shard_epoch(shard))
                .ok_or("slice exceeds the frame cap")?;
            self.end(span);
            drop(slice);

            let span = self.begin("encode_frame", qid, root);
            let frame = encode_frame(&message);
            self.end(span);
            drop(message);

            let payload = &frame[FRAME_HEADER_LEN..];
            let span = self.begin("crc32", qid, root);
            black_box(wal::crc32(black_box(payload)));
            self.end(span);
            self.counts.crc_bytes += payload.len() as u64;

            let span = self.begin("decode_frame", qid, root);
            let decoded = decode_frame(&frame).map_err(|e| e.to_string())?;
            self.end(span);
            let Message::Slice { records, vt, .. } = decoded.0 else {
                return Err("the frame did not decode to a SLICE".into());
            };
            slices.push(ShardSlice { shard, records, vt });
        }

        let span = self.begin("verify_slices", qid, root);
        let verdict = verify_slices(engine.layout(), engine.client(), q, &slices);
        self.end(span);

        let span = self.begin("fold", qid, root);
        let mut acc = Digest::ZERO;
        for record in slices.iter().flat_map(|s| &s.records) {
            acc ^= ALG.hash(record);
            self.counts.fold_bytes += record.len() as u64;
        }
        black_box(acc);
        self.end(span);
        self.end(replay);
        let count = slices.iter().map(|s| s.records.len()).sum();
        Ok(verdict.is_ok().then_some(count))
    }

    /// `ShardedSaeEngine::shard_slice` taken apart: the SP's index descent
    /// and heap fetch under the shard's SP lock, with the TE token taken
    /// under its TE lock inside it, in the engine's lock order.
    fn shard_slice(
        &mut self,
        engine: &ShardedSaeEngine,
        shard: usize,
        sub: &RangeQuery,
        qid: u64,
        parent: Option<usize>,
    ) -> StorageResult<ShardSlice> {
        engine.with_sp_mut(shard, |sp| {
            let stats = sp.store().stats();
            let before = stats.snapshot();
            let span = self.begin("btree.range", qid, parent);
            let positions = sp.index().range_record_ids(sub)?;
            self.end(span);
            self.counts.btree_node_reads += stats.snapshot().delta_since(&before).node_reads;

            let span = self.begin("heap.get_range", qid, parent);
            let records = fetch_runs(sp.heap(), &positions)?;
            self.end(span);

            let vt = engine.with_te_mut(shard, |te| {
                let stats = te.store().stats();
                let before = stats.snapshot();
                let span = self.begin("xbtree.token", qid, parent);
                let vt = te.generate_vt(sub);
                self.end(span);
                self.counts.tokens += 1;
                self.counts.xbtree_node_reads += stats.snapshot().delta_since(&before).node_reads;
                vt
            })?;
            Ok(ShardSlice { shard, records, vt })
        })
    }

    /// Per-name totals: spans, inclusive nanoseconds, self nanoseconds.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_times(&self.spans)) {
            let e = out.entry(span.name).or_default();
            e.0 += 1;
            e.1 += span.len();
            e.2 += own;
        }
        out
    }

    /// Per traced query: the `NetClient::query` span and the on-path
    /// replay spans, in nanoseconds.
    pub fn per_query(&self) -> Vec<(u64, u64)> {
        let mut out = vec![(0u64, 0u64); self.counts.queries as usize];
        for span in &self.spans {
            let slot = &mut out[span.query as usize];
            if span.name == QUERY {
                slot.0 += span.len();
            } else if ON_PATH.contains(&span.name) {
                slot.1 += span.len();
            }
        }
        out
    }

    /// Writes the spans of the first traced queries as tab-separated rows.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let own = self_times(&self.spans);
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "query\tspan\tparent\tname\tstart_ns\tend_ns\tself_ns")?;
        for (i, (span, own)) in self.spans.iter().zip(own).enumerate() {
            if span.query >= WRITTEN_QUERIES {
                continue;
            }
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{}\t{i}\t{parent}\t{}\t{}\t{}\t{own}",
                span.query, span.name, span.start, span.end
            )?;
        }
        f.flush()
    }
}

/// The SP's heap fetch: contiguous runs of positions page by page, the same
/// walk `SaeServiceProvider::query` makes.
fn fetch_runs(heap: &HeapFile, positions: &[u64]) -> StorageResult<Vec<Vec<u8>>> {
    let mut out = Vec::with_capacity(positions.len());
    let mut i = 0;
    while i < positions.len() {
        let mut run = 1;
        while i + run < positions.len() && positions[i + run] == positions[i] + run as u64 {
            run += 1;
        }
        out.extend(heap.get_range(RecordId(positions[i]), run as u64)?);
        i += run;
    }
    Ok(out)
}

/// Sum of every shard's SP and TE I/O counters.
pub fn io_totals(engine: &ShardedSaeEngine) -> IoSnapshot {
    let mut total = IoSnapshot::default();
    for shard in 0..engine.shard_count() {
        total.accumulate(&engine.with_sp_mut(shard, |sp| sp.store().stats().snapshot()));
        total.accumulate(&engine.with_te_mut(shard, |te| te.store().stats().snapshot()));
    }
    total
}
