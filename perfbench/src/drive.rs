//! Load generators: the closed-loop reader, the data owner's writes (open
//! loop on `mixed`, closed-loop batches between read sub-windows on
//! `scan`/`point`), and the checks of what the writes acknowledged.

use crate::deploy::{sub_seed, Deployment, WRITE_RATE};
use crate::stats::{ms_after, read_ok, Schedule, Tally};
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sae_core::ShardedSaeEngine;
use sae_net::{NetClient, NetQueryOutcome};
use sae_workload::{paper, Dataset, QueryStream, RangeQuery, Record};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// What one networked read returned, kept small: every read of a run is
/// stored until the checks, and the harness's memory must not grow with the
/// program's speed more than `rss_peak_mb` can absorb.
#[derive(Clone, Copy, Debug)]
pub struct Read {
    /// The query sent.
    pub query: RangeQuery,
    /// Records returned.
    pub count: u32,
    /// `NetQueryOutcome::elapsed_ms`.
    pub elapsed_ms: f32,
    /// Whether the verdict was `Ok`.
    pub verified: bool,
    /// Whether no endpoint error was recorded on the way.
    pub clean: bool,
}

impl Read {
    /// Summarises one outcome.
    pub fn of(query: RangeQuery, out: &NetQueryOutcome) -> Read {
        Read {
            query,
            count: u32::try_from(out.record_count()).unwrap_or(u32::MAX),
            elapsed_ms: out.elapsed_ms as f32,
            verified: out.verdict.is_ok(),
            clean: out.endpoint_errors.is_empty(),
        }
    }

    /// Whether the read counts as correct, given the oracle's count.
    pub fn ok(&self, expected: Option<usize>) -> bool {
        read_ok(self.verified, self.clean, self.count as usize, expected)
    }
}

/// Sends queries from `stream` one after another until `deadline`. With a
/// tracer, every query is also replayed stage by stage (see `trace`).
pub fn read_until(
    client: &mut NetClient,
    engine: &ShardedSaeEngine,
    stream: &mut QueryStream,
    deadline: Instant,
    mut tracer: Option<&mut Tracer>,
) -> Result<Vec<Read>, String> {
    let mut reads = Vec::new();
    while Instant::now() < deadline {
        let Some(q) = stream.next() else { break };
        let read = match tracer.as_deref_mut() {
            Some(tr) => tr.traced_query(client, engine, &q)?,
            None => Read::of(q, &client.query(&q)),
        };
        reads.push(read);
    }
    Ok(reads)
}

/// One data-owner write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Insert a fresh record.
    Insert {
        /// Record id.
        id: u64,
        /// Search key.
        key: u32,
    },
    /// Delete the oldest record the owner inserted.
    Delete {
        /// Record id.
        id: u64,
        /// Search key.
        key: u32,
    },
}

/// The data owner: inserts fresh records (new ids, uniform keys) and
/// deletes the oldest record it inserted, first in first out. The dataset's
/// own records are never touched, so the live set is always the dataset
/// plus whatever the owner's queue holds.
pub struct Owner {
    next_id: u64,
    keys: StdRng,
    /// Inserted and not yet deleted, oldest first.
    pub live: VecDeque<(u64, u32)>,
}

impl Owner {
    /// The owner of `dataset`, with fresh keys drawn from `seed`.
    pub fn new(dataset: &Dataset, seed: u64) -> Owner {
        Owner {
            next_id: dataset.len() as u64,
            keys: StdRng::seed_from_u64(sub_seed(seed, 1)),
            live: VecDeque::new(),
        }
    }

    fn insert(&mut self) -> Op {
        let id = self.next_id;
        self.next_id += 1;
        Op::Insert {
            id,
            key: self.keys.gen_range(0..=paper::KEY_DOMAIN),
        }
    }

    fn delete_oldest(&mut self) -> Option<Op> {
        self.live.front().map(|&(id, key)| Op::Delete { id, key })
    }

    /// Applies `op` to `engine` and, once acknowledged, to the queue.
    /// Returns whether the engine acknowledged it (`Ok`, and for a delete,
    /// found).
    fn apply(&mut self, engine: &ShardedSaeEngine, op: Op) -> bool {
        match op {
            Op::Insert { id, key } => {
                let acked = engine
                    .insert(&Record::with_size(id, key, paper::RECORD_SIZE))
                    .is_ok();
                if acked {
                    self.live.push_back((id, key));
                }
                acked
            }
            Op::Delete { id, key } => {
                // The queue forgets the record either way: a failed delete
                // fails the run, and retrying it would stall the owner.
                self.live.pop_front();
                matches!(engine.delete(id, key), Ok(true))
            }
        }
    }
}

/// One timed write.
#[derive(Clone, Copy, Debug)]
pub struct Write {
    /// The operation.
    pub op: Op,
    /// Whether the engine acknowledged it.
    pub acked: bool,
    /// From when the write was due to when the call returned.
    pub latency_ms: f64,
    /// From when the write was due to when it was issued.
    pub late_ms: f64,
    /// From when it was issued to when the call returned.
    pub service_ms: f64,
}

/// Issues `op` due at `due` (`None`: due when issued) and times it.
fn timed(engine: &ShardedSaeEngine, owner: &mut Owner, op: Op, due: Option<Instant>) -> Write {
    let sent = Instant::now();
    let acked = owner.apply(engine, op);
    let done = Instant::now();
    let due = due.unwrap_or(sent);
    Write {
        op,
        acked,
        latency_ms: ms_after(due, done),
        late_ms: ms_after(due, sent),
        service_ms: ms_after(sent, done),
    }
}

/// The open-loop owner on `mixed`: write `k` is due `k / rate` seconds
/// after `start` and is timed from then, until the first write due at or
/// after `deadline`. Writes alternate an insert with a delete of the
/// oldest record the owner inserted, so its queue stays level.
pub fn write_open_loop(
    engine: &ShardedSaeEngine,
    owner: &mut Owner,
    rate: f64,
    start: Instant,
    deadline: Instant,
) -> Vec<Write> {
    let schedule = Schedule::new(start, rate);
    let mut writes = Vec::new();
    for k in 0.. {
        let due = schedule.due(k);
        if due >= deadline {
            break;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let op = match k % 2 {
            0 => owner.insert(),
            _ => owner.delete_oldest().unwrap_or_else(|| owner.insert()),
        };
        writes.push(timed(engine, owner, op, Some(due)));
    }
    writes
}

/// Records the owner inserts, untimed, before the open loop starts on
/// `mixed`: they fill its queue, so every delete in the window removes a
/// record inserted a few seconds earlier, and they give every durable
/// shard its first commit after creation, which costs tens of milliseconds
/// once per deployment.
pub const QUEUE_FILL: usize = 256;

/// Untimed closed-loop inserts.
pub fn fill(engine: &ShardedSaeEngine, owner: &mut Owner, count: usize) -> Vec<Write> {
    (0..count)
        .map(|_| {
            let op = owner.insert();
            timed(engine, owner, op, None)
        })
        .collect()
}

/// One closed-loop write batch on `scan`/`point`: `count` inserts, a
/// verified check that each acknowledged insert is returned, then `count`
/// deletes of those same records, oldest first. The live set ends where it
/// began, so the reads after the batch still match the dataset's oracle.
pub fn write_batch(
    engine: &ShardedSaeEngine,
    owner: &mut Owner,
    count: usize,
) -> (Vec<Write>, Tally) {
    let mut writes = fill(engine, owner, count);
    let present: Vec<(u64, u32, bool)> = owner
        .live
        .iter()
        .map(|&(id, key)| (id, key, true))
        .collect();
    let tally = check_present(engine, &present);
    while let Some(op) = owner.delete_oldest() {
        writes.push(timed(engine, owner, op, None));
    }
    (writes, tally)
}

/// Checks with verified in-process point queries on `engine` that each
/// `(id, key, present)` record is returned exactly when `present` says so.
pub fn check_present(engine: &ShardedSaeEngine, records: &[(u64, u32, bool)]) -> Tally {
    let mut tally = Tally::default();
    for &(id, key, want) in records {
        let ok = match engine.query(&RangeQuery::new(key, key)) {
            Ok(out) if out.verdict.is_ok() => {
                let found = out
                    .slices
                    .iter()
                    .flat_map(|s| &s.records)
                    .filter_map(|bytes| Record::decode(bytes))
                    .any(|r| r.id == id);
                found == want
            }
            _ => false,
        };
        tally.record(ok);
    }
    tally
}

/// The records `writes` left behind: every acknowledged delete absent, and
/// every record still in the owner's queue present.
pub fn expected_state(writes: &[Write], owner: &Owner) -> Vec<(u64, u32, bool)> {
    let deleted = writes
        .iter()
        .filter(|w| w.acked)
        .filter_map(|w| match w.op {
            Op::Delete { id, key } => Some((id, key, false)),
            Op::Insert { .. } => None,
        });
    deleted
        .chain(owner.live.iter().map(|&(id, key)| (id, key, true)))
        .collect()
}

/// What one timed window produced.
pub struct Window {
    /// Untraced reads.
    pub reads: Vec<Read>,
    /// Traced reads (trace mode only).
    pub traced: Vec<Read>,
    /// Reads per second in each untraced sub-window.
    pub rates: Vec<f64>,
    /// The owner's timed writes.
    pub writes: Vec<Write>,
    /// Checks run inside the window (inserts returned on `scan`/`point`).
    pub checks: Tally,
}

/// Runs the timed window in `windows` sub-windows of `secs / windows`
/// each; the first `untraced` are untraced, the rest traced when a tracer
/// is given.
///
/// - `mixed` (`durable`): the open-loop owner writes on a second thread for
///   the whole window, beside the reader.
/// - `scan`/`point`: after each sub-window the reader pauses for one
///   closed-loop [`write_batch`] of `batch` inserts and deletes, so writes
///   are sampled across the whole run but never overlap a read.
#[allow(clippy::too_many_arguments)]
pub fn timed_window(
    dep: &mut Deployment,
    stream: &mut QueryStream,
    owner: &mut Owner,
    durable: bool,
    secs: Duration,
    windows: usize,
    untraced: usize,
    batch: usize,
    mut tracer: Option<&mut Tracer>,
) -> Result<Window, String> {
    let engine = &*dep.engine;
    let client = &mut dep.client;
    let start = Instant::now();
    let width = secs / windows as u32;
    let (writer_owner, mut batch_owner) = if durable {
        (Some(owner), None)
    } else {
        (None, Some(owner))
    };
    std::thread::scope(|scope| {
        let writer = writer_owner.map(|owner| {
            scope.spawn(move || write_open_loop(engine, owner, WRITE_RATE, start, start + secs))
        });
        let mut out = Window {
            reads: Vec::new(),
            traced: Vec::new(),
            rates: Vec::new(),
            writes: Vec::new(),
            checks: Tally::default(),
        };
        let result = (0..windows).try_for_each(|i| -> Result<(), String> {
            let sub_start = Instant::now();
            // `mixed` keeps its sub-windows on the writer's clock.
            let sub_end = if durable {
                start + width * (i as u32 + 1)
            } else {
                sub_start + width
            };
            let tr = if i < untraced {
                None
            } else {
                tracer.as_deref_mut()
            };
            let traced = tr.is_some();
            let reads = read_until(client, engine, stream, sub_end, tr)?;
            if traced {
                out.traced.extend(reads);
            } else {
                out.rates
                    .push(reads.len() as f64 / sub_start.elapsed().as_secs_f64());
                out.reads.extend(reads);
            }
            if let Some(owner) = batch_owner.as_deref_mut() {
                let (writes, checks) = write_batch(engine, owner, batch);
                out.writes.extend(writes);
                out.checks.merge(checks);
            }
            Ok(())
        });
        if let Some(handle) = writer {
            out.writes = handle
                .join()
                .map_err(|_| "the writer thread panicked".to_string())?;
        }
        result.map(|()| out)
    })
}
