//! The three workloads. Each builds fresh state, drives the live server over
//! loopback TCP from at most two client connections, times what the clients
//! see, and checks every answer before any number is reported.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, RwLock};
use std::time::{Duration, Instant};

use dataspace_core::dataspace::{Dataspace, DataspaceStats};
use iql::{Bag, Params, Value};
use wire::{Client, ClientError, PushUpdate};

use crate::fixture::{
    bag_fingerprint, bindings, build_dataspace, fingerprint, protein_row, script, start_service,
    user_bytes, Bindings, Fingerprint, Rng, Service, SetupTimes, QUERIES,
};
use crate::measure::{dist, CpuTicks, Dist};
use crate::trace::{traced, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Table1Reads,
    IngestPush,
    ReadsUnderWrites,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Table1Reads,
        Workload::IngestPush,
        Workload::ReadsUnderWrites,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Reads => "table1_reads",
            Workload::IngestPush => "ingest_push",
            Workload::ReadsUnderWrites => "reads_under_writes",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the served dataspace has a commit log attached (flush policy:
    /// `wal_fsync` off, the default).
    pub fn has_wal(self) -> bool {
        self != Workload::Table1Reads
    }
}

/// Closed-loop reader connections in `table1_reads` and
/// `reads_under_writes` (the box's core count).
pub const READERS: usize = 2;
/// The open-loop writer's schedule in `reads_under_writes`, chosen for
/// run-to-run stability: re-warming after commits fills about a quarter of
/// the readers' time, and much faster rates saturate them, so that their
/// figures swing several-fold between runs (see `README.md`).
pub const WRITE_RATE_HZ: f64 = 3.0;
/// `ingest_push`: rows per batch, batches per cycle, and the checkpoint
/// cadence. The work per cycle is fixed by these counts, never by time, so
/// every cycle ends in the same state however fast it ran.
pub const BATCH_ROWS: usize = 16;
pub const BATCHES_PER_CYCLE: usize = 1000;
pub const CHECKPOINT_EVERY: usize = 250;
/// About one cycle per half second on a 2-core box.
pub const INGEST_CYCLES_PER_SECOND: f64 = 2.0;
// A cycle's last batch is followed by a checkpoint, so recovery replays a
// compacted log.
const _: () = assert!(BATCHES_PER_CYCLE.is_multiple_of(CHECKPOINT_EVERY));
/// A run's reads are split into `--seconds / ROUND_SECONDS` rounds of equal
/// length. Readers reconnect every round (fresh client and session threads),
/// so a run averages over many thread placements on the cores instead of
/// keeping whichever the first connection drew.
pub const ROUND_SECONDS: f64 = 2.0;
/// Log replays per run; `recovery_s` is their median.
pub const RECOVERY_REPS: usize = 3;

/// The standing feed kept current from the delta, and the aggregate the
/// engine must re-execute on every commit.
pub const FEED: &str = "[x | {k, x} <- <<PEDRO_protein, PEDRO_accession_num>>]";
pub const COUNT: &str = "count <<PEDRO_protein>>";

const READ_SPANS: [&str; 7] = [
    "wire.read.Q1",
    "wire.read.Q2",
    "wire.read.Q3",
    "wire.read.Q4",
    "wire.read.Q5",
    "wire.read.Q6",
    "wire.read.Q7",
];

/// Public counters of the dataspace and the server at one instant.
pub struct Counters {
    ds: DataspaceStats,
    server: Vec<(String, u64)>,
}

impl Counters {
    pub fn take(service: &Service) -> Counters {
        Counters {
            ds: read(&service.ds).stats(),
            server: service.server_counters(),
        }
    }

    fn server(&self, name: &str) -> u64 {
        self.server
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }
}

/// Counter movement over the measured window(s).
#[derive(Debug, Clone, Copy, Default)]
pub struct Delta {
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub index_hits: u64,
    pub index_misses: u64,
    pub index_builds: u64,
    pub index_refreshes: u64,
    pub columnar_execs: u64,
    pub row_fallbacks: u64,
    pub delta_evals: u64,
    pub fallback_reexecs: u64,
    pub execute_requests: u64,
    pub insert_requests: u64,
    pub chunks_sent: u64,
    /// Typed error frames (busy rejections and timeouts included) plus
    /// frame-layer failures.
    pub failures: u64,
}

impl Delta {
    fn add(&mut self, before: &Counters, after: &Counters) {
        let (b, a) = (&before.ds, &after.ds);
        let s = |name: &str| after.server(name) - before.server(name);
        self.plan_hits += a.plan_cache_hits - b.plan_cache_hits;
        self.plan_misses += a.plan_cache_misses - b.plan_cache_misses;
        self.index_hits += a.index_hits - b.index_hits;
        self.index_misses += a.index_misses - b.index_misses;
        self.index_builds += a.index_builds - b.index_builds;
        self.index_refreshes += a.index_refreshes - b.index_refreshes;
        self.columnar_execs += a.columnar_execs - b.columnar_execs;
        self.row_fallbacks += a.row_fallbacks - b.row_fallbacks;
        self.delta_evals += a.delta_evals - b.delta_evals;
        self.fallback_reexecs += a.fallback_reexecs - b.fallback_reexecs;
        self.execute_requests += s("server_requests_execute");
        self.insert_requests += s("server_requests_insert");
        self.chunks_sent += s("server_chunks_sent");
        self.failures += s("server_errors_sent") + s("server_frame_errors");
    }
}

/// One measured sub-window: a reader round, or an ingest cycle.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Reads completed, or rows acknowledged on `ingest_push`.
    pub ops: u64,
    pub secs: f64,
    /// Point reads, or insert round trips on `ingest_push`.
    pub short: Dist,
    /// Join reads, or insert-to-push lag on `ingest_push`.
    pub long: Dist,
    /// Share of the machine's CPU time the hypervisor stole meanwhile.
    pub steal: f64,
}

/// Everything one run of a workload measured.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub setup_phases: Vec<SetupTimes>,
    /// `Dataspace::open` replay time of the final log on a fresh dataspace.
    pub recovery_s: Vec<f64>,
    /// One summary per reader round or ingest cycle; the end-to-end
    /// metrics are medians over them.
    pub windows: Vec<Window>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness violations; any entry fails the run.
    pub errors: Vec<String>,
    pub reads: u64,
    pub rows_read: u64,
    pub cold_reads: u64,
    /// Latency of the cold reads, and of all reads: a closed-loop reader's
    /// busy time, so `cold_us.sum() / read_us_total` is the share of it
    /// spent re-warming after commits.
    pub cold_us: Vec<f64>,
    pub read_us_total: f64,
    /// Fresh reads checked against the writer's acknowledgements.
    pub fresh_reads: u64,
    /// Client bytes (out, in) and requests of the measured clients.
    pub traffic: (u64, u64),
    pub requests: u64,
    pub bindings: Option<Bindings>,
    pub script: Vec<(usize, usize)>,
    /// `reads_under_writes` writer: latency from each commit's due time.
    pub writer_us: Vec<f64>,
    pub max_late_us: f64,
    pub commits: u64,
    /// Acknowledged write batches (the last cycle's, on `ingest_push`).
    pub batches: Vec<Vec<Vec<Value>>>,
    pub checkpoints: u64,
    pub log_bytes: u64,
    pub user_bytes: u64,
    pub pushes: u64,
    pub cycles: u64,
    pub memo_samples: Vec<f64>,
    pub delta: Delta,
    /// `pedro.protein` rows and the accession feed before any write.
    pub base_count: i64,
    pub base_feed: Option<Bag>,
}

/// A window counts as clean when the hypervisor stole at most this share of
/// the machine's CPU time during it.
pub const STEAL_LIMIT: f64 = 0.05;

impl Outcome {
    /// The windows the end-to-end medians use: every clean one, and at
    /// least the third of all windows (three or more) with the least steal.
    /// Stolen time is the host's load, not the program's; on a shared host
    /// it comes and goes within a run, and it slows ping-pong traffic far
    /// more than its share.
    pub fn clean_windows(&self) -> Vec<Window> {
        let mut by_steal = self.windows.clone();
        by_steal.sort_by(|a, b| a.steal.total_cmp(&b.steal));
        let clean = by_steal.iter().filter(|w| w.steal <= STEAL_LIMIT).count();
        by_steal.truncate(clean.max(by_steal.len().div_ceil(3)).max(3));
        by_steal
    }
}

pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    work: &Path,
    tracer: Option<&Tracer>,
) -> Outcome {
    let wal = work.join(format!("{}.wal", workload.name()));
    let wal = workload.has_wal().then_some(wal.as_path());
    let mut out = Outcome::default();
    match workload {
        Workload::Table1Reads | Workload::ReadsUnderWrites => {
            reads(&mut out, seed, seconds, work, wal, tracer)
        }
        Workload::IngestPush => ingest(&mut out, seed, seconds, wal.expect("ingest logs"), tracer),
    }
    if let Some(path) = wal {
        let mut errors = Vec::new();
        for rep in 0..RECOVERY_REPS {
            let (secs, ds) = recover(path);
            out.recovery_s.push(secs);
            if rep + 1 == RECOVERY_REPS {
                verify_recovered(&ds, &out, &mut errors);
            }
        }
        out.errors.extend(errors);
        std::fs::remove_file(path).ok();
    }
    out
}

/// `table1_reads` (no writer, no log) and `reads_under_writes` (the same
/// closed-loop readers beside an open-loop single-row writer, with a log).
fn reads(
    out: &mut Outcome,
    seed: u64,
    seconds: f64,
    work: &Path,
    wal: Option<&Path>,
    tracer: Option<&Tracer>,
) {
    let writer = wal.is_some();
    let sample_wal = work.join("setup-sample.wal");
    let sample_wal = wal.map(|_| sample_wal.as_path());
    let (service, phases, secs) = start_service(wal, tracer);
    out.setup_s.push(secs);
    out.setup_phases.push(phases);
    let binds = bindings(&read(&service.ds), seed);
    out.base_count = protein_count(&read(&service.ds));
    out.base_feed = Some(
        read(&service.ds)
            .query(FEED)
            .expect("feed answers in process"),
    );
    let readers = READERS;
    let scripts: Vec<_> = (0..readers)
        .map(|c| script(&binds, seed.wrapping_mul(31).wrapping_add(c as u64), 8192))
        .collect();
    // Writes started and writes acknowledged: the window within which each
    // fresh read's answer must lie.
    let sent = AtomicU64::new(0);
    let commits = AtomicU64::new(0);
    let mut logs: Vec<ReadLog> = (0..readers).map(|_| ReadLog::default()).collect();
    let before = Counters::take(&service);
    let addr = service.addr();
    let memo = tracer.is_some().then_some(&*service.ds);
    let commits_due = (seconds * WRITE_RATE_HZ).floor().max(1.0) as usize;
    let rounds = (seconds / ROUND_SECONDS).round().max(1.0) as usize;
    let round_length = Duration::from_secs_f64(seconds / rounds as f64);
    let mut windows = Vec::new();
    let write_log = std::thread::scope(|s| {
        let mut writer_thread = None;
        for round in 0..rounds {
            let stop = AtomicBool::new(false);
            let go = Barrier::new(readers + 1);
            let (round_window, steal) = std::thread::scope(|r| {
                let handles: Vec<_> = logs
                    .iter_mut()
                    .zip(&scripts)
                    .enumerate()
                    .map(|(c, (log, script))| {
                        let (binds, go, stop) = (&binds, &go, &stop);
                        let reader = Reader {
                            addr,
                            binds,
                            script,
                            go,
                            stop,
                            sent: &sent,
                            commits: &commits,
                            writes: writer,
                            tracer,
                        };
                        r.spawn(move || reader.run(log, c as u64 + 1, round == 0))
                    })
                    .collect();
                go.wait();
                let start = Instant::now();
                let ticks = CpuTicks::now();
                if writer && writer_thread.is_none() {
                    let (sent, commits) = (&sent, &commits);
                    writer_thread = Some(s.spawn(move || {
                        let acks = Acks { sent, commits };
                        open_loop_writer(addr, commits_due, start, seed, acks, memo, tracer)
                    }));
                }
                std::thread::sleep(round_length);
                stop.store(true, Ordering::SeqCst);
                let round_window = start.elapsed().as_secs_f64();
                let steal = CpuTicks::now().steal_since(ticks);
                for h in handles {
                    h.join().expect("reader thread completes");
                }
                (round_window, steal)
            });
            let point: Vec<f64> = logs.iter_mut().flat_map(|l| l.point_us.drain(..)).collect();
            let join: Vec<f64> = logs.iter_mut().flat_map(|l| l.join_us.drain(..)).collect();
            windows.push(Window {
                ops: (point.len() + join.len()) as u64,
                secs: round_window,
                short: dist(&point),
                long: dist(&join),
                steal,
            });
            // One set-up between rounds, outside every measured window, so
            // `setup_s` samples the whole run rather than its first second.
            let (sample, phases, secs) = start_service(sample_wal, tracer);
            sample.stop();
            out.setup_s.push(secs);
            out.setup_phases.push(phases);
        }
        writer_thread.map(|w| w.join().expect("writer thread completes"))
    });
    let after = Counters::take(&service);
    out.delta.add(&before, &after);
    if tracer.is_some() && !writer {
        out.memo_samples.push(after.ds.extent_memo_len as f64);
    }
    let ds = service.stop();
    let ds = read(&ds);
    if let Some(path) = wal {
        out.log_bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    }
    let mut seen: HashMap<(usize, usize), Fingerprint> = HashMap::new();
    let mut inconsistent = 0u64;
    let mut fresh = Vec::new();
    for log in logs {
        out.attempted += log.attempted;
        out.failed += log.failed;
        out.reads += log.attempted - log.failed;
        out.rows_read += log.rows;
        out.cold_reads += log.cold_us.len() as u64;
        out.cold_us.extend(log.cold_us);
        out.read_us_total += log.read_us_total;
        fresh.extend(log.fresh);
        out.traffic.0 += log.traffic.0;
        out.traffic.1 += log.traffic.1;
        out.errors.extend(log.errors);
        inconsistent += log.inconsistent;
        for (key, fp) in log.seen {
            match seen.entry(key) {
                Entry::Vacant(v) => {
                    v.insert(fp);
                }
                Entry::Occupied(o) => inconsistent += u64::from(*o.get() != fp),
            }
        }
    }
    out.requests = out.attempted;
    out.windows = windows;
    if inconsistent > 0 {
        out.errors.push(format!(
            "{inconsistent} reads answered differently for the same binding"
        ));
    }
    verify_reads(&ds, &binds, &seen, &mut out.errors);
    if let Some(w) = &write_log {
        out.fresh_reads = fresh.len() as u64;
        verify_fresh(&ds, &binds, &fresh, &w.acked, &mut out.errors);
    }
    if let Some(w) = write_log {
        out.attempted += w.attempted;
        out.failed += w.attempted - w.acked.len() as u64;
        out.writer_us = w.latency_us;
        out.max_late_us = w.max_late_us;
        out.commits = w.acked.len() as u64;
        out.memo_samples = w.memo_samples;
        out.user_bytes = w.acked.iter().flatten().map(|r| user_bytes(r)).sum();
        out.batches = w.acked;
    }
    let rows: usize = out.batches.iter().map(Vec::len).sum();
    let count = protein_count(&ds);
    if count != out.base_count + rows as i64 {
        out.errors.push(format!(
            "served pedro.protein holds {count} rows, expected {} + {rows} acknowledged",
            out.base_count
        ));
    }
    out.script = scripts.into_iter().next().unwrap_or_default();
    out.bindings = Some(binds);
}

#[derive(Default)]
struct ReadLog {
    /// Script position, carried across rounds.
    next: usize,
    /// The commit count each query last ran at.
    last_commit: [u64; 7],
    point_us: Vec<f64>,
    join_us: Vec<f64>,
    cold_us: Vec<f64>,
    read_us_total: f64,
    seen: HashMap<(usize, usize), Fingerprint>,
    fresh: Vec<FreshRead>,
    inconsistent: u64,
    attempted: u64,
    failed: u64,
    rows: u64,
    traffic: (u64, u64),
    errors: Vec<String>,
}

/// One fresh read under writes: the writer's acknowledged count before the
/// request was sent, its started count after the answer arrived, and the
/// written row ids the answer held.
struct FreshRead {
    acked_before: u64,
    sent_after: u64,
    ids: Vec<i64>,
}

/// The writer's progress, shared with the readers: writes started, and
/// writes acknowledged.
struct Acks<'a> {
    sent: &'a AtomicU64,
    commits: &'a AtomicU64,
}

/// One closed-loop reader connection for one round.
struct Reader<'a> {
    addr: SocketAddr,
    binds: &'a Bindings,
    script: &'a [(usize, usize)],
    go: &'a Barrier,
    stop: &'a AtomicBool,
    sent: &'a AtomicU64,
    commits: &'a AtomicU64,
    /// Whether a writer runs beside the readers.
    writes: bool,
    tracer: Option<&'a Tracer>,
}

impl Reader<'_> {
    /// Connect, prepare Q1–Q7 (warming each plan once on the first round),
    /// then follow the script from where the last round left it until told
    /// to stop. A read is cold when it is the first execution of its query
    /// since a commit was acknowledged. Under writes the fresh read's answer
    /// changes with every commit, so it is kept for `verify_fresh` instead
    /// of the same-binding comparison.
    fn run(self, log: &mut ReadLog, client_id: u64, warm: bool) {
        let mut client = Client::connect(self.addr).expect("reader connects");
        let handles: Vec<u64> = QUERIES
            .iter()
            .map(|q| client.prepare(q.text).expect("Table 1 query prepares").0)
            .collect();
        if warm {
            for (q, handle) in handles.iter().enumerate() {
                client
                    .execute(*handle, self.binds.params(q, 0))
                    .expect("warm-up read answers");
            }
        }
        let traffic = client.traffic();
        self.go.wait();
        while !self.stop.load(Ordering::SeqCst) {
            let (q, b) = self.script[log.next % self.script.len()];
            log.next += 1;
            let now = self.commits.load(Ordering::SeqCst);
            let cold = log.last_commit[q] != now;
            log.last_commit[q] = now;
            let fresh = self.writes && (q, b) == self.binds.fresh();
            let request = (client_id << 40) | log.next as u64;
            let start = Instant::now();
            let result = traced(self.tracer, READ_SPANS[q], 0, request, |_| {
                client.execute(handles[q], self.binds.params(q, b))
            });
            let us = start.elapsed().as_secs_f64() * 1e6;
            log.attempted += 1;
            match result {
                Ok(rows) => {
                    if QUERIES[q].point {
                        log.point_us.push(us);
                    } else {
                        log.join_us.push(us);
                    }
                    if cold {
                        log.cold_us.push(us);
                    }
                    log.read_us_total += us;
                    log.rows += rows.len() as u64;
                    if fresh {
                        log.fresh.push(FreshRead {
                            acked_before: now,
                            sent_after: self.sent.load(Ordering::SeqCst),
                            ids: rows.iter().map(written_id).collect(),
                        });
                        continue;
                    }
                    let fp = fingerprint(&rows);
                    match log.seen.entry((q, b)) {
                        Entry::Vacant(v) => {
                            v.insert(fp);
                        }
                        Entry::Occupied(o) => log.inconsistent += u64::from(*o.get() != fp),
                    }
                }
                Err(e) => {
                    log.failed += 1;
                    if matches!(e, ClientError::Frame(_)) {
                        log.errors
                            .push(format!("reader {client_id} lost its connection: {e}"));
                        break;
                    }
                }
            }
        }
        let now = client.traffic();
        log.traffic.0 += now.0 - traffic.0;
        log.traffic.1 += now.1 - traffic.1;
        client.close().ok();
    }
}

/// Every distinct (query, binding) answered over the wire must equal the
/// in-process `PreparedQuery::execute` answer on the same dataspace.
fn verify_reads(
    ds: &Dataspace,
    binds: &Bindings,
    seen: &HashMap<(usize, usize), Fingerprint>,
    errors: &mut Vec<String>,
) {
    let prepared: Vec<_> = QUERIES
        .iter()
        .map(|q| {
            ds.prepare(q.text)
                .expect("Table 1 query prepares in process")
        })
        .collect();
    let mut keys: Vec<_> = seen.keys().copied().collect();
    keys.sort_unstable();
    if keys.is_empty() {
        errors.push("no read was answered".into());
    }
    for (q, b) in keys {
        let expected = prepared[q]
            .execute(binds.params(q, b))
            .map(|bag| bag_fingerprint(&bag));
        match expected {
            Ok(fp) if fp == seen[&(q, b)] => {}
            Ok(fp) => errors.push(format!(
                "{} binding {b}: {} rows over the wire, {} in process",
                QUERIES[q].name,
                seen[&(q, b)].0,
                fp.0
            )),
            Err(e) => errors.push(format!(
                "{} binding {b} fails in process: {e}",
                QUERIES[q].name
            )),
        }
    }
}

/// The id of a written `pedro.protein` row in a fresh-read answer row
/// `{source, key}`; -1 for anything else, which no write produces.
fn written_id(row: &Value) -> i64 {
    match row {
        Value::Tuple(items) => match items.get(1) {
            Some(Value::Int(id)) => *id,
            _ => -1,
        },
        _ => -1,
    }
}

/// Every fresh read under writes holds each row acknowledged before it was
/// sent, only rows whose write had started by the time it returned, and no
/// row twice. After the run, the fresh read in process holds exactly the
/// acknowledged rows.
fn verify_fresh(
    ds: &Dataspace,
    binds: &Bindings,
    fresh: &[FreshRead],
    acked: &[Vec<Vec<Value>>],
    errors: &mut Vec<String>,
) {
    let acked: Vec<i64> = acked
        .iter()
        .flatten()
        .map(|row| match row[0] {
            Value::Int(id) => id,
            _ => -1,
        })
        .collect();
    let mut want = acked.clone();
    want.sort_unstable();
    let mut stale = 0u64;
    let mut first = None;
    for (i, read) in fresh.iter().enumerate() {
        let mut ids = read.ids.clone();
        ids.sort_unstable();
        let n = ids.len();
        ids.dedup();
        let must = &acked[..(read.acked_before as usize).min(acked.len())];
        let ok = ids.len() == n
            && must.iter().all(|id| ids.binary_search(id).is_ok())
            && ids.iter().all(|&id| {
                (WRITE_ID_BASE..WRITE_ID_BASE + read.sent_after as i64).contains(&id)
                    && want.binary_search(&id).is_ok()
            });
        if !ok {
            stale += 1;
            first.get_or_insert(i);
        }
    }
    if let Some(i) = first {
        let read = &fresh[i];
        errors.push(format!(
            "{stale} of {} fresh reads break the write order; the first held {} rows \
             with {} acknowledged before it and {} started after it",
            fresh.len(),
            read.ids.len(),
            read.acked_before,
            read.sent_after
        ));
    }
    let (q, b) = binds.fresh();
    let now = ds
        .prepare(QUERIES[q].text)
        .and_then(|p| p.execute(binds.params(q, b)))
        .map(|bag| {
            let mut ids: Vec<i64> = bag.items().iter().map(written_id).collect();
            ids.sort_unstable();
            ids
        });
    match now {
        Ok(ids) if ids == want => {}
        Ok(ids) => errors.push(format!(
            "the fresh read holds {} rows in process, {} were acknowledged",
            ids.len(),
            want.len()
        )),
        Err(e) => errors.push(format!("the fresh read fails in process: {e}")),
    }
}

/// Id of the `reads_under_writes` writer's first row; row `i` gets
/// `WRITE_ID_BASE + i`.
const WRITE_ID_BASE: i64 = 2_000_000;

struct WriteLog {
    latency_us: Vec<f64>,
    max_late_us: f64,
    attempted: u64,
    acked: Vec<Vec<Vec<Value>>>,
    memo_samples: Vec<f64>,
}

/// The open-loop writer: commit `n` single rows, one every 1/`WRITE_RATE_HZ`
/// seconds from `start`, each timed from when it was due.
fn open_loop_writer(
    addr: SocketAddr,
    n: usize,
    start: Instant,
    seed: u64,
    acks: Acks<'_>,
    memo: Option<&RwLock<Dataspace>>,
    tracer: Option<&Tracer>,
) -> WriteLog {
    let mut client = Client::connect(addr).expect("writer connects");
    let mut rng = Rng::new(seed ^ 0x5752);
    let interval = Duration::from_secs_f64(1.0 / WRITE_RATE_HZ);
    let mut log = WriteLog {
        latency_us: Vec::with_capacity(n),
        max_late_us: 0.0,
        attempted: 0,
        acked: Vec::new(),
        memo_samples: Vec::new(),
    };
    for i in 0..n {
        let due = start + interval / 2 + interval * i as u32;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        log.max_late_us = log
            .max_late_us
            .max(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
        let row = protein_row(&mut rng, WRITE_ID_BASE + i as i64, format!("RUW{i:06}"));
        log.attempted += 1;
        acks.sent.fetch_add(1, Ordering::SeqCst);
        let result = traced(tracer, "wire.insert", 0, i as u64 + 1, |_| {
            client.insert("pedro", "protein", vec![row.clone()])
        });
        log.latency_us.push(due.elapsed().as_secs_f64() * 1e6);
        if let Ok(1) = result {
            log.acked.push(vec![row]);
            acks.commits.fetch_add(1, Ordering::SeqCst);
        }
        if let Some(ds) = memo {
            log.memo_samples
                .push(read(ds).stats().extent_memo_len as f64);
        }
    }
    client.close().ok();
    log
}

/// `ingest_push`: fixed-size cycles, each from a fresh dataspace. Each
/// cycle commits `BATCHES_PER_CYCLE` batches closed-loop on one connection
/// and checkpoints every `CHECKPOINT_EVERY`, while a second connection holds
/// the two standing subscriptions. The cycle count is fixed by `--seconds`
/// (`INGEST_CYCLES_PER_SECOND`), never by elapsed time, so a run does the
/// same work — and peaks at the same memory — however fast it goes.
fn ingest(out: &mut Outcome, seed: u64, seconds: f64, wal: &Path, tracer: Option<&Tracer>) {
    let cycles = (seconds * INGEST_CYCLES_PER_SECOND).ceil().max(1.0) as u64;
    while out.cycles < cycles {
        let window = ingest_cycle(out, seed, wal, tracer);
        out.windows.push(window);
        out.cycles += 1;
    }
}

/// One ingest cycle, summarised as a window over the writer's busy time.
/// Leaves the cycle's acknowledged batches in `out.batches` and its log at
/// `wal`.
fn ingest_cycle(out: &mut Outcome, seed: u64, wal: &Path, tracer: Option<&Tracer>) -> Window {
    let (service, phases, secs) = start_service(Some(wal), tracer);
    out.setup_s.push(secs);
    out.setup_phases.push(phases);
    let (base_count, base_feed) = {
        let ds = read(&service.ds);
        (
            protein_count(&ds),
            ds.query(FEED).expect("feed answers in process"),
        )
    };
    let mut rng = Rng::new(seed ^ (0x1A6E57 + out.cycles));
    let batches: Vec<Vec<Vec<Value>>> = (0..BATCHES_PER_CYCLE)
        .map(|b| {
            (0..BATCH_ROWS)
                .map(|i| {
                    let id = 1_000_000 + (b * BATCH_ROWS + i) as i64;
                    protein_row(&mut rng, id, format!("ING{b:06}-{i:02}"))
                })
                .collect()
        })
        .collect();

    let mut subscriber = Client::connect(service.addr()).expect("subscriber connects");
    let (feed_handle, _) = subscriber.prepare(FEED).expect("feed prepares");
    let (count_handle, _) = subscriber.prepare(COUNT).expect("count prepares");
    let (feed_id, feed_initial) = subscriber
        .subscribe(feed_handle, &Params::new())
        .expect("feed subscribes");
    let (count_id, _) = subscriber
        .subscribe(count_handle, &Params::new())
        .expect("count subscribes");
    let mut writer = Client::connect(service.addr()).expect("writer connects");
    let traffic = writer.traffic();
    let before = Counters::take(&service);
    let writer_done = AtomicBool::new(false);
    let acked_batches = AtomicU64::new(0);

    let mut sent = vec![None; batches.len()];
    let mut acked = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut memo_samples = Vec::new();
    let (mut busy, mut steal) = (0.0, 0.0);
    let (mut insert_us, mut lag_us) = (Vec::new(), Vec::new());
    let pushes = std::thread::scope(|s| {
        // Once the expected pushes are in, the receiver waits one more quiet
        // receive, longer than the server's 20 ms push poll, so that a
        // duplicate or stray push is read and fails the gate below.
        let receiver = s.spawn(|| {
            let mut pushes = Vec::new();
            let mut quiet_since: Option<Instant> = None;
            loop {
                let done = writer_done.load(Ordering::SeqCst);
                let expected = 2 * acked_batches.load(Ordering::SeqCst) as usize;
                let all_in = done && pushes.len() >= expected;
                if done
                    && quiet_since.get_or_insert_with(Instant::now).elapsed()
                        > Duration::from_secs(5)
                {
                    break;
                }
                let got = traced(tracer, "wire.recv_push", 0, 0, |_| {
                    subscriber.recv_push(Duration::from_millis(50))
                });
                match got {
                    Ok(Some((sub_id, update))) => pushes.push((Instant::now(), sub_id, update)),
                    Ok(None) if all_in => break,
                    Ok(None) => {}
                    Err(_) => break,
                }
            }
            pushes
        });
        let start = Instant::now();
        let ticks = CpuTicks::now();
        for (b, batch) in batches.iter().enumerate() {
            attempted += 1;
            let t = Instant::now();
            sent[b] = Some(t);
            let result = traced(tracer, "wire.insert", 0, b as u64 + 1, |_| {
                writer.insert("pedro", "protein", batch.clone())
            });
            if result.as_ref().is_ok_and(|n| *n == BATCH_ROWS as u64) {
                insert_us.push(t.elapsed().as_secs_f64() * 1e6);
                acked.push(b);
                acked_batches.fetch_add(1, Ordering::SeqCst);
            } else {
                failed += 1;
            }
            if tracer.is_some() {
                memo_samples.push(read(&service.ds).stats().extent_memo_len as f64);
            }
            if (b + 1) % CHECKPOINT_EVERY == 0 {
                attempted += 1;
                let ok = traced(tracer, "wire.checkpoint", 0, 0, |_| writer.checkpoint()).is_ok();
                out.checkpoints += u64::from(ok);
                failed += u64::from(!ok);
            }
        }
        busy = start.elapsed().as_secs_f64();
        steal = CpuTicks::now().steal_since(ticks);
        writer_done.store(true, Ordering::SeqCst);
        receiver.join().expect("push receiver completes")
    });
    let after = Counters::take(&service);
    out.delta.add(&before, &after);
    let now = writer.traffic();
    out.traffic.0 += now.0 - traffic.0;
    out.traffic.1 += now.1 - traffic.1;
    out.requests += attempted;
    writer.close().ok();
    subscriber.close().ok();
    let ds = service.stop();
    let ds = read(&ds);
    out.attempted += attempted;
    out.failed += failed;
    out.memo_samples.extend(memo_samples);
    out.pushes += pushes.len() as u64;
    out.log_bytes = std::fs::metadata(wal).map(|m| m.len()).unwrap_or(0);

    // Every acknowledged batch is pushed exactly once on each subscription,
    // and nothing else is pushed.
    let mut feed_pushes = vec![0u32; batches.len()];
    let mut count_pushes = vec![0u32; batches.len()];
    let mut client_feed: Vec<Value> = match feed_initial {
        Value::Bag(bag) => bag.into_items(),
        other => {
            out.errors
                .push(format!("feed subscribed with a non-bag result {other}"));
            Vec::new()
        }
    };
    let errors = &mut out.errors;
    for (at, sub_id, update) in pushes {
        match update {
            PushUpdate::Delta(rows) if sub_id == feed_id => {
                let Some(b) = rows.first().and_then(batch_of) else {
                    errors.push("feed delta without a benchmark accession".into());
                    continue;
                };
                if rows.len() != BATCH_ROWS || rows.iter().any(|r| batch_of(r) != Some(b)) {
                    errors.push(format!(
                        "feed delta for batch {b} holds {} rows",
                        rows.len()
                    ));
                }
                feed_pushes[b] += 1;
                if let Some(t) = sent[b] {
                    lag_us.push((at - t).as_secs_f64() * 1e6);
                }
                client_feed.extend(rows);
            }
            PushUpdate::Refreshed(Value::Int(n)) if sub_id == count_id => {
                let added = (n - base_count) as usize;
                match (added % BATCH_ROWS, (added / BATCH_ROWS).checked_sub(1)) {
                    (0, Some(k)) if k < acked.len() => count_pushes[acked[k]] += 1,
                    _ => errors.push(format!("count pushed {n}, base {base_count}")),
                }
            }
            other => errors.push(format!(
                "unexpected push on subscription {sub_id}: {other:?}"
            )),
        }
    }
    for b in 0..batches.len() {
        let want = u32::from(acked.contains(&b));
        if feed_pushes[b] != want || count_pushes[b] != want {
            errors.push(format!(
                "batch {b}: {} feed and {} count pushes, expected {want}",
                feed_pushes[b], count_pushes[b]
            ));
        }
    }
    let feed_now = ds.query(FEED).expect("feed answers in process");
    if !Bag::from_values(client_feed).same_elements(&feed_now) {
        errors.push("subscriber's feed (initial + deltas) differs from the served feed".into());
    }
    out.batches = acked.iter().map(|&b| batches[b].clone()).collect();
    out.user_bytes = out.batches.iter().flatten().map(|r| user_bytes(r)).sum();
    out.base_count = base_count;
    out.base_feed = Some(base_feed);
    let rows = (acked.len() * BATCH_ROWS) as i64;
    if protein_count(&ds) != base_count + rows {
        errors.push(format!(
            "served pedro.protein misses some of the {rows} acknowledged rows"
        ));
    }
    Window {
        ops: rows as u64,
        secs: busy,
        short: dist(&insert_us),
        long: dist(&lag_us),
        steal,
    }
}

/// The batch index encoded in an `ingest_push` accession (`ING<batch>-<row>`).
fn batch_of(value: &Value) -> Option<usize> {
    match value {
        Value::Str(s) => s.strip_prefix("ING")?.split('-').next()?.parse().ok(),
        _ => None,
    }
}

/// Rebuild the dataspace from its sources and replay the commit log, as a
/// restarted service would. Returns the replay time and the dataspace.
fn recover(wal: &Path) -> (f64, Dataspace) {
    let (mut ds, _) = build_dataspace(None);
    let start = Instant::now();
    ds.open(wal).expect("commit log replays");
    (start.elapsed().as_secs_f64(), ds)
}

/// After replaying the log, the dataspace holds exactly the base rows plus
/// the acknowledged ones, and the feed lists exactly their accessions.
fn verify_recovered(ds: &Dataspace, out: &Outcome, errors: &mut Vec<String>) {
    let rows: Vec<&Vec<Value>> = out.batches.iter().flatten().collect();
    let count = protein_count(ds);
    if count != out.base_count + rows.len() as i64 {
        errors.push(format!(
            "recovered pedro.protein holds {count} rows, expected {} + {}",
            out.base_count,
            rows.len()
        ));
    }
    if let Some(base_feed) = &out.base_feed {
        let mut expected = base_feed.clone();
        for row in &rows {
            expected.push(row[1].clone());
        }
        let feed = ds.query(FEED).expect("recovered feed answers");
        if !feed.same_elements(&expected) {
            errors.push("recovered feed differs from base + acknowledged accessions".into());
        }
    }
}

fn protein_count(ds: &Dataspace) -> i64 {
    match ds.query_value(COUNT) {
        Ok(Value::Int(n)) => n,
        other => panic!("count of pedro.protein is not an integer: {other:?}"),
    }
}

pub fn read(ds: &RwLock<Dataspace>) -> std::sync::RwLockReadGuard<'_, Dataspace> {
    ds.read()
        .expect("no thread panics while holding the dataspace lock")
}
