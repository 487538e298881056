//! Per-connection session: the dispatch loop that turns request frames into
//! engine calls and responses, the push-writer thread that delivers
//! subscription updates as they are committed, and the teardown of
//! everything (streams, subscriptions, snapshot pins) when the client goes
//! away — cleanly or not.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::JoinHandle;

use dataspace_core::dataspace::{Dataspace, DataspaceStats};
use dataspace_core::error::CoreError;
use dataspace_core::subscriptions::{PushSignal, Subscription, SubscriptionUpdate};
use iql::value::{Bag, Value};
use iql::Params;

use wire::frame::{encode_frame, FrameError, FrameReader, SERVER_ORIGIN_ID};
use wire::proto::{ErrorCode, PushUpdate, Request, Response};

use crate::server::{Semaphore, ServerConfig};
use crate::stats::ServerStats;

/// A materialised result mid-stream. The rows are already computed (under the
/// execution permit that produced them); what remains is pacing them out at
/// the client's ack rate. The snapshot pins mark the member sources as "being
/// read" for the stream's whole life.
struct StreamState {
    rows: Vec<Value>,
    cursor: usize,
    chunk_rows: usize,
    _pins: Vec<relational::Snapshot>,
}

/// Live subscriptions by id, shared between the session (which adds and
/// removes them) and its push writer (which drains them).
type SubMap = Arc<Mutex<BTreeMap<u64, Subscription>>>;

/// The write half of the connection. Responses and pushes come from two
/// threads, so every frame is written whole while holding this lock.
type WriteHalf = Arc<Mutex<TcpStream>>;

/// A session's push-writer thread: it blocks on `signal`, which the dataspace
/// rings whenever it queues an update on one of the session's subscriptions,
/// and writes the updates out as `Push` frames. The committing thread only
/// rings, so a slow subscriber never slows a writer down.
struct PushWriter {
    signal: Arc<PushSignal>,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

pub(crate) fn run_session(
    stream: TcpStream,
    dataspace: Arc<RwLock<Dataspace>>,
    stats: Arc<ServerStats>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    permits: Arc<Semaphore>,
) {
    stream.set_nodelay(true).ok();
    let Ok(out) = stream.try_clone() else {
        return;
    };
    let mut session = Session {
        stream,
        out: Arc::new(Mutex::new(out)),
        reader: FrameReader::new(),
        consumed_in: 0,
        dataspace,
        stats,
        config,
        shutdown,
        permits,
        handles: HashMap::new(),
        next_handle: 1,
        streams: HashMap::new(),
        subs: SubMap::default(),
        next_sub: 1,
        pusher: None,
    };
    session.run();
    session.teardown();
    // Dropping the session drops every Subscription handle (unregistering the
    // standing queries) and every stream's snapshot pins.
    drop(session);
    release_freed_heap();
}

/// Hand the heap a finished session freed back to the OS.
///
/// glibc gives allocating threads their own malloc arenas and keeps freed
/// pages in each; the push-writer thread adds one more busy arena per
/// subscribing session. Measured with the `ingest_push` service benchmark on
/// a 2-vCPU box: without this trim, push-writer builds peaked at 75–99 MiB
/// RSS (4 runs) against a 61.9 MiB median before push writers existed; with
/// `MALLOC_ARENA_MAX=1` both read 41.2 MiB, so the growth is arena
/// retention, not live data. With the trim the median peak is 60.5 MiB
/// (20 runs).
fn release_freed_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` only returns free pages to the OS; it takes
        // the allocator's own locks and touches no live allocation.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Write one frame whole under the write-half lock. Returns `false` when the
/// client is unreachable.
fn send_frame(out: &WriteHalf, stats: &ServerStats, request_id: u64, response: &Response) -> bool {
    let framed = encode_frame(request_id, response.opcode() as u8, &response.encode_body());
    let written = out
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .write_all(&framed);
    if written.is_err() {
        return false;
    }
    stats.add_bytes_out(framed.len() as u64);
    if matches!(response, Response::Error { .. }) {
        stats.error_sent();
    }
    true
}

/// The push writer's loop: wait for a ring, then drain every subscription
/// and write its updates in queue order (commit order). The subscription map
/// stays locked across a whole pass, so once `Unsubscribe` has removed an id
/// no push for it can follow the `Unsubscribed` response.
fn deliver_pushes(
    signal: &PushSignal,
    stop: &AtomicBool,
    subs: &Mutex<BTreeMap<u64, Subscription>>,
    out: &WriteHalf,
    stats: &ServerStats,
) {
    loop {
        signal.wait();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let subs = subs.lock().unwrap_or_else(PoisonError::into_inner);
        for (&sub_id, subscription) in subs.iter() {
            for update in subscription.drain_updates() {
                let update = match update {
                    SubscriptionUpdate::Delta(bag) => PushUpdate::Delta(bag.into_items()),
                    SubscriptionUpdate::Refreshed(value) => PushUpdate::Refreshed(value),
                };
                let push = Response::Push { sub_id, update };
                if !send_frame(out, stats, SERVER_ORIGIN_ID, &push) {
                    return;
                }
                stats.push_sent();
            }
        }
    }
}

struct Session {
    /// The read half; also what teardown shuts down.
    stream: TcpStream,
    out: WriteHalf,
    reader: FrameReader,
    /// Frame bytes already credited to the server's `bytes_in` counter.
    consumed_in: u64,
    dataspace: Arc<RwLock<Dataspace>>,
    stats: Arc<ServerStats>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    permits: Arc<Semaphore>,
    /// Prepared handles: id → query text, re-prepared per request through the
    /// dataspace's parse memo (a `PreparedQuery` borrows the dataspace, so
    /// the text is the only thing a session can hold across lock releases —
    /// and re-preparing a memoised text is a few `Arc` bumps, not a re-parse).
    handles: HashMap<u64, String>,
    next_handle: u64,
    /// Open result streams, keyed by the request id that opened them.
    streams: HashMap<u64, StreamState>,
    subs: SubMap,
    next_sub: u64,
    /// Started by the first subscription.
    pusher: Option<PushWriter>,
}

impl Session {
    /// Serve requests until the client leaves or the server shuts down. The
    /// read blocks without a timeout: shutdown ends it by shutting down the
    /// socket's read side, which the loop sees as EOF with the flag set.
    fn run(&mut self) {
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                self.send(
                    SERVER_ORIGIN_ID,
                    &Response::Error {
                        code: ErrorCode::ShuttingDown,
                        message: "server is shutting down".into(),
                    },
                );
                return;
            }
            match self.reader.poll(&mut self.stream) {
                Ok(None) => continue,
                Ok(Some(frame)) => {
                    let fresh = self.reader.bytes_in() - self.consumed_in;
                    self.consumed_in = self.reader.bytes_in();
                    self.stats.add_bytes_in(fresh);
                    if !self.handle_frame(frame.request_id, frame.opcode, &frame.body) {
                        return;
                    }
                }
                // The read side was shut down for the server's shutdown:
                // the loop head answers `ShuttingDown`.
                Err(_) if self.shutdown.load(Ordering::SeqCst) => continue,
                // Clean close between frames: the client vanished without a
                // `Close`; tear down silently.
                Err(FrameError::Closed) => return,
                // Framing is lost (corruption, oversize, bad version, or a
                // disconnect mid-frame): answer with a typed error where a
                // write can still succeed, then drop the connection — no
                // later byte boundary can be trusted.
                Err(e) => {
                    self.stats.frame_error();
                    let code = match &e {
                        FrameError::TooLarge { .. } => ErrorCode::FrameTooLarge,
                        FrameError::Version { .. } => ErrorCode::VersionMismatch,
                        _ => ErrorCode::MalformedBody,
                    };
                    self.send(
                        SERVER_ORIGIN_ID,
                        &Response::Error {
                            code,
                            message: e.to_string(),
                        },
                    );
                    return;
                }
            }
        }
    }

    /// Shut the socket down, then stop and join the push writer. The
    /// shutdown tells the client the session is over (the server still holds
    /// a clone of the socket, so dropping ours would not), and it must come
    /// before the join: a push blocked on a client that stopped reading only
    /// returns once its write fails.
    fn teardown(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        let Some(pusher) = self.pusher.take() else {
            return;
        };
        pusher.stop.store(true, Ordering::SeqCst);
        pusher.signal.ring();
        if pusher.thread.join().is_err() {
            self.stats.session_panic();
        }
    }

    /// The push signal for this session's subscriptions, starting the push
    /// writer on first use.
    fn push_signal(&mut self) -> Arc<PushSignal> {
        let pusher = self.pusher.get_or_insert_with(|| {
            let signal = Arc::new(PushSignal::default());
            let stop = Arc::new(AtomicBool::new(false));
            let thread = {
                let (signal, stop) = (Arc::clone(&signal), Arc::clone(&stop));
                let (subs, out) = (Arc::clone(&self.subs), Arc::clone(&self.out));
                let stats = Arc::clone(&self.stats);
                std::thread::spawn(move || deliver_pushes(&signal, &stop, &subs, &out, &stats))
            };
            PushWriter {
                signal,
                stop,
                thread,
            }
        });
        Arc::clone(&pusher.signal)
    }

    fn lock_subs(&self) -> MutexGuard<'_, BTreeMap<u64, Subscription>> {
        self.subs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Answer `ServerBusy` when the session already holds
    /// `max_session_handles` streams + subscriptions. Returns `None` when a
    /// new one may open, else the send outcome.
    fn refuse_over_handle_cap(&mut self, request_id: u64) -> Option<bool> {
        let open = self.streams.len() + self.lock_subs().len();
        if open < self.config.max_session_handles {
            return None;
        }
        self.stats.busy_rejection();
        Some(self.send_error(
            request_id,
            ErrorCode::ServerBusy,
            format!(
                "session holds {open} open streams/subscriptions (limit {})",
                self.config.max_session_handles
            ),
        ))
    }

    /// Dispatch one frame. Returns `false` when the session should end.
    fn handle_frame(&mut self, request_id: u64, opcode: u8, body: &[u8]) -> bool {
        let request = match Request::decode(opcode, body) {
            Ok(Some(request)) => request,
            Ok(None) => {
                // Unknown opcode: framing is intact, so answer and carry on.
                return self.send_error(
                    request_id,
                    ErrorCode::UnknownOpcode,
                    format!("unknown request opcode 0x{opcode:02x}"),
                );
            }
            Err(e) => {
                // The frame passed its checksum but the body does not match
                // the opcode's shape — a client bug, not lost framing.
                return self.send_error(request_id, ErrorCode::MalformedBody, e.to_string());
            }
        };
        self.stats.request(request.opcode());
        match request {
            Request::Prepare { text } => self.on_prepare(request_id, &text),
            Request::Execute {
                handle,
                params,
                chunk_rows,
            } => self.on_execute(request_id, handle, &params, chunk_rows),
            Request::ExecuteValue { handle, params } => {
                self.on_execute_value(request_id, handle, &params)
            }
            Request::Query { text, chunk_rows } => self.on_query(request_id, &text, chunk_rows),
            Request::NextChunk { stream_id } => self.on_next_chunk(request_id, stream_id),
            Request::CancelStream { stream_id } => {
                self.streams.remove(&stream_id);
                self.send(
                    request_id,
                    &Response::Chunk {
                        rows: Vec::new(),
                        done: true,
                    },
                )
            }
            Request::Subscribe { handle, params } => self.on_subscribe(request_id, handle, &params),
            Request::Unsubscribe { sub_id } => {
                // Waits out a push pass in progress (see `deliver_pushes`).
                let removed = self.lock_subs().remove(&sub_id);
                if removed.is_some() {
                    self.send(request_id, &Response::Unsubscribed)
                } else {
                    self.send_error(
                        request_id,
                        ErrorCode::BadSubscription,
                        format!("no live subscription {sub_id}"),
                    )
                }
            }
            Request::Insert {
                source,
                table,
                rows,
            } => self.on_insert(request_id, &source, &table, rows),
            Request::Checkpoint => self.on_checkpoint(request_id),
            Request::Stats => self.on_stats(request_id),
            Request::Close => {
                self.send(request_id, &Response::Closed);
                false
            }
        }
    }

    fn on_prepare(&mut self, request_id: u64, text: &str) -> bool {
        let prepared = {
            let ds = self.read_ds();
            match ds.prepare(text) {
                Ok(q) => Ok(q.param_names().map(str::to_string).collect::<Vec<_>>()),
                Err(e) => Err(e),
            }
        };
        match prepared {
            Ok(param_names) => {
                let handle = self.next_handle;
                self.next_handle += 1;
                self.handles.insert(handle, text.to_string());
                self.send(
                    request_id,
                    &Response::Prepared {
                        handle,
                        param_names,
                    },
                )
            }
            Err(e) => self.send_core_error(request_id, &e),
        }
    }

    /// Run a bag-producing execution and open a stream over its rows.
    fn run_bag(&mut self, request_id: u64, text: &str, params: &Params, chunk_rows: u32) -> bool {
        if let Some(sent) = self.refuse_over_handle_cap(request_id) {
            return sent;
        }
        if !self.permits.acquire(self.config.request_timeout) {
            self.stats.timeout();
            return self.send_error(
                request_id,
                ErrorCode::Timeout,
                format!("no execution slot within {:?}", self.config.request_timeout),
            );
        }
        let outcome: Result<(Bag, Vec<relational::Snapshot>), CoreError> = {
            let ds = self.read_ds();
            let pins = ds.pin_snapshots();
            ds.prepare(text)
                .and_then(|q| q.execute(params))
                .map(|bag| (bag, pins))
        };
        self.permits.release();
        match outcome {
            Ok((bag, pins)) => self.open_stream(request_id, bag.into_items(), chunk_rows, pins),
            Err(e) => self.send_core_error(request_id, &e),
        }
    }

    fn on_execute(
        &mut self,
        request_id: u64,
        handle: u64,
        params: &Params,
        chunk_rows: u32,
    ) -> bool {
        let Some(text) = self.handles.get(&handle).cloned() else {
            return self.send_error(
                request_id,
                ErrorCode::BadHandle,
                format!("no prepared handle {handle}"),
            );
        };
        self.run_bag(request_id, &text, params, chunk_rows)
    }

    fn on_query(&mut self, request_id: u64, text: &str, chunk_rows: u32) -> bool {
        self.run_bag(request_id, text, &Params::new(), chunk_rows)
    }

    fn on_execute_value(&mut self, request_id: u64, handle: u64, params: &Params) -> bool {
        let Some(text) = self.handles.get(&handle).cloned() else {
            return self.send_error(
                request_id,
                ErrorCode::BadHandle,
                format!("no prepared handle {handle}"),
            );
        };
        if !self.permits.acquire(self.config.request_timeout) {
            self.stats.timeout();
            return self.send_error(
                request_id,
                ErrorCode::Timeout,
                format!("no execution slot within {:?}", self.config.request_timeout),
            );
        }
        let outcome = {
            let ds = self.read_ds();
            ds.prepare(&text).and_then(|q| q.execute_value(params))
        };
        self.permits.release();
        match outcome {
            Ok(value) => self.send(request_id, &Response::ValueResult { value }),
            Err(e) => self.send_core_error(request_id, &e),
        }
    }

    /// Send the first chunk; park the rest as a stream if anything remains.
    fn open_stream(
        &mut self,
        request_id: u64,
        rows: Vec<Value>,
        chunk_rows: u32,
        pins: Vec<relational::Snapshot>,
    ) -> bool {
        let chunk = if chunk_rows == 0 {
            self.config.default_chunk_rows
        } else {
            (chunk_rows as usize).min(self.config.max_chunk_rows)
        }
        .max(1);
        if rows.len() <= chunk {
            self.stats.chunk_sent();
            return self.send(request_id, &Response::Chunk { rows, done: true });
        }
        let first: Vec<Value> = rows[..chunk].to_vec();
        self.streams.insert(
            request_id,
            StreamState {
                rows,
                cursor: chunk,
                chunk_rows: chunk,
                _pins: pins,
            },
        );
        self.stats.stream_opened();
        self.stats.chunk_sent();
        self.send(
            request_id,
            &Response::Chunk {
                rows: first,
                done: false,
            },
        )
    }

    fn on_next_chunk(&mut self, request_id: u64, stream_id: u64) -> bool {
        let Some(state) = self.streams.get_mut(&stream_id) else {
            return self.send_error(
                request_id,
                ErrorCode::BadStream,
                format!("no open stream {stream_id}"),
            );
        };
        let end = (state.cursor + state.chunk_rows).min(state.rows.len());
        let rows: Vec<Value> = state.rows[state.cursor..end].to_vec();
        state.cursor = end;
        let done = end == state.rows.len();
        if done {
            self.streams.remove(&stream_id);
        }
        self.stats.chunk_sent();
        self.send(request_id, &Response::Chunk { rows, done })
    }

    fn on_subscribe(&mut self, request_id: u64, handle: u64, params: &Params) -> bool {
        let Some(text) = self.handles.get(&handle).cloned() else {
            return self.send_error(
                request_id,
                ErrorCode::BadHandle,
                format!("no prepared handle {handle}"),
            );
        };
        if let Some(sent) = self.refuse_over_handle_cap(request_id) {
            return sent;
        }
        // The initial result is read under the same read lock that
        // registered the subscription, so no commit can land in both it and
        // the update queue.
        let outcome = {
            let ds = self.read_ds();
            ds.prepare(&text)
                .and_then(|q| q.subscribe(params))
                .map(|s| {
                    let initial = s.result();
                    (s, initial)
                })
        };
        match outcome {
            Ok((subscription, initial)) => {
                let sub_id = self.next_sub;
                self.next_sub += 1;
                self.stats.subscription_opened();
                // `Subscribed` goes out before the push writer can see the
                // subscription, so no push for `sub_id` precedes it. Updates
                // committed meanwhile wait in the queue for the ring below.
                if !self.send(request_id, &Response::Subscribed { sub_id, initial }) {
                    return false;
                }
                let signal = self.push_signal();
                subscription.wake_on(Arc::clone(&signal));
                self.lock_subs().insert(sub_id, subscription);
                signal.ring();
                true
            }
            Err(e) => self.send_core_error(request_id, &e),
        }
    }

    fn on_insert(
        &mut self,
        request_id: u64,
        source: &str,
        table: &str,
        rows: Vec<Vec<Value>>,
    ) -> bool {
        if !self.permits.acquire(self.config.request_timeout) {
            self.stats.timeout();
            return self.send_error(
                request_id,
                ErrorCode::Timeout,
                format!("no execution slot within {:?}", self.config.request_timeout),
            );
        }
        let count = rows.len() as u64;
        let outcome = self.write_ds().insert_many(source, table, rows);
        self.permits.release();
        match outcome {
            Ok(()) => self.send(request_id, &Response::Inserted { rows: count }),
            Err(e) => self.send_core_error(request_id, &e),
        }
    }

    fn on_checkpoint(&mut self, request_id: u64) -> bool {
        if !self.permits.acquire(self.config.request_timeout) {
            self.stats.timeout();
            return self.send_error(
                request_id,
                ErrorCode::Timeout,
                format!("no execution slot within {:?}", self.config.request_timeout),
            );
        }
        let outcome = self.write_ds().checkpoint();
        self.permits.release();
        match outcome {
            Ok(report) => self.send(
                request_id,
                &Response::CheckpointDone {
                    records_before: report.records_before as u64,
                    records_after: report.records_after as u64,
                },
            ),
            Err(e) => self.send_core_error(request_id, &e),
        }
    }

    fn on_stats(&mut self, request_id: u64) -> bool {
        let ds_stats = self.read_ds().stats();
        let mut counters = self.stats.snapshot();
        counters.extend(dataspace_counters(&ds_stats));
        self.send(request_id, &Response::StatsResult { counters })
    }

    fn read_ds(&self) -> std::sync::RwLockReadGuard<'_, Dataspace> {
        self.dataspace
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn write_ds(&self) -> std::sync::RwLockWriteGuard<'_, Dataspace> {
        self.dataspace
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Write one response frame; `false` means the client is unreachable.
    fn send(&mut self, request_id: u64, response: &Response) -> bool {
        send_frame(&self.out, &self.stats, request_id, response)
    }

    fn send_error(&mut self, request_id: u64, code: ErrorCode, message: String) -> bool {
        self.send(request_id, &Response::Error { code, message })
    }

    fn send_core_error(&mut self, request_id: u64, e: &CoreError) -> bool {
        let code = match e {
            CoreError::Parse(_) => ErrorCode::Parse,
            CoreError::UnboundParam(_) => ErrorCode::UnboundParam,
            CoreError::UnknownParam(_) => ErrorCode::UnknownParam,
            CoreError::Storage(_) => ErrorCode::Storage,
            CoreError::Relational(_) => ErrorCode::Rejected,
            CoreError::Automed(_)
            | CoreError::Query(_)
            | CoreError::InvalidSpec(_)
            | CoreError::WorkflowOrder(_) => ErrorCode::Query,
        };
        self.send_error(request_id, code, e.to_string())
    }
}

/// Flatten the dataspace's stats snapshot into `ds_`-prefixed counters. The
/// exhaustive destructuring makes a new `DataspaceStats` field a compile
/// error here until it is exported.
fn dataspace_counters(s: &DataspaceStats) -> Vec<(String, u64)> {
    let DataspaceStats {
        plan_cache_hits,
        plan_cache_misses,
        plan_cache_evictions,
        plan_cache_len,
        plan_cache_capacity,
        plan_reopts,
        histogram_refreshes,
        index_hits,
        index_misses,
        index_builds,
        index_refreshes,
        index_evictions,
        index_len,
        extent_memo_len,
        extent_memo_evictions,
        parse_memo_len,
        fetch_pool_capacity,
        subscriptions,
        delta_evals,
        fallback_reexecs,
        columnar_execs,
        row_fallbacks,
        snapshots_active,
        wal_appends,
        recovery_replays,
    } = *s;
    [
        ("plan_cache_hits", plan_cache_hits),
        ("plan_cache_misses", plan_cache_misses),
        ("plan_cache_evictions", plan_cache_evictions),
        ("plan_cache_len", plan_cache_len as u64),
        ("plan_cache_capacity", plan_cache_capacity as u64),
        ("plan_reopts", plan_reopts),
        ("histogram_refreshes", histogram_refreshes),
        ("index_hits", index_hits),
        ("index_misses", index_misses),
        ("index_builds", index_builds),
        ("index_refreshes", index_refreshes),
        ("index_evictions", index_evictions),
        ("index_len", index_len as u64),
        ("extent_memo_len", extent_memo_len as u64),
        ("extent_memo_evictions", extent_memo_evictions),
        ("parse_memo_len", parse_memo_len as u64),
        ("fetch_pool_capacity", fetch_pool_capacity as u64),
        ("subscriptions", subscriptions as u64),
        ("delta_evals", delta_evals),
        ("fallback_reexecs", fallback_reexecs),
        ("columnar_execs", columnar_execs),
        ("row_fallbacks", row_fallbacks),
        ("snapshots_active", snapshots_active as u64),
        ("wal_appends", wal_appends),
        ("recovery_replays", recovery_replays),
    ]
    .into_iter()
    .map(|(name, value)| (format!("ds_{name}"), value))
    .collect()
}
