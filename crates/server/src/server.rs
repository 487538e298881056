//! The listener: accepts connections, enforces the connection cap, and runs
//! one session thread per client (plain `std::net` blocking I/O — the session
//! count is bounded, so threads are the worker pool).

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dataspace_core::dataspace::Dataspace;
use wire::frame::SERVER_ORIGIN_ID;
use wire::proto::{ErrorCode, RespOp, Response};

use crate::session::run_session;
use crate::stats::ServerStats;

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connections admitted concurrently; excess connections get a
    /// [`ErrorCode::ServerBusy`] error frame and are closed.
    pub max_connections: usize,
    /// Query/write executions allowed to run concurrently across all
    /// sessions (the worker-pool bound on engine work).
    pub exec_permits: usize,
    /// How long a request may wait for an execution permit before it is
    /// answered with [`ErrorCode::Timeout`].
    pub request_timeout: Duration,
    /// Open streams + subscriptions one session may hold; the next open is
    /// answered with [`ErrorCode::ServerBusy`].
    pub max_session_handles: usize,
    /// Rows per result chunk when the client asks for the default (0).
    pub default_chunk_rows: usize,
    /// Hard ceiling on rows per chunk regardless of what the client asks.
    pub max_chunk_rows: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            exec_permits: 8,
            request_timeout: Duration::from_secs(10),
            max_session_handles: 64,
            default_chunk_rows: 256,
            max_chunk_rows: 16_384,
        }
    }
}

/// A counting semaphore with deadline acquisition — the execution worker pool.
#[derive(Debug)]
pub(crate) struct Semaphore {
    permits: Mutex<usize>,
    freed: Condvar,
}

impl Semaphore {
    pub(crate) fn new(permits: usize) -> Self {
        Semaphore {
            permits: Mutex::new(permits.max(1)),
            freed: Condvar::new(),
        }
    }

    /// Take a permit, waiting at most `timeout`; `false` means the deadline
    /// passed with every permit still busy.
    pub(crate) fn acquire(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut free = self.permits.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if *free > 0 {
                *free -= 1;
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .freed
                .wait_timeout(free, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            free = guard;
        }
    }

    pub(crate) fn release(&self) {
        *self.permits.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        self.freed.notify_one();
    }
}

/// Start a server on `addr` (use port 0 for an OS-assigned port) serving the
/// given dataspace. Returns once the listener is bound; connections are
/// accepted on a background thread until [`ServerHandle::shutdown`].
pub fn serve(
    dataspace: Arc<RwLock<Dataspace>>,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let stats = Arc::new(ServerStats::new());
    let shutdown = Arc::new(AtomicBool::new(false));
    let permits = Arc::new(Semaphore::new(config.exec_permits));
    let sessions: Arc<Mutex<Vec<SessionSlot>>> = Arc::new(Mutex::new(Vec::new()));

    let acceptor = {
        let stats = Arc::clone(&stats);
        let shutdown = Arc::clone(&shutdown);
        let sessions = Arc::clone(&sessions);
        std::thread::spawn(move || {
            accept_loop(
                listener, dataspace, stats, config, shutdown, permits, sessions,
            )
        })
    };

    Ok(ServerHandle {
        local_addr,
        stats,
        shutdown,
        acceptor: Some(acceptor),
        sessions,
    })
}

/// How long [`ServerHandle::shutdown`] lets sessions finish on their own
/// before it cuts their sockets. A session still running by then is blocked
/// writing to a client that stopped reading, or busy with a long request.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(1);

/// A session thread and a clone of its socket, kept so shutdown can end the
/// session's blocking read (and, past [`SHUTDOWN_GRACE`], its blocked writes).
struct SessionSlot {
    thread: JoinHandle<()>,
    socket: TcpStream,
}

/// Control handle for a running server.
pub struct ServerHandle {
    local_addr: SocketAddr,
    stats: Arc<ServerStats>,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    sessions: Arc<Mutex<Vec<SessionSlot>>>,
}

impl ServerHandle {
    /// The bound listen address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The server's live counters.
    pub fn stats(&self) -> &Arc<ServerStats> {
        &self.stats
    }

    /// Graceful shutdown: stop accepting, tell live sessions to finish (each
    /// sends a [`ErrorCode::ShuttingDown`] frame and tears down, dropping its
    /// subscriptions and streams), and join every thread. A session that has
    /// not finished within one second has its socket shut down, so a
    /// client that stopped reading cannot hold shutdown up.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        let sessions =
            std::mem::take(&mut *self.sessions.lock().unwrap_or_else(PoisonError::into_inner));
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        for session in sessions {
            while !session.thread.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            let _ = session.socket.shutdown(Shutdown::Both);
            let _ = session.thread.join();
        }
    }

    /// Set the shutdown flag, join the acceptor, then shut down the read side
    /// of every session socket: each session's blocking read returns EOF, it
    /// sees the flag, answers `ShuttingDown` and tears down. Joining the
    /// acceptor first means no session can be admitted after the sweep.
    fn begin_shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking `accept` with a throwaway connect.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for session in self
            .sessions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            let _ = session.socket.shutdown(Shutdown::Read);
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.begin_shutdown();
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn accept_loop(
    listener: TcpListener,
    dataspace: Arc<RwLock<Dataspace>>,
    stats: Arc<ServerStats>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    permits: Arc<Semaphore>,
    sessions: Arc<Mutex<Vec<SessionSlot>>>,
) {
    for incoming in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = incoming else { continue };
        // Reap finished session threads so the handle list doesn't grow
        // unboundedly on long-lived servers.
        {
            let mut live = sessions.lock().unwrap_or_else(PoisonError::into_inner);
            live.retain(|s| !s.thread.is_finished());
        }
        if stats.connections_open() >= config.max_connections as u64 {
            stats.connection_rejected();
            reject(stream, &stats, "connection limit reached");
            continue;
        }
        let Ok(socket) = stream.try_clone() else {
            continue;
        };
        stats.connection_accepted();
        let dataspace = Arc::clone(&dataspace);
        let session_stats = Arc::clone(&stats);
        let session_config = config.clone();
        let session_shutdown = Arc::clone(&shutdown);
        let session_permits = Arc::clone(&permits);
        let thread = std::thread::spawn(move || {
            let guard_stats = Arc::clone(&session_stats);
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(move || {
                run_session(
                    stream,
                    dataspace,
                    session_stats,
                    session_config,
                    session_shutdown,
                    session_permits,
                );
            }));
            if outcome.is_err() {
                guard_stats.session_panic();
            }
            guard_stats.connection_closed();
        });
        sessions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(SessionSlot { thread, socket });
    }
}

/// Turn a connection away with a pre-session `ServerBusy` error frame.
fn reject(mut stream: TcpStream, stats: &ServerStats, detail: &str) {
    let response = Response::Error {
        code: ErrorCode::ServerBusy,
        message: detail.to_string(),
    };
    let body = response.encode_body();
    if let Ok(n) =
        wire::frame::write_frame(&mut stream, SERVER_ORIGIN_ID, RespOp::Error as u8, &body)
    {
        stats.add_bytes_out(n);
        stats.error_sent();
    }
    let _ = stream.flush();
}
