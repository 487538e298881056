//! A small blocking TCP client for the dataspace service.
//!
//! The client is strictly request/response: it assigns monotonically
//! increasing request ids, writes one frame per request, and reads frames
//! until the response echoing that id arrives. Server-originated frames
//! (request id 0 — subscription pushes and pre-session errors) encountered
//! while waiting are diverted: pushes land in an inbox drained by
//! [`Client::recv_push`], errors abort the call.
//!
//! Streamed results are pulled with client-acked backpressure: each
//! [`Response::Chunk`] is acknowledged with a `NextChunk` request before the
//! server sends the next one, so a slow client never has more than one chunk
//! in flight.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use iql::value::Value;
use iql::Params;

use crate::frame::{write_frame, Frame, FrameError, FrameReader, SERVER_ORIGIN_ID};
use crate::proto::{ErrorCode, PushUpdate, Request, Response};
use iql::codec::CodecError;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The server answered with a typed error frame.
    Server { code: ErrorCode, message: String },
    /// The transport failed or lost framing.
    Frame(FrameError),
    /// A response frame's body did not decode.
    Codec(CodecError),
    /// The server answered with a well-formed frame of the wrong shape.
    Protocol(String),
    /// No response arrived within the client's response timeout.
    TimedOut,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Server { code, message } => {
                write!(f, "server error {code:?}: {message}")
            }
            ClientError::Frame(e) => write!(f, "{e}"),
            ClientError::Codec(e) => write!(f, "{e}"),
            ClientError::Protocol(detail) => write!(f, "protocol violation: {detail}"),
            ClientError::TimedOut => write!(f, "timed out waiting for a response"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<CodecError> for ClientError {
    fn from(e: CodecError) -> Self {
        ClientError::Codec(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Frame(FrameError::Io(e.to_string()))
    }
}

impl ClientError {
    /// The typed server error code, if this is a server-reported error.
    pub fn server_code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server { code, .. } => Some(*code),
            _ => None,
        }
    }
}

/// Granularity of socket read timeouts while waiting under a deadline.
const POLL_SLICE: Duration = Duration::from_millis(25);

/// A blocking connection to a dataspace server.
pub struct Client {
    stream: TcpStream,
    reader: FrameReader,
    next_id: u64,
    /// Server pushes received while waiting for a response.
    inbox: VecDeque<(u64, PushUpdate)>,
    /// How long a call waits for its response before giving up.
    response_timeout: Duration,
    bytes_out: u64,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            stream,
            reader: FrameReader::new(),
            next_id: 1,
            inbox: VecDeque::new(),
            response_timeout: Duration::from_secs(30),
            bytes_out: 0,
        })
    }

    /// Override the per-call response timeout (default 30 s).
    pub fn set_response_timeout(&mut self, timeout: Duration) {
        self.response_timeout = timeout;
    }

    /// Cumulative bytes written to / read from the wire by this client.
    pub fn traffic(&self) -> (u64, u64) {
        (self.bytes_out, self.reader.bytes_in())
    }

    /// Send `request` and wait for its response frame.
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        let id = self.send(request)?;
        self.wait_response(id)
    }

    /// Send `request` without waiting; returns the assigned request id.
    pub fn send(&mut self, request: &Request) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let body = request.encode_body();
        self.bytes_out += write_frame(&mut self.stream, id, request.opcode() as u8, &body)?;
        self.stream.flush()?;
        Ok(id)
    }

    /// Read frames until the response echoing `id` arrives, diverting pushes.
    pub fn wait_response(&mut self, id: u64) -> Result<Response, ClientError> {
        let deadline = Instant::now() + self.response_timeout;
        loop {
            let Some(frame) = self.poll_frame(deadline)? else {
                return Err(ClientError::TimedOut);
            };
            match self.classify(frame)? {
                Classified::Response(got, response) if got == id => {
                    return match response {
                        Response::Error { code, message } => {
                            Err(ClientError::Server { code, message })
                        }
                        other => Ok(other),
                    };
                }
                Classified::Response(got, _) => {
                    return Err(ClientError::Protocol(format!(
                        "response for request {got} while waiting for {id}"
                    )));
                }
                Classified::ServerError(code, message) => {
                    return Err(ClientError::Server { code, message });
                }
                Classified::Push => {}
            }
        }
    }

    /// Wait up to `timeout` for a subscription push. Returns `Ok(None)` on
    /// timeout. Pushes diverted during earlier calls are returned first.
    pub fn recv_push(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<(u64, PushUpdate)>, ClientError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(push) = self.inbox.pop_front() {
                return Ok(Some(push));
            }
            let Some(frame) = self.poll_frame(deadline)? else {
                return Ok(None);
            };
            match self.classify(frame)? {
                Classified::Push => {}
                Classified::ServerError(code, message) => {
                    return Err(ClientError::Server { code, message });
                }
                Classified::Response(got, _) => {
                    return Err(ClientError::Protocol(format!(
                        "unsolicited response for request {got}"
                    )));
                }
            }
        }
    }

    /// Read one frame, polling in short slices until `deadline`.
    fn poll_frame(&mut self, deadline: Instant) -> Result<Option<Frame>, ClientError> {
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            let slice = POLL_SLICE.min(deadline - now).max(Duration::from_millis(1));
            self.stream.set_read_timeout(Some(slice))?;
            if let Some(frame) = self.reader.poll(&mut self.stream)? {
                return Ok(Some(frame));
            }
        }
    }

    /// Sort a frame into push (inboxed), pre-session error, or response.
    fn classify(&mut self, frame: Frame) -> Result<Classified, ClientError> {
        let response = Response::decode(frame.opcode, &frame.body)?;
        if frame.request_id == SERVER_ORIGIN_ID {
            return match response {
                Response::Push { sub_id, update } => {
                    self.inbox.push_back((sub_id, update));
                    Ok(Classified::Push)
                }
                Response::Error { code, message } => Ok(Classified::ServerError(code, message)),
                other => Err(ClientError::Protocol(format!(
                    "server-originated frame was not a push or error: {:?}",
                    other.opcode()
                ))),
            };
        }
        Ok(Classified::Response(frame.request_id, response))
    }

    // --- typed convenience wrappers -------------------------------------

    /// Prepare a query; returns `(handle, placeholder names)`.
    pub fn prepare(&mut self, text: &str) -> Result<(u64, Vec<String>), ClientError> {
        match self.call(&Request::Prepare { text: text.into() })? {
            Response::Prepared {
                handle,
                param_names,
            } => Ok((handle, param_names)),
            other => unexpected("Prepared", &other),
        }
    }

    /// Execute a prepared handle, draining the chunk stream into one row set.
    pub fn execute(&mut self, handle: u64, params: &Params) -> Result<Vec<Value>, ClientError> {
        Ok(self.execute_chunked(handle, params, 0)?.0)
    }

    /// Execute with an explicit chunk size, acking each chunk; returns the
    /// rows and how many chunks carried them.
    pub fn execute_chunked(
        &mut self,
        handle: u64,
        params: &Params,
        chunk_rows: u32,
    ) -> Result<(Vec<Value>, usize), ClientError> {
        let id = self.send(&Request::Execute {
            handle,
            params: params.clone(),
            chunk_rows,
        })?;
        self.drain_stream(id)
    }

    /// Execute a prepared handle expecting a single value result.
    pub fn execute_value(&mut self, handle: u64, params: &Params) -> Result<Value, ClientError> {
        match self.call(&Request::ExecuteValue {
            handle,
            params: params.clone(),
        })? {
            Response::ValueResult { value } => Ok(value),
            other => unexpected("ValueResult", &other),
        }
    }

    /// One-shot query (no placeholders), draining the chunk stream.
    pub fn query(&mut self, text: &str) -> Result<Vec<Value>, ClientError> {
        Ok(self.query_chunked(text, 0)?.0)
    }

    /// One-shot query with an explicit chunk size; returns rows + chunk count.
    pub fn query_chunked(
        &mut self,
        text: &str,
        chunk_rows: u32,
    ) -> Result<(Vec<Value>, usize), ClientError> {
        let id = self.send(&Request::Query {
            text: text.into(),
            chunk_rows,
        })?;
        self.drain_stream(id)
    }

    /// Ack-and-pull loop: collect chunks for the stream opened by request `id`.
    fn drain_stream(&mut self, id: u64) -> Result<(Vec<Value>, usize), ClientError> {
        let mut rows = Vec::new();
        let mut chunks = 0usize;
        let mut waiting_on = id;
        loop {
            match self.wait_response(waiting_on)? {
                Response::Chunk { rows: piece, done } => {
                    chunks += 1;
                    rows.extend(piece);
                    if done {
                        return Ok((rows, chunks));
                    }
                    waiting_on = self.send(&Request::NextChunk { stream_id: id })?;
                }
                other => return unexpected("Chunk", &other),
            }
        }
    }

    /// Open a standing subscription; returns `(sub_id, initial result)`.
    pub fn subscribe(&mut self, handle: u64, params: &Params) -> Result<(u64, Value), ClientError> {
        match self.call(&Request::Subscribe {
            handle,
            params: params.clone(),
        })? {
            Response::Subscribed { sub_id, initial } => Ok((sub_id, initial)),
            other => unexpected("Subscribed", &other),
        }
    }

    /// Close a standing subscription.
    pub fn unsubscribe(&mut self, sub_id: u64) -> Result<(), ClientError> {
        match self.call(&Request::Unsubscribe { sub_id })? {
            Response::Unsubscribed => Ok(()),
            other => unexpected("Unsubscribed", &other),
        }
    }

    /// Insert rows into a wrapped source table; returns rows applied.
    pub fn insert(
        &mut self,
        source: &str,
        table: &str,
        rows: Vec<Vec<Value>>,
    ) -> Result<u64, ClientError> {
        match self.call(&Request::Insert {
            source: source.into(),
            table: table.into(),
            rows,
        })? {
            Response::Inserted { rows } => Ok(rows),
            other => unexpected("Inserted", &other),
        }
    }

    /// Compact the server's commit log; returns `(records before, after)`.
    pub fn checkpoint(&mut self) -> Result<(u64, u64), ClientError> {
        match self.call(&Request::Checkpoint)? {
            Response::CheckpointDone {
                records_before,
                records_after,
            } => Ok((records_before, records_after)),
            other => unexpected("CheckpointDone", &other),
        }
    }

    /// Snapshot the server's counters as `name → value`.
    pub fn stats(&mut self) -> Result<Vec<(String, u64)>, ClientError> {
        match self.call(&Request::Stats)? {
            Response::StatsResult { counters } => Ok(counters),
            other => unexpected("StatsResult", &other),
        }
    }

    /// One counter out of [`Client::stats`], by exact name.
    pub fn stat(&mut self, name: &str) -> Result<Option<u64>, ClientError> {
        Ok(self
            .stats()?
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v))
    }

    /// Graceful close: the server acks with `Closed` then tears the session
    /// down (dropping its subscriptions and streams).
    pub fn close(mut self) -> Result<(), ClientError> {
        match self.call(&Request::Close)? {
            Response::Closed => Ok(()),
            other => unexpected("Closed", &other),
        }
    }
}

enum Classified {
    Response(u64, Response),
    ServerError(ErrorCode, String),
    Push,
}

fn unexpected<T>(wanted: &str, got: &Response) -> Result<T, ClientError> {
    Err(ClientError::Protocol(format!(
        "expected {wanted}, got {:?}",
        got.opcode()
    )))
}
