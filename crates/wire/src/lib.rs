//! Binary wire protocol for the dataspace service.
//!
//! Two layers, bottom-up, over the byte codec in [`iql::codec`] (the one
//! definition of value, string and frame bytes, shared with the commit log):
//!
//! - [`frame`] — length-prefixed, FNV-1a-checksummed envelopes on a byte
//!   stream. Carries the protocol version, the client-assigned request id,
//!   and an opcode.
//! - [`proto`] — the typed [`proto::Request`]/[`proto::Response`] surface:
//!   prepared-statement lifecycle, chunked result streaming with client-acked
//!   backpressure, standing subscriptions with server-push deltas, writes,
//!   and admin ops, plus the [`proto::ErrorCode`] taxonomy. Bodies decode
//!   with bounds checks and a nesting limit: malformed input yields typed
//!   errors, never panics.
//!
//! [`client::Client`] is a small blocking client over both, used by the
//! integration tests, the benches, and `examples/serve_proteomics.rs`. The
//! server side lives in the `server` crate.

pub mod client;
pub mod frame;
pub mod proto;

pub use client::{Client, ClientError};
pub use frame::{
    encode_frame, write_frame, Frame, FrameError, FrameReader, MAX_FRAME_BYTES, SERVER_ORIGIN_ID,
    WIRE_VERSION,
};
pub use proto::{ErrorCode, PushUpdate, ReqOp, Request, RespOp, Response};
