//! The live wire: protocol messages, codecs and framing.
//!
//! This crate owns everything that crosses a socket in the live
//! runtime:
//!
//! - [`Request`]/[`Response`] — the protocol messages, unchanged from
//!   when they lived inside `armada-live`;
//! - two body codecs behind one [`Codec`] enum: the original
//!   length-prefixed JSON (debug/trace-friendly, human-readable in a
//!   packet capture) and a compact binary form (one-byte variant tags,
//!   LEB128 varints, fixed-width little-endian `f64`); the first body
//!   byte discriminates, so servers auto-detect and reply in kind;
//! - two framings: length-prefixed frames over any byte stream
//!   ([`write_request`], [`read_response`], …) and [`UdpTransport`]
//!   (one datagram per frame, used by the probe path to skip connection
//!   setup and Nagle).
//!
//! A client chooses what it sends first with a [`WireConfig`] (body
//! codec, UDP or in-stream probes; binary and UDP by default); node and
//! manager links send binary; inbound always auto-detects, so mixed
//! deployments work.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod binary;
mod codec;
mod proto;
mod transport;

pub use codec::{decode_request, decode_response, Codec, WireConfig};
#[doc(hidden)]
pub use proto::test_fixtures;
pub use proto::{FrameError, Request, Response, WireNodeStatus, WireSummary};
pub use transport::{
    read_frame_bytes, read_response, read_response_via, recv_response, send_request, write_frame,
    write_request, write_request_via, UdpTransport, MAX_DATAGRAM_BYTES,
};
