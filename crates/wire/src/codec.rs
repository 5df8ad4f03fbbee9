//! Codec selection, auto-detection and wire configuration.
//!
//! Both codecs share the outer framing (4-byte big-endian length
//! prefix over TCP, one datagram per frame over UDP); they differ only
//! in how the body encodes a [`Request`] or [`Response`]. The first
//! body byte discriminates: JSON bodies start with `{` (struct
//! variants) or `"` (unit variants), while binary bodies start with a
//! variant tag in `0x01..=0x0B`. The sets are disjoint, so a server can
//! accept either codec on the same port and reply in whichever codec
//! the request arrived in — mixed-version deployments keep working.

use armada_json::{FromJson, JsonError};

use crate::binary;
use crate::proto::{FrameError, Request, Response};

/// Highest variant tag used by the binary codec (both directions).
const MAX_BINARY_TAG: u8 = 0x0B;

/// Which body encoding a frame uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// Human-readable length-prefixed JSON — the original wire format,
    /// kept as the debug/trace-friendly backend.
    Json,
    /// Compact binary: one-byte variant tags, LEB128 varints,
    /// fixed-width little-endian `f64` bit patterns.
    Binary,
}

impl Codec {
    /// Identifies the codec of a frame body from its first byte.
    ///
    /// # Errors
    ///
    /// Empty bodies and bodies starting with a byte neither codec can
    /// produce are [`FrameError::Malformed`].
    pub fn detect(body: &[u8]) -> Result<Codec, FrameError> {
        match body.first() {
            Some(b'{') | Some(b'"') => Ok(Codec::Json),
            Some(&tag) if (0x01..=MAX_BINARY_TAG).contains(&tag) => Ok(Codec::Binary),
            Some(&other) => Err(FrameError::Malformed(JsonError::new(format!(
                "unrecognised codec: first body byte {other:#04x}"
            )))),
            None => Err(FrameError::Malformed(JsonError::new("empty frame body"))),
        }
    }

    /// Encodes one request body in this codec.
    #[must_use]
    pub fn encode_request(self, request: &Request) -> Vec<u8> {
        let mut body = Vec::with_capacity(32);
        self.encode_request_into(request, &mut body);
        body
    }

    /// Encodes one response body in this codec.
    #[must_use]
    pub fn encode_response(self, response: &Response) -> Vec<u8> {
        let mut body = Vec::with_capacity(32);
        self.encode_response_into(response, &mut body);
        body
    }

    /// Appends one request body in this codec to `out`, after whatever
    /// it already holds: a caller that keeps `out` allocates nothing to
    /// encode a binary body.
    pub fn encode_request_into(self, request: &Request, out: &mut Vec<u8>) {
        match self {
            Codec::Json => out.extend_from_slice(armada_json::to_string(request).as_bytes()),
            Codec::Binary => binary::encode_request(request, out),
        }
    }

    /// Appends one response body in this codec to `out`, as
    /// [`Codec::encode_request_into`] does a request.
    pub fn encode_response_into(self, response: &Response, out: &mut Vec<u8>) {
        match self {
            Codec::Json => out.extend_from_slice(armada_json::to_string(response).as_bytes()),
            Codec::Binary => binary::encode_response(response, out),
        }
    }
}

fn decode_json<T: FromJson>(body: &[u8]) -> Result<T, FrameError> {
    let text = std::str::from_utf8(body).map_err(FrameError::Utf8)?;
    armada_json::from_str(text).map_err(FrameError::Malformed)
}

/// Decodes a request body in whichever codec it was sent, returning
/// the codec alongside so servers can reply in kind.
///
/// # Errors
///
/// Truncated, corrupt or unknown-codec bodies are classified through
/// [`FrameError`], mirroring the JSON-only path's error taxonomy.
pub fn decode_request(body: &[u8]) -> Result<(Request, Codec), FrameError> {
    let codec = Codec::detect(body)?;
    let request = match codec {
        Codec::Json => decode_json(body)?,
        Codec::Binary => binary::decode_request(body).map_err(FrameError::Malformed)?,
    };
    Ok((request, codec))
}

/// Decodes a response body in whichever codec it was sent.
///
/// # Errors
///
/// Same classification as [`decode_request`].
pub fn decode_response(body: &[u8]) -> Result<(Response, Codec), FrameError> {
    let codec = Codec::detect(body)?;
    let response = match codec {
        Codec::Json => decode_json(body)?,
        Codec::Binary => binary::decode_response(body).map_err(FrameError::Malformed)?,
    };
    Ok((response, codec))
}

/// Runtime wire configuration for the live runtime's outbound traffic.
///
/// Inbound traffic always auto-detects (see [`Codec::detect`]), so this
/// only chooses what *this* process sends first: the RPC body codec and
/// whether client probes try UDP before falling back to in-stream TCP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireConfig {
    /// Body codec for outbound requests (servers echo the arrival
    /// codec regardless).
    pub codec: Codec,
    /// Probe `RttProbe`/`ProcessProbe` over UDP first, skipping
    /// connection setup and Nagle; falls back to the TCP stream when a
    /// UDP exchange times out.
    pub udp_probes: bool,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            codec: Codec::Binary,
            udp_probes: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_is_unambiguous_for_every_variant() {
        let requests = crate::proto::test_fixtures::all_requests();
        for req in &requests {
            assert_eq!(
                Codec::detect(&Codec::Json.encode_request(req)).unwrap(),
                Codec::Json
            );
            assert_eq!(
                Codec::detect(&Codec::Binary.encode_request(req)).unwrap(),
                Codec::Binary
            );
        }
        let responses = crate::proto::test_fixtures::all_responses();
        for resp in &responses {
            assert_eq!(
                Codec::detect(&Codec::Json.encode_response(resp)).unwrap(),
                Codec::Json
            );
            assert_eq!(
                Codec::detect(&Codec::Binary.encode_response(resp)).unwrap(),
                Codec::Binary
            );
        }
    }

    #[test]
    fn decode_reports_the_arrival_codec() {
        let req = Request::Join { user: 7, seq: 42 };
        for codec in [Codec::Json, Codec::Binary] {
            let (back, detected) = decode_request(&codec.encode_request(&req)).unwrap();
            assert_eq!(back, req);
            assert_eq!(detected, codec);
        }
        let resp = Response::JoinResult { accepted: true };
        for codec in [Codec::Json, Codec::Binary] {
            let (back, detected) = decode_response(&codec.encode_response(&resp)).unwrap();
            assert_eq!(back, resp);
            assert_eq!(detected, codec);
        }
    }

    #[test]
    fn junk_first_bytes_are_rejected() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[0x00]).is_err());
        assert!(decode_request(&[0x1f, 1, 2]).is_err());
        assert!(decode_response(&[0xff]).is_err());
    }
}
