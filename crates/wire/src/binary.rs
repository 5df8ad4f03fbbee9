//! The compact binary codec for [`Request`]/[`Response`].
//!
//! Layout conventions:
//!
//! - every message starts with a one-byte variant tag (values `0x01..`,
//!   disjoint from `{` and `"` so a frame's codec is recognisable from
//!   its first byte — see [`crate::Codec::detect`]);
//! - unsigned integers (`u64`, `u32`, `usize`, lengths, counts) are
//!   LEB128 varints, so the common small ids cost one byte and
//!   `u64::MAX` still round-trips exactly — the binary codec never had
//!   the JSON layer's `as i64` wrap;
//! - `f64` is fixed-width: 8 little-endian IEEE-754 bit-pattern bytes,
//!   so every float (including non-finite ones JSON cannot carry)
//!   round-trips bit-exactly;
//! - strings are a varint byte length followed by UTF-8 bytes, vectors
//!   a varint element count followed by the elements.
//!
//! Decoding is strict: unknown tags, truncated fields, over-long
//! varints and trailing bytes are all errors, never panics.

use armada_json::JsonError;
use armada_types::{GeoPoint, NodeClass};

use crate::proto::{Request, Response, WireNodeStatus, WireSummary};

/// Request variant tags. Kept below `0x20` (and in particular distinct
/// from `b'{'`/`b'"'`) so codec detection stays a one-byte check.
mod req_tag {
    pub const REGISTER: u8 = 0x01;
    pub const HEARTBEAT: u8 = 0x02;
    pub const DISCOVER: u8 = 0x03;
    pub const RTT_PROBE: u8 = 0x04;
    pub const PROCESS_PROBE: u8 = 0x05;
    pub const JOIN: u8 = 0x06;
    pub const UNEXPECTED_JOIN: u8 = 0x07;
    pub const LEAVE: u8 = 0x08;
    pub const FRAME: u8 = 0x09;
    pub const SYNC_SUMMARIES: u8 = 0x0A;
}

/// Response variant tags (same space as requests; direction
/// disambiguates, exactly as with the JSON codec's variant names).
mod resp_tag {
    pub const REGISTERED: u8 = 0x01;
    pub const HEARTBEAT_ACK: u8 = 0x02;
    pub const CANDIDATES: u8 = 0x03;
    pub const RTT_PONG: u8 = 0x04;
    pub const PROBE_REPLY: u8 = 0x05;
    pub const JOIN_RESULT: u8 = 0x06;
    pub const ACK: u8 = 0x07;
    pub const FRAME_RESULT: u8 = 0x08;
    pub const SYNC_ACK: u8 = 0x09;
    pub const ERROR: u8 = 0x0A;
    pub const BUSY: u8 = 0x0B;
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_varint(out, v as u64);
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_usize(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

fn put_status(out: &mut Vec<u8>, status: &WireNodeStatus) {
    put_varint(out, status.id);
    out.push(match status.class {
        NodeClass::Volunteer => 0,
        NodeClass::Dedicated => 1,
        NodeClass::Cloud => 2,
    });
    put_f64(out, status.location.lat());
    put_f64(out, status.location.lon());
    put_usize(out, status.attached_users);
    put_f64(out, status.load_score);
}

fn put_summary(out: &mut Vec<u8>, summary: &WireSummary) {
    put_status(out, &summary.status);
    put_str(out, &summary.listen_addr);
    put_varint(out, summary.age_us);
}

/// A strict, bounds-checked reader over an encoded message body.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError::new(format!("binary codec: {msg} at byte {}", self.pos))
    }

    fn byte(&mut self) -> Result<u8, JsonError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| self.err("unexpected end of message"))?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, JsonError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.byte()?;
            let low = u64::from(byte & 0x7f);
            // The 10th byte may only contribute the final bit of a u64.
            if shift == 63 && low > 1 {
                return Err(self.err("varint overflows u64"));
            }
            value |= low << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(self.err("varint longer than 10 bytes"))
    }

    fn usize(&mut self) -> Result<usize, JsonError> {
        usize::try_from(self.varint()?).map_err(|_| self.err("count overflows usize"))
    }

    fn f64(&mut self) -> Result<f64, JsonError> {
        if self.pos + 8 > self.bytes.len() {
            return Err(self.err("truncated f64"));
        }
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.bytes[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(f64::from_bits(u64::from_le_bytes(raw)))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        let len = self.usize()?;
        if self.pos + len > self.bytes.len() {
            return Err(self.err("truncated string"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + len])
            .map_err(|_| self.err("string is not UTF-8"))?
            .to_owned();
        self.pos += len;
        Ok(s)
    }

    fn status(&mut self) -> Result<WireNodeStatus, JsonError> {
        let id = self.varint()?;
        let class = match self.byte()? {
            0 => NodeClass::Volunteer,
            1 => NodeClass::Dedicated,
            2 => NodeClass::Cloud,
            other => return Err(self.err(&format!("unknown NodeClass tag {other}"))),
        };
        let lat = self.f64()?;
        let lon = self.f64()?;
        let attached_users = self.usize()?;
        let load_score = self.f64()?;
        Ok(WireNodeStatus {
            id,
            class,
            location: GeoPoint::new(lat, lon),
            attached_users,
            load_score,
        })
    }

    fn summary(&mut self) -> Result<WireSummary, JsonError> {
        Ok(WireSummary {
            status: self.status()?,
            listen_addr: self.string()?,
            age_us: self.varint()?,
        })
    }

    fn finish(&self) -> Result<(), JsonError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.err("trailing bytes after message"))
        }
    }
}

/// Appends one [`Request`] in the compact binary form to `out`.
pub fn encode_request(request: &Request, out: &mut Vec<u8>) {
    match request {
        Request::Register {
            status,
            listen_addr,
        } => {
            out.push(req_tag::REGISTER);
            put_status(out, status);
            put_str(out, listen_addr);
        }
        Request::Heartbeat { status } => {
            out.push(req_tag::HEARTBEAT);
            put_status(out, status);
        }
        Request::Discover {
            user,
            lat,
            lon,
            top_n,
        } => {
            out.push(req_tag::DISCOVER);
            put_varint(out, *user);
            put_f64(out, *lat);
            put_f64(out, *lon);
            put_usize(out, *top_n);
        }
        Request::RttProbe => out.push(req_tag::RTT_PROBE),
        Request::ProcessProbe => out.push(req_tag::PROCESS_PROBE),
        Request::Join { user, seq } => {
            out.push(req_tag::JOIN);
            put_varint(out, *user);
            put_varint(out, *seq);
        }
        Request::UnexpectedJoin { user } => {
            out.push(req_tag::UNEXPECTED_JOIN);
            put_varint(out, *user);
        }
        Request::Leave { user } => {
            out.push(req_tag::LEAVE);
            put_varint(out, *user);
        }
        Request::Frame {
            user,
            seq,
            payload_len,
        } => {
            out.push(req_tag::FRAME);
            put_varint(out, *user);
            put_varint(out, *seq);
            put_varint(out, u64::from(*payload_len));
        }
        Request::SyncSummaries { from, summaries } => {
            out.push(req_tag::SYNC_SUMMARIES);
            put_varint(out, *from);
            put_usize(out, summaries.len());
            for summary in summaries {
                put_summary(out, summary);
            }
        }
    }
}

/// Decodes one binary [`Request`]; strict about tags, bounds and
/// trailing bytes.
///
/// # Errors
///
/// Returns a descriptive [`JsonError`] (the workspace's shared codec
/// error type) for any malformed input.
pub fn decode_request(bytes: &[u8]) -> Result<Request, JsonError> {
    let mut r = Reader { bytes, pos: 0 };
    let request = match r.byte()? {
        req_tag::REGISTER => Request::Register {
            status: r.status()?,
            listen_addr: r.string()?,
        },
        req_tag::HEARTBEAT => Request::Heartbeat {
            status: r.status()?,
        },
        req_tag::DISCOVER => Request::Discover {
            user: r.varint()?,
            lat: r.f64()?,
            lon: r.f64()?,
            top_n: r.usize()?,
        },
        req_tag::RTT_PROBE => Request::RttProbe,
        req_tag::PROCESS_PROBE => Request::ProcessProbe,
        req_tag::JOIN => Request::Join {
            user: r.varint()?,
            seq: r.varint()?,
        },
        req_tag::UNEXPECTED_JOIN => Request::UnexpectedJoin { user: r.varint()? },
        req_tag::LEAVE => Request::Leave { user: r.varint()? },
        req_tag::FRAME => Request::Frame {
            user: r.varint()?,
            seq: r.varint()?,
            payload_len: u32::try_from(r.varint()?)
                .map_err(|_| r.err("payload_len overflows u32"))?,
        },
        req_tag::SYNC_SUMMARIES => {
            let from = r.varint()?;
            let count = r.usize()?;
            // A hostile count must not pre-allocate unbounded memory;
            // each summary is ≥ 28 bytes, so the remaining input bounds
            // the plausible element count.
            let mut summaries = Vec::with_capacity(count.min(bytes.len() / 28 + 1));
            for _ in 0..count {
                summaries.push(r.summary()?);
            }
            Request::SyncSummaries { from, summaries }
        }
        other => return Err(r.err(&format!("unknown Request tag {other:#04x}"))),
    };
    r.finish()?;
    Ok(request)
}

/// Appends one [`Response`] in the compact binary form to `out`.
pub fn encode_response(response: &Response, out: &mut Vec<u8>) {
    match response {
        Response::Registered => out.push(resp_tag::REGISTERED),
        Response::HeartbeatAck => out.push(resp_tag::HEARTBEAT_ACK),
        Response::Candidates { nodes } => {
            out.push(resp_tag::CANDIDATES);
            put_usize(out, nodes.len());
            for (id, addr) in nodes {
                put_varint(out, *id);
                put_str(out, addr);
            }
        }
        Response::RttPong => out.push(resp_tag::RTT_PONG),
        Response::ProbeReply {
            whatif_us,
            current_us,
            attached,
            seq,
        } => {
            out.push(resp_tag::PROBE_REPLY);
            put_varint(out, *whatif_us);
            put_varint(out, *current_us);
            put_usize(out, *attached);
            put_varint(out, *seq);
        }
        Response::JoinResult { accepted } => {
            out.push(resp_tag::JOIN_RESULT);
            out.push(u8::from(*accepted));
        }
        Response::Ack => out.push(resp_tag::ACK),
        Response::FrameResult { seq, processing_us } => {
            out.push(resp_tag::FRAME_RESULT);
            put_varint(out, *seq);
            put_varint(out, *processing_us);
        }
        Response::SyncAck { applied } => {
            out.push(resp_tag::SYNC_ACK);
            put_varint(out, *applied);
        }
        Response::Error { message } => {
            out.push(resp_tag::ERROR);
            put_str(out, message);
        }
        Response::Busy { retry_after_ms } => {
            out.push(resp_tag::BUSY);
            put_varint(out, *retry_after_ms);
        }
    }
}

/// Decodes one binary [`Response`]; strict about tags, bounds and
/// trailing bytes.
///
/// # Errors
///
/// Returns a descriptive [`JsonError`] for any malformed input.
pub fn decode_response(bytes: &[u8]) -> Result<Response, JsonError> {
    let mut r = Reader { bytes, pos: 0 };
    let response = match r.byte()? {
        resp_tag::REGISTERED => Response::Registered,
        resp_tag::HEARTBEAT_ACK => Response::HeartbeatAck,
        resp_tag::CANDIDATES => {
            let count = r.usize()?;
            let mut nodes = Vec::with_capacity(count.min(bytes.len() / 2 + 1));
            for _ in 0..count {
                let id = r.varint()?;
                let addr = r.string()?;
                nodes.push((id, addr));
            }
            Response::Candidates { nodes }
        }
        resp_tag::RTT_PONG => Response::RttPong,
        resp_tag::PROBE_REPLY => Response::ProbeReply {
            whatif_us: r.varint()?,
            current_us: r.varint()?,
            attached: r.usize()?,
            seq: r.varint()?,
        },
        resp_tag::JOIN_RESULT => Response::JoinResult {
            accepted: match r.byte()? {
                0 => false,
                1 => true,
                other => return Err(r.err(&format!("invalid bool byte {other}"))),
            },
        },
        resp_tag::ACK => Response::Ack,
        resp_tag::FRAME_RESULT => Response::FrameResult {
            seq: r.varint()?,
            processing_us: r.varint()?,
        },
        resp_tag::SYNC_ACK => Response::SyncAck {
            applied: r.varint()?,
        },
        resp_tag::ERROR => Response::Error {
            message: r.string()?,
        },
        resp_tag::BUSY => Response::Busy {
            retry_after_ms: r.varint()?,
        },
        other => return Err(r.err(&format!("unknown Response tag {other:#04x}"))),
    };
    r.finish()?;
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded(request: &Request) -> Vec<u8> {
        let mut out = Vec::new();
        encode_request(request, &mut out);
        out
    }

    #[test]
    fn varint_boundaries_roundtrip() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            i64::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert!(buf.len() <= 10);
            let mut r = Reader {
                bytes: &buf,
                pos: 0,
            };
            assert_eq!(r.varint().unwrap(), v);
            r.finish().unwrap();
        }
    }

    #[test]
    fn overlong_varint_is_rejected() {
        // Eleven continuation bytes can never be a u64.
        let buf = [0x80u8; 11];
        let mut r = Reader {
            bytes: &buf,
            pos: 0,
        };
        assert!(r.varint().is_err());
        // Ten bytes whose final byte carries more than the last bit
        // overflow as well.
        let mut buf = vec![0xffu8; 9];
        buf.push(0x02);
        let mut r = Reader {
            bytes: &buf,
            pos: 0,
        };
        assert!(r.varint().is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encoded(&Request::RttProbe);
        bytes.push(0);
        assert!(decode_request(&bytes).is_err());
        let mut bytes = Vec::new();
        encode_response(&Response::Ack, &mut bytes);
        bytes.push(0);
        assert!(decode_response(&bytes).is_err());
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert!(decode_request(&[0x1f]).is_err());
        assert!(decode_response(&[0x1f]).is_err());
        assert!(decode_request(&[]).is_err());
    }

    #[test]
    fn non_finite_floats_roundtrip_bit_exactly() {
        // JSON cannot carry these at all; the binary codec must.
        for load in [f64::INFINITY, f64::NEG_INFINITY, -0.0] {
            let req = Request::Heartbeat {
                status: WireNodeStatus {
                    id: 1,
                    class: NodeClass::Cloud,
                    location: GeoPoint::new(0.0, 0.0),
                    attached_users: 0,
                    load_score: load,
                },
            };
            let back = decode_request(&encoded(&req)).unwrap();
            assert_eq!(back, req);
        }
        let req = Request::Heartbeat {
            status: WireNodeStatus {
                id: 1,
                class: NodeClass::Cloud,
                location: GeoPoint::new(0.0, 0.0),
                attached_users: 0,
                load_score: f64::NAN,
            },
        };
        match decode_request(&encoded(&req)).unwrap() {
            Request::Heartbeat { status } => {
                assert_eq!(status.load_score.to_bits(), f64::NAN.to_bits());
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
