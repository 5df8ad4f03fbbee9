//! The wire protocol: the messages, their JSON form, and the typed
//! failure modes of reading a frame.

use std::io::Read;

use armada_json::{FromJson, Json, JsonError, ToJson};
use armada_types::{GeoPoint, NodeClass};

/// Upper bound on a single message, guarding against corrupt length
/// prefixes.
pub(crate) const MAX_MESSAGE_BYTES: u32 = 1 << 20;

/// Requests sent to the manager or to a node.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Node → manager: initial registration.
    Register {
        /// The node's identity and state.
        status: WireNodeStatus,
        /// Where the node accepts client connections.
        listen_addr: String,
    },
    /// Node → manager: periodic status refresh.
    Heartbeat {
        /// Updated node state.
        status: WireNodeStatus,
    },
    /// User → manager: edge discovery.
    Discover {
        /// Requesting user.
        user: u64,
        /// User latitude.
        lat: f64,
        /// User longitude.
        lon: f64,
        /// Candidate-list size (`TopN`).
        top_n: usize,
    },
    /// User → node: RTT probe (timed by the caller).
    RttProbe,
    /// User → node: what-if processing probe.
    ProcessProbe,
    /// User → node: synchronised join (Algorithm 1).
    Join {
        /// Joining user.
        user: u64,
        /// Sequence number from the preceding probe.
        seq: u64,
    },
    /// User → node: non-rejectable failover attach.
    UnexpectedJoin {
        /// Joining user.
        user: u64,
    },
    /// User → node: departure notification.
    Leave {
        /// Departing user.
        user: u64,
    },
    /// User → node: one application frame. The payload is sized, not
    /// carried — localhost bandwidth is not the phenomenon under test.
    Frame {
        /// Sending user.
        user: u64,
        /// Frame sequence number.
        seq: u64,
        /// Simulated payload size in bytes.
        payload_len: u32,
    },
    /// Manager → manager: federation peer sync. The sender pushes
    /// summaries of the nodes it owns so a neighbouring shard can serve
    /// them to border users (and to everyone, should the sender die).
    SyncSummaries {
        /// Sending shard's identity.
        from: u64,
        /// One summary per owned node.
        summaries: Vec<WireSummary>,
    },
}

/// Replies to [`Request`]s.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Registration accepted.
    Registered,
    /// Heartbeat accepted.
    HeartbeatAck,
    /// Discovery result: `(node_id, listen_addr)` candidates, best
    /// first.
    Candidates {
        /// The candidate list.
        nodes: Vec<(u64, String)>,
    },
    /// RTT probe echo.
    RttPong,
    /// What-if probe reply.
    ProbeReply {
        /// Cached what-if processing delay, µs.
        whatif_us: u64,
        /// Measured current processing delay, µs.
        current_us: u64,
        /// Attached user count.
        attached: usize,
        /// The node's sequence number.
        seq: u64,
    },
    /// Join verdict.
    JoinResult {
        /// `true` if the presented sequence number matched.
        accepted: bool,
    },
    /// Generic acknowledgement (leave, unexpected join).
    Ack,
    /// Processed-frame result.
    FrameResult {
        /// Acknowledged frame sequence number.
        seq: u64,
        /// Node-side processing time, µs (queueing + execution).
        processing_us: u64,
    },
    /// Peer sync accepted.
    SyncAck {
        /// Number of summaries applied to the receiver's remote view.
        applied: u64,
    },
    /// The request could not be served.
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// The server is shedding load: the request was admitted to the
    /// wire but refused service. Retry after the suggested delay —
    /// clients treat this as a capped-jitter backoff signal, not a
    /// failure of the node itself.
    Busy {
        /// Suggested minimum delay before retrying, milliseconds.
        retry_after_ms: u64,
    },
}

/// A compact node summary as exchanged between federated managers.
///
/// Heartbeat recency crosses the wire as an *age* — `Instant`s are
/// process-local and cannot be serialised; the receiver reconstructs
/// `last_seen = now − age_us` on arrival, so both sides apply the same
/// liveness window to the same underlying heartbeat.
#[derive(Debug, Clone, PartialEq)]
pub struct WireSummary {
    /// The summarised node's identity and state.
    pub status: WireNodeStatus,
    /// Where the node accepts client connections.
    pub listen_addr: String,
    /// Microseconds since the owning shard last heard from the node.
    pub age_us: u64,
}

impl ToJson for WireSummary {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("status", self.status.to_json()),
            ("listen_addr", Json::Str(self.listen_addr.clone())),
            ("age_us", self.age_us.to_json()),
        ])
    }
}

impl FromJson for WireSummary {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(WireSummary {
            status: WireNodeStatus::from_json(value.require("status")?)?,
            listen_addr: String::from_json(value.require("listen_addr")?)?,
            age_us: u64::from_json(value.require("age_us")?)?,
        })
    }
}

/// Node status as carried on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireNodeStatus {
    /// Node identity.
    pub id: u64,
    /// Node class.
    pub class: NodeClass,
    /// Node position.
    pub location: GeoPoint,
    /// Attached user count.
    pub attached_users: usize,
    /// Offered-load score (lower = more available).
    pub load_score: f64,
}

impl ToJson for WireNodeStatus {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("id", self.id.to_json()),
            ("class", self.class.to_json()),
            ("location", self.location.to_json()),
            ("attached_users", self.attached_users.to_json()),
            ("load_score", Json::Float(self.load_score)),
        ])
    }
}

impl FromJson for WireNodeStatus {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(WireNodeStatus {
            id: u64::from_json(value.require("id")?)?,
            class: NodeClass::from_json(value.require("class")?)?,
            location: GeoPoint::from_json(value.require("location")?)?,
            attached_users: usize::from_json(value.require("attached_users")?)?,
            load_score: f64::from_json(value.require("load_score")?)?,
        })
    }
}

/// Unit variants serialise as a bare string, struct variants as a
/// single-key object (serde's external tagging, which the previous
/// derive produced).
fn variant(name: &str, fields: Vec<(&str, Json)>) -> Json {
    Json::object(vec![(name, Json::object(fields))])
}

/// Placeholder payload for unit variants.
static NULL_PAYLOAD: Json = Json::Null;

/// Splits an externally-tagged value into `(variant_name, payload)`.
fn untag(value: &Json) -> Result<(&str, &Json), JsonError> {
    match value {
        Json::Str(name) => Ok((name.as_str(), &NULL_PAYLOAD)),
        Json::Object(members) if members.len() == 1 => Ok((members[0].0.as_str(), &members[0].1)),
        _ => Err(JsonError::new("expected an externally-tagged enum value")),
    }
}

impl ToJson for Request {
    fn to_json(&self) -> Json {
        match self {
            Request::Register {
                status,
                listen_addr,
            } => variant(
                "Register",
                vec![
                    ("status", status.to_json()),
                    ("listen_addr", Json::Str(listen_addr.clone())),
                ],
            ),
            Request::Heartbeat { status } => {
                variant("Heartbeat", vec![("status", status.to_json())])
            }
            Request::Discover {
                user,
                lat,
                lon,
                top_n,
            } => variant(
                "Discover",
                vec![
                    ("user", user.to_json()),
                    ("lat", Json::Float(*lat)),
                    ("lon", Json::Float(*lon)),
                    ("top_n", top_n.to_json()),
                ],
            ),
            Request::RttProbe => Json::Str("RttProbe".to_owned()),
            Request::ProcessProbe => Json::Str("ProcessProbe".to_owned()),
            Request::Join { user, seq } => variant(
                "Join",
                vec![("user", user.to_json()), ("seq", seq.to_json())],
            ),
            Request::UnexpectedJoin { user } => {
                variant("UnexpectedJoin", vec![("user", user.to_json())])
            }
            Request::Leave { user } => variant("Leave", vec![("user", user.to_json())]),
            Request::Frame {
                user,
                seq,
                payload_len,
            } => variant(
                "Frame",
                vec![
                    ("user", user.to_json()),
                    ("seq", seq.to_json()),
                    ("payload_len", payload_len.to_json()),
                ],
            ),
            Request::SyncSummaries { from, summaries } => variant(
                "SyncSummaries",
                vec![
                    ("from", from.to_json()),
                    (
                        "summaries",
                        Json::Array(summaries.iter().map(ToJson::to_json).collect()),
                    ),
                ],
            ),
        }
    }
}

impl FromJson for Request {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let (name, body) = untag(value)?;
        match name {
            "Register" => Ok(Request::Register {
                status: WireNodeStatus::from_json(body.require("status")?)?,
                listen_addr: String::from_json(body.require("listen_addr")?)?,
            }),
            "Heartbeat" => Ok(Request::Heartbeat {
                status: WireNodeStatus::from_json(body.require("status")?)?,
            }),
            "Discover" => Ok(Request::Discover {
                user: u64::from_json(body.require("user")?)?,
                lat: f64::from_json(body.require("lat")?)?,
                lon: f64::from_json(body.require("lon")?)?,
                top_n: usize::from_json(body.require("top_n")?)?,
            }),
            "RttProbe" => Ok(Request::RttProbe),
            "ProcessProbe" => Ok(Request::ProcessProbe),
            "Join" => Ok(Request::Join {
                user: u64::from_json(body.require("user")?)?,
                seq: u64::from_json(body.require("seq")?)?,
            }),
            "UnexpectedJoin" => Ok(Request::UnexpectedJoin {
                user: u64::from_json(body.require("user")?)?,
            }),
            "Leave" => Ok(Request::Leave {
                user: u64::from_json(body.require("user")?)?,
            }),
            "Frame" => Ok(Request::Frame {
                user: u64::from_json(body.require("user")?)?,
                seq: u64::from_json(body.require("seq")?)?,
                payload_len: u32::from_json(body.require("payload_len")?)?,
            }),
            "SyncSummaries" => {
                let raw = body
                    .require("summaries")?
                    .as_array()
                    .ok_or_else(|| JsonError::new("SyncSummaries.summaries must be an array"))?;
                let mut summaries = Vec::with_capacity(raw.len());
                for item in raw {
                    summaries.push(WireSummary::from_json(item)?);
                }
                Ok(Request::SyncSummaries {
                    from: u64::from_json(body.require("from")?)?,
                    summaries,
                })
            }
            other => Err(JsonError::new(format!("unknown Request variant `{other}`"))),
        }
    }
}

impl ToJson for Response {
    fn to_json(&self) -> Json {
        match self {
            Response::Registered => Json::Str("Registered".to_owned()),
            Response::HeartbeatAck => Json::Str("HeartbeatAck".to_owned()),
            Response::Candidates { nodes } => variant(
                "Candidates",
                vec![(
                    "nodes",
                    Json::Array(
                        nodes
                            .iter()
                            .map(|(id, addr)| {
                                Json::Array(vec![id.to_json(), Json::Str(addr.clone())])
                            })
                            .collect(),
                    ),
                )],
            ),
            Response::RttPong => Json::Str("RttPong".to_owned()),
            Response::ProbeReply {
                whatif_us,
                current_us,
                attached,
                seq,
            } => variant(
                "ProbeReply",
                vec![
                    ("whatif_us", whatif_us.to_json()),
                    ("current_us", current_us.to_json()),
                    ("attached", attached.to_json()),
                    ("seq", seq.to_json()),
                ],
            ),
            Response::JoinResult { accepted } => {
                variant("JoinResult", vec![("accepted", Json::Bool(*accepted))])
            }
            Response::Ack => Json::Str("Ack".to_owned()),
            Response::FrameResult { seq, processing_us } => variant(
                "FrameResult",
                vec![
                    ("seq", seq.to_json()),
                    ("processing_us", processing_us.to_json()),
                ],
            ),
            Response::SyncAck { applied } => {
                variant("SyncAck", vec![("applied", applied.to_json())])
            }
            Response::Error { message } => {
                variant("Error", vec![("message", Json::Str(message.clone()))])
            }
            Response::Busy { retry_after_ms } => {
                variant("Busy", vec![("retry_after_ms", retry_after_ms.to_json())])
            }
        }
    }
}

impl FromJson for Response {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let (name, body) = untag(value)?;
        match name {
            "Registered" => Ok(Response::Registered),
            "HeartbeatAck" => Ok(Response::HeartbeatAck),
            "Candidates" => {
                let raw = body
                    .require("nodes")?
                    .as_array()
                    .ok_or_else(|| JsonError::new("Candidates.nodes must be an array"))?;
                let mut nodes = Vec::with_capacity(raw.len());
                for pair in raw {
                    let items = pair
                        .as_array()
                        .filter(|a| a.len() == 2)
                        .ok_or_else(|| JsonError::new("candidate must be [id, addr]"))?;
                    nodes.push((u64::from_json(&items[0])?, String::from_json(&items[1])?));
                }
                Ok(Response::Candidates { nodes })
            }
            "RttPong" => Ok(Response::RttPong),
            "ProbeReply" => Ok(Response::ProbeReply {
                whatif_us: u64::from_json(body.require("whatif_us")?)?,
                current_us: u64::from_json(body.require("current_us")?)?,
                attached: usize::from_json(body.require("attached")?)?,
                seq: u64::from_json(body.require("seq")?)?,
            }),
            "JoinResult" => Ok(Response::JoinResult {
                accepted: bool::from_json(body.require("accepted")?)?,
            }),
            "Ack" => Ok(Response::Ack),
            "FrameResult" => Ok(Response::FrameResult {
                seq: u64::from_json(body.require("seq")?)?,
                processing_us: u64::from_json(body.require("processing_us")?)?,
            }),
            "SyncAck" => Ok(Response::SyncAck {
                applied: u64::from_json(body.require("applied")?)?,
            }),
            "Error" => Ok(Response::Error {
                message: String::from_json(body.require("message")?)?,
            }),
            "Busy" => Ok(Response::Busy {
                retry_after_ms: u64::from_json(body.require("retry_after_ms")?)?,
            }),
            other => Err(JsonError::new(format!(
                "unknown Response variant `{other}`"
            ))),
        }
    }
}

/// Typed failure modes of frame decoding, so callers can distinguish a
/// hostile/corrupt peer (drop the connection) from a transient
/// transport error (retry with backoff).
#[derive(Debug)]
pub enum FrameError {
    /// The length prefix exceeds the protocol maximum — a corrupt
    /// prefix or a hostile peer; reading `declared` bytes would be a
    /// memory-exhaustion vector.
    Oversize {
        /// The declared body length.
        declared: u32,
    },
    /// The stream ended mid-frame (header or body).
    Truncated {
        /// Bytes the frame still owed.
        expected: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The body is not valid UTF-8 (bit corruption in transit).
    Utf8(std::str::Utf8Error),
    /// The body parsed as text but not as a protocol message.
    Malformed(JsonError),
    /// The underlying transport failed.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversize { declared } => {
                write!(f, "frame of {declared} bytes exceeds protocol maximum")
            }
            FrameError::Truncated { expected, got } => {
                write!(f, "truncated frame: expected {expected} bytes, got {got}")
            }
            FrameError::Utf8(e) => write!(f, "frame body is not UTF-8: {e}"),
            FrameError::Malformed(e) => write!(f, "malformed frame body: {e}"),
            FrameError::Io(e) => write!(f, "frame transport error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Utf8(e) => Some(e),
            FrameError::Io(e) => Some(e),
            FrameError::Oversize { .. } | FrameError::Truncated { .. } => None,
            FrameError::Malformed(_) => None,
        }
    }
}

impl From<FrameError> for std::io::Error {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(io) => io,
            FrameError::Truncated { .. } => {
                std::io::Error::new(std::io::ErrorKind::UnexpectedEof, e.to_string())
            }
            other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Fills `buf` completely, classifying a mid-frame end of stream as
/// [`FrameError::Truncated`] with an exact byte count.
pub(crate) fn fill<R: Read>(reader: &mut R, buf: &mut [u8]) -> Result<(), FrameError> {
    let mut got = 0;
    while got < buf.len() {
        match reader.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(FrameError::Truncated {
                    expected: buf.len(),
                    got,
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Canonical message fixtures shared by the codec tests — one of every
/// [`Request`]/[`Response`] variant with representative values, plus
/// boundary-value sets.
///
/// Not part of the protocol API; exposed so out-of-crate tests exercise
/// exactly the same corpus.
#[doc(hidden)]
pub mod test_fixtures {
    use super::{Request, Response, WireNodeStatus, WireSummary};
    use armada_types::{GeoPoint, NodeClass};

    /// A representative node status.
    #[must_use]
    pub fn status() -> WireNodeStatus {
        WireNodeStatus {
            id: 3,
            class: NodeClass::Volunteer,
            location: GeoPoint::new(44.9, -93.2),
            attached_users: 1,
            load_score: 0.5,
        }
    }

    /// One of every `Request` variant with typical values.
    #[must_use]
    pub fn all_requests() -> Vec<Request> {
        vec![
            Request::Register {
                status: status(),
                listen_addr: "127.0.0.1:9000".into(),
            },
            Request::Heartbeat { status: status() },
            Request::Discover {
                user: 1,
                lat: 44.9,
                lon: -93.2,
                top_n: 3,
            },
            Request::RttProbe,
            Request::ProcessProbe,
            Request::Join { user: 2, seq: 11 },
            Request::UnexpectedJoin { user: 2 },
            Request::Leave { user: 2 },
            Request::Frame {
                user: 2,
                seq: 5,
                payload_len: 20_000,
            },
            Request::SyncSummaries {
                from: 1,
                summaries: vec![WireSummary {
                    status: status(),
                    listen_addr: "127.0.0.1:9003".into(),
                    age_us: 1_500_000,
                }],
            },
        ]
    }

    /// One of every `Response` variant with typical values.
    #[must_use]
    pub fn all_responses() -> Vec<Response> {
        vec![
            Response::Registered,
            Response::HeartbeatAck,
            Response::Candidates {
                nodes: vec![(1, "127.0.0.1:9001".into()), (2, "127.0.0.1:9002".into())],
            },
            Response::RttPong,
            Response::ProbeReply {
                whatif_us: 42_000,
                current_us: 31_000,
                attached: 2,
                seq: 9,
            },
            Response::JoinResult { accepted: true },
            Response::Ack,
            Response::FrameResult {
                seq: 3,
                processing_us: 27_500,
            },
            Response::SyncAck { applied: 4 },
            Response::Error {
                message: "node shutting down".into(),
            },
            Response::Busy {
                retry_after_ms: 250,
            },
        ]
    }

    /// Boundary-value requests: `u64::MAX` ids/ages (the values the old
    /// `as i64` JSON encoding wrapped negative), empty summary lists,
    /// extreme coordinates, zero and max sizes.
    #[must_use]
    pub fn boundary_requests() -> Vec<Request> {
        let max_status = WireNodeStatus {
            id: u64::MAX,
            class: NodeClass::Cloud,
            location: GeoPoint::new(-90.0, 180.0),
            attached_users: usize::MAX,
            load_score: f64::MAX,
        };
        vec![
            Request::Register {
                status: max_status.clone(),
                listen_addr: String::new(),
            },
            Request::Heartbeat {
                status: WireNodeStatus {
                    id: (i64::MAX as u64) + 1,
                    class: NodeClass::Dedicated,
                    location: GeoPoint::new(0.0, 0.0),
                    attached_users: 0,
                    load_score: 0.0,
                },
            },
            Request::Discover {
                user: u64::MAX,
                lat: -0.0,
                lon: f64::MIN_POSITIVE,
                top_n: 0,
            },
            Request::Join {
                user: u64::MAX,
                seq: u64::MAX,
            },
            Request::UnexpectedJoin { user: 0 },
            Request::Leave { user: u64::MAX },
            Request::Frame {
                user: u64::MAX,
                seq: 0,
                payload_len: u32::MAX,
            },
            Request::SyncSummaries {
                from: u64::MAX,
                summaries: vec![],
            },
            Request::SyncSummaries {
                from: 0,
                summaries: vec![WireSummary {
                    status: max_status,
                    listen_addr: "[::1]:65535".into(),
                    age_us: u64::MAX,
                }],
            },
        ]
    }

    /// Boundary-value responses: empty candidate lists, `u64::MAX`
    /// counters, empty error strings.
    #[must_use]
    pub fn boundary_responses() -> Vec<Response> {
        vec![
            Response::Candidates { nodes: vec![] },
            Response::Candidates {
                nodes: vec![(u64::MAX, String::new())],
            },
            Response::ProbeReply {
                whatif_us: u64::MAX,
                current_us: 0,
                attached: usize::MAX,
                seq: u64::MAX,
            },
            Response::JoinResult { accepted: false },
            Response::FrameResult {
                seq: u64::MAX,
                processing_us: u64::MAX,
            },
            Response::SyncAck { applied: u64::MAX },
            Response::Error {
                message: String::new(),
            },
            Response::Busy { retry_after_ms: 0 },
            Response::Busy {
                retry_after_ms: u64::MAX,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{read_frame_bytes, read_response, write_frame, write_request};
    use crate::{decode_request, Codec};
    use std::io::{Cursor, Read};

    /// One framed request off `reader`, the way a server reads it.
    fn read_request<R: Read>(reader: &mut R) -> Result<(Request, Codec), FrameError> {
        decode_request(&read_frame_bytes(reader)?)
    }

    /// One JSON-framed `Join`, the frame the taxonomy cases cut up.
    fn json_join_frame() -> Vec<u8> {
        let mut buf = Vec::new();
        write_request(&mut buf, Codec::Json, &Request::Join { user: 7, seq: 42 }).unwrap();
        buf
    }

    #[test]
    fn roundtrip_over_buffer() {
        let (back, codec) = read_request(&mut Cursor::new(json_join_frame())).unwrap();
        assert_eq!(back, Request::Join { user: 7, seq: 42 });
        assert_eq!(codec, Codec::Json);
    }

    #[test]
    fn multiple_messages_in_sequence() {
        let mut buf = Vec::new();
        for seq in 0..10u64 {
            let response = Response::FrameResult {
                seq,
                processing_us: 1,
            };
            write_frame(&mut buf, &Codec::Json.encode_response(&response)).unwrap();
        }
        let mut cursor = Cursor::new(buf);
        for seq in 0..10u64 {
            let (r, _) = read_response(&mut cursor).unwrap();
            assert_eq!(
                r,
                Response::FrameResult {
                    seq,
                    processing_us: 1
                }
            );
        }
    }

    #[test]
    fn oversized_frame_rejected() {
        let buf = u32::MAX.to_be_bytes().to_vec();
        let err = read_request(&mut Cursor::new(&buf)).unwrap_err();
        assert!(
            matches!(err, FrameError::Oversize { declared: u32::MAX }),
            "got {err:?}"
        );
        let io = std::io::Error::from(err);
        assert_eq!(io.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn garbage_json_rejected() {
        // A leading `{` routes the body to the JSON decoder.
        let mut buf = 4u32.to_be_bytes().to_vec();
        buf.extend_from_slice(b"{!!!");
        let err = read_request(&mut Cursor::new(&buf)).unwrap_err();
        assert!(matches!(err, FrameError::Malformed(_)), "got {err:?}");
        let io = std::io::Error::from(err);
        assert_eq!(io.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn non_utf8_body_is_a_typed_corruption_error() {
        let mut buf = 4u32.to_be_bytes().to_vec();
        buf.extend_from_slice(&[b'{', 0xff, 0xfe, 0x80]);
        let err = read_request(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, FrameError::Utf8(_)), "got {err:?}");
    }

    /// Every truncation point of a valid frame yields `Truncated` with
    /// an exact accounting of the missing bytes — never a panic, never
    /// a misclassification.
    #[test]
    fn every_truncation_point_is_classified() {
        let full = json_join_frame();
        for cut in 0..full.len() {
            let err = read_request(&mut Cursor::new(&full[..cut])).unwrap_err();
            match err {
                FrameError::Truncated { expected, got } => {
                    if cut < 4 {
                        assert_eq!((expected, got), (4, cut), "header cut at {cut}");
                    } else {
                        assert_eq!(
                            (expected, got),
                            (full.len() - 4, cut - 4),
                            "body cut at {cut}"
                        );
                    }
                }
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
            // The io::Error conversion keeps the EOF kind retry logic
            // keys on.
            let io = std::io::Error::from(err);
            assert_eq!(io.kind(), std::io::ErrorKind::UnexpectedEof);
        }
    }

    /// Decoding arbitrary bytes must fail cleanly — typed error out,
    /// no panic, no unbounded allocation. Random buffers come from a
    /// seeded generator so failures replay.
    #[test]
    fn random_buffers_never_panic_the_decoder() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for round in 0..500 {
            let len = (next() % 64) as usize;
            let buf: Vec<u8> = (0..len).map(|_| (next() >> 33) as u8).collect();
            let outcome = read_request(&mut Cursor::new(&buf));
            // A 4-byte prefix of garbage can by chance declare a length
            // the buffer actually contains, but the body then has to
            // parse as a Request — vanishingly unlikely; everything
            // else must land in a typed error.
            if let Err(e) = outcome {
                let _ = e.to_string(); // Display is total
            } else {
                panic!("round {round}: random bytes decoded as a Request");
            }
        }
    }

    /// Corrupting any single byte of a valid frame yields a typed
    /// error or (for payload-value bytes) a different-but-valid
    /// message — never a panic.
    #[test]
    fn single_byte_corruption_round_trip() {
        let full = json_join_frame();
        for i in 0..full.len() {
            let mut corrupted = full.clone();
            corrupted[i] ^= 0x20;
            match read_request(&mut Cursor::new(&corrupted)) {
                Ok(_) | Err(_) => {} // both acceptable; panics are not
            }
        }
    }

    #[test]
    fn every_request_variant_roundtrips() {
        let status = WireNodeStatus {
            id: 3,
            class: NodeClass::Volunteer,
            location: GeoPoint::new(44.9, -93.2),
            attached_users: 1,
            load_score: 0.5,
        };
        let requests = vec![
            Request::Register {
                status: status.clone(),
                listen_addr: "127.0.0.1:9000".into(),
            },
            Request::Heartbeat { status },
            Request::Discover {
                user: 1,
                lat: 44.9,
                lon: -93.2,
                top_n: 3,
            },
            Request::RttProbe,
            Request::ProcessProbe,
            Request::Join { user: 2, seq: 11 },
            Request::UnexpectedJoin { user: 2 },
            Request::Leave { user: 2 },
            Request::Frame {
                user: 2,
                seq: 5,
                payload_len: 20_000,
            },
            Request::SyncSummaries {
                from: 1,
                summaries: vec![WireSummary {
                    status: WireNodeStatus {
                        id: 3,
                        class: NodeClass::Volunteer,
                        location: GeoPoint::new(44.9, -93.2),
                        attached_users: 1,
                        load_score: 0.5,
                    },
                    listen_addr: "127.0.0.1:9003".into(),
                    age_us: 1_500_000,
                }],
            },
        ];
        for msg in requests {
            let text = armada_json::to_string(&msg);
            let back: Request = armada_json::from_str(&text).unwrap();
            assert_eq!(back, msg, "{text}");
        }
    }

    #[test]
    fn every_response_variant_roundtrips() {
        let responses = vec![
            Response::Registered,
            Response::HeartbeatAck,
            Response::Candidates {
                nodes: vec![(1, "127.0.0.1:9001".into()), (2, "127.0.0.1:9002".into())],
            },
            Response::RttPong,
            Response::ProbeReply {
                whatif_us: 42_000,
                current_us: 31_000,
                attached: 2,
                seq: 9,
            },
            Response::JoinResult { accepted: true },
            Response::Ack,
            Response::FrameResult {
                seq: 3,
                processing_us: 27_500,
            },
            Response::SyncAck { applied: 4 },
            Response::Error {
                message: "node shutting down".into(),
            },
            Response::Busy {
                retry_after_ms: 250,
            },
        ];
        for msg in responses {
            let text = armada_json::to_string(&msg);
            let back: Response = armada_json::from_str(&text).unwrap();
            assert_eq!(back, msg, "{text}");
        }
    }

    #[test]
    fn wire_status_serialises() {
        let s = WireNodeStatus {
            id: 3,
            class: NodeClass::Volunteer,
            location: GeoPoint::new(44.9, -93.2),
            attached_users: 1,
            load_score: 0.5,
        };
        let json = armada_json::to_string(&s);
        let back: WireNodeStatus = armada_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
