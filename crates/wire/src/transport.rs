//! Moving *frames* (encoded message bodies, see [`crate::Codec`])
//! between peers:
//!
//! - on a byte stream, [`write_frame`]/[`read_frame_bytes`] put a 4-byte
//!   big-endian length prefix before each body, and the
//!   `write_request`/`read_response` family layers codecs on top;
//! - [`UdpTransport`] maps one frame to one datagram over a connected
//!   `UdpSocket`, skipping connection setup and Nagle entirely — the
//!   probe path (`RttProbe`/`ProcessProbe`) uses this, through
//!   [`send_request`]/[`recv_response`].

use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, UdpSocket};

use crate::codec::{self, Codec};
use crate::proto::{fill, FrameError, Request, Response, MAX_MESSAGE_BYTES};

/// Writes one length-prefixed frame to a byte stream.
///
/// The prefix and body go out in a single `write_all` — a separate
/// prefix write would sit in a Nagle buffer waiting on the peer's
/// delayed ACK (~40 ms per RPC).
///
/// # Errors
///
/// Propagates I/O errors; rejects bodies over the protocol maximum.
pub fn write_frame<W: Write>(writer: &mut W, body: &[u8]) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(4 + body.len());
    send_framed(writer, &mut frame, |frame| frame.extend_from_slice(body))
}

/// Every framed write: `frame` is cleared, takes a length prefix and
/// the body `append` lays after it, and goes out in one `write_all`.
/// Nothing is written if the body is over the protocol maximum.
fn send_framed<W: Write>(
    writer: &mut W,
    frame: &mut Vec<u8>,
    append: impl FnOnce(&mut Vec<u8>),
) -> std::io::Result<()> {
    frame.clear();
    frame.extend_from_slice(&[0; 4]);
    append(frame);
    let len = u32::try_from(frame.len() - 4)
        .ok()
        .filter(|len| *len <= MAX_MESSAGE_BYTES)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "message too large"))?;
    frame[..4].copy_from_slice(&len.to_be_bytes());
    writer.write_all(frame)?;
    writer.flush()
}

/// Reads one length-prefixed frame from a byte stream.
///
/// # Errors
///
/// [`FrameError::Oversize`] for corrupt/hostile length prefixes,
/// [`FrameError::Truncated`] for mid-frame EOF, [`FrameError::Io`] for
/// transport failures.
pub fn read_frame_bytes<R: Read>(reader: &mut R) -> Result<Vec<u8>, FrameError> {
    let mut body = Vec::new();
    read_frame_into(reader, &mut body)?;
    Ok(body)
}

/// Every framed read: the next frame's body replaces what `body` held.
fn read_frame_into<R: Read>(reader: &mut R, body: &mut Vec<u8>) -> Result<(), FrameError> {
    let mut len_buf = [0u8; 4];
    fill(reader, &mut len_buf)?;
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_MESSAGE_BYTES {
        return Err(FrameError::Oversize { declared: len });
    }
    body.clear();
    body.resize(len as usize, 0);
    fill(reader, body)
}

/// Datagram framing over a connected [`UdpSocket`]: one frame per
/// datagram, no prefix needed.
///
/// Every live message fits a single datagram comfortably (the probe
/// messages this backend exists for are under 20 bytes); the receive
/// buffer is [`MAX_DATAGRAM_BYTES`] long so nothing is silently
/// truncated, and is the transport's own: made by the first receive,
/// reused by every later one. A caller juggling several sockets can
/// receive through [`UdpTransport::get_ref`] into one buffer of its own
/// of that length instead.
#[derive(Debug)]
pub struct UdpTransport {
    socket: UdpSocket,
    buf: Vec<u8>,
}

/// The absolute UDP payload ceiling: a datagram cannot arrive truncated
/// relative to a receive buffer this long.
pub const MAX_DATAGRAM_BYTES: usize = 65_536;

impl UdpTransport {
    /// Binds an ephemeral local socket of `remote`'s address family and
    /// connects it to `remote` (the first of its addresses that takes),
    /// so `send`/`recv` exchange datagrams with that peer only.
    ///
    /// # Errors
    ///
    /// Propagates resolution failures and the last bind/connect failure.
    pub fn connect<A: std::net::ToSocketAddrs>(remote: A) -> std::io::Result<Self> {
        let mut socket = Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "no address to connect to",
        ));
        for remote in remote.to_socket_addrs()? {
            let local: SocketAddr = match remote {
                SocketAddr::V4(_) => (Ipv4Addr::UNSPECIFIED, 0).into(),
                SocketAddr::V6(_) => (Ipv6Addr::UNSPECIFIED, 0).into(),
            };
            socket = UdpSocket::bind(local).and_then(|s| s.connect(remote).map(|()| s));
            if socket.is_ok() {
                break;
            }
        }
        Ok(UdpTransport {
            socket: socket?,
            buf: Vec::new(),
        })
    }

    /// Borrows the underlying socket (e.g. to adjust timeouts).
    pub fn get_ref(&self) -> &UdpSocket {
        &self.socket
    }

    fn send_frame(&mut self, body: &[u8]) -> std::io::Result<()> {
        if body.len() > MAX_MESSAGE_BYTES as usize {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "message too large",
            ));
        }
        self.socket.send(body).map(|_| ())
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, FrameError> {
        self.buf.resize(MAX_DATAGRAM_BYTES, 0);
        let n = self.socket.recv(&mut self.buf).map_err(FrameError::Io)?;
        Ok(self.buf[..n].to_vec())
    }
}

/// Sends one request as one datagram in the given codec.
///
/// # Errors
///
/// Propagates socket errors; rejects bodies over the protocol maximum.
pub fn send_request(
    udp: &mut UdpTransport,
    codec: Codec,
    request: &Request,
) -> std::io::Result<()> {
    udp.send_frame(&codec.encode_request(request))
}

/// Receives one response datagram, auto-detecting its codec.
///
/// # Errors
///
/// Classified through [`FrameError`].
pub fn recv_response(udp: &mut UdpTransport) -> Result<(Response, Codec), FrameError> {
    codec::decode_response(&udp.recv_frame()?)
}

/// Writes one request to a bare byte stream (length-prefixed) in the
/// given codec.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_request<W: Write>(
    writer: &mut W,
    codec: Codec,
    request: &Request,
) -> std::io::Result<()> {
    write_request_via(writer, codec, request, &mut Vec::new())
}

/// [`write_request`] through a caller's buffer: the frame, prefix and
/// all, is laid out in `frame` (whatever it held is dropped), so a
/// caller that keeps the buffer writes a binary request without
/// allocating.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_request_via<W: Write>(
    writer: &mut W,
    codec: Codec,
    request: &Request,
    frame: &mut Vec<u8>,
) -> std::io::Result<()> {
    send_framed(writer, frame, |frame| {
        codec.encode_request_into(request, frame)
    })
}

/// Reads one length-prefixed response from a bare byte stream,
/// auto-detecting its codec.
///
/// # Errors
///
/// Classified through [`FrameError`].
pub fn read_response<R: Read>(reader: &mut R) -> Result<(Response, Codec), FrameError> {
    read_response_via(reader, &mut Vec::new())
}

/// [`read_response`] through a caller's buffer: the body is read into
/// `body` (whatever it held is dropped), so a caller that keeps the
/// buffer reads a reply without allocating for its bytes.
///
/// # Errors
///
/// Classified through [`FrameError`].
pub fn read_response_via<R: Read>(
    reader: &mut R,
    body: &mut Vec<u8>,
) -> Result<(Response, Codec), FrameError> {
    read_frame_into(reader, body)?;
    codec::decode_response(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn framed_roundtrip_both_codecs() {
        let req = Request::Join { user: 7, seq: 42 };
        for codec in [Codec::Json, Codec::Binary] {
            let mut buf = Vec::new();
            write_request(&mut buf, codec, &req).unwrap();
            let body = read_frame_bytes(&mut Cursor::new(buf)).unwrap();
            let (back, detected) = codec::decode_request(&body).unwrap();
            assert_eq!(back, req);
            assert_eq!(detected, codec);
        }
    }

    #[test]
    fn oversized_body_rejected_at_write_time() {
        let body = vec![0u8; MAX_MESSAGE_BYTES as usize + 1];
        let mut sink = Vec::new();
        let err = write_frame(&mut sink, &body).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(sink.is_empty(), "nothing may hit the wire");
    }

    #[test]
    fn udp_transport_roundtrips_a_probe() {
        let server = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let addr = server.local_addr().unwrap();
        let mut client = UdpTransport::connect(addr).unwrap();
        send_request(&mut client, Codec::Binary, &Request::RttProbe).unwrap();

        let mut buf = [0u8; 1500];
        let (n, peer) = server.recv_from(&mut buf).unwrap();
        let (req, codec) = codec::decode_request(&buf[..n]).unwrap();
        assert_eq!(req, Request::RttProbe);
        assert_eq!(codec, Codec::Binary);
        let reply = codec.encode_response(&Response::RttPong);
        server.send_to(&reply, peer).unwrap();

        let (resp, codec) = recv_response(&mut client).unwrap();
        assert_eq!(resp, Response::RttPong);
        assert_eq!(codec, Codec::Binary);
    }

    /// The receive buffer is the UDP payload ceiling long and the
    /// transport's own: the largest datagram IPv4 loopback carries comes
    /// back whole, and a short one after it as short as it was sent.
    #[test]
    fn udp_transport_receives_the_largest_datagram_whole_and_a_short_one_short() {
        let server = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let mut client = UdpTransport::connect(server.local_addr().unwrap()).unwrap();
        client.send_frame(b"hi").unwrap();
        let (_, peer) = server.recv_from(&mut [0u8; 8]).unwrap();

        let largest: Vec<u8> = (0..65_507).map(|i| i as u8).collect();
        server.send_to(&largest, peer).unwrap();
        server.send_to(b"abc", peer).unwrap();
        assert_eq!(client.recv_frame().unwrap(), largest);
        assert_eq!(client.recv_frame().unwrap(), b"abc");
    }

    /// Regression: the local socket was bound to `0.0.0.0` whatever the
    /// remote's family, so connecting it to an IPv6 peer failed — and
    /// the client's probe silently took its TCP fallback every round.
    #[test]
    fn udp_transport_reaches_an_ipv6_peer() {
        let Ok(server) = UdpSocket::bind(("::1", 0)) else {
            eprintln!("skipped: this host has no IPv6 loopback");
            return;
        };
        let mut client = UdpTransport::connect(server.local_addr().unwrap()).unwrap();
        send_request(&mut client, Codec::Binary, &Request::RttProbe).unwrap();
        let mut buf = [0u8; 64];
        let (n, peer) = server.recv_from(&mut buf).unwrap();
        assert_eq!(
            codec::decode_request(&buf[..n]).unwrap().0,
            Request::RttProbe
        );
        let pong = Codec::Binary.encode_response(&Response::RttPong);
        server.send_to(&pong, peer).unwrap();
        assert_eq!(recv_response(&mut client).unwrap().0, Response::RttPong);
    }
}
