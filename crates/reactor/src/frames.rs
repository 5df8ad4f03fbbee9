//! Incremental, bounded framing over non-blocking byte streams.
//!
//! The wire format is armada-wire's: a 4-byte big-endian length prefix
//! followed by the frame body. Unlike the blocking `read_frame_bytes`,
//! nothing here ever waits — [`FrameReader`] accumulates whatever bytes
//! a non-blocking read produced and yields complete frames as they
//! materialise, and [`WriteBuf`] queues outbound frames and resumes
//! partial writes exactly where the kernel buffer cut them off.
//!
//! Both directions are bounded: a hostile or corrupt length prefix is
//! rejected before any allocation, and a slow-reading peer can only
//! accumulate [`WriteBuf`]'s configured backlog before the connection
//! is declared stalled.

use std::io::{Read, Write};

/// Maximum frame body accepted or sent, mirroring armada-wire's
/// `MAX_MESSAGE_BYTES` (the protocol maximum is defined there; this
/// crate is dependency-free, so the constant is restated and pinned by
/// a test in armada-live).
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// How much a single `read` call may pull in: the length of the scratch
/// buffer each reactor loop thread reads through.
pub(crate) const READ_CHUNK: usize = 64 * 1024;

/// A defect that makes the byte stream unrecoverable (framing is lost;
/// the connection must close).
#[derive(Debug)]
pub enum FrameDefect {
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    Oversize {
        /// The length the prefix declared.
        declared: u32,
    },
}

impl std::fmt::Display for FrameDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameDefect::Oversize { declared } => {
                write!(f, "frame length {declared} exceeds {MAX_FRAME_BYTES}")
            }
        }
    }
}

impl std::error::Error for FrameDefect {}

impl From<FrameDefect> for std::io::Error {
    fn from(defect: FrameDefect) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, defect.to_string())
    }
}

/// What one [`FrameReader::fill_via`] call observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fill {
    /// `n` fresh bytes were buffered.
    Bytes(usize),
    /// The peer closed the stream (EOF).
    Eof,
}

/// Accumulates bytes from non-blocking reads and yields complete
/// frames.
///
/// The internal buffer holds only bytes received and not yet popped —
/// reads land in a scratch buffer the caller owns and are appended from
/// there, so an idle connection's reader costs no memory — and is
/// bounded by the declared frame length (itself bounded by
/// [`MAX_FRAME_BYTES`]), so a peer cannot grow it without first
/// committing to a valid prefix.
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Read cursor into `buf`; consumed bytes are compacted lazily.
    start: usize,
}

impl FrameReader {
    /// An empty reader.
    #[must_use]
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Bytes currently buffered but not yet yielded as frames.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Performs one `read` into `scratch` and buffers the bytes it
    /// produced. `WouldBlock` (and every other error) is propagated
    /// untouched, so the caller's readiness loop decides what is
    /// retryable.
    ///
    /// # Errors
    ///
    /// Whatever the underlying `read` returns.
    pub fn fill_via<R: Read + ?Sized>(
        &mut self,
        src: &mut R,
        scratch: &mut [u8],
    ) -> std::io::Result<Fill> {
        let n = src.read(scratch)?;
        if n == 0 {
            return Ok(Fill::Eof);
        }
        self.compact();
        self.buf.extend_from_slice(&scratch[..n]);
        Ok(Fill::Bytes(n))
    }

    /// Pops the next complete frame body (prefix stripped) into `spare`'s
    /// buffer, `Ok(None)` while the frame is still partial.
    ///
    /// # Errors
    ///
    /// [`FrameDefect::Oversize`] for corrupt/hostile prefixes; the
    /// stream has lost framing and must be closed.
    pub fn pop_frame(&mut self, spare: &mut Vec<u8>) -> Result<Option<Vec<u8>>, FrameDefect> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let declared = u32::from_be_bytes([avail[0], avail[1], avail[2], avail[3]]);
        if declared as usize > MAX_FRAME_BYTES {
            return Err(FrameDefect::Oversize { declared });
        }
        let total = 4 + declared as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let mut body = std::mem::take(spare);
        body.clear();
        body.extend_from_slice(&avail[4..total]);
        self.start += total;
        self.compact();
        Ok(Some(body))
    }

    /// Drops consumed bytes once they dominate the buffer, keeping the
    /// amortised copy cost constant.
    fn compact(&mut self) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 4096 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

/// Queues outbound frames and writes as much as the stream accepts,
/// resuming mid-frame on the next writable event.
///
/// The queue is one contiguous run of wire bytes, so a frame costs a
/// copy into it and no allocation of its own; once it drains, the
/// buffer gives back all but 4 KiB of what a burst grew it to.
pub struct WriteBuf {
    /// Complete wire frames (prefix + body), oldest first; the bytes
    /// before `head` are written.
    buf: Vec<u8>,
    /// Write cursor into `buf`; written bytes are compacted lazily.
    head: usize,
    /// Backlog bound; exceeding it means the peer has stalled.
    cap: usize,
}

/// Pushing a frame would exceed the configured backlog: the peer is
/// not draining its side and the connection should be closed.
#[derive(Debug)]
pub struct Backlogged;

/// What a drained [`WriteBuf`] keeps of its capacity.
const KEEP_DRAINED: usize = 4096;

impl WriteBuf {
    /// An empty buffer with the given backlog bound (bytes).
    #[must_use]
    pub fn new(cap: usize) -> Self {
        WriteBuf {
            buf: Vec::new(),
            head: 0,
            cap,
        }
    }

    /// Unwritten bytes queued.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len() - self.head
    }

    /// `true` when everything queued has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Queues one frame (the 4-byte prefix is added here).
    ///
    /// # Errors
    ///
    /// [`Backlogged`] if the bound would be exceeded; oversize bodies
    /// are also refused (nothing partial is queued either way).
    pub fn push_frame(&mut self, body: &[u8]) -> Result<(), Backlogged> {
        if body.len() > MAX_FRAME_BYTES || self.pending() + 4 + body.len() > self.cap {
            return Err(Backlogged);
        }
        if self.head > KEEP_DRAINED && self.head * 2 >= self.buf.len() {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        self.buf
            .extend_from_slice(&(body.len() as u32).to_be_bytes());
        self.buf.extend_from_slice(body);
        Ok(())
    }

    /// Writes until the stream blocks or the queue drains. Returns
    /// `true` when fully drained. `WouldBlock` is absorbed (it is the
    /// expected outcome, not an error); other errors propagate.
    ///
    /// # Errors
    ///
    /// Underlying write errors other than `WouldBlock`/`Interrupted`.
    pub fn write_to<W: Write + ?Sized>(&mut self, dst: &mut W) -> std::io::Result<bool> {
        while self.head < self.buf.len() {
            match dst.write(&self.buf[self.head..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "stream accepted zero bytes",
                    ))
                }
                Ok(n) => self.head += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.buf.shrink_to(KEEP_DRAINED);
        self.head = 0;
        let _ = dst.flush();
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A writer that accepts at most `quota` bytes per call and errors
    /// with `WouldBlock` once `total` bytes have been taken — the shape
    /// of a nearly-full kernel send buffer.
    struct Throttled {
        taken: Vec<u8>,
        quota: usize,
        total: usize,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.taken.len() >= self.total {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.quota).min(self.total - self.taken.len());
            self.taken.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn wire(bodies: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for b in bodies {
            out.extend_from_slice(&(b.len() as u32).to_be_bytes());
            out.extend_from_slice(b);
        }
        out
    }

    /// The satellite contract: a frame split across arbitrarily many
    /// reads — including a split inside the length prefix — reassembles
    /// byte-identically.
    #[test]
    fn partial_frames_resume_across_split_reads() {
        let stream = wire(&[b"hello", b"", b"worldly payload"]);
        // Every possible split point of the whole stream, fed in two
        // chunks.
        for split in 0..=stream.len() {
            let mut reader = FrameReader::new();
            let mut got: Vec<Vec<u8>> = Vec::new();
            for chunk in [&stream[..split], &stream[split..]] {
                let mut src = Cursor::new(chunk.to_vec());
                loop {
                    match reader.fill_via(&mut src, &mut [0u8; 4096]).unwrap() {
                        Fill::Eof => break,
                        Fill::Bytes(_) => {}
                    }
                    while let Some(frame) = reader.pop_frame(&mut Vec::new()).unwrap() {
                        got.push(frame);
                    }
                }
            }
            while let Some(frame) = reader.pop_frame(&mut Vec::new()).unwrap() {
                got.push(frame);
            }
            assert_eq!(
                got,
                vec![b"hello".to_vec(), b"".to_vec(), b"worldly payload".to_vec()],
                "split at {split}"
            );
        }
    }

    #[test]
    fn one_byte_at_a_time_still_frames() {
        let stream = wire(&[b"abc"]);
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        for byte in stream {
            let mut src = Cursor::new(vec![byte]);
            assert_eq!(
                reader.fill_via(&mut src, &mut [0u8; 4096]).unwrap(),
                Fill::Bytes(1)
            );
            while let Some(f) = reader.pop_frame(&mut Vec::new()).unwrap() {
                frames.push(f);
            }
        }
        assert_eq!(frames, vec![b"abc".to_vec()]);
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn oversize_prefix_is_rejected_before_allocation() {
        let mut reader = FrameReader::new();
        let mut src = Cursor::new(0xFFFF_FFFFu32.to_be_bytes().to_vec());
        reader.fill_via(&mut src, &mut [0u8; 4096]).unwrap();
        assert!(matches!(
            reader.pop_frame(&mut Vec::new()),
            Err(FrameDefect::Oversize {
                declared: 0xFFFF_FFFF
            })
        ));
    }

    /// A source that hands out `stream` in reads of the given lengths
    /// (the last one repeating), whatever buffer it is offered.
    struct Dribble<'a> {
        stream: &'a [u8],
        reads: Vec<usize>,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let want = if self.reads.len() > 1 {
                self.reads.remove(0)
            } else {
                self.reads[0]
            };
            let n = want.min(buf.len()).min(self.stream.len());
            buf[..n].copy_from_slice(&self.stream[..n]);
            self.stream = &self.stream[n..];
            Ok(n)
        }
    }

    /// Frames pop out the same however the byte stream was cut into
    /// reads — one byte, mid-prefix, many frames at once, or more than
    /// the scratch holds — through either fill call.
    #[test]
    fn random_read_boundaries_never_change_the_frames() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |below: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % below as u64) as usize
        };
        for round in 0..200 {
            let bodies: Vec<Vec<u8>> = (0..1 + draw(6))
                .map(|_| {
                    let len = [0, 1, 3, 12, 300, 5_000, 70_000][draw(7)];
                    (0..len).map(|i| (i + round) as u8).collect()
                })
                .collect();
            let refs: Vec<&[u8]> = bodies.iter().map(Vec::as_slice).collect();
            let stream = wire(&refs);
            let mut reads: Vec<usize> = (0..draw(12)).map(|_| 1 + draw(9_000)).collect();
            reads.push(1 + draw(100_000));
            let mut src = Dribble {
                stream: &stream,
                reads,
            };
            let mut scratch = vec![0u8; 1 + draw(20_000)];
            let mut reader = FrameReader::new();
            let mut got = Vec::new();
            loop {
                let fill = match round % 2 {
                    0 => reader.fill_via(&mut src, &mut scratch),
                    _ => reader.fill_via(&mut src, &mut [0u8; 4096]),
                };
                if fill.unwrap() == Fill::Eof {
                    break;
                }
                while let Some(frame) = reader.pop_frame(&mut Vec::new()).unwrap() {
                    got.push(frame);
                }
            }
            assert_eq!(got, bodies, "round {round}");
            assert_eq!(reader.buffered(), 0);
        }
    }

    /// The reader's memory tracks what it holds: twelve bytes received
    /// cost twelve bytes' worth of buffer, not a read chunk, and a
    /// maximum-size frame still round-trips through a loop's scratch.
    #[test]
    fn the_buffer_is_as_large_as_what_it_holds() {
        let mut scratch = vec![0u8; READ_CHUNK];
        let mut reader = FrameReader::new();
        let small = wire(&[&[7u8; 12]]);
        reader
            .fill_via(&mut Cursor::new(small), &mut scratch)
            .unwrap();
        assert_eq!(
            reader.pop_frame(&mut Vec::new()).unwrap(),
            Some(vec![7u8; 12])
        );
        assert!(reader.buf.capacity() <= 4096, "{}", reader.buf.capacity());

        let body: Vec<u8> = (0..MAX_FRAME_BYTES).map(|i| i as u8).collect();
        let mut src = Cursor::new(wire(&[&body]));
        let mut popped = None;
        while reader.fill_via(&mut src, &mut scratch).unwrap() != Fill::Eof {
            popped = popped.or(reader.pop_frame(&mut Vec::new()).unwrap());
        }
        assert_eq!(popped, Some(body));
    }

    /// The writer's memory tracks what it holds as well: a twelve-byte
    /// frame costs a small buffer, a maximum-size one still leaves in
    /// order across partial writes and a frame queued behind it, and
    /// once everything is out no more than 4 KiB stays behind.
    #[test]
    fn the_write_buffer_is_as_large_as_what_it_holds() {
        let mut buf = WriteBuf::new(2 * MAX_FRAME_BYTES);
        let mut sink = Throttled {
            taken: Vec::new(),
            quota: usize::MAX,
            total: usize::MAX,
        };
        buf.push_frame(&[7u8; 12]).unwrap();
        assert!(buf.buf.capacity() <= 4096, "{}", buf.buf.capacity());
        assert!(buf.write_to(&mut sink).unwrap());

        let body: Vec<u8> = (0..MAX_FRAME_BYTES).map(|i| i as u8).collect();
        buf.push_frame(&body).unwrap();
        (sink.quota, sink.total) = (70_000, 700_000);
        assert!(!buf.write_to(&mut sink).unwrap());
        buf.push_frame(b"behind").unwrap();
        sink.total = usize::MAX;
        assert!(buf.write_to(&mut sink).unwrap());
        assert_eq!(sink.taken, wire(&[&[7u8; 12], &body, b"behind"]));
        assert!(buf.buf.capacity() <= 4096, "{}", buf.buf.capacity());
    }

    /// The satellite contract, write side: a frame cut off mid-body by
    /// a full kernel buffer resumes at the exact byte on the next
    /// writable event, and frame order is preserved.
    #[test]
    fn partial_writes_resume_where_they_stopped() {
        let mut buf = WriteBuf::new(1 << 16);
        buf.push_frame(b"first-frame").unwrap();
        buf.push_frame(b"second").unwrap();
        let expect = wire(&[b"first-frame", b"second"]);

        let mut sink = Throttled {
            taken: Vec::new(),
            quota: 3,
            total: 7, // stop mid-way through the first frame
        };
        assert!(!buf.write_to(&mut sink).unwrap(), "must report undrained");
        assert_eq!(sink.taken, expect[..7]);
        assert_eq!(buf.pending(), expect.len() - 7);

        // The "socket" opens up: everything else goes out, in order.
        sink.total = usize::MAX;
        assert!(buf.write_to(&mut sink).unwrap());
        assert_eq!(sink.taken, expect);
        assert!(buf.is_empty());
    }

    #[test]
    fn backlog_bound_refuses_not_truncates() {
        let mut buf = WriteBuf::new(32);
        buf.push_frame(&[7u8; 20]).unwrap(); // 24 bytes on the wire
        assert!(buf.push_frame(&[7u8; 20]).is_err(), "would exceed cap");
        assert_eq!(buf.pending(), 24, "refused frame left no residue");
    }
}
