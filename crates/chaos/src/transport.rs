//! A fault-injecting wrapper around live byte streams.

use std::io::{self, Write};

use crate::hash::{mix, unit};
use crate::plan::LinkFaults;

/// Wraps a byte sink and applies [`LinkFaults`] to every outgoing frame
/// at the socket boundary.
///
/// The live protocol issues one `write` call per length-prefixed frame,
/// so each write is treated as one frame: it may be swallowed (drop),
/// held back with a sleep (delay/reorder budget), bit-flipped
/// (corrupt) or written twice (duplicate). Decisions hash
/// `(seed, frame sequence)` — the same deterministic scheme the
/// simulator uses — so a faulty transport replays identically under a
/// fixed seed. A hard partition is [`crate::ChaosProxy::set_partitioned`]'s
/// job.
///
/// # Examples
///
/// ```
/// use armada_chaos::{FaultyTransport, LinkFaults};
/// use std::io::Write;
///
/// let sink: Vec<u8> = Vec::new();
/// let mut t = FaultyTransport::new(sink, LinkFaults::lossy(1.0), 9);
/// t.write_all(b"doomed frame").unwrap();     // swallowed, not an error
/// assert!(t.get_ref().is_empty());
/// ```
#[derive(Debug)]
pub struct FaultyTransport<S> {
    inner: S,
    faults: LinkFaults,
    seed: u64,
    seq: u64,
}

impl<S> FaultyTransport<S> {
    /// Wraps `inner`, applying `faults` to frames under `seed`.
    pub fn new(inner: S, faults: LinkFaults, seed: u64) -> Self {
        FaultyTransport {
            inner,
            faults,
            seed,
            seq: 0,
        }
    }

    /// The wrapped stream.
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    /// Unwraps the inner stream.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: Write> Write for FaultyTransport<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let seq = self.seq;
        self.seq += 1;
        let draw = |salt: u64| unit(mix(self.seed, 0x7fa17, seq, salt));

        if draw(1) < self.faults.drop.clamp(0.0, 1.0) {
            // Swallowed in flight: report success, deliver nothing. The
            // receiver discovers the loss by timeout, as on a real link.
            return Ok(buf.len());
        }
        if self.faults.delay_us > 0 && draw(2) < self.faults.delay.clamp(0.0, 1.0) {
            std::thread::sleep(std::time::Duration::from_micros(self.faults.delay_us));
        }
        let copies = if draw(5) < self.faults.duplicate.clamp(0.0, 1.0) {
            2
        } else {
            1
        };
        if draw(6) < self.faults.corrupt.clamp(0.0, 1.0) && !buf.is_empty() {
            let mut corrupted = buf.to_vec();
            let at = (mix(self.seed, 0x7fa17, seq, 9) as usize) % corrupted.len();
            let bit = 1u8 << (mix(self.seed, 0x7fa17, seq, 10) % 8);
            corrupted[at] ^= bit;
            for _ in 0..copies {
                self.inner.write_all(&corrupted)?;
            }
            return Ok(buf.len());
        }
        for _ in 0..copies {
            self.inner.write_all(buf)?;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_faults_pass_bytes_through() {
        let mut t = FaultyTransport::new(Vec::new(), LinkFaults::NONE, 1);
        t.write_all(b"hello").unwrap();
        t.write_all(b" world").unwrap();
        assert_eq!(t.get_ref().as_slice(), b"hello world");
    }

    #[test]
    fn full_drop_swallows_every_frame() {
        let mut t = FaultyTransport::new(Vec::new(), LinkFaults::lossy(1.0), 1);
        for _ in 0..10 {
            t.write_all(b"frame").unwrap();
        }
        assert!(t.get_ref().is_empty());
        assert_eq!(t.seq, 10);
    }

    #[test]
    fn corruption_flips_exactly_one_bit_per_frame() {
        let faults = LinkFaults {
            corrupt: 1.0,
            ..LinkFaults::NONE
        };
        let mut t = FaultyTransport::new(Vec::new(), faults, 3);
        let frame = [0u8; 16];
        t.write_all(&frame).unwrap();
        let written = t.into_inner();
        assert_eq!(written.len(), 16);
        let flipped: u32 = written.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn duplication_writes_the_frame_twice() {
        let faults = LinkFaults {
            duplicate: 1.0,
            ..LinkFaults::NONE
        };
        let mut t = FaultyTransport::new(Vec::new(), faults, 4);
        t.write_all(b"abcd").unwrap();
        assert_eq!(t.get_ref().as_slice(), b"abcdabcd");
    }

    #[test]
    fn same_seed_makes_identical_fault_sequences() {
        let faults = LinkFaults {
            drop: 0.5,
            ..LinkFaults::NONE
        };
        let run = |seed| {
            let mut t = FaultyTransport::new(Vec::new(), faults, seed);
            for i in 0..32u8 {
                t.write_all(&[i]).unwrap();
            }
            t.into_inner()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
