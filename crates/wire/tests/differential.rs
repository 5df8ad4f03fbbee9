//! Differential codec suite: every protocol variant must round-trip
//! identically through the JSON and binary codecs, including boundary
//! values neither codec is allowed to mangle (u64::MAX ids, `age_us`
//! past i64::MAX, empty summaries, zero-length candidate lists).
//!
//! The truncation/corruption property tests that armada-live has always
//! run against JSON framing are re-run here against binary framing: a
//! cut or corrupted binary frame must produce a clean error, never a
//! panic and never a silently wrong message.

use std::io::Cursor;

use armada_wire::test_fixtures;
use armada_wire::{
    decode_request, decode_response, read_frame_bytes, read_response, read_response_via,
    write_frame, write_request, write_request_via, Codec, FrameError, Request, Response,
};

use proptest::prelude::*;

fn all_request_fixtures() -> Vec<Request> {
    let mut all = test_fixtures::all_requests();
    all.extend(test_fixtures::boundary_requests());
    all
}

fn all_response_fixtures() -> Vec<Response> {
    let mut all = test_fixtures::all_responses();
    all.extend(test_fixtures::boundary_responses());
    all
}

/// The core differential guarantee: for every variant and every
/// boundary fixture, JSON-decode(JSON-encode(m)) == m ==
/// binary-decode(binary-encode(m)), with zero mismatches.
#[test]
fn every_request_roundtrips_identically_through_both_codecs() {
    for request in all_request_fixtures() {
        for codec in [Codec::Json, Codec::Binary] {
            let body = codec.encode_request(&request);
            let (decoded, detected) = decode_request(&body)
                .unwrap_or_else(|e| panic!("{codec:?} decode failed for {request:?}: {e}"));
            assert_eq!(detected, codec, "codec detection disagreed for {request:?}");
            assert_eq!(decoded, request, "{codec:?} round-trip mismatch");
        }
    }
}

#[test]
fn every_response_roundtrips_identically_through_both_codecs() {
    for response in all_response_fixtures() {
        for codec in [Codec::Json, Codec::Binary] {
            let body = codec.encode_response(&response);
            let (decoded, detected) = decode_response(&body)
                .unwrap_or_else(|e| panic!("{codec:?} decode failed for {response:?}: {e}"));
            assert_eq!(
                detected, codec,
                "codec detection disagreed for {response:?}"
            );
            assert_eq!(decoded, response, "{codec:?} round-trip mismatch");
        }
    }
}

/// The appending encoders are the encoders: for every fixture, in both
/// codecs, `encode_*_into` adds exactly the bytes `encode_*` returns,
/// into an empty buffer and after bytes already in one, which it leaves
/// alone.
#[test]
fn encoding_into_a_buffer_appends_exactly_the_returned_bytes() {
    let prefix = b"already here";
    for codec in [Codec::Json, Codec::Binary] {
        for request in all_request_fixtures() {
            let body = codec.encode_request(&request);
            for held in [&[][..], prefix] {
                let mut out = held.to_vec();
                codec.encode_request_into(&request, &mut out);
                assert_eq!(out[..held.len()], *held, "{codec:?} {request:?}");
                assert_eq!(out[held.len()..], body, "{codec:?} {request:?}");
            }
        }
        for response in all_response_fixtures() {
            let body = codec.encode_response(&response);
            for held in [&[][..], prefix] {
                let mut out = held.to_vec();
                codec.encode_response_into(&response, &mut out);
                assert_eq!(out[..held.len()], *held, "{codec:?} {response:?}");
                assert_eq!(out[held.len()..], body, "{codec:?} {response:?}");
            }
        }
    }
}

/// One buffer reused for every exchange frames what a fresh one does:
/// the stream written through it is byte for byte the one
/// `write_request` writes, and replies read back through it decode to
/// every fixture, however long the one before.
#[test]
fn a_reused_buffer_frames_and_reads_like_a_fresh_one() {
    for codec in [Codec::Json, Codec::Binary] {
        let (mut fresh, mut reused, mut frame) = (Vec::new(), Vec::new(), Vec::new());
        for request in all_request_fixtures() {
            write_request(&mut fresh, codec, &request).unwrap();
            write_request_via(&mut reused, codec, &request, &mut frame).unwrap();
        }
        assert_eq!(reused, fresh, "{codec:?}");

        let mut stream = Vec::new();
        for response in all_response_fixtures() {
            write_frame(&mut stream, &codec.encode_response(&response)).unwrap();
        }
        let mut cursor = Cursor::new(stream);
        for response in all_response_fixtures() {
            let (decoded, detected) = read_response_via(&mut cursor, &mut frame).unwrap();
            assert_eq!(decoded, response);
            assert_eq!(detected, codec);
        }
    }
}

/// The binary codec must actually be smaller — that is its whole
/// reason to exist. Checked per variant so a regression in one message
/// kind cannot hide behind the aggregate.
#[test]
fn binary_bodies_are_never_larger_than_json() {
    for request in test_fixtures::all_requests() {
        let json = Codec::Json.encode_request(&request).len();
        let binary = Codec::Binary.encode_request(&request).len();
        assert!(
            binary < json,
            "binary ({binary}B) >= json ({json}B) for {request:?}"
        );
    }
    for response in test_fixtures::all_responses() {
        let json = Codec::Json.encode_response(&response).len();
        let binary = Codec::Binary.encode_response(&response).len();
        assert!(
            binary < json,
            "binary ({binary}B) >= json ({json}B) for {response:?}"
        );
    }
}

/// Framed round-trips through an in-memory stream, both codecs, both
/// directions: what `serve_connection` and `rpc` actually do.
#[test]
fn framed_streams_carry_every_fixture_in_both_codecs() {
    for codec in [Codec::Json, Codec::Binary] {
        let mut buf = Vec::new();
        for request in all_request_fixtures() {
            write_request(&mut buf, codec, &request).unwrap();
        }
        let mut cursor = Cursor::new(buf);
        for request in all_request_fixtures() {
            let body = read_frame_bytes(&mut cursor).unwrap();
            let (decoded, detected) = decode_request(&body).unwrap();
            assert_eq!(decoded, request);
            assert_eq!(detected, codec);
        }

        let mut buf = Vec::new();
        for response in all_response_fixtures() {
            write_frame(&mut buf, &codec.encode_response(&response)).unwrap();
        }
        let mut cursor = Cursor::new(buf);
        for response in all_response_fixtures() {
            let (decoded, detected) = read_response(&mut cursor).unwrap();
            assert_eq!(decoded, response);
            assert_eq!(detected, codec);
        }
    }
}

/// Every truncation point of every binary frame fails cleanly: either a
/// `Truncated` (cut inside the length prefix or body) — never a panic,
/// never a spurious success.
#[test]
fn binary_frames_fail_cleanly_at_every_truncation_point() {
    for request in all_request_fixtures() {
        let mut frame = Vec::new();
        write_request(&mut frame, Codec::Binary, &request).unwrap();
        for cut in 0..frame.len() {
            let mut cursor = Cursor::new(&frame[..cut]);
            match read_frame_bytes(&mut cursor).and_then(|body| decode_request(&body)) {
                Err(FrameError::Truncated { .. }) => {}
                Err(other) => panic!("cut at {cut}/{} gave {other:?}", frame.len()),
                Ok(_) => panic!("cut at {cut}/{} decoded successfully", frame.len()),
            }
        }
    }
}

proptest! {
    /// Random bytes fed to the binary decoder never panic; they either
    /// decode (fine — the bytes happened to be a valid message) or
    /// error cleanly.
    #[test]
    fn random_bytes_never_panic_the_binary_decoder(bytes in proptest::collection::vec(0u8..=255, 0usize..256)) {
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
    }

    /// Single-byte corruption of a valid binary frame never panics the
    /// framed reader. (It may still decode: flipping a byte inside a
    /// string payload yields a different but valid message.)
    #[test]
    fn corrupted_binary_frames_never_panic(index in 0usize..64, flip in 1u8..=255) {
        for request in test_fixtures::all_requests() {
            let mut frame = Vec::new();
            write_request(&mut frame, Codec::Binary, &request).unwrap();
            let index = index % frame.len();
            frame[index] ^= flip;
            let mut cursor = Cursor::new(&frame);
            let _ = read_frame_bytes(&mut cursor).map(|body| decode_request(&body));
        }
    }
}
