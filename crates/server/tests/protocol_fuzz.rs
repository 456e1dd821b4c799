//! Property-based fuzzing of the wire surface: arbitrary, truncated, and
//! bit-flipped byte streams must never panic the decoder or desync a live
//! server — every outcome is a typed error, a clean close, or a valid
//! frame.

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Duration;

use lux_core::WireWidget;
use lux_server::protocol::{msg, read_frame, write_frame, Request, Response};
use lux_server::{Client, Server, ServerConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes through the frame reader: error or frame, no panic.
    #[test]
    fn read_frame_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        let _ = read_frame(&mut bytes.as_slice());
    }

    /// Arbitrary payloads through every request decoder: error or value.
    #[test]
    fn request_decode_never_panics(
        msg_type in 0u8..=255,
        payload in proptest::collection::vec(0u8..=255, 0..128),
    ) {
        let _ = Request::decode(msg_type, &payload);
    }

    /// Arbitrary payloads through every response decoder.
    #[test]
    fn response_decode_never_panics(
        msg_type in 0u8..=255,
        payload in proptest::collection::vec(0u8..=255, 0..128),
    ) {
        let _ = Response::decode(msg_type, &payload);
    }

    /// Arbitrary bytes through the widget decoder.
    #[test]
    fn wire_widget_decode_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        let _ = WireWidget::decode(&bytes);
    }

    /// The export op's pair roundtrips for any strings, and every cut of
    /// either payload is a decode error rather than a panic or a value.
    #[test]
    fn vega_lite_messages_roundtrip_and_reject_truncation(
        name in "[A-Za-z0-9_.-]{1,16}",
        intent in ".{0,24}",
        text in ".{0,96}",
    ) {
        let req = Request::VegaLite { name, intent };
        let (t, p) = req.encode();
        prop_assert_eq!(t, msg::VEGA_LITE);
        prop_assert_eq!(Request::decode(t, &p), Ok(req));
        for cut in 0..p.len() {
            prop_assert!(Request::decode(t, &p[..cut]).is_err());
        }
        let resp = Response::VegaLiteText { text };
        let (t, p) = resp.encode();
        prop_assert_eq!(t, msg::VEGA_LITE_TEXT);
        prop_assert_eq!(Response::decode(t, &p), Ok(resp));
        for cut in 0..p.len() {
            prop_assert!(Response::decode(t, &p[..cut]).is_err());
        }
    }

    /// Well-formed frames roundtrip for any payload and id.
    #[test]
    fn frame_roundtrip_any_payload(
        msg_type in 0u8..=255,
        id in 0u32..=u32::MAX,
        payload in proptest::collection::vec(0u8..=255, 0..512),
    ) {
        let mut buf = Vec::new();
        write_frame(&mut buf, msg_type, id, &payload).unwrap();
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(frame.msg_type, msg_type);
        prop_assert_eq!(frame.request_id, id);
        prop_assert_eq!(frame.payload, payload);
    }

    /// A single flipped bit anywhere after the magic is always detected
    /// (CRC or a failed structural check), never silently accepted as the
    /// original frame.
    #[test]
    fn bit_flips_never_pass_silently(
        payload in proptest::collection::vec(0u8..=255, 0..64),
        flip_byte in 2usize..80,
        flip_bit in 0u8..8,
    ) {
        let mut buf = Vec::new();
        write_frame(&mut buf, msg::PING, 7, &payload).unwrap();
        let idx = flip_byte % (buf.len() - 2) + 2; // skip the magic
        buf[idx] ^= 1 << flip_bit;
        match read_frame(&mut buf.as_slice()) {
            Ok(frame) => {
                // Only acceptable if the flip landed somewhere that keeps
                // the frame self-consistent — which CRC-32 rules out for
                // single-bit flips over the covered region.
                prop_assert!(
                    false,
                    "single-bit flip at byte {idx} accepted: {frame:?}"
                );
            }
            Err(_) => {}
        }
    }
}

/// Deterministic garbage barrage against a live server: every blob gets a
/// typed error or a close, and the server keeps serving afterwards.
#[test]
fn garbage_barrage_never_kills_the_server() {
    let dir: PathBuf = std::env::temp_dir().join(format!("lux_fuzz_srv_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: dir.clone(),
        read_timeout: Duration::from_millis(300),
        write_timeout: Duration::from_millis(300),
        drain_timeout: Duration::from_millis(2_000),
        max_conns: 64,
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let shutdown = server.shutdown_handle();
    let handle = std::thread::spawn(move || server.run().expect("run"));

    // A deterministic xorshift stream of garbage blobs, including some
    // that start with valid magic and then go wrong.
    let mut seed = 0x5eed_f00du64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    for round in 0..24 {
        let mut blob = Vec::new();
        if round % 3 == 0 {
            blob.extend_from_slice(b"LX"); // valid magic, garbage after
        }
        let len = (next() % 96) as usize;
        for _ in 0..len {
            blob.push((next() & 0xFF) as u8);
        }
        if let Ok(mut raw) = TcpStream::connect(&addr) {
            let _ = raw.set_read_timeout(Some(Duration::from_millis(500)));
            let _ = raw.write_all(&blob);
            // Also exercise the truncated-valid-frame path: write a real
            // header promising more bytes than we send, then hang up.
            if round % 5 == 0 {
                let mut frame = Vec::new();
                write_frame(&mut frame, msg::PING, round as u32, &[0u8; 32]).unwrap();
                let cut = frame.len() / 2;
                let _ = raw.write_all(&frame[..cut]);
            }
            drop(raw);
        }
        // The server survives every round.
        let mut probe = Client::connect(&addr, Duration::from_secs(5)).expect("probe connect");
        probe
            .ping()
            .unwrap_or_else(|e| panic!("server died after round {round}: {e}"));
    }
    // Full request path still works after the barrage.
    let mut c = Client::connect(&addr, Duration::from_secs(5)).expect("connect");
    c.hello("t-fuzz").unwrap();
    c.put_frame("f", "a,b\n1,2\n3,4\n").unwrap();
    match c.print("f", "", 0, 1).unwrap() {
        lux_server::PrintOutcome::Widget(w) => assert_eq!(w.num_rows, 2),
        other => panic!("unexpected outcome {other:?}"),
    }
    // Protocol-error metric moved (at least one of the blobs was seen).
    let errors = lux_engine::MetricsRegistry::global()
        .counter(lux_engine::trace::names::SERVER_PROTOCOL_ERRORS);
    assert!(errors > 0, "expected protocol errors to be counted");
    shutdown.store(true, Ordering::SeqCst);
    handle.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}
