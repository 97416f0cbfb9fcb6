//! Randomized property tests for the wire protocol: encode→decode equality
//! for records, batches and every frame kind, plus rejection of malformed
//! and corrupted frames.

use proptest::prelude::*;

use hb_net::wire::{BatchEncoder, BeatBatch, BeatsView, Frame, Hello, WireBeat, HEADER_LEN};
use hb_net::{FrameReader, FrameWriter};
use heartbeats::{BeatScope, BeatThreadId, HeartbeatRecord, Tag};

/// Deterministically expands compact random tuples into a WireBeat.
fn beat_from(parts: (u64, u64, u64, u32, bool)) -> WireBeat {
    let (seq, timestamp_ns, tag, thread, local) = parts;
    WireBeat {
        record: HeartbeatRecord::new(seq, timestamp_ns, Tag::new(tag), BeatThreadId(thread)),
        scope: if local {
            BeatScope::Local
        } else {
            BeatScope::Global
        },
    }
}

/// Expands one random seed into an adversarial record: non-monotone
/// timestamps, maximal sequence/tag jumps, a mix of elided (NONE) and
/// explicit tags, both scopes, arbitrary thread ids.
fn adversarial_beat(i: usize, s: u64) -> WireBeat {
    beat_from((
        s,
        s.rotate_left((i % 64) as u32),
        if s.is_multiple_of(3) { 0 } else { s ^ 0x5A5A },
        (s >> 32) as u32,
        s.is_multiple_of(2),
    ))
}

/// Encodes a batch with the compact (version-3) delta/varint framing.
fn encode_compact(batch: &BeatBatch) -> Vec<u8> {
    let mut encoder = BatchEncoder::new();
    encoder.begin_compact(batch.dropped_total);
    for beat in &batch.beats {
        assert!(encoder.push(beat), "test batches fit one compact frame");
    }
    encoder.finish().to_vec()
}

proptest! {
    /// Any single record round-trips exactly through a batch frame.
    #[test]
    fn single_record_roundtrip(
        seq in any::<u64>(),
        timestamp_ns in any::<u64>(),
        tag in any::<u64>(),
        thread in any::<u32>(),
        local in any::<bool>(),
        dropped in any::<u64>(),
    ) {
        let frame = Frame::Beats(BeatBatch {
            dropped_total: dropped,
            beats: vec![beat_from((seq, timestamp_ns, tag, thread, local))],
        });
        let bytes = frame.encode();
        let (decoded, used) = Frame::decode(&bytes).unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(decoded, frame);
    }

    /// Whole batches of arbitrary size round-trip exactly.
    #[test]
    fn batch_roundtrip(
        seqs in prop::collection::vec(any::<u64>(), 0..200),
        dropped in any::<u64>(),
    ) {
        let beats: Vec<WireBeat> = seqs
            .iter()
            .enumerate()
            .map(|(i, &s)| beat_from((i as u64, s, s ^ 0xABCD, (s % 97) as u32, s % 2 == 0)))
            .collect();
        let frame = Frame::Beats(BeatBatch { dropped_total: dropped, beats });
        let (decoded, _) = Frame::decode(&frame.encode()).unwrap();
        prop_assert_eq!(decoded, frame);
    }

    /// Hello frames round-trip for arbitrary (short) names.
    #[test]
    fn hello_roundtrip(
        pid in any::<u32>(),
        window in any::<u32>(),
        name_seed in prop::collection::vec(97u8..123, 1..64),
    ) {
        let app = String::from_utf8(name_seed).unwrap();
        let frame = Frame::Hello(Hello { app, pid, default_window: window });
        let (decoded, _) = Frame::decode(&frame.encode()).unwrap();
        prop_assert_eq!(decoded, frame);
    }

    /// Target frames round-trip bit-exactly for finite rates.
    #[test]
    fn target_roundtrip(min in -1.0e12f64..1.0e12, width in 0.0f64..1.0e12) {
        let frame = Frame::Target { min_bps: min, max_bps: min + width };
        let (decoded, _) = Frame::decode(&frame.encode()).unwrap();
        prop_assert_eq!(decoded, frame);
    }

    /// A stream of many frames survives a writer/reader round trip in order.
    #[test]
    fn stream_roundtrip(batch_sizes in prop::collection::vec(0usize..30, 1..20)) {
        let frames: Vec<Frame> = batch_sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                Frame::Beats(BeatBatch {
                    dropped_total: i as u64,
                    beats: (0..n)
                        .map(|j| beat_from((j as u64, j as u64 * 31 + i as u64, 0, 0, false)))
                        .collect(),
                })
            })
            .collect();
        let mut wire = Vec::new();
        {
            let mut writer = FrameWriter::new(&mut wire);
            for frame in &frames {
                writer.write_frame(frame).unwrap();
            }
        }
        let mut reader = FrameReader::new(wire.as_slice());
        for frame in &frames {
            prop_assert_eq!(reader.read_frame().unwrap().as_ref(), Some(frame));
        }
        prop_assert_eq!(reader.read_frame().unwrap(), None);
    }

    /// Flipping any single byte of an encoded frame never yields a DIFFERENT
    /// valid frame: decoding either fails or returns the original.
    #[test]
    fn single_byte_corruption_is_never_misread(
        seqs in prop::collection::vec(any::<u64>(), 1..20),
        corrupt_at_fraction in 0.0f64..1.0,
        flip_bit in 0u8..8,
    ) {
        let frame = Frame::Beats(BeatBatch {
            dropped_total: 1,
            beats: seqs
                .iter()
                .map(|&s| beat_from((s, s.wrapping_mul(3), s, 1, false)))
                .collect(),
        });
        let mut bytes = frame.encode();
        let at = ((bytes.len() as f64 * corrupt_at_fraction) as usize).min(bytes.len() - 1);
        bytes[at] ^= 1 << flip_bit;
        match Frame::decode(&bytes) {
            Err(_) => {}
            Ok((decoded, _)) => prop_assert_eq!(decoded, frame, "corruption at byte {}", at),
        }
    }

    /// Truncating an encoded frame anywhere always fails to decode.
    #[test]
    fn truncation_is_always_rejected(
        seqs in prop::collection::vec(any::<u64>(), 1..20),
        cut_fraction in 0.0f64..1.0,
    ) {
        let frame = Frame::Beats(BeatBatch {
            dropped_total: 0,
            beats: seqs.iter().map(|&s| beat_from((s, s, s, 0, true))).collect(),
        });
        let bytes = frame.encode();
        let cut = ((bytes.len() as f64 * cut_fraction) as usize).min(bytes.len() - 1);
        prop_assert!(Frame::decode(&bytes[..cut]).is_err());
    }

    /// Random byte soup never decodes as a frame (the magic plus CRC make
    /// accidental acceptance practically impossible).
    #[test]
    fn random_bytes_are_rejected(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Reject only inputs that do not start with the real magic/version.
        if bytes.len() >= HEADER_LEN
            && bytes[..4] == hb_net::wire::MAGIC.to_le_bytes()
        {
            return Ok(());
        }
        prop_assert!(Frame::decode(&bytes).is_err());
    }

    /// Arbitrary batches — non-monotone timestamps, maximal varint
    /// seq/tag jumps, empty batches included — round-trip exactly through
    /// the compact (version-3) encoding.
    #[test]
    fn compact_batch_roundtrip(
        seeds in prop::collection::vec(any::<u64>(), 0..200),
        dropped in any::<u64>(),
    ) {
        let beats: Vec<WireBeat> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| adversarial_beat(i, s))
            .collect();
        let batch = BeatBatch { dropped_total: dropped, beats };
        let bytes = encode_compact(&batch);
        let (decoded, used) = Frame::decode(&bytes).unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(decoded, Frame::Beats(batch));
    }

    /// The borrowing view and the materialized decode agree on every
    /// compact batch (and the view's length is exact).
    #[test]
    fn compact_view_matches_materialized_decode(
        seeds in prop::collection::vec(any::<u64>(), 0..100),
    ) {
        let beats: Vec<WireBeat> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| adversarial_beat(i, s))
            .collect();
        let batch = BeatBatch { dropped_total: 9, beats };
        let bytes = encode_compact(&batch);
        let (kind, payload_len, _) = Frame::decode_header(&bytes).unwrap();
        let view = BeatsView::parse(kind, &bytes[HEADER_LEN..HEADER_LEN + payload_len]).unwrap();
        prop_assert_eq!(view.len(), batch.beats.len());
        let collected: Vec<WireBeat> = view.iter().collect();
        prop_assert_eq!(collected, batch.beats);
    }

    /// Flipping any single byte of a compact frame never yields a
    /// DIFFERENT valid batch: decoding either fails or returns the
    /// original (the CRC catches everything the varint grammar might
    /// accept).
    #[test]
    fn compact_single_byte_corruption_is_never_misread(
        seeds in prop::collection::vec(any::<u64>(), 1..30),
        corrupt_at_fraction in 0.0f64..1.0,
        flip_bit in 0u8..8,
    ) {
        let beats: Vec<WireBeat> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| adversarial_beat(i, s))
            .collect();
        let batch = BeatBatch { dropped_total: 1, beats };
        let reference = Frame::Beats(batch.clone());
        let mut bytes = encode_compact(&batch);
        let at = ((bytes.len() as f64 * corrupt_at_fraction) as usize).min(bytes.len() - 1);
        bytes[at] ^= 1 << flip_bit;
        match Frame::decode(&bytes) {
            Err(_) => {}
            Ok((decoded, _)) => prop_assert_eq!(decoded, reference, "corruption at byte {}", at),
        }
    }

    /// A well-behaved stream (monotone seq, bounded jitter, untagged)
    /// always beats the fixed-width encoding by a wide margin: at most 8
    /// bytes per beat against 29.
    #[test]
    fn compact_monotone_stream_stays_small(
        jitters in prop::collection::vec(0u64..2_000_000, 2..200),
    ) {
        let mut ts = 1_700_000_000_000_000_000u64;
        let beats: Vec<WireBeat> = jitters
            .iter()
            .enumerate()
            .map(|(i, &j)| {
                ts += j;
                beat_from((i as u64, ts, 0, 0, false))
            })
            .collect();
        let n = beats.len();
        let batch = BeatBatch { dropped_total: 0, beats };
        let bytes = encode_compact(&batch);
        // Header + dropped varint + first record's absolute timestamp are
        // amortized; per-record cost must stay under 8 bytes.
        prop_assert!(
            bytes.len() <= HEADER_LEN + 11 + 10 + n * 8,
            "{} beats took {} bytes",
            n,
            bytes.len()
        );
    }
}

/// A representative multi-frame stream covering the federation-hardening
/// surface: versioned NodeHello with a path vector, the challenge/response
/// pair, a cursored Subscribe, a cursored Event inside and outside the
/// relay envelope, plus plain beats and acks.
fn federation_stream() -> Vec<u8> {
    use hb_net::wire::{EventFrame, EventPayload, SubscribeReq, AUTH_LEN};
    let event = EventFrame {
        sub_id: 7,
        sent_at_ns: 1_700_000_000_000_000_000,
        cursor: 42,
        app: "edge/camera".into(),
        payload: EventPayload::Beats {
            dropped_total: 3,
            beats: (0..4).map(|i| adversarial_beat(i, 0x9E37_79B9 + i as u64)).collect(),
        },
    };
    let frames = vec![
        Frame::NodeHello {
            node: "edge".into(),
            pid: 4242,
            path: vec!["edge".into(), "leaf-a".into(), "leaf-b".into()],
        },
        Frame::NodeChallenge { nonce: [0xA5; AUTH_LEN] },
        Frame::NodeAuth { mac: [0x5A; AUTH_LEN] },
        Frame::Subscribe(SubscribeReq {
            sub_id: 7,
            pattern: "edge/*".into(),
            interests: 0x07,
            min_interval_ns: 1_000_000,
            resume_from: 41,
        }),
        Frame::Event(event.clone()),
        Frame::RelayEvent { seq: 9, event },
        Frame::RelayAck { last_applied: 9 },
        Frame::Beats(BeatBatch {
            dropped_total: 1,
            beats: (0..8).map(|i| adversarial_beat(i, i as u64 * 0x517C_C1B7)).collect(),
        }),
    ];
    let mut stream = Vec::new();
    for frame in &frames {
        stream.extend_from_slice(&frame.encode());
    }
    stream
}

proptest! {
    /// Decoder survival under faultnet mangling: feed a valid federation
    /// stream through [`hb_net::faultnet::mangle`] (truncation plus random
    /// bit flips) in arbitrary chunk sizes. Corruption must surface as a
    /// decode error or a clean early end of stream — never a panic. This
    /// is the offline twin of the chaos test's in-flight corruption.
    #[test]
    fn mangled_streams_never_panic_the_decoder(
        seed in any::<u64>(),
        chunk in 1usize..512,
    ) {
        let mangled = hb_net::faultnet::mangle(seed, &federation_stream());

        // One-shot decode of the mangled head: Ok or Err, never a panic.
        let _ = Frame::decode(&mangled);

        // Incremental decode in adversarial chunk sizes: frames before the
        // first corruption may decode; the stream then errors or ends.
        let mut decoder = hb_net::FrameDecoder::new();
        let mut dead = false;
        for part in mangled.chunks(chunk) {
            if dead {
                break;
            }
            decoder.push(part);
            loop {
                match decoder.next_event() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
        }
    }
}

/// Expands one random seed into a history sample with a finite-or-absent
/// rate (NaN is the wire's None sentinel, so `Some(NaN)` is unrepresentable).
fn sample_from(s: u64) -> hb_net::HistorySample {
    hb_net::HistorySample {
        seq: s,
        timestamp_ns: s.rotate_left(17),
        tag: s ^ 0xA5A5,
        interval_ns: s >> 3,
        rate_bps: if s.is_multiple_of(2) {
            None
        } else {
            Some((s % 100_000) as f64 / 7.0)
        },
    }
}

proptest! {
    /// Every query/control frame kind round-trips exactly: Bye, one Query
    /// frame per query-port command, HelloAck, SubAck and Unsubscribe.
    /// Keeps the long tail of small frames honest — no kind ships without
    /// an encode→decode property (hb-lint's wire-kind check enforces this
    /// coverage). Reply fragments are covered by the reply property below.
    #[test]
    fn control_frames_roundtrip(
        name_seed in prop::collection::vec(97u8..123, 1..16),
        limit in any::<u32>(),
        width_ms in any::<u64>(),
        max_version in any::<u8>(),
        sub_id in any::<u32>(),
        status_byte in 0u8..3,
    ) {
        use hb_net::wire::SubStatus;
        use hb_net::Query;

        let app = String::from_utf8(name_seed).unwrap();
        let queries = vec![
            Query::Ping,
            Query::Version,
            Query::Help,
            Query::List,
            Query::Get { app: app.clone() },
            Query::History { app: app.clone(), limit },
            Query::Health { app: Some(app.clone()) },
            Query::Health { app: None },
            Query::Metrics,
            Query::Stats,
            Query::Heatmap { buckets: limit, width_ms },
            Query::Trace { limit },
            Query::Quit,
        ];
        let mut frames: Vec<Frame> = queries.into_iter().map(Frame::Query).collect();
        frames.extend([
            Frame::Bye,
            Frame::HelloAck { max_version },
            Frame::SubAck { sub_id, status: SubStatus::from_u8(status_byte).unwrap() },
            Frame::Unsubscribe { sub_id },
        ]);
        for frame in frames {
            let bytes = frame.encode();
            let (decoded, used) = Frame::decode(&bytes).unwrap();
            prop_assert_eq!(used, bytes.len());
            prop_assert_eq!(decoded, frame);
        }
    }

    /// Every Reply variant crosses the wire whole: encoded as Reply frames
    /// (kind 6), decoded one frame at a time and reassembled. A text reply
    /// longer than MAX_PAYLOAD splits into several frames, every one but
    /// the last flagged `more`.
    #[test]
    fn replies_roundtrip_through_frames(
        name_seed in prop::collection::vec(97u8..123, 1..16),
        counters in prop::collection::vec(any::<u64>(), 20..21),
        total in any::<u64>(),
        sample_seeds in prop::collection::vec(any::<u64>(), 0..5),
        health_sel in 0u8..4,
        window_beats in any::<u32>(),
        silent_ns in any::<u64>(),
        flags in any::<u8>(),
        text_tail in 0usize..4096,
        text_frames in 0usize..3,
    ) {
        use hb_net::query::read_reply;
        use hb_net::{AppSnapshot, CollectorStats, HealthReason, HealthReport, HealthStatus, HistoryChunk, Reply};

        let app = String::from_utf8(name_seed).unwrap();
        let c = |i: usize| counters[i];
        let report = HealthReport {
            status: HealthStatus::from_u8(health_sel).unwrap(),
            reasons: if health_sel == 3 {
                vec![]
            } else {
                vec![HealthReason::Silent, HealthReason::SequenceAnomaly]
            },
            window_beats,
            window_rate_bps: if window_beats.is_multiple_of(2) {
                None
            } else {
                Some(f64::from(window_beats) / 3.0)
            },
            jitter_cv: if window_beats.is_multiple_of(3) {
                Some(f64::from(window_beats % 1000) / 999.0)
            } else {
                None
            },
            missing: window_beats / 7,
            duplicated: window_beats / 11,
            reordered: window_beats / 13,
            silent_ns,
        };
        let snapshot = AppSnapshot {
            app: app.clone(),
            pid: window_beats,
            window: window_beats / 3,
            total_beats: total,
            local_beats: c(0),
            rate_bps: (flags & 1 != 0).then(|| f64::from(window_beats) / 7.0),
            mean_interval_ns: (flags & 2 != 0).then(|| c(1) as f64),
            target: (flags & 4 != 0).then(|| (1.5, f64::from(window_beats))),
            producer_dropped: c(2),
            last_timestamp_ns: (flags & 8 != 0).then(|| c(3)),
            connections: window_beats / 5,
            alive: flags & 16 != 0,
        };
        let stats = CollectorStats {
            apps: c(0), connections: c(1), frames: c(2), protocol_errors: c(3),
            io_threads: c(4), evicted: c(5), queries: c(6), subscriptions: c(7),
            events: c(8), events_dropped: c(9), uptime_s: c(10) as f64 / 1e3,
            cross_shard: c(12), origins: c(13), origins_up: c(14),
            has_upstream: flags & 32 != 0, upstream_connected: c(15),
            upstream_forwarded: c(16), upstream_dropped: c(17), upstream_events: c(18),
            upstream_reconnects: c(19), upstream_retransmits: total,
        };
        // A METRICS-like export, 0 to 2 whole frame payloads plus a tail.
        let text_len = text_frames * hb_net::wire::MAX_PAYLOAD + text_tail;
        let line = "hb_app_beats_total{app=\"cam\"} 12345\n";
        let text = line.repeat(text_len / line.len() + 1)[..text_len].to_string();
        let replies = vec![
            Reply::Pong,
            Reply::Version(flags),
            Reply::Apps(vec![app.clone(), format!("{app}-2")]),
            Reply::Snapshot(snapshot),
            Reply::History(HistoryChunk {
                app: app.clone(),
                total,
                samples: sample_seeds.iter().map(|&s| sample_from(s)).collect(),
            }),
            Reply::Health { app: app.clone(), report },
            Reply::Stats(stats),
            Reply::Text(text.clone()),
            Reply::UnknownApp,
            Reply::Bye,
        ];
        for reply in replies {
            let mut bytes = Vec::new();
            reply.encode_frames(&mut bytes);
            let mut frames = Vec::new();
            let mut at = 0;
            while at < bytes.len() {
                let (frame, used) = Frame::decode(&bytes[at..]).unwrap();
                prop_assert!(used - HEADER_LEN <= hb_net::wire::MAX_PAYLOAD);
                frames.push(frame);
                at += used;
            }
            let fragments = frames.len();
            for (i, frame) in frames.iter().enumerate() {
                let more = matches!(frame, Frame::Reply { more: true, .. });
                prop_assert_eq!(more, i + 1 < fragments);
            }
            if matches!(&reply, Reply::Text(_)) && text_len >= hb_net::wire::MAX_PAYLOAD {
                prop_assert!(fragments >= 2, "a long text reply must span frames");
            }
            let mut frames = frames.into_iter();
            let decoded = read_reply(|| frames.next().ok_or(hb_net::NetError::UnexpectedEof)).unwrap();
            prop_assert_eq!(decoded, reply);
        }
    }
}
