//! Seeded input generation: names, tags, timestamp jitter, query mixes and
//! pre-encoded beat frames. The same seed always yields the same inputs;
//! the program under test only ever sees what is generated here.

use hb_net::wire::HEADER_LEN;
use hb_net::{BatchEncoder, WireBeat};
use heartbeats::{BeatScope, BeatThreadId, HeartbeatRecord, Tag};

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so each consumer
    /// of one run seed draws an independent sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// A wire-valid name `prefix-xxxxxx`.
    pub fn name(&mut self, prefix: &str) -> String {
        format!("{prefix}-{:06x}", self.below(1 << 24))
    }

    /// A beat tag: a quarter of beats carry a tag in `1..65536`, the rest
    /// are untagged.
    pub fn tag(&mut self) -> Tag {
        if self.below(4) == 0 {
            Tag::new(1 + self.below(65_535))
        } else {
            Tag::NONE
        }
    }
}

/// Beats per pre-encoded frame.
pub const FRAME_BEATS: usize = 64;
/// Distinct frame bodies pre-encoded per stream.
const TEMPLATES: usize = 256;
/// First sequence number of a stamped stream. With every sequence in
/// `[2^28, 2^35)` the first record's sequence varint is always 5 bytes.
const SEQ_BASE: u64 = 1 << 28;
/// First timestamp of a stamped stream. With every timestamp in
/// `[2^48, 2^55)` the zigzagged varint is always 8 bytes.
const TS_BASE: u64 = 1 << 48;

/// A pre-encoded compact frame whose deltas stay valid wherever its first
/// record is placed.
#[derive(Debug)]
struct Template {
    bytes: Vec<u8>,
    /// The first record (its sequence and timestamp are re-stamped).
    first: WireBeat,
    /// Encoded length of the first record.
    first_len: usize,
    /// Timestamp step from the previous frame's last beat to this frame's
    /// first beat.
    lead_ns: u64,
    /// Timestamp span from this frame's first beat to its last.
    span_ns: u64,
}

/// Endless monotone stream of v3 compact `Beats` frames for one app.
///
/// The frame bodies are encoded once at set-up with
/// [`BatchEncoder::begin_compact`] from the seeded stream. Compact records
/// are delta-coded against the previous record, so only a frame's first
/// record is absolute: [`stamp`](Self::stamp) re-encodes that one record
/// at the stream's current position and refreshes the CRC, keeping the
/// app's sequence numbers and timestamps monotone across the whole run
/// without holding a run's worth of frames in memory.
#[derive(Debug)]
pub struct FrameStream {
    templates: Vec<Template>,
    next: usize,
    seq: u64,
    last_ts: u64,
    one: BatchEncoder,
}

impl FrameStream {
    /// Pre-encodes the templates. Beat spacing is `interval_ns` plus a
    /// seeded jitter in `0..jitter_ns`; tags follow [`Rng::tag`].
    pub fn new(rng: &mut Rng, interval_ns: u64, jitter_ns: u64) -> FrameStream {
        let mut encoder = BatchEncoder::new();
        let mut templates = Vec::with_capacity(TEMPLATES);
        for _ in 0..TEMPLATES {
            let mut ts = TS_BASE;
            let lead_ns = interval_ns + rng.below(jitter_ns.max(1));
            let beats: Vec<WireBeat> = (0..FRAME_BEATS as u64)
                .map(|k| {
                    if k > 0 {
                        ts += interval_ns + rng.below(jitter_ns.max(1));
                    }
                    WireBeat {
                        record: HeartbeatRecord::new(SEQ_BASE + k, ts, rng.tag(), BeatThreadId(0)),
                        scope: BeatScope::Global,
                    }
                })
                .collect();
            encoder.begin_compact(0);
            encoder.push(&beats[0]);
            let first_len = encoder.finish().len() - HEADER_LEN - 1;
            encoder.begin_compact(0);
            for beat in &beats {
                assert!(encoder.push(beat), "a 64-beat frame always fits");
            }
            templates.push(Template {
                bytes: encoder.finish().to_vec(),
                first: beats[0],
                first_len,
                lead_ns,
                span_ns: ts - TS_BASE,
            });
        }
        FrameStream {
            templates,
            next: 0,
            seq: SEQ_BASE,
            last_ts: TS_BASE,
            one: BatchEncoder::new(),
        }
    }

    /// Appends the next frame to `out` and returns its beat count.
    pub fn stamp(&mut self, out: &mut Vec<u8>) -> usize {
        let template = &self.templates[self.next];
        self.next = (self.next + 1) % self.templates.len();
        let mut first = template.first;
        first.record.seq = self.seq;
        first.record.timestamp_ns = self.last_ts + template.lead_ns;
        self.one.begin_compact(0);
        self.one.push(&first);
        // Header, then the 1-byte `dropped_total = 0` varint, then records.
        let record = &self.one.finish()[HEADER_LEN + 1..];
        let at = out.len();
        out.extend_from_slice(&template.bytes);
        let record_at = at + HEADER_LEN + 1;
        assert_eq!(
            record.len(),
            template.first_len,
            "the re-stamped first record must keep its encoded length"
        );
        out[record_at..record_at + record.len()].copy_from_slice(record);
        let crc = hb_net::crc::crc32(&out[at + HEADER_LEN..]);
        out[at + 10..at + HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
        self.seq += FRAME_BEATS as u64;
        self.last_ts = first.record.timestamp_ns + template.span_ns;
        FRAME_BEATS
    }
}

/// `n` seeded 64-beat batches shaped like a paced producer's: bursts of
/// `burst` beats 20-30 ns apart, `tick_ns` between burst starts.
pub fn paced_batches(rng: &mut Rng, n: usize, burst: u64, tick_ns: u64) -> Vec<Vec<WireBeat>> {
    let mut seq = 0u64;
    let mut ts = TS_BASE;
    (0..n)
        .map(|_| {
            (0..FRAME_BEATS)
                .map(|_| {
                    ts += if seq.is_multiple_of(burst) {
                        tick_ns - burst * 20
                    } else {
                        20 + rng.below(10)
                    };
                    let beat = WireBeat {
                        record: HeartbeatRecord::new(seq, ts, rng.tag(), BeatThreadId(0)),
                        scope: BeatScope::Global,
                    };
                    seq += 1;
                    beat
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_net::frame::FrameEvent;
    use hb_net::FrameDecoder;

    #[test]
    fn same_seed_same_inputs() {
        let draw = |seed| {
            let mut rng = Rng::new(seed, 1);
            (rng.name("app"), rng.next_u64(), rng.tag())
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
    }

    #[test]
    fn stamped_frames_decode_monotone() {
        let mut rng = Rng::new(42, 0);
        let mut stream = FrameStream::new(&mut rng, 100, 50);
        let mut bytes = Vec::new();
        for _ in 0..(TEMPLATES * 2 + 3) {
            stream.stamp(&mut bytes);
        }
        let mut decoder = FrameDecoder::new();
        decoder.push(&bytes);
        let (mut beats, mut prev) = (0u64, None::<(u64, u64)>);
        while let Some(event) = decoder.next_event().expect("stamped frames decode") {
            let FrameEvent::Beats(view) = event else {
                panic!("only beat frames are stamped")
            };
            for beat in view.iter() {
                let now = (beat.record.seq, beat.record.timestamp_ns);
                if let Some((seq, ts)) = prev {
                    assert_eq!(now.0, seq + 1, "sequence is contiguous");
                    assert!(now.1 > ts, "timestamps strictly increase");
                }
                prev = Some(now);
                beats += 1;
            }
        }
        assert_eq!(beats, (TEMPLATES as u64 * 2 + 3) * FRAME_BEATS as u64);
    }

    #[test]
    fn paced_batches_follow_ticks() {
        let batches = paced_batches(&mut Rng::new(1, 0), 4, 50, 1_000_000);
        let beats: Vec<_> = batches.concat();
        assert_eq!(beats.len(), 256);
        assert!(beats
            .windows(2)
            .all(|w| w[1].record.timestamp_ns > w[0].record.timestamp_ns));
        assert!(beats
            .windows(2)
            .all(|w| w[1].record.seq == w[0].record.seq + 1));
    }
}
