//! `KpiTrace::write_json` against the value-tree encoder: the streamed
//! text must equal `serde_json::to_string(&trace)` byte for byte, for
//! traces that straddle chunk and flag-word boundaries and carry the
//! floats and integers that stress number formatting, and it must decode
//! back to the same records.

use proptest::prelude::*;
use ran::kpi::{Direction, KpiTrace, Modulation, SlotKpi, CHUNK_RECORDS};

/// SplitMix64, so each case is a pure function of its seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.below(options.len() as u64) as usize]
    }
}

/// Floats whose text is easy to get wrong: non-finite (`null`), signed
/// zero, subnormals, integral values (`2.0`), and magnitudes where other
/// formatters switch to exponent notation.
const HOSTILE_F64: [f64; 16] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
    0.0,
    5e-324,
    f64::MIN_POSITIVE / 3.0,
    2.0,
    -7.0,
    1e21,
    1e-7,
    f64::MAX,
    f64::MIN,
    0.1,
    1.0 / 3.0,
    -117.93749999999999,
];

fn float(rng: &mut Mix) -> f64 {
    if rng.below(3) == 0 {
        rng.pick(&HOSTILE_F64)
    } else {
        f64::from_bits(rng.next())
    }
}

fn record(rng: &mut Mix) -> SlotKpi {
    SlotKpi {
        slot: {
            let any = rng.next();
            rng.pick(&[0, 1, 4095, u64::from(u32::MAX), u64::MAX, any])
        },
        time_s: float(rng),
        carrier: rng.pick(&[0, 1, 3, u8::MAX]),
        direction: if rng.below(2) == 0 {
            Direction::Dl
        } else {
            Direction::Ul
        },
        scheduled: rng.below(2) == 0,
        n_prb: rng.pick(&[0, 273, u16::MAX]),
        n_re: rng.pick(&[0, 39_312, u32::MAX]),
        mcs: rng.below(29) as u8,
        modulation: rng.pick(&[
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
            Modulation::Qam256,
        ]),
        layers: rng.pick(&[0, 1, 4, u8::MAX]),
        tbs_bits: rng.pick(&[0, 1_277_992, u32::MAX]),
        delivered_bits: rng.next() as u32,
        is_retx: rng.below(5) == 0,
        block_error: rng.below(7) == 0,
        cqi: rng.below(16) as u8,
        sinr_db: float(rng),
        rsrp_dbm: float(rng),
        rsrq_db: float(rng),
        serving_site: rng.pick(&[0, 5, u32::MAX]),
        queue_bits: rng.pick(&[0, 12_000, u32::MAX]),
        queue_delay_ms: float(rng),
    }
}

fn trace(seed: u64, n: usize) -> KpiTrace {
    let mut rng = Mix(seed);
    (0..n).map(|_| record(&mut rng)).collect()
}

fn streamed(trace: &KpiTrace) -> String {
    let mut out = Vec::new();
    trace.write_json(&mut out).unwrap();
    String::from_utf8(out).unwrap()
}

/// Non-finite floats have no JSON form: they encode as `null` and decode
/// as NaN. Every finite float must come back bit-exact.
fn same_float(original: f64, decoded: f64) -> bool {
    if original.is_finite() {
        original.to_bits() == decoded.to_bits()
    } else {
        decoded.is_nan()
    }
}

fn same_record(a: &SlotKpi, b: &SlotKpi) -> bool {
    let floats = [
        (a.time_s, b.time_s),
        (a.sinr_db, b.sinr_db),
        (a.rsrp_dbm, b.rsrp_dbm),
        (a.rsrq_db, b.rsrq_db),
        (a.queue_delay_ms, b.queue_delay_ms),
    ];
    // Every other field compares exactly once the floats are set aside.
    let without_floats = |r: &SlotKpi| SlotKpi {
        time_s: 0.0,
        sinr_db: 0.0,
        rsrp_dbm: 0.0,
        rsrq_db: 0.0,
        queue_delay_ms: 0.0,
        ..*r
    };
    without_floats(a) == without_floats(b) && floats.iter().all(|&(x, y)| same_float(x, y))
}

fn check(trace: &KpiTrace) -> Result<(), TestCaseError> {
    let text = streamed(trace);
    let reference = serde_json::to_string(trace).unwrap();
    prop_assert!(
        text == reference,
        "{} records: streamed text differs",
        trace.len()
    );
    let back: KpiTrace = serde_json::from_str(&text).unwrap();
    prop_assert_eq!(back.len(), trace.len());
    for (i, (a, b)) in trace.iter().zip(back.iter()).enumerate() {
        prop_assert!(same_record(&a, &b), "record {i}: {a:?} decoded as {b:?}");
    }
    Ok(())
}

#[test]
fn boundary_lengths_match_the_value_encoder() {
    let c = CHUNK_RECORDS;
    for n in [0, 1, 63, 64, 65, c - 1, c, c + 1, 3 * c + 7] {
        for seed in [1, 2] {
            check(&trace(seed ^ n as u64, n)).unwrap();
        }
    }
}

#[test]
fn every_hostile_float_round_trips_in_every_float_column() {
    let records: Vec<SlotKpi> = HOSTILE_F64
        .iter()
        .map(|&x| SlotKpi {
            time_s: x,
            sinr_db: x,
            rsrp_dbm: x,
            rsrq_db: x,
            queue_delay_ms: x,
            ..record(&mut Mix(7))
        })
        .collect();
    let trace: KpiTrace = records.into_iter().collect();
    check(&trace).unwrap();
    let text = streamed(&trace);
    for needle in [
        "null",
        "-0.0",
        "2.0",
        "-7.0",
        "1000000000000000000000.0",
        "0.0000001",
    ] {
        assert!(text.contains(needle), "missing {needle}");
    }
}

#[test]
fn writes_reach_the_sink_in_bounded_pieces() {
    struct Largest(usize);
    impl std::io::Write for Largest {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0 = self.0.max(buf.len());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let long = trace(3, 5 * CHUNK_RECORDS);
    let mut sink = Largest(0);
    long.write_json(&mut sink).unwrap();
    assert!(
        streamed(&long).len() > 1 << 20,
        "trace text spans many buffers"
    );
    // The buffer flushes at 64 KiB, so a write is at most that plus one
    // number: ~330 bytes of text for the widest finite f64.
    assert!(sink.0 <= 64 * 1024 + 512, "largest write {} bytes", sink.0);
}

proptest! {
    #[test]
    fn streamed_text_equals_the_value_encoder(seed in 0u64..u64::MAX, n in 0usize..600) {
        check(&trace(seed, n))?;
    }
}
