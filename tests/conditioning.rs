//! Conditioning and DRBG acceptance: edge cases of the conditioner
//! machines, batching equivalence of the conditioned/drbg `Trng`
//! adaptors (mirroring `tests/batching.rs` for the raw path), and
//! fixed-seed pinned DRBG output streams so the post-processing stages
//! can never drift silently — the same discipline `calibration_smoke`
//! applies to the raw calibrated stream.

use dh_trng::prelude::*;

/// Bits through the per-bit reference path only.
fn per_bit<T: Trng>(trng: &mut T, n: usize) -> Vec<bool> {
    (0..n).map(|_| trng.next_bit()).collect()
}

/// Asserts every batched entry point reproduces the per-bit stream
/// (the `tests/batching.rs` harness, applied to the output stages).
fn assert_batching_equivalent<T: Trng>(name: &str, make: impl Fn() -> T) {
    const BITS: usize = 1000; // not a multiple of 64: tails run too
    let reference = per_bit(&mut make(), BITS);

    assert_eq!(make().collect_bits(BITS), reference, "{name}: collect_bits");

    let mut by_word = Vec::new();
    let mut gen = make();
    for _ in 0..BITS / 64 {
        let word = gen.next_word();
        by_word.extend((0..64).rev().map(|i| (word >> i) & 1 == 1));
    }
    assert_eq!(
        by_word[..],
        reference[..BITS / 64 * 64],
        "{name}: next_word"
    );

    let mut by_chunks = Vec::new();
    let mut gen = make();
    for &chunk in [1u32, 63, 64, 7, 33, 64, 64].iter().cycle() {
        if by_chunks.len() + chunk as usize > BITS {
            break;
        }
        let word = gen.next_bits(chunk);
        by_chunks.extend((0..chunk).rev().map(|i| (word >> i) & 1 == 1));
    }
    assert_eq!(
        by_chunks[..],
        reference[..by_chunks.len()],
        "{name}: next_bits chunks"
    );

    let n_bytes = BITS / 8;
    let mut buf = vec![0u8; n_bytes];
    make().fill_bytes(&mut buf);
    let reference_bytes: Vec<u8> = reference[..n_bytes * 8]
        .chunks(8)
        .map(|bits| bits.iter().fold(0u8, |b, &bit| (b << 1) | u8::from(bit)))
        .collect();
    assert_eq!(buf, reference_bytes, "{name}: fill_bytes");
}

#[test]
fn conditioned_adaptor_batched_paths_match_per_bit() {
    assert_batching_equivalent("Conditioned/crc-2", || {
        Conditioned::new(DhTrng::builder().seed(0xC0).build(), CrcWhitener::new(2))
    });
    assert_batching_equivalent("Conditioned/von-neumann", || {
        Conditioned::new(
            DhTrng::builder().seed(0xC1).build(),
            VonNeumannConditioner::new(),
        )
    });
    assert_batching_equivalent("Conditioned/xor-fold-3", || {
        Conditioned::new(DhTrng::builder().seed(0xC2).build(), XorFold::new(3))
    });
}

#[test]
fn drbg_adaptor_batched_paths_match_per_bit() {
    assert_batching_equivalent("Drbg/default", || {
        Drbg::new(DhTrng::builder().seed(0xD0).build(), DrbgConfig::default())
    });
    // A reseed-heavy policy: the equivalence must hold across reseed
    // boundaries too (1000 bits crosses the 512-bit interval).
    assert_batching_equivalent("Drbg/tight-interval", || {
        Drbg::new(
            DhTrng::builder().seed(0xD1).build(),
            DrbgConfig {
                reseed_interval_bits: 512,
                seed_bytes: 8,
                prediction_resistance: false,
            },
        )
    });
}

#[test]
fn drbg_stream_head_is_pinned_for_fixed_seed() {
    // The exact output stream of the default-policy DRBG over a seeded
    // DH-TRNG — any change to the derivation function, the block size,
    // the harvest order, or the underlying raw stream shows up here.
    let mut drbg = Drbg::new(
        DhTrng::builder().seed(0xD5EED).build(),
        DrbgConfig::default(),
    );
    let mut head = [0u8; 16];
    Trng::fill_bytes(&mut drbg, &mut head);
    assert_eq!(
        head,
        [
            0xD6, 0x7F, 0xAE, 0x21, 0x90, 0xB0, 0x82, 0xE6, 0xED, 0x6A, 0x49, 0x7D, 0x32, 0x12,
            0xB9, 0x2C
        ],
        "core Drbg stream head moved"
    );

    // And a drbg session over the sharded engine (2 shards, default
    // 2:1 CRC conditioning, default DRBG policy).
    let mut session = EntropySource::builder()
        .shards(2)
        .seed(0xD5EED)
        .chunk_bytes(4096)
        .build()
        .expect("valid configuration")
        .session_with(SessionConfig::new(Tier::Drbg).stall_reseeds(false));
    let mut head = [0u8; 16];
    session.read(&mut head).expect("healthy source");
    assert_eq!(
        head,
        [
            0x05, 0xD5, 0xBD, 0x7A, 0xC8, 0xEC, 0x40, 0x46, 0x10, 0x83, 0xBE, 0xC0, 0xE6, 0x9C,
            0xA0, 0x5E
        ],
        "drbg session stream head moved"
    );
}

#[test]
fn conditioners_handle_empty_input() {
    // Zero-length requests touch no state on any tier.
    let mut cond = Conditioned::new(
        DhTrng::builder().seed(1).build(),
        VonNeumannConditioner::new(),
    );
    cond.fill_bytes(&mut []);
    assert_eq!(cond.consumed(), 0);
    assert_eq!(cond.emitted(), 0);
    assert!(cond.measured_ratio().is_infinite());

    let mut session = EntropySource::builder()
        .shards(1)
        .seed(1)
        .chunk_bytes(512)
        .build()
        .expect("valid configuration")
        .session(Tier::Drbg);
    session.read(&mut []).expect("empty read is a no-op");
    assert_eq!(session.bytes_delivered(), 0);
    assert_eq!(session.reseeds(), 0);
}

/// A stuck source, for the all-zero / all-one block edge cases.
struct Constant(bool);
impl Trng for Constant {
    fn next_bit(&mut self) -> bool {
        self.0
    }
}

#[test]
fn constant_blocks_exercise_conditioner_edge_behaviour() {
    // Von Neumann on a constant source emits nothing, ever: every pair
    // is equal. (The adaptor would spin; push the machine directly.)
    let mut vn = VonNeumannConditioner::new();
    for bit in [false, true] {
        assert!((0..10_000).all(|_| vn.push(bit).is_none()), "bit = {bit}");
    }

    // XOR-fold on constant input is deterministic: all-zero blocks fold
    // to 0; all-one blocks fold to the factor's parity.
    for factor in [2u32, 3, 8] {
        let mut zeros = Conditioned::new(Constant(false), XorFold::new(factor));
        assert!(per_bit(&mut zeros, 64).iter().all(|&b| !b));
        let mut ones = Conditioned::new(Constant(true), XorFold::new(factor));
        let expect = factor % 2 == 1;
        assert!(per_bit(&mut ones, 64).iter().all(|&b| b == expect));
    }

    // The CRC whitener turns even a stuck source into a balanced-looking
    // (purely deterministic, zero-entropy) pattern — the reason health
    // tests run *before* conditioning in the pipeline.
    for bit in [false, true] {
        let mut crc = Conditioned::new(Constant(bit), CrcWhitener::new(2));
        let out = per_bit(&mut crc, 4096);
        let ones = out.iter().filter(|&&b| b).count() as f64 / out.len() as f64;
        assert!((ones - 0.5).abs() < 0.05, "bit = {bit}: ones = {ones}");
    }
}

#[test]
fn compression_ratio_boundaries() {
    // ratio = 1: rate-preserving (one output per input).
    let mut unity = Conditioned::new(DhTrng::builder().seed(2).build(), CrcWhitener::new(1));
    let _ = unity.collect_bits(1000);
    assert_eq!(unity.consumed(), 1000);
    assert_eq!(unity.emitted(), 1000);
    assert_eq!(unity.measured_ratio(), 1.0);

    // A large ratio compresses exactly as declared.
    let mut wide = Conditioned::new(DhTrng::builder().seed(2).build(), CrcWhitener::new(64));
    let _ = wide.collect_bits(100);
    assert_eq!(wide.consumed(), 6400);
    assert_eq!(wide.measured_ratio(), 64.0);

    // The stream-level stage agrees with the declared expectation.
    let source = EntropySource::builder()
        .shards(1)
        .seed(2)
        .chunk_bytes(512)
        .conditioner(ConditionerSpec::XorFold(4))
        .build()
        .expect("valid configuration");
    let mut buf = [0u8; 256];
    source
        .session(Tier::Conditioned)
        .read(&mut buf)
        .expect("healthy");
    let stats = source.stats();
    assert_eq!(stats.consumed_bits as f64 / stats.emitted_bits as f64, 4.0);
    assert_eq!(source.conditioner().expected_ratio(), 4.0);
}

#[test]
fn conditioned_tier_determinism_across_runs_and_slicings() {
    let make = || {
        EntropySource::builder()
            .shards(3)
            .seed(0xAB)
            .chunk_bytes(1024)
            .conditioner(ConditionerSpec::Crc { ratio: 2 })
            .build()
            .expect("valid configuration")
            .session(Tier::Conditioned)
    };
    let mut whole = make();
    let mut expect = vec![0u8; 3000];
    whole.read(&mut expect).expect("healthy");
    let mut sliced = make();
    let mut got = Vec::new();
    for size in [1usize, 7, 300, 513, 2179] {
        let mut piece = vec![0u8; size];
        sliced.read(&mut piece).expect("healthy");
        got.extend_from_slice(&piece);
    }
    assert_eq!(got, expect);
    assert_eq!(sliced.bytes_delivered(), 3000);
}

#[test]
fn prediction_resistance_pulls_fresh_entropy_per_block() {
    let mut session = EntropySource::builder()
        .shards(1)
        .seed(5)
        .chunk_bytes(512)
        .drbg_config(DrbgConfig {
            prediction_resistance: true,
            seed_bytes: 16,
            ..DrbgConfig::default()
        })
        .build()
        .expect("valid configuration")
        .session(Tier::Drbg);
    let mut buf = vec![0u8; 4 * 64]; // four DRBG blocks
    session.read(&mut buf).expect("healthy");
    // Block 1 rides the instantiate material; blocks 2..4 each reseed.
    assert_eq!(session.reseeds(), 3);
    // Conditioned consumption: (instantiate + 3 reseeds) x 16 bytes.
    assert_eq!(session.harvested_bytes(), 64);
}

// ---------------------------------------------------------------------
// Block-vs-serial bit-identity: the table-driven block conditioning
// kernels must reproduce the bit-serial machines exactly, for every
// conditioner and chains, under arbitrary input slicing and
// partial-byte carries. The serial reference goes through
// `Conditioner::push` one bit at a time; the block path goes through
// `ConditionerStage` (the production mount, staging-copy in-place).

use proptest::prelude::*;

/// A fresh conditioner by index — the full in-tree menu, including the
/// 1/64 ratio boundaries and `then`-chains.
fn machine(idx: usize) -> Box<dyn Conditioner> {
    match idx {
        0 => Box::new(CrcWhitener::new(1)),
        1 => Box::new(CrcWhitener::new(2)),
        2 => Box::new(CrcWhitener::new(64)),
        3 => Box::new(LfsrConditioner::new()),
        4 => Box::new(VonNeumannConditioner::new()),
        5 => Box::new(XorFold::new(1)),
        6 => Box::new(XorFold::new(64)),
        7 => Box::new(XorFold::new(2).then(CrcWhitener::new(2))),
        8 => Box::new(VonNeumannConditioner::new().then(LfsrConditioner::new())),
        _ => Box::new(CrcWhitener::new(3).then(XorFold::new(2))),
    }
}
const MACHINE_COUNT: usize = 10;

/// Serial reference: the pieces' valid bits pushed one at a time,
/// packed into whole output bytes.
fn serial_over_pieces(mut cond: Box<dyn Conditioner>, pieces: &[(Vec<u8>, usize)]) -> Vec<u8> {
    let mut out = Vec::new();
    let (mut acc, mut acc_len) = (0u8, 0u32);
    for (bytes, bits) in pieces {
        for i in 0..*bits {
            let raw = (bytes[i / 8] >> (7 - i % 8)) & 1 == 1;
            if let Some(bit) = cond.push(raw) {
                acc = (acc << 1) | u8::from(bit);
                acc_len += 1;
                if acc_len == 8 {
                    out.push(acc);
                    acc = 0;
                    acc_len = 0;
                }
            }
        }
    }
    out
}

/// Block path: the same pieces through `ConditionerStage::process`.
fn stage_over_pieces(cond: Box<dyn Conditioner>, pieces: &[(Vec<u8>, usize)]) -> Vec<u8> {
    let mut stage = ConditionerStage::new(cond);
    let mut out = Vec::new();
    for (bytes, bits) in pieces {
        let mut buf = bytes.clone();
        let mut block = BitBlock::full(&mut buf);
        block.set_valid_bits(*bits);
        stage.process(&mut block);
        out.extend_from_slice(block.as_bytes());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn block_path_is_bit_identical_under_arbitrary_slicing(
        idx in 0..MACHINE_COUNT,
        pieces in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 1..512), 0..8usize),
            1..8,
        ),
    ) {
        // Each piece drops 0..8 trailing bits so partial-byte carries
        // cross every block boundary.
        let pieces: Vec<(Vec<u8>, usize)> = pieces
            .into_iter()
            .map(|(bytes, drop)| {
                let bits = (bytes.len() * 8).saturating_sub(drop);
                (bytes, bits)
            })
            .collect();
        let want = serial_over_pieces(machine(idx), &pieces);
        let got = stage_over_pieces(machine(idx), &pieces);
        prop_assert_eq!(got, want);
    }
}

#[test]
fn block_path_is_bit_identical_on_64kib_blocks() {
    // The full 1..=64 KiB block-size envelope at the ratio boundaries,
    // deterministically: one 64 KiB block, then a shredded copy of the
    // same stream (1-byte and odd-sized blocks), must both match the
    // serial machines.
    let mut src = DhTrng::builder().seed(41).build();
    let mut raw = vec![0u8; 1 << 16];
    Trng::fill_bytes(&mut src, &mut raw);
    for idx in 0..MACHINE_COUNT {
        let whole = vec![(raw.clone(), raw.len() * 8)];
        let want = serial_over_pieces(machine(idx), &whole);
        assert_eq!(
            stage_over_pieces(machine(idx), &whole),
            want,
            "machine {idx} whole"
        );
        let mut shredded: Vec<(Vec<u8>, usize)> = Vec::new();
        let mut pos = 0usize;
        for &len in [1usize, 4095, 64, 1, 7, 1024, 65].iter().cycle() {
            if pos >= raw.len() {
                break;
            }
            let end = (pos + len).min(raw.len());
            shredded.push((raw[pos..end].to_vec(), (end - pos) * 8));
            pos = end;
        }
        assert_eq!(
            stage_over_pieces(machine(idx), &shredded),
            want,
            "machine {idx} shredded"
        );
    }
}
