//! Batching equivalence: for a fixed seed, the batched `Trng` paths
//! (`next_word` / `next_bits` / `fill_bytes` / `collect_bits`) must
//! produce **bit-identical** streams to repeated `next_bit`, across the
//! DH-TRNG core model and the baseline architectures.
//!
//! These are the acceptance tests for ISSUE 2's layer-1 change: every
//! calibrated table in the repository depends on the exact stream, so
//! the fast path is only admissible if it is indistinguishable.

use dh_trng::baselines::{
    DualModePufTrng, JitterLatchTrng, LatchedRoTrng, MetastableCmTrng, MultiphaseTrng, RoXorTrng,
    TeroTrng, TerotTrng,
};
use dh_trng::prelude::*;

/// Bits through the per-bit reference path only.
fn per_bit<T: Trng>(trng: &mut T, n: usize) -> Vec<bool> {
    (0..n).map(|_| trng.next_bit()).collect()
}

/// Packs bits into bytes, oldest bit in each byte's MSB — the
/// `fill_bytes` packing.
fn pack(bits: &[bool]) -> Vec<u8> {
    bits.chunks(8)
        .map(|byte| byte.iter().fold(0u8, |b, &bit| (b << 1) | u8::from(bit)))
        .collect()
}

/// Asserts two byte streams are identical, naming the first differing
/// byte instead of dumping tens of kilobytes.
fn assert_same_bytes(name: &str, got: &[u8], want: &[u8]) {
    assert_eq!(got.len(), want.len(), "{name}: length");
    if let Some(at) = got.iter().zip(want).position(|(a, b)| a != b) {
        panic!(
            "{name}: first differing byte at {at} of {} ({:#04x} vs {:#04x})",
            want.len(),
            got[at],
            want[at]
        );
    }
}

/// Asserts that `fill_bytes` over more than 64 KiB, split into calls
/// whose lengths are not multiples of 8, reproduces the per-bit
/// stream. Long runs cross many of the kernel's internal word blocks;
/// the odd lengths exercise its byte tails and make later calls start
/// mid-stream.
fn assert_long_fill_equivalent<T: Trng>(name: &str, make: impl Fn() -> T) {
    const SIZES: [usize; 3] = [64 * 1024 + 5, 1_003, 13];
    let total: usize = SIZES.iter().sum();
    let reference = pack(&per_bit(&mut make(), total * 8));
    let mut gen = make();
    let mut batched = vec![0u8; total];
    let mut at = 0;
    for size in SIZES {
        gen.fill_bytes(&mut batched[at..at + size]);
        at += size;
    }
    assert_same_bytes(name, &batched, &reference);
}

/// Asserts every batched entry point reproduces the per-bit stream.
/// `make` must build identical generator states on every call.
fn assert_batching_equivalent<T: Trng>(name: &str, make: impl Fn() -> T) {
    const BITS: usize = 1000; // not a multiple of 64: tails run too
    let reference = per_bit(&mut make(), BITS);

    // collect_bits (words + tail).
    assert_eq!(make().collect_bits(BITS), reference, "{name}: collect_bits");

    // next_word, bit by bit.
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

    // next_bits at awkward sizes, consumed in sequence.
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

    // fill_bytes (8-byte blocks + byte tail).
    let n_bytes = BITS / 8; // 125: 15 whole words + 5 tail bytes
    let mut buf = vec![0u8; n_bytes];
    make().fill_bytes(&mut buf);
    assert_eq!(buf, pack(&reference[..n_bytes * 8]), "{name}: fill_bytes");
}

#[test]
fn dh_trng_batched_paths_match_per_bit() {
    assert_batching_equivalent("DhTrng", || DhTrng::builder().seed(0xABCD).build());
    assert_batching_equivalent("DhTrng/cold-high-vdd", || {
        DhTrng::builder()
            .corner(PvtCorner::new(-20.0, 1.2))
            .seed(0xC0DE)
            .build()
    });
}

#[test]
fn dh_trng_ablations_batched_paths_match_per_bit() {
    assert_batching_equivalent("DhTrng/no-feedback", || {
        DhTrng::builder().seed(7).feedback(false).build()
    });
    assert_batching_equivalent("DhTrng/no-coupling", || {
        DhTrng::builder().seed(7).coupling(false).build()
    });
}

#[test]
fn dh_trng_virtex6_batched_paths_match_per_bit() {
    assert_batching_equivalent("DhTrng/V6", || {
        DhTrng::builder().device(Device::virtex6()).seed(9).build()
    });
}

#[test]
fn hybrid_unit_group_batched_paths_match_per_bit() {
    assert_batching_equivalent("HybridUnitGroup/hybrid-12", || {
        HybridUnitGroup::hybrid(12, 3)
    });
    assert_batching_equivalent("HybridUnitGroup/9stage-18", || {
        HybridUnitGroup::nine_stage_ro(18, 4)
    });
    // 16 beats is the largest bank of the kernel's narrow padded
    // width; 17 and 18 (the largest Table 2 group) run at the wide one.
    for n in [16, 17, 18] {
        assert_batching_equivalent(&format!("HybridUnitGroup/hybrid-{n}"), || {
            HybridUnitGroup::hybrid(n, 0x600 + u64::from(n))
        });
        assert_long_fill_equivalent(&format!("HybridUnitGroup/9stage-{n}"), || {
            HybridUnitGroup::nine_stage_ro(n, 0x700 + u64::from(n))
        });
    }
}

#[test]
fn baseline_batched_paths_match_per_bit() {
    assert_batching_equivalent("RoXorTrng", || RoXorTrng::table1(9, 5));
    assert_batching_equivalent("MultiphaseTrng", || MultiphaseTrng::new(6));
    assert_batching_equivalent("JitterLatchTrng", || JitterLatchTrng::new(7));
    assert_batching_equivalent("TeroTrng", || TeroTrng::new(8));
    assert_batching_equivalent("LatchedRoTrng", || LatchedRoTrng::new(9));
    assert_batching_equivalent("TerotTrng", || TerotTrng::new(10));
    assert_batching_equivalent("MetastableCmTrng", || MetastableCmTrng::new(11));
    assert_batching_equivalent("DualModePufTrng", || DualModePufTrng::new(12));
}

#[test]
fn dh_trng_long_fills_match_per_bit() {
    assert_long_fill_equivalent("DhTrng", || DhTrng::builder().seed(0xF111).build());
    assert_long_fill_equivalent("DhTrng/hot-low-vdd", || {
        DhTrng::builder()
            .corner(PvtCorner::new(80.0, 0.8))
            .seed(0xF112)
            .build()
    });
    assert_long_fill_equivalent("DhTrng/no-feedback", || {
        DhTrng::builder().seed(0xF113).feedback(false).build()
    });
    assert_long_fill_equivalent("DhTrng/no-coupling", || {
        DhTrng::builder().seed(0xF114).coupling(false).build()
    });
}

#[test]
fn dh_trng_restart_mid_stream_matches_per_bit() {
    // A restart re-draws the power-up state between two kernel builds;
    // the batched stream must follow the per-bit one across it.
    let make = || DhTrng::builder().seed(0x5EED).build();
    let (before, after) = (32 * 1024 + 3, 32 * 1024 + 7);
    let mut reference = make();
    let mut bits = per_bit(&mut reference, before * 8);
    reference.restart();
    bits.extend(per_bit(&mut reference, after * 8));

    let mut gen = make();
    let mut bytes = vec![0u8; before + after];
    gen.fill_bytes(&mut bytes[..before]);
    gen.restart();
    gen.fill_bytes(&mut bytes[before..]);
    assert_same_bytes("DhTrng/restart", &bytes, &pack(&bits));
}

#[test]
fn batched_and_per_bit_generators_stay_in_lockstep() {
    // Interleaving batched and per-bit calls on the same instance walks
    // the same stream: the kernel writes complete state back.
    let mut mixed = DhTrng::builder().seed(0x1DEA).build();
    let mut reference = DhTrng::builder().seed(0x1DEA).build();
    let mut mixed_bits = Vec::new();
    for round in 0..5 {
        if round % 2 == 0 {
            let word = mixed.next_word();
            mixed_bits.extend((0..64).rev().map(|i| (word >> i) & 1 == 1));
        } else {
            mixed_bits.extend(per_bit(&mut mixed, 64));
        }
    }
    assert_eq!(mixed_bits, per_bit(&mut reference, 5 * 64));
}
