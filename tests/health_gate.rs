//! Equivalence battery for the word-parallel SP 800-90B health gate.
//!
//! `HealthMonitor::feed_bytes` commits whole 64-bit words when no test
//! can trip inside them and replays every other bit through the serial
//! `feed`. These tests hold it to the serial fold exactly: the same
//! returned status and the same full monitor state (run, window
//! position, reference, matches, bit and failure counts) after every
//! chunk, across cutoffs on both sides of the word-level run cap,
//! windows shorter than a word or not a multiple of it, biased, stuck
//! and alternating streams, and chunks split at arbitrary byte offsets.

use dh_trng::prelude::*;
use proptest::prelude::*;

/// The bits of `bytes`, MSB first — the order the shard gate reads.
fn bits_of(bytes: &[u8]) -> impl Iterator<Item = bool> + '_ {
    bytes
        .iter()
        .flat_map(|&byte| (0..8).rev().map(move |i| (byte >> i) & 1 == 1))
}

/// The reference gate: feed bit by bit, stop at the first trip.
fn serial_feed(monitor: &mut HealthMonitor, bytes: &[u8]) -> HealthStatus {
    bits_of(bytes)
        .map(|bit| monitor.feed(bit))
        .find(|status| *status != HealthStatus::Ok)
        .unwrap_or(HealthStatus::Ok)
}

/// Packs bits MSB first; the bit count must be a whole number of bytes.
fn pack(bits: &[bool]) -> Vec<u8> {
    assert_eq!(bits.len() % 8, 0, "pack whole bytes only");
    bits.chunks(8)
        .map(|byte| byte.iter().fold(0u8, |acc, &bit| acc << 1 | u8::from(bit)))
        .collect()
}

/// Feeds `chunks` in order through a block monitor and a serial one
/// built from the same cutoffs, asserting equal status and state after
/// every chunk (trips included: both carry on from the post-trip
/// state). Returns the statuses.
fn assert_equivalent(monitor: &HealthMonitor, chunks: &[&[u8]]) -> Vec<HealthStatus> {
    let mut block = monitor.clone();
    let mut serial = monitor.clone();
    chunks
        .iter()
        .enumerate()
        .map(|(index, chunk)| {
            let got = block.feed_bytes(chunk);
            let want = serial_feed(&mut serial, chunk);
            assert_eq!(got, want, "status of chunk {index} ({} bytes)", chunk.len());
            assert_eq!(block, serial, "state after chunk {index}");
            got
        })
        .collect()
}

/// A test stream of `bytes` bytes built from segments of fair, biased,
/// stuck, alternating and fixed-run-length bits, so runs and APT
/// windows land anywhere relative to word and chunk boundaries.
fn mixed_stream(rng: &mut NoiseRng, bytes: usize) -> Vec<u8> {
    let mut bits = Vec::with_capacity(bytes * 8 + 512);
    while bits.len() < bytes * 8 {
        let len = 1 + (rng.uniform() * 400.0) as usize;
        let value = rng.bernoulli(0.5);
        match (rng.uniform() * 5.0) as u32 {
            0 => bits.extend((0..len).map(|_| rng.bernoulli(0.5))),
            1 => {
                let p = [0.6, 0.75, 0.9][(rng.uniform() * 3.0) as usize];
                let p = if value { p } else { 1.0 - p };
                bits.extend((0..len).map(|_| rng.bernoulli(p)));
            }
            2 => bits.extend(std::iter::repeat(value).take(len)),
            3 => bits.extend((0..len).map(|i| (i % 2 == 0) == value)),
            _ => {
                let run = 1 + (rng.uniform() * 40.0) as usize;
                bits.extend((0..len).map(|i| ((i / run) % 2 == 0) == value));
            }
        }
    }
    bits.truncate(bytes * 8);
    pack(&bits)
}

/// Splits `stream` at random byte offsets: empty, odd-length and
/// word-straddling chunks all occur.
fn split<'a>(rng: &mut NoiseRng, stream: &'a [u8]) -> Vec<&'a [u8]> {
    let mut chunks = Vec::new();
    let mut rest = stream;
    while !rest.is_empty() {
        let take = ((rng.uniform() * 200.0) as usize).min(rest.len());
        let (chunk, tail) = rest.split_at(take);
        chunks.push(chunk);
        rest = tail;
    }
    chunks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn feed_bytes_matches_the_serial_fold(
        rct_cutoff in 2u32..65,
        window_kind in 0u32..4,
        window_draw in 1u32..2049,
        cutoff_frac in 0.0f64..1.0,
        bytes in 0usize..2048,
        seed in any::<u64>(),
    ) {
        let apt_window = match window_kind {
            0 => 1 + window_draw % 63,          // shorter than a word
            1 => window_draw,                   // mostly not a multiple of 64
            2 => 64 * (1 + window_draw % 16),   // word-aligned windows
            _ => 1024,                          // the default window
        };
        let apt_cutoff = (1 + (cutoff_frac * f64::from(apt_window)) as u32).min(apt_window);
        let monitor = HealthMonitor::with_cutoffs(rct_cutoff, apt_window, apt_cutoff);
        let mut rng = NoiseRng::seed_from_u64(seed);
        let stream = mixed_stream(&mut rng, bytes);
        let chunks = split(&mut rng, &stream);
        assert_equivalent(&monitor, &chunks);
    }

    #[test]
    fn default_cutoffs_match_the_serial_fold_on_long_streams(
        bytes in 1usize..16_384,
        seed in any::<u64>(),
    ) {
        let mut rng = NoiseRng::seed_from_u64(seed);
        let stream = mixed_stream(&mut rng, bytes);
        let chunks = split(&mut rng, &stream);
        assert_equivalent(&HealthMonitor::new(), &chunks);
    }
}

#[test]
fn shard_sized_chunks_match_on_healthy_stuck_and_biased_sources() {
    let mut healthy = vec![0u8; 64 * 1024];
    DhTrng::builder().seed(1).build().fill_bytes(&mut healthy);
    let stuck = vec![0xFFu8; 64 * 1024];
    let mut rng = NoiseRng::seed_from_u64(75);
    let biased = pack(
        &(0..64 * 1024 * 8)
            .map(|_| rng.bernoulli(0.75))
            .collect::<Vec<_>>(),
    );
    let statuses = [
        assert_equivalent(&HealthMonitor::new(), &[&healthy]),
        assert_equivalent(&HealthMonitor::new(), &[&stuck]),
        assert_equivalent(&HealthMonitor::new(), &[&biased]),
    ];
    assert_eq!(statuses[0], [HealthStatus::Ok]);
    assert_eq!(statuses[1], [HealthStatus::RepetitionFailure]);
    assert_eq!(statuses[2], [HealthStatus::ProportionFailure]);
}

/// `len` bits of 1010… — no run longer than 1, balanced for the APT.
fn alternating(len: usize) -> Vec<bool> {
    (0..len).map(|i| i % 2 == 0).collect()
}

/// Runs `bits` through a block monitor as one chunk and as chunks split
/// at every word boundary, and checks both against the serial fold and
/// against the expected trip: `status` with `bits_seen` bits consumed.
fn assert_trips_at(monitor: HealthMonitor, bits: &[bool], status: HealthStatus, bits_seen: u64) {
    let stream = pack(bits);
    let whole = assert_equivalent(&monitor, &[&stream]);
    assert_eq!(whole, [status]);
    let words: Vec<&[u8]> = stream.chunks(8).collect();
    let split = assert_equivalent(&monitor, &words);
    assert!(split.contains(&status));

    let mut block = monitor;
    assert_eq!(block.feed_bytes(&stream), status);
    assert_eq!(block.bits_seen(), bits_seen);
    assert_eq!(block.failures(), 1);
}

#[test]
fn rct_trips_on_the_last_bit_of_a_word() {
    // Word 0 alternates; word 1 is 32 alternating bits, then 32 ones:
    // the 32nd one is bit 127, the last bit of word 1.
    let mut bits = alternating(96);
    bits.extend([true; 32]);
    bits.extend(alternating(64));
    assert_trips_at(
        HealthMonitor::new(),
        &bits,
        HealthStatus::RepetitionFailure,
        128,
    );
}

#[test]
fn rct_trips_on_the_first_bit_of_the_next_word() {
    // 31 ones end word 1 (after a zero); word 2 opens with the 32nd.
    let mut bits = alternating(96);
    bits.push(false);
    bits.extend([true; 31]);
    bits.extend([true, false]);
    bits.extend(alternating(62));
    assert_trips_at(
        HealthMonitor::new(),
        &bits,
        HealthStatus::RepetitionFailure,
        129,
    );
}

#[test]
fn apt_trips_on_the_last_bit_of_a_word() {
    // Reference = bit 0 = 1. 1010… gives 32 matches per word; ending
    // word 1 in `11` makes its last bit the 65th match.
    let mut bits = alternating(127);
    bits.push(true);
    bits.extend(alternating(64));
    assert_trips_at(
        HealthMonitor::with_cutoffs(32, 1024, 65),
        &bits,
        HealthStatus::ProportionFailure,
        128,
    );
}

#[test]
fn apt_trips_on_the_first_bit_of_the_next_word() {
    // As above with cutoff 66: word 2's leading one is the 66th match.
    let mut bits = alternating(127);
    bits.push(true);
    bits.extend(alternating(64));
    assert_trips_at(
        HealthMonitor::with_cutoffs(32, 1024, 66),
        &bits,
        HealthStatus::ProportionFailure,
        129,
    );
}

#[test]
fn apt_window_boundary_inside_a_word_resets_the_count() {
    // Window 100, cutoff 60: an all-reference stream would trip, but a
    // 1010… stream restarts its count every 100 bits and never does.
    let monitor = HealthMonitor::with_cutoffs(32, 100, 60);
    let stream = pack(&alternating(64 * 40));
    let chunks: Vec<&[u8]> = stream.chunks(13).collect();
    let statuses = assert_equivalent(&monitor, &chunks);
    assert!(statuses.iter().all(|s| *s == HealthStatus::Ok));
}

/// Kills the mutation "the fast path ignores the carried run": a run
/// carried in from the previous word (or the previous call) plus a
/// short leading run must still trip. Neither part alone reaches the
/// word-level run cap of 17, so only the carried-run check catches it.
#[test]
fn carried_run_across_a_word_boundary_trips() {
    // Word 0 ends in 16 ones; word 1 opens with 16 more: the 32nd one
    // is bit 79.
    let mut bits = alternating(48);
    bits.extend([true; 32]);
    bits.push(false);
    bits.extend(alternating(47));
    assert_trips_at(
        HealthMonitor::new(),
        &bits,
        HealthStatus::RepetitionFailure,
        80,
    );

    // The same run carried across two calls, the first of which passes.
    let stream = pack(&bits);
    let mut block = HealthMonitor::new();
    assert_eq!(block.feed_bytes(&stream[..8]), HealthStatus::Ok);
    assert_eq!(
        block.feed_bytes(&stream[8..]),
        HealthStatus::RepetitionFailure
    );
    assert_eq!(block.bits_seen(), 80);
}

#[test]
fn tight_rct_cutoffs_match_on_every_side_of_the_run_cap() {
    let mut rng = NoiseRng::seed_from_u64(0x90B);
    let stream = mixed_stream(&mut rng, 4096);
    for rct_cutoff in [2, 3, 12, 16, 17, 18, 31, 32, 33, 64] {
        let chunks = split(&mut rng, &stream);
        assert_equivalent(&HealthMonitor::with_cutoffs(rct_cutoff, 1024, 624), &chunks);
    }
}
