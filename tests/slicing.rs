//! The bit-sliced kernel's equivalence contract, end to end: every lane
//! of a `SlicedKernel` is bit-identical to a same-configured scalar
//! generator — over random configurations (property-tested across beat
//! counts, probability corners, feedback on/off), over degenerate lane
//! counts (< 64 instances, exercising the padding), and through the
//! full streaming engine under both forced `KernelKind`s.

use dh_trng::core::batch::MAX_BEATS;
use dh_trng::core::model::BeatOscillator;
use dh_trng::core::slice::{Lane, SlicedKernel, MAX_LANES};
use dh_trng::core::BlockKernel;
use dh_trng::prelude::*;
use proptest::prelude::*;

/// A randomly-drawn lane configuration: the proptest cases sweep bank
/// size, the Eq. 5 probability knobs (including their edges), and the
/// feedback line.
#[derive(Debug, Clone)]
struct LaneSpec {
    seed: u64,
    beats: usize,
    p_rand: f64,
    bias: f64,
    feedback: bool,
}

fn lane_spec() -> impl Strategy<Value = LaneSpec> {
    // Bias edges: disabled, denormal-small, the calibrated order of
    // magnitude, and large enough that bernoulli(2 * bias) saturates.
    const BIAS_EDGES: [f64; 5] = [0.0, 1e-18, 7.2e-5, 0.25, 0.5];
    (
        any::<u64>(),
        1..MAX_BEATS + 1,
        0..4usize,
        0..BIAS_EDGES.len(),
        any::<bool>(),
    )
        .prop_map(|(seed, beats, p_rand_pick, bias_pick, feedback)| LaneSpec {
            seed,
            beats,
            // Both saturation edges plus seed-derived interior points.
            p_rand: match p_rand_pick {
                0 => 0.0,
                1 => 1.0,
                _ => (seed >> 11) as f64 / (1u64 << 53) as f64,
            },
            bias: BIAS_EDGES[bias_pick],
            feedback,
        })
}

fn build_lane(spec: &LaneSpec) -> Lane {
    let mut rng = NoiseRng::seed_from_u64(spec.seed ^ 0x1AB0);
    let bank: Vec<BeatOscillator> = (0..spec.beats)
        .map(|_| BeatOscillator::new(rng.uniform(), rng.uniform(), 0.1 + 0.8 * rng.uniform()))
        .collect();
    let mults: Vec<f64> = (0..spec.beats).map(|_| rng.uniform()).collect();
    Lane::new(
        bank,
        spec.p_rand,
        spec.bias,
        spec.feedback.then_some((0.3, mults)),
        NoiseRng::seed_from_u64(spec.seed).state(),
    )
}

/// The scalar continuation of a lane snapshot: the `BlockKernel` (itself
/// pinned bit-for-bit against the per-bit `Trng` paths by the batching
/// suite) plus a resumed `NoiseRng`.
fn scalar_words(lane: &Lane, spec: &LaneSpec, words: usize) -> Vec<u64> {
    let mults: Vec<f64> = {
        let mut rng = NoiseRng::seed_from_u64(spec.seed ^ 0x1AB0);
        for _ in 0..spec.beats * 3 {
            rng.uniform(); // skip the bank draws to reach the multipliers
        }
        (0..spec.beats).map(|_| rng.uniform()).collect()
    };
    let feedback = spec.feedback.then_some((0.3, &mults[..]));
    let mut kernel = BlockKernel::new(lane.beats(), spec.p_rand, spec.bias, feedback)
        .expect("specs never exceed MAX_BEATS");
    let mut rng = NoiseRng::from_state(NoiseRng::seed_from_u64(spec.seed).state());
    (0..words).map(|_| kernel.next_bits(&mut rng, 64)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every lane of a randomly-configured kernel matches its scalar
    /// twin over 512 cycles — random beat counts 1..=MAX_BEATS, edge
    /// probabilities, mixed feedback, random lane counts.
    #[test]
    fn every_lane_matches_a_same_configured_scalar_kernel(
        specs in proptest::collection::vec(lane_spec(), 1..10)
    ) {
        let lanes: Vec<Lane> = specs.iter().map(build_lane).collect();
        let mut sliced = SlicedKernel::new(&lanes).expect("valid lane specs");
        let mut got: Vec<Vec<u64>> = vec![Vec::new(); lanes.len()];
        for _ in 0..8 {
            for (lane, word) in sliced.generate(64).iter().enumerate() {
                got[lane].push(*word);
            }
        }
        for (lane, spec) in specs.iter().enumerate() {
            prop_assert_eq!(
                &got[lane],
                &scalar_words(&lanes[lane], spec, 8),
                "lane {} of {:?}", lane, spec
            );
        }
    }
}

/// Degenerate lane counts: a bank of fewer than 64 (and fewer than the
/// internal lane stride) instances pads internally, and every real lane
/// still reproduces its scalar `DhTrng` twin exactly.
#[test]
fn under_populated_banks_pad_without_perturbing_real_lanes() {
    for lanes in [1usize, 2, 3, 5, 13] {
        let instances: Vec<DhTrng> = (0..lanes)
            .map(|i| DhTrng::builder().seed(7000 + i as u64).build())
            .collect();
        let mut bank = SlicedDhTrng::new(instances).unwrap();
        let mut chunks: Vec<Option<Vec<u8>>> = (0..lanes).map(|_| Some(vec![0u8; 256])).collect();
        bank.fill_lane_chunks(&mut chunks);
        for (lane, chunk) in chunks.iter().enumerate() {
            let mut scalar = DhTrng::builder().seed(7000 + lane as u64).build();
            let mut expect = vec![0u8; 256];
            scalar.fill_bytes(&mut expect);
            assert_eq!(
                chunk.as_deref(),
                Some(&expect[..]),
                "lane {lane} of a {lanes}-lane bank"
            );
        }
    }
}

/// The lane-capacity edge: exactly MAX_LANES instances slice fine; the
/// engine's shard ceiling (64) can therefore always ride the sliced
/// kernel.
#[test]
fn full_width_bank_is_accepted_and_lane_exact() {
    let instances: Vec<DhTrng> = (0..MAX_LANES)
        .map(|i| DhTrng::builder().seed(100 + i as u64).build())
        .collect();
    let mut bank = SlicedDhTrng::new(instances).unwrap();
    let mut chunks: Vec<Option<Vec<u8>>> = (0..MAX_LANES).map(|_| Some(vec![0u8; 16])).collect();
    bank.fill_lane_chunks(&mut chunks);
    for probe in [0usize, 31, 63] {
        let mut scalar = DhTrng::builder().seed(100 + probe as u64).build();
        let mut expect = vec![0u8; 16];
        scalar.fill_bytes(&mut expect);
        assert_eq!(chunks[probe].as_deref(), Some(&expect[..]), "lane {probe}");
    }
}

/// The engine-level contract the CI kernel-matrix enforces: both forced
/// kernels produce the identical merged stream, for every session tier.
#[test]
fn forced_kernels_agree_across_all_tiers() {
    for tier in [Tier::Raw, Tier::Conditioned, Tier::Drbg] {
        let make = |kernel: KernelKind| {
            EntropySource::builder()
                .shards(3)
                .seed(90)
                .chunk_bytes(512)
                .kernel(kernel)
                .build()
                .expect("valid configuration")
                .session(tier)
        };
        let mut scalar = make(KernelKind::Scalar);
        let mut sliced = make(KernelKind::Sliced);
        let mut a = vec![0u8; 2048];
        let mut b = vec![0u8; 2048];
        scalar.read(&mut a).unwrap();
        sliced.read(&mut b).unwrap();
        assert_eq!(a, b, "{tier:?}");
    }
}

/// Sessions over a sliced source read the same bytes as sessions over a
/// scalar source — the sessions API gets the kernel for free.
#[test]
fn sessions_are_kernel_agnostic() {
    let make = |kernel: KernelKind| {
        SourceBuilder::new()
            .shards(2)
            .seed(41)
            .chunk_bytes(512)
            .kernel(kernel)
            .build()
            .expect("valid source config")
    };
    let scalar_source = make(KernelKind::Scalar);
    let sliced_source = make(KernelKind::Sliced);
    let mut a = scalar_source.session(Tier::Conditioned);
    let mut b = sliced_source.session(Tier::Conditioned);
    let mut buf_a = [0u8; 777];
    let mut buf_b = [0u8; 777];
    a.read(&mut buf_a).unwrap();
    b.read(&mut buf_b).unwrap();
    assert_eq!(buf_a, buf_b);
}
