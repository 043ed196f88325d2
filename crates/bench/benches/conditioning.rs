//! Conditioner microbenchmarks: bit-serial `push` loops vs the
//! table-driven block kernels, per machine — the Amdahl serial
//! fraction the block-parallel conditioning layer removes.
//!
//! `bench_report` measures the same two paths with its own adaptive
//! timer and publishes `conditioning.block_speedup` in BENCH_9.json
//! (acceptance: ≥ 4x for CRC-16 at ratio 2); this criterion group is
//! the interactive/quick-sweep view of the same comparison. The
//! `stage` row times the production mount: a boxed CRC ratio-2 machine
//! behind `ConditionerStage::process`, which conditions a 64 KiB chunk
//! in place through its staging slices (each iteration first restores
//! the raw chunk, a 64 KiB copy).

use criterion::measurement::WallTime;
use criterion::{
    criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion, Throughput,
};
use dhtrng_core::conditioning::{
    BitSink, Conditioner, CrcWhitener, LfsrConditioner, VonNeumannConditioner, XorFold,
};
use dhtrng_core::kernel::{BitBlock, ConditionerStage, Stage};
use std::hint::black_box;

const RAW_BYTES: usize = 1 << 16;

fn raw_input() -> Vec<u8> {
    // Deterministic mixed-content input; a fixed multiplicative hash
    // keeps both 0/1 balance and pair diversity (for Von Neumann).
    (0..RAW_BYTES)
        .map(|i| ((i.wrapping_mul(2654435761)) >> 7) as u8)
        .collect()
}

fn bench_serial<C: Conditioner>(group: &mut BenchmarkGroup<'_, WallTime>, name: &str, mut cond: C) {
    let raw = raw_input();
    let mut out = vec![0u8; RAW_BYTES + 1];
    group.bench_function(BenchmarkId::new("serial", name), |b| {
        b.iter(|| {
            let mut sink = BitSink::new(&mut out);
            for &byte in &raw {
                for i in (0..8).rev() {
                    if let Some(bit) = cond.push((byte >> i) & 1 == 1) {
                        sink.push_bit(bit);
                    }
                }
            }
            let pushed = sink.bits_pushed();
            black_box(&out);
            black_box(pushed)
        })
    });
}

fn bench_block<C: Conditioner>(group: &mut BenchmarkGroup<'_, WallTime>, name: &str, mut cond: C) {
    let raw = raw_input();
    let mut out = vec![0u8; RAW_BYTES + 1];
    group.bench_function(BenchmarkId::new("block", name), |b| {
        b.iter(|| {
            let mut sink = BitSink::new(&mut out);
            cond.condition_block(&raw, &mut sink);
            let pushed = sink.bits_pushed();
            black_box(&out);
            black_box(pushed)
        })
    });
}

fn bench_stage(
    group: &mut BenchmarkGroup<'_, WallTime>,
    name: &str,
    cond: Box<dyn Conditioner + Send>,
) {
    let raw = raw_input();
    let mut chunk = vec![0u8; RAW_BYTES];
    let mut stage = ConditionerStage::new(cond);
    group.bench_function(BenchmarkId::new("stage", name), |b| {
        b.iter(|| {
            chunk.copy_from_slice(&raw);
            let mut block = BitBlock::full(&mut chunk);
            stage.process(&mut block);
            black_box(block.whole_bytes())
        })
    });
}

fn conditioning_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("conditioning");
    group.throughput(Throughput::Elements((RAW_BYTES * 8) as u64));

    bench_serial(&mut group, "crc-ratio2", CrcWhitener::new(2));
    bench_block(&mut group, "crc-ratio2", CrcWhitener::new(2));
    bench_stage(&mut group, "crc-ratio2", Box::new(CrcWhitener::new(2)));
    bench_serial(&mut group, "crc-ratio1", CrcWhitener::new(1));
    bench_block(&mut group, "crc-ratio1", CrcWhitener::new(1));
    bench_serial(&mut group, "lfsr", LfsrConditioner::new());
    bench_block(&mut group, "lfsr", LfsrConditioner::new());
    bench_serial(&mut group, "xorfold4", XorFold::new(4));
    bench_block(&mut group, "xorfold4", XorFold::new(4));
    bench_serial(&mut group, "von-neumann", VonNeumannConditioner::new());
    bench_block(&mut group, "von-neumann", VonNeumannConditioner::new());
    bench_serial(
        &mut group,
        "chain-xf2-crc2",
        XorFold::new(2).then(CrcWhitener::new(2)),
    );
    bench_block(
        &mut group,
        "chain-xf2-crc2",
        XorFold::new(2).then(CrcWhitener::new(2)),
    );

    group.finish();
}

criterion_group!(benches, conditioning_benches);
criterion_main!(benches);
