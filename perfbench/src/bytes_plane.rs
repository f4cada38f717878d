//! The byte-plane workloads: `byte-backup`, `byte-restore` and
//! `byte-repair` over seeded multi-MiB archives at the paper's 128 + 128
//! code, with no simulation.
//!
//! Set-up builds the archives (and, for restore and repair, backs them
//! up and draws the surviving blocks). A unit is one pass of the
//! workload's operation over every archive.

use std::time::Instant;

use bytes::Bytes;
use peerback_core::archive::Entry;
use peerback_core::{
    Archive, BackupPipeline, Cipher, PlacementPlan, RestorePipeline, XorKeystream,
};
use peerback_erasure::ReedSolomon;
use peerback_gf256::mul_add_slice;

use crate::report::Report;
use crate::stats::{median, peak_rss_mib, secs, Units};
use crate::trace::{self, Tracer};
use crate::{Ctx, Group, Workload};

/// The paper's code: k data + m parity blocks.
const K: usize = 128;
const M: usize = 128;
/// The paper's reactive repair threshold k'.
const THRESHOLD: usize = 148;
/// Blocks present when a repair triggers (one below the threshold); a
/// repair regenerates the other `K + M - PRESENT` = 109.
const PRESENT: usize = THRESHOLD - 1;
/// Files per archive.
const FILES: usize = 16;
/// Passes between two timed rebuilds of the fixture, so the set-up
/// samples (the set-up metric is their median) spread over the run like
/// the passes do.
const SETUP_EVERY: usize = 8;
/// Parity blocks and offsets per archive checked against the reference
/// GF(2^8) arithmetic.
const SAMPLED_PARITY: usize = 8;
const SAMPLED_OFFSETS: usize = 16;

/// Product in GF(2^8) modulo x^8 + x^4 + x^3 + x^2 + 1 (0x11d) by
/// shift-and-xor, independent of the program's log/exp tables.
pub fn gf_mul_ref(mut a: u8, mut b: u8) -> u8 {
    let mut product = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            product ^= a;
        }
        let carry = a & 0x80 != 0;
        a <<= 1;
        if carry {
            a ^= 0x1d;
        }
        b >>= 1;
    }
    product
}

/// SplitMix64: the benchmark's own seeded stream for inputs.
struct SplitMix(u64);

impl SplitMix {
    fn new(seed: u64, stream: u64) -> Self {
        SplitMix(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    /// The first `take` of a seeded permutation of `0..n`.
    fn sample(&mut self, n: usize, take: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..take {
            let j = i + self.below(n - i);
            idx.swap(i, j);
        }
        idx.truncate(take);
        idx
    }
}

/// Archive count and bytes per archive.
fn sizes(ctx: &Ctx) -> (usize, usize) {
    if ctx.smoke {
        (2, 256 * 1024)
    } else {
        (8, 4 * 1024 * 1024)
    }
}

/// The seeded inputs and the pipelines.
struct Fixture {
    rs: ReedSolomon,
    cipher: XorKeystream,
    backup: BackupPipeline<XorKeystream>,
    restore: RestorePipeline<XorKeystream>,
    archives: Vec<Archive>,
    partners: Vec<u64>,
    /// Backups of every archive (restore and repair only).
    plans: Vec<PlacementPlan>,
    /// Per archive: the `K` blocks a restore reads.
    subsets: Vec<Vec<usize>>,
    /// Per archive: the `PRESENT` surviving blocks of a repair, and the
    /// missing indices it regenerates (sorted).
    survivors: Vec<Vec<(usize, Vec<u8>)>>,
    missing: Vec<Vec<usize>>,
}

fn build_fixture(workload: Workload, ctx: &Ctx) -> Fixture {
    let (count, bytes) = sizes(ctx);
    let mut rng = SplitMix::new(ctx.seed, 1);
    let archives: Vec<Archive> = (0..count)
        .map(|a| {
            let entries = (0..FILES)
                .map(|f| {
                    let mut data = vec![0u8; bytes / FILES];
                    rng.fill(&mut data);
                    Entry {
                        name: format!("home/archive{a}/file{f:02}.bin"),
                        data: Bytes::from(data),
                    }
                })
                .collect();
            Archive::from_entries(a as u64, false, entries)
        })
        .collect();
    let key = rng.next_u64();
    let rs = ReedSolomon::new(K, M).expect("128 + 128 is a valid code");
    let cipher = XorKeystream::new(key);
    let backup = BackupPipeline::new(rs.clone(), cipher, key);
    let partners: Vec<u64> = (0..(K + M) as u64).map(|p| 10_000 + p).collect();
    let mut fx = Fixture {
        rs,
        cipher,
        backup,
        restore: RestorePipeline::new(cipher),
        archives,
        partners,
        plans: Vec::new(),
        subsets: Vec::new(),
        survivors: Vec::new(),
        missing: Vec::new(),
    };
    if workload == Workload::ByteBackup {
        return fx;
    }
    fx.plans = fx
        .archives
        .iter()
        .map(|a| {
            fx.backup
                .backup(a, &fx.partners)
                .expect("backup of a valid archive")
        })
        .collect();
    for plan in &fx.plans {
        fx.subsets.push(rng.sample(K + M, K));
        let present = rng.sample(K + M, PRESENT);
        let mut missing: Vec<usize> = (0..K + M).filter(|i| !present.contains(i)).collect();
        missing.sort_unstable();
        fx.survivors.push(
            present
                .iter()
                .map(|&i| (i, plan.blocks[i].bytes.clone()))
                .collect(),
        );
        fx.missing.push(missing);
    }
    fx
}

/// Blocks a restore reads: the archive's `K`-subset, by reference.
fn restore_blocks<'a>(plan: &'a PlacementPlan, subset: &[usize]) -> Vec<(usize, &'a [u8])> {
    subset
        .iter()
        .map(|&i| (i, plan.blocks[i].bytes.as_slice()))
        .collect()
}

/// What one operation produced (kept until the pass's timer stops).
enum Output {
    Backup(PlacementPlan),
    Restore(Archive),
    Repair(Vec<peerback_core::PlacedBlock>),
}

/// Runs the workload's operation on archive `i`.
fn op(
    workload: Workload,
    fx: &Fixture,
    i: usize,
    scratch: &mut Vec<Vec<u8>>,
) -> Result<Output, String> {
    match workload {
        Workload::ByteBackup => fx
            .backup
            .backup(&fx.archives[i], &fx.partners)
            .map(Output::Backup)
            .map_err(|e| e.to_string()),
        Workload::ByteRestore => {
            let blocks = restore_blocks(&fx.plans[i], &fx.subsets[i]);
            fx.restore
                .restore_with(&fx.rs, &fx.plans[i].descriptor, &blocks, scratch)
                .map(Output::Restore)
                .map_err(|e| e.to_string())
        }
        _ => {
            let partners = &fx.partners[..fx.missing[i].len()];
            fx.backup
                .regenerate(&fx.survivors[i], &fx.missing[i], partners)
                .map(Output::Repair)
                .map_err(|e| e.to_string())
        }
    }
}

/// One pass over every archive: seconds, outputs, and failures.
fn pass(workload: Workload, fx: &Fixture, report: &mut Report) -> (f64, Vec<Output>) {
    let mut scratch = Vec::new();
    let mut outputs = Vec::with_capacity(fx.archives.len());
    let start = Instant::now();
    for i in 0..fx.archives.len() {
        match op(workload, fx, i, &mut scratch) {
            Ok(out) => outputs.push(out),
            Err(e) => {
                eprintln!("perfbench: operation on archive {i} failed: {e}");
                report.failed += 1;
            }
        }
    }
    (secs(start), outputs)
}

/// The parity bytes at sampled offsets equal Σ c·d over the data
/// blocks, computed with [`gf_mul_ref`] from `ReedSolomon::coefficients`.
fn parity_matches_reference(rs: &ReedSolomon, blocks: &[Vec<u8>], rng: &mut SplitMix) -> bool {
    let len = blocks[0].len();
    rng.sample(M, SAMPLED_PARITY).into_iter().all(|p| {
        let row = rs.coefficients(K + p);
        (0..SAMPLED_OFFSETS).all(|_| {
            let off = rng.below(len);
            let expect = (0..K).fold(0u8, |acc, c| {
                acc ^ gf_mul_ref(row[c].value(), blocks[c][off])
            });
            blocks[K + p][off] == expect
        })
    })
}

/// The ciphertext split into `K` zero-padded blocks, computed here.
fn split_reference(ciphertext: &[u8]) -> Vec<Vec<u8>> {
    let len = ciphertext.len().div_ceil(K).max(1);
    (0..K)
        .map(|i| {
            let start = (i * len).min(ciphertext.len());
            let end = ((i + 1) * len).min(ciphertext.len());
            let mut block = ciphertext[start..end].to_vec();
            block.resize(len, 0);
            block
        })
        .collect()
}

/// Checks the outputs of one pass.
fn check_outputs(fx: &Fixture, outputs: &[Output], seed: u64, report: &mut Report) {
    let mut rng = SplitMix::new(seed, 2);
    for (i, out) in outputs.iter().enumerate() {
        match out {
            Output::Backup(plan) => {
                let blocks: Vec<Vec<u8>> = plan.blocks.iter().map(|b| b.bytes.clone()).collect();
                report.check_eq("backup: one block per partner", blocks.len(), K + M);
                let ciphertext = fx.cipher.encrypt(&fx.archives[i].to_bytes());
                report.check(
                    "backup: blocks 0..k equal the split ciphertext",
                    blocks[..K] == split_reference(&ciphertext)[..],
                    || format!("archive {i}"),
                );
                report.check(
                    "backup: parity equals the reference GF(2^8) sums",
                    parity_matches_reference(&fx.rs, &blocks, &mut rng),
                    || format!("archive {i}"),
                );
                let subset = rng.sample(K + M, K);
                let restored = fx.restore.restore_with(
                    &fx.rs,
                    &plan.descriptor,
                    &restore_blocks(plan, &subset),
                    &mut Vec::new(),
                );
                report.check(
                    "backup: a k-subset restores the original",
                    matches!(&restored, Ok(a) if *a == fx.archives[i]),
                    || format!("archive {i}"),
                );
            }
            Output::Restore(archive) => report.check(
                "restore: the restored archive equals the original",
                *archive == fx.archives[i],
                || format!("archive {i}"),
            ),
            Output::Repair(blocks) => {
                let plan = &fx.plans[i];
                let ok = blocks.len() == fx.missing[i].len()
                    && blocks.iter().zip(&fx.missing[i]).all(|(b, &w)| {
                        b.shard_index as usize == w && b.bytes == plan.blocks[w].bytes
                    });
                report.check("repair: regenerated blocks equal the backup's", ok, || {
                    format!("archive {i}")
                });
            }
        }
    }
}

/// Drops the fixture in `slot`, if any, builds it anew and records the
/// build's seconds in `setups`.
fn rebuild(slot: &mut Option<Fixture>, workload: Workload, ctx: &Ctx, setups: &mut Vec<f64>) {
    drop(slot.take());
    let start = Instant::now();
    *slot = Some(build_fixture(workload, ctx));
    setups.push(secs(start));
}

/// The untraced run: passes until `--seconds` of them were measured,
/// rebuilding the fixture every [`SETUP_EVERY`] passes.
pub fn timed(workload: Workload, ctx: &Ctx, report: &mut Report) {
    let mut setups = Vec::new();
    let mut slot = None;
    rebuild(&mut slot, workload, ctx, &mut setups);
    // Peak RSS as of the end of the first unit, so the number of units
    // a run fits in (which depends on speed) cannot move it.
    let mut peak = 0.0;
    let units = Units::repeat(ctx.seconds, 3, 10_000, |i| {
        if i > 0 && i % SETUP_EVERY == 0 {
            rebuild(&mut slot, workload, ctx, &mut setups);
        }
        let fx = slot.as_ref().expect("the fixture is built");
        let (wall, outputs) = pass(workload, fx, report);
        if i == 0 {
            peak = peak_rss_mib();
            check_outputs(fx, &outputs, ctx.seed, report);
        }
        wall
    });
    let archives = slot.as_ref().expect("the fixture is built").archives.len();
    eprintln!(
        "perfbench: {} passes over {archives} archives, {} set-ups, median {:.4} s",
        units.count(),
        setups.len(),
        median(&units.wall)
    );
    report.attempted += units.count() * archives as u64;
    report.set("setup_s", median(&setups));
    report.set("wall_s", median(&units.wall));
    report.set("peak_rss_mib", peak);
}

/// Bytes and seconds through one layer call, summed over archives.
#[derive(Default)]
struct Rate {
    bytes: f64,
    secs: f64,
}

impl Rate {
    fn add(&mut self, bytes: usize, tracer: &Tracer) {
        self.bytes += bytes as f64;
        self.secs += tracer.spans().last().map_or(0.0, |s| s.secs());
    }

    fn mib_s(&self) -> f64 {
        if self.secs > 0.0 {
            self.bytes / (1024.0 * 1024.0) / self.secs
        } else {
            0.0
        }
    }
}

/// Per-layer rates of one traced pass.
#[derive(Default)]
struct Layers {
    codec: Rate,
    cipher: Rate,
    split_join: Rate,
    encode: Rate,
    reconstruct: Rate,
    regenerate: Rate,
    mul_add: Rate,
    plan_secs: Vec<f64>,
}

/// The gf256 kernel on shard-sized slices: `out[j] = Σ_c coeff(rows[j])[c]
/// · data[c]`, one `mul_add_slice` per term.
fn kernel_encode(rs: &ReedSolomon, data: &[Vec<u8>], rows: &[usize]) -> Vec<Vec<u8>> {
    let len = data[0].len();
    rows.iter()
        .map(|&row| {
            let coeff = rs.coefficients(row);
            let mut out = vec![0u8; len];
            for (c, src) in data.iter().enumerate() {
                mul_add_slice(&mut out, src, coeff[c].value());
            }
            out
        })
        .collect()
}

/// Re-enacts archive `i`'s operation one layer call at a time, each in
/// a span, and checks each layer's output against the pipeline's.
fn reenact(
    workload: Workload,
    fx: &Fixture,
    i: usize,
    out: &Output,
    tracer: &mut Tracer,
    layers: &mut Layers,
    report: &mut Report,
) {
    let arg = i as u64;
    let parity_rows: Vec<usize> = (K..K + M).collect();
    match (workload, out) {
        (Workload::ByteBackup, Output::Backup(plan)) => {
            let bytes = tracer.span("core.archive_codec", arg, || fx.archives[i].to_bytes());
            layers.codec.add(bytes.len(), tracer);
            let ct = tracer.span("core.cipher", arg, || fx.cipher.encrypt(&bytes));
            layers.cipher.add(ct.len(), tracer);
            let (data, _) = tracer.span("core.split_join", arg, || {
                Archive::split_into_blocks(&ct, K)
            });
            layers.split_join.add(ct.len(), tracer);
            let mut parity = vec![Vec::new(); M];
            let encoded = tracer.span("erasure.encode", arg, || {
                fx.rs.encode_into(&data, &mut parity)
            });
            layers.encode.add(K * data[0].len(), tracer);
            let kernel = tracer.span("gf256.mul_add", arg, || {
                kernel_encode(&fx.rs, &data, &parity_rows)
            });
            layers.mul_add.add(K * M * data[0].len(), tracer);
            let same = encoded.is_ok()
                && data
                    .iter()
                    .chain(&parity)
                    .eq(plan.blocks.iter().map(|b| &b.bytes))
                && kernel == parity;
            report.check(
                "trace: layer-by-layer backup equals the pipeline's",
                same,
                || format!("archive {i}"),
            );
        }
        (Workload::ByteRestore, Output::Restore(archive)) => {
            let plan = &fx.plans[i];
            let subset = &fx.subsets[i];
            let decode_plan = tracer.span("erasure.decode_plan", arg, || fx.rs.decode_plan(subset));
            layers
                .plan_secs
                .push(tracer.spans().last().map_or(0.0, |s| s.secs()));
            let blocks = restore_blocks(plan, subset);
            let len = blocks[0].1.len();
            let mut data = Vec::new();
            let rebuilt = tracer.span("erasure.reconstruct", arg, || {
                fx.rs.reconstruct_data_into(&blocks, len, &mut data)
            });
            layers.reconstruct.add(K * len, tracer);
            let kernel = tracer.span("gf256.mul_add", arg, || {
                kernel_encode(&fx.rs, &data, &parity_rows)
            });
            layers.mul_add.add(K * M * len, tracer);
            let payload_len = plan.descriptor.payload_len;
            let joined = tracer.span("core.split_join", arg, || {
                Archive::join_blocks(&data, payload_len)
            });
            layers.split_join.add(joined.len(), tracer);
            let pt = tracer.span("core.cipher", arg, || fx.cipher.decrypt(&joined));
            layers.cipher.add(pt.len(), tracer);
            let parsed = tracer.span("core.archive_codec", arg, || Archive::from_bytes(&pt));
            layers.codec.add(pt.len(), tracer);
            let same = decode_plan.is_ok()
                && rebuilt.is_ok()
                && matches!(&parsed, Ok(a) if a == archive)
                && kernel
                    .iter()
                    .zip(&plan.blocks[K..])
                    .all(|(a, b)| *a == b.bytes);
            report.check(
                "trace: layer-by-layer restore equals the pipeline's",
                same,
                || format!("archive {i}"),
            );
        }
        (_, Output::Repair(regenerated)) => {
            let plan = &fx.plans[i];
            let survivors = &fx.survivors[i];
            let missing = &fx.missing[i];
            let sources: Vec<usize> = survivors.iter().map(|(s, _)| *s).collect();
            let decode_plan = tracer.span("erasure.decode_plan", arg, || {
                fx.rs.decode_plan(&sources[..K])
            });
            layers
                .plan_secs
                .push(tracer.spans().last().map_or(0.0, |s| s.secs()));
            let len = survivors[0].1.len();
            let shards = tracer.span("erasure.regenerate", arg, || {
                fx.rs.reconstruct_shards(survivors, len, missing)
            });
            layers.regenerate.add(missing.len() * len, tracer);
            let data: Vec<Vec<u8>> = plan.blocks[..K].iter().map(|b| b.bytes.clone()).collect();
            let kernel = tracer.span("gf256.mul_add", arg, || {
                kernel_encode(&fx.rs, &data, missing)
            });
            layers.mul_add.add(K * missing.len() * len, tracer);
            let same = decode_plan.is_ok()
                && shards.as_ref().is_ok_and(|s| {
                    s.iter().eq(regenerated.iter().map(|b| &b.bytes)) && *s == kernel
                });
            report.check(
                "trace: layer-by-layer repair equals the pipeline's",
                same,
                || format!("archive {i}"),
            );
        }
        _ => unreachable!("an operation's output matches its workload"),
    }
}

/// The traced run: an untraced pass, then a pass with a span around each
/// pipeline call, then every operation re-enacted one layer call at a
/// time.
pub fn traced(workload: Workload, ctx: &Ctx, report: &mut Report) {
    let fx = build_fixture(workload, ctx);
    let (untraced_wall, outputs) = pass(workload, &fx, report);
    check_outputs(&fx, &outputs, ctx.seed, report);
    drop(outputs);

    let run_id = format!("{}-seed{}", workload.name(), ctx.seed);
    let mut tracer = Tracer::new(run_id.clone());
    let mut scratch = Vec::new();
    let mut outputs = Vec::with_capacity(fx.archives.len());
    for i in 0..fx.archives.len() {
        match tracer.span("pipeline", i as u64, || op(workload, &fx, i, &mut scratch)) {
            Ok(out) => outputs.push(out),
            Err(e) => {
                eprintln!("perfbench: operation on archive {i} failed: {e}");
                report.failed += 1;
            }
        }
    }
    let traced_wall = tracer.total("pipeline");
    let mut layers = Layers::default();
    for (i, out) in outputs.iter().enumerate() {
        reenact(workload, &fx, i, out, &mut tracer, &mut layers, report);
    }
    trace::save(&tracer, &run_id);
    report.attempted += 2 * fx.archives.len() as u64;

    report.set("erasure.encode_mib_s", layers.encode.mib_s());
    let plan_us = if layers.plan_secs.is_empty() {
        0.0
    } else {
        median(&layers.plan_secs) * 1e6
    };
    report.set("erasure.decode_plan_us", plan_us);
    report.set("erasure.reconstruct_mib_s", layers.reconstruct.mib_s());
    report.set("erasure.regenerate_mib_s", layers.regenerate.mib_s());
    report.set("gf256.mul_add_mib_s", layers.mul_add.mib_s());
    report.set("core.cipher_mib_s", layers.cipher.mib_s());
    report.set("core.archive_codec_mib_s", layers.codec.mib_s());
    report.set("core.split_join_mib_s", layers.split_join.mib_s());
    report.set("trace.overhead_s", traced_wall - untraced_wall);
    report.set("trace.spans", tracer.spans().len() as f64);
    report.zero_groups(&[Group::Bytes, Group::Trace]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_multiply_gives_known_products_under_0x11d() {
        // x^7 · x = x^8 = x^4 + x^3 + x^2 + 1.
        assert_eq!(gf_mul_ref(0x80, 0x02), 0x1d);
        // (x + 1)(x^2 + x + 1) = x^3 + 1: no reduction.
        assert_eq!(gf_mul_ref(0x03, 0x07), 0x09);
        // 0x8e is the inverse of 2 under 0x11d.
        assert_eq!(gf_mul_ref(0x02, 0x8e), 0x01);
        // Successive powers of the generator 2.
        assert_eq!(gf_mul_ref(0x1d, 0x02), 0x3a);
        assert_eq!(gf_mul_ref(0xe8, 0x02), 0xcd);
        assert_eq!(gf_mul_ref(0xcd, 0x02), 0x87);
        assert_eq!(gf_mul_ref(0x00, 0xff), 0x00);
        assert_eq!(gf_mul_ref(0x01, 0xa7), 0xa7);
    }

    #[test]
    fn reference_multiply_is_a_field_product() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(gf_mul_ref(a, b), gf_mul_ref(b, a));
            }
        }
        // Distributes over xor, and every non-zero element has an inverse.
        for a in 1..=255u8 {
            assert!((1..=255u8).any(|b| gf_mul_ref(a, b) == 1));
            for b in [3u8, 0x53, 0xca] {
                assert_eq!(
                    gf_mul_ref(a, b ^ 0x1f),
                    gf_mul_ref(a, b) ^ gf_mul_ref(a, 0x1f)
                );
            }
        }
    }

    #[test]
    fn split_reference_pads_the_last_blocks() {
        let ct: Vec<u8> = (0..300u32).map(|x| x as u8).collect();
        let blocks = split_reference(&ct);
        assert_eq!(blocks.len(), K);
        assert!(blocks.iter().all(|b| b.len() == 3));
        assert_eq!(blocks[0], vec![0, 1, 2]);
        assert_eq!(blocks[99], vec![41, 42, 43]);
        assert_eq!(blocks[100], vec![0, 0, 0]);
    }

    #[test]
    fn samples_are_distinct_and_seeded() {
        let a = SplitMix::new(5, 1).sample(256, 147);
        let b = SplitMix::new(5, 1).sample(256, 147);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 147);
        assert!(a.iter().all(|&x| x < 256));
        assert_ne!(a, SplitMix::new(6, 1).sample(256, 147));
    }
}
