//! The peerback benchmark.
//!
//! One command runs one named workload with one seed and prints, as its
//! last line, a JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end ones ([`END_TO_END`]),
//! measured with tracing off. With `--trace 1` the run records spans
//! around every call into a layer and reduces them to the per-layer
//! metrics ([`PER_LAYER`]). The program is driven only through public
//! entry points: `Engine::run` and the `World` trait on `BackupWorld`,
//! `Fabric::new`/`Fabric::run`, the backup and restore pipelines,
//! `ReedSolomon` and the gf256 slice kernels. See `README.md` for the
//! workloads, the metrics and the layer → end-to-end mapping.

mod bytes_plane;
mod combined;
mod ledger;
mod report;
mod sim;
mod stats;
mod trace;

use std::process::ExitCode;

use report::Report;

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mib", "MiB")];

/// Per-layer metrics, printed by every workload with `--trace 1`, with
/// the layer group each belongs to. A workload sets the metrics of the
/// groups it exercises; [`Report::zero_groups`] sets the rest to 0.
pub const PER_LAYER: &[(&str, &str, Group)] = &[
    ("sim.dispatches_per_round", "count", Group::Sim),
    ("core.round_s", "s", Group::Sim),
    ("core.round0_s", "s", Group::Sim),
    ("core.round_ms_p50", "ms", Group::Sim),
    ("core.round_ms_p99", "ms", Group::Sim),
    ("core.round_end_s", "s", Group::Sim),
    ("core.us_per_block_placed", "us", Group::Sim),
    ("core.ns_per_peer_round", "ns", Group::Sim),
    ("core.blocks_uploaded", "count", Group::Sim),
    ("core.repairs", "count", Group::Sim),
    ("core.losses", "count", Group::Sim),
    ("core.pool_shortfalls", "count", Group::Sim),
    ("core.joins_completed", "count", Group::Sim),
    ("core.pool_shortfall_ratio", "ratio", Group::Sim),
    ("core.bytes_per_peer", "B", Group::Sim),
    ("core.events_per_round", "count", Group::Sim),
    ("estimate.calibration_mae", "rounds", Group::Sim),
    ("fabric.replay_s", "s", Group::Fabric),
    ("fabric.replay_ms_p50", "ms", Group::Fabric),
    ("fabric.replay_ms_p99", "ms", Group::Fabric),
    ("fabric.ns_per_event", "ns", Group::Fabric),
    ("fabric.ns_per_byte_shipped", "ns", Group::Fabric),
    ("fabric.transfers_attempted", "count", Group::Fabric),
    ("fabric.transfers_retried", "count", Group::Fabric),
    ("fabric.transfers_carried", "count", Group::Fabric),
    ("fabric.bytes_shipped", "count", Group::Fabric),
    ("fabric.repair_decodes", "count", Group::Fabric),
    ("fabric.delivery_ratio", "ratio", Group::Fabric),
    ("fabric.decode_success_ratio", "ratio", Group::Fabric),
    ("fabric.audits", "count", Group::Fabric),
    ("fabric.audit_mismatches", "count", Group::Fabric),
    ("fabric.scrub_detected", "count", Group::Fabric),
    ("fabric.scrub_unrepaired", "count", Group::Fabric),
    ("erasure.encode_mib_s", "MiB/s", Group::Bytes),
    ("erasure.decode_plan_us", "us", Group::Bytes),
    ("erasure.reconstruct_mib_s", "MiB/s", Group::Bytes),
    ("erasure.regenerate_mib_s", "MiB/s", Group::Bytes),
    ("gf256.mul_add_mib_s", "MiB/s", Group::Bytes),
    ("core.cipher_mib_s", "MiB/s", Group::Bytes),
    ("core.archive_codec_mib_s", "MiB/s", Group::Bytes),
    ("core.split_join_mib_s", "MiB/s", Group::Bytes),
    ("trace.overhead_s", "s", Group::Trace),
    ("trace.spans", "count", Group::Trace),
];

/// A group of per-layer metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// The executor, the world round and the estimator.
    Sim,
    /// The combined-mode byte plane.
    Fabric,
    /// The erasure code, the gf256 kernels and the byte-plane helpers.
    Bytes,
    /// The tracer itself.
    Trace,
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every peer joins at round 0: candidate pools and the two-phase
    /// commit against the whole population.
    JoinWave,
    /// Steady-state churn and repair past the 6-month boundary with
    /// `LearnedAge` selection, on one worker.
    PaperSteady,
    /// The fabric over the adaptive-redundancy world: faults, the
    /// transfer scheduler, scrubbing and sampled audits.
    CombinedChurn,
    /// `BackupPipeline::backup` of seeded multi-MiB archives.
    ByteBackup,
    /// `RestorePipeline::restore_with` from a seeded k-subset.
    ByteRestore,
    /// `BackupPipeline::regenerate` of the blocks a k' = 148 repair
    /// replaces.
    ByteRepair,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 6] = [
        Workload::JoinWave,
        Workload::PaperSteady,
        Workload::CombinedChurn,
        Workload::ByteBackup,
        Workload::ByteRestore,
        Workload::ByteRepair,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::JoinWave => "join-wave",
            Workload::PaperSteady => "paper-steady",
            Workload::CombinedChurn => "combined-churn",
            Workload::ByteBackup => "byte-backup",
            Workload::ByteRestore => "byte-restore",
            Workload::ByteRepair => "byte-repair",
        }
    }

    fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What every workload gets from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds of timed work to accumulate (the run repeats whole units
    /// of work until at least this much was measured).
    pub seconds: f64,
    /// Reduced sizes, for a quick check that every workload runs.
    pub smoke: bool,
    /// CPUs this process may use (`available_parallelism`).
    pub cpus: usize,
    /// `--workers`: overrides every workload's worker count (for
    /// measuring the speed-up per added core).
    pub workers: Option<usize>,
}

impl Ctx {
    /// Worker count of a workload's timed runs: `--workers`, else
    /// `default` capped at the CPU count.
    pub fn workers(&self, default: usize) -> usize {
        self.workers.unwrap_or(default.min(self.cpus))
    }

    /// A worker count other than `timed` for the traced run (which
    /// doubles as the cross-worker determinism check); equal to `timed`
    /// only on a one-CPU host.
    pub fn other_workers(&self, timed: usize) -> usize {
        if timed > 1 {
            1
        } else {
            self.cpus.min(2)
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    trace: bool,
    ctx: Ctx,
}

const USAGE: &str = "usage: perfbench --workload <join-wave|paper-steady|combined-churn|\
byte-backup|byte-restore|byte-repair> --seed <n> --seconds <s> --trace <0|1> [--smoke] \
[--workers <n>]";

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut workers = None;
    let mut iter = args.into_iter();
    while let Some(flag) = iter.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--workers" => iter
                .next()
                .ok_or_else(|| format!("flag {flag} needs a value"))?,
            other => return Err(format!("unknown argument {other:?}")),
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed expects an integer, got {value:?}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("--seconds expects a number, got {value:?}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {value}"));
                }
                seconds = Some(s);
            }
            "--workers" => {
                let n = value
                    .parse::<usize>()
                    .map_err(|_| format!("--workers expects an integer, got {value:?}"))?;
                if !(1..=64).contains(&n) {
                    return Err(format!("--workers must be in 1..=64, got {n}"));
                }
                workers = Some(n);
            }
            _ => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                })
            }
        }
    }
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        trace: trace.ok_or("--trace is required")?,
        ctx: Ctx {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            smoke,
            cpus,
            workers,
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: {} seed {} ({} s{}, trace {}, {} cpus, gf256 {})",
        args.workload.name(),
        args.ctx.seed,
        args.ctx.seconds,
        if args.ctx.smoke { ", smoke" } else { "" },
        u8::from(args.trace),
        args.ctx.cpus,
        peerback_gf256::active_backend().name(),
    );
    let mut report = Report::default();
    let ctx = &args.ctx;
    match (args.workload, args.trace) {
        (Workload::JoinWave | Workload::PaperSteady, false) => {
            sim::timed(args.workload, ctx, &mut report)
        }
        (Workload::JoinWave | Workload::PaperSteady, true) => {
            sim::traced(args.workload, ctx, &mut report)
        }
        (Workload::CombinedChurn, false) => combined::timed(ctx, &mut report),
        (Workload::CombinedChurn, true) => combined::traced(ctx, &mut report),
        (w, false) => bytes_plane::timed(w, ctx, &mut report),
        (w, true) => bytes_plane::traced(w, ctx, &mut report),
    }
    let line = if args.trace {
        report.render(PER_LAYER.iter().map(|&(name, unit, _)| (name, unit)))
    } else {
        report.render(END_TO_END.iter().copied())
    };
    println!("{line}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse(&[
            "--workload",
            "byte-restore",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::ByteRestore);
        assert_eq!(a.ctx.seed, 7);
        assert_eq!(a.ctx.seconds, 10.0);
        assert!(a.trace);
        assert!(!a.ctx.smoke);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(parse(&["--workload", "join-wave", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(parse(&[
            "--workload",
            "join-wave",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        let base = [
            "--workload",
            "join-wave",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ];
        let with = |extra: &[&str]| parse(&[&base[..], extra].concat());
        assert_eq!(with(&["--workers", "3"]).unwrap().ctx.workers, Some(3));
        assert!(with(&["--workers", "0"]).is_err());
        assert!(with(&["--workers", "65"]).is_err());
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
