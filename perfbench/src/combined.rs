//! The `combined-churn` workload: `Fabric` over the adaptive-redundancy
//! world, moving real bytes through the fault plane and the transfer
//! scheduler while the world churns.
//!
//! Each unit also runs a fixed-input fault probe, independent of the
//! seed, whose audits and scrub detections are the run's only failing
//! operations under the current program (see `README.md`).

use std::time::Instant;

use peerback_churn::{LifetimeSpec, Profile, ProfileMix};
use peerback_core::{
    AdaptiveRedundancy, BackupWorld, MaintenancePolicy, Metrics, SelectionStrategy, SimConfig,
};
use peerback_fabric::{Fabric, FabricConfig, FabricReport, FaultProfile, ScheduleConfig};
use peerback_sim::{sim_rng, Engine, Round, World};

use crate::report::Report;
use crate::stats::{median, peak_rss_mib, per, percentile, secs, Units};
use crate::trace::{self, Tracer};
use crate::{Ctx, Group};

/// Width the adaptive policy may trim off the 16 + 16 code.
const MAX_TRIM: u16 = 8;
/// Per-peer, per-round link budget in bytes: small enough that joins
/// and repairs queue and carry across rounds.
const LINK_CAP: u64 = 2_048;
/// Seed of the fault probe (fixed: its inputs never depend on
/// `--seed`).
const PROBE_SEED: u64 = 1;
/// Population and length of the fault probe.
const PROBE_PEERS: usize = 192;
const PROBE_ROUNDS: u64 = 600;
/// Extra `Fabric::new` calls timed for the set-up median, twice per
/// unit (after its run and after its probe): set-up is a bare
/// constructor of some 50 µs, so the median needs many samples, spread
/// over the run like the units are.
const SETUPS_PER_SAMPLE: usize = 20;

fn peers(ctx: &Ctx) -> usize {
    if ctx.smoke {
        256
    } else {
        512
    }
}

fn rounds(ctx: &Ctx) -> u64 {
    if ctx.smoke {
        300
    } else {
        2_000
    }
}

/// `adaptive_probe`'s churn-rich world: 16 + 16 code, quota 72,
/// reactive threshold 18, an all-Pareto profile mix, `LearnedAge`
/// selection and adaptive redundancy trimming up to [`MAX_TRIM`].
fn sim_config(peers: usize, rounds: u64, seed: u64, workers: usize) -> SimConfig {
    let mut cfg = SimConfig::paper(peers, rounds, seed)
        .with_strategy(SelectionStrategy::LearnedAge)
        .with_shards(workers);
    cfg.k = 16;
    cfg.m = 16;
    cfg.quota = 72;
    cfg.maintenance = MaintenancePolicy::Reactive { threshold: 18 };
    let pareto = |x_min, alpha| LifetimeSpec::Pareto { x_min, alpha };
    cfg.profiles = ProfileMix::new(vec![
        (Profile::new("Flash", pareto(30.0, 1.5), 0.33), 0.5),
        (Profile::new("Transient", pareto(120.0, 1.9), 0.75), 0.3),
        (Profile::new("Seasonal", pareto(400.0, 2.4), 0.9), 0.2),
    ]);
    cfg.with_adaptive_n(AdaptiveRedundancy::tuned(MAX_TRIM))
}

/// 4 KiB payloads, a 2% uniform fault profile, the link-capped
/// scheduler, periodic scrubbing and sampled audits.
fn fabric_config() -> FabricConfig {
    FabricConfig {
        faults: FaultProfile::uniform(0.02),
        payload_bytes: 4_096,
        audit_interval: 2,
        audit_sample_period: 32,
        scrub_interval: 50,
        schedule: Some(ScheduleConfig {
            link_cap: Some(LINK_CAP),
            ..ScheduleConfig::default()
        }),
        ..FabricConfig::default()
    }
}

/// Operations of the fault probe, and how many of them failed.
#[derive(Debug, Clone, Copy)]
struct ProbeOps {
    attempted: u64,
    failed: u64,
}

/// The fault probe: a fixed-input fabric run (192 peers × 600 rounds,
/// seed 1) with the link cap, 5% faults, a scrub every 5 rounds and the
/// sampled audits. Its operations are its audit checks and its scrub
/// detections; failed are the audit mismatches and the detections still
/// unrepaired after `Fabric::run` has drained. Both known faults show on
/// every run while they stand:
///
/// 1. Adaptive redundancy desyncs the fabric: a join completing at a
///    trimmed width leaves shard slots empty, an audit mismatch.
/// 2. Cancelled scrub re-ships are never counted as resolved, so
///    `scrub_unrepaired()` stays above 0.
fn fault_probe() -> ProbeOps {
    let start = Instant::now();
    let fr = Fabric::new(
        sim_config(PROBE_PEERS, PROBE_ROUNDS, PROBE_SEED, 1),
        FabricConfig {
            faults: FaultProfile::uniform(0.05),
            payload_bytes: 2_048,
            scrub_interval: 5,
            ..fabric_config()
        },
    )
    .expect("probe configuration is valid")
    .run();
    let (audit, stats) = (&fr.audit, &fr.stats);
    eprintln!(
        "perfbench: fault probe ({:.3} s): {} audits, {} mismatches {:?}; \
         {} scrub detections, {} unrepaired",
        secs(start),
        audit.checks,
        audit.mismatches,
        audit.notes.first(),
        stats.scrub_detected,
        stats.scrub_unrepaired()
    );
    ProbeOps {
        attempted: audit.checks + stats.scrub_detected,
        failed: audit.mismatches + stats.scrub_unrepaired(),
    }
}

/// Counts one unit: its rounds plus the probe's operations.
fn count_unit(report: &mut Report, rounds: u64, probe: ProbeOps) {
    report.attempted += rounds + probe.attempted;
    report.failed += probe.failed;
}

/// The identities between the fabric's counters and the world's.
fn check_report(fr: &FabricReport, report: &mut Report) {
    let s = &fr.stats;
    let m = &fr.metrics;
    report.check_eq(
        "combined: attempted = delivered + corrupted + truncated + flapped",
        s.transfers_attempted,
        s.transfers_delivered + s.transfers_corrupted + s.transfers_truncated + s.transfers_flapped,
    );
    report.check_eq(
        "combined: fabric joins = joins_completed",
        s.joins,
        m.diag.joins_completed,
    );
    report.check_eq(
        "combined: fabric episodes = repairs",
        s.episodes,
        m.total_repairs(),
    );
    report.check_eq(
        "combined: losses observed = losses",
        s.losses_observed,
        m.total_losses(),
    );
}

/// `into_metrics()` of a plain `BackupWorld` with the same config.
fn plain_metrics(cfg: &SimConfig) -> Metrics {
    let mut world = BackupWorld::new(cfg.clone());
    Engine::new(cfg.seed).run(&mut world, cfg.rounds);
    world.into_metrics()
}

fn log_faults(fr: &FabricReport) {
    eprintln!(
        "perfbench: {} audits, {} mismatches; {} scrub detections, {} unrepaired",
        fr.audit.checks,
        fr.audit.mismatches,
        fr.stats.scrub_detected,
        fr.stats.scrub_unrepaired()
    );
}

/// Times [`SETUPS_PER_SAMPLE`] bare `Fabric::new` calls into `setups`.
fn sample_setups(cfg: &SimConfig, setups: &mut Vec<f64>) {
    for _ in 0..SETUPS_PER_SAMPLE {
        let start = Instant::now();
        let fabric = Fabric::new(cfg.clone(), fabric_config()).expect("valid configuration");
        setups.push(secs(start));
        drop(fabric);
    }
}

/// The untraced run: repeated `Fabric::new` + `Fabric::run` units.
pub fn timed(ctx: &Ctx, report: &mut Report) {
    let rounds = rounds(ctx);
    let cfg = sim_config(peers(ctx), rounds, ctx.seed, ctx.workers(1));
    let mut first: Option<FabricReport> = None;
    let mut setups = Vec::new();
    // Peak RSS as of the end of the first unit, so the number of units
    // a run fits in (which depends on speed) cannot move it.
    let mut peak = 0.0;
    let units = Units::repeat(ctx.seconds, 3, 50, |i| {
        let start = Instant::now();
        let fabric = Fabric::new(cfg.clone(), fabric_config()).expect("valid configuration");
        let setup = secs(start);
        let start = Instant::now();
        let fr = fabric.run();
        let wall = secs(start);
        if i == 0 {
            peak = peak_rss_mib();
        }
        setups.push(setup);
        sample_setups(&cfg, &mut setups);
        eprintln!("perfbench: unit {i}: setup {setup:.4} s, run {wall:.4} s");
        match &first {
            None => {
                log_faults(&fr);
                check_report(&fr, report);
                report.check(
                    "combined: fabric Metrics equal a plain world's",
                    fr.metrics == plain_metrics(&cfg),
                    String::new,
                );
                first = Some(fr);
            }
            Some(f) => report.check(
                "determinism: every unit has the same report",
                f.metrics == fr.metrics && f.stats == fr.stats && f.audit == fr.audit,
                || format!("unit {i} differs"),
            ),
        }
        count_unit(report, rounds, fault_probe());
        sample_setups(&cfg, &mut setups);
        wall
    });
    report.set("setup_s", median(&setups));
    report.set("wall_s", median(&units.wall));
    report.set("peak_rss_mib", peak);
}

/// The traced run: a reference `Fabric::run` at the timed worker count,
/// a traced round-by-round drive at another worker count (ended with
/// `Fabric::finish`, since the overtime drain is private), and an
/// untraced drive at that worker count for the tracing overhead.
pub fn traced(ctx: &Ctx, report: &mut Report) {
    let rounds = rounds(ctx);
    let workers = ctx.workers(1);
    let other = ctx.other_workers(workers);

    let fabric = Fabric::new(
        sim_config(peers(ctx), rounds, ctx.seed, workers),
        fabric_config(),
    )
    .expect("valid configuration");
    let pool = fabric.world().worker_pool().clone();
    let before = pool.dispatches();
    let reference = fabric.run();
    let dispatches = pool.dispatches() - before;
    drop(pool);
    log_faults(&reference);
    count_unit(report, rounds, fault_probe());

    let cfg = sim_config(peers(ctx), rounds, ctx.seed, other);
    let run_id = format!("combined-churn-seed{}", ctx.seed);
    let mut tracer = Tracer::new(run_id.clone());
    let mut fabric = Fabric::new(cfg.clone(), fabric_config()).expect("valid configuration");
    let mut rng = sim_rng(cfg.seed);
    let mut events = Vec::with_capacity(rounds as usize);
    let mut actors = Vec::new();
    for r in 0..rounds {
        let round = Round(r);
        let open = tracer.enter("round", r);
        tracer.span("core.round_start", r, || {
            fabric.round_start(round, &mut rng)
        });
        events.push(fabric.world().pending_events());
        fabric.collect_actors(round, &mut actors);
        assert!(
            actors.is_empty(),
            "the staged world queues no engine actors"
        );
        tracer.span("fabric.round_end", r, || fabric.round_end(round, &mut rng));
        tracer.exit(open);
    }
    // Pool wake-ups count only on a multi-worker run: take them from
    // whichever of the two drives had more workers.
    let dispatches = if other > workers {
        fabric.world().stage_dispatches()
    } else {
        dispatches
    };
    let bytes_per_peer = fabric.world().memory_breakdown().total();
    let mae = fabric
        .world()
        .estimator_report()
        .map_or(0.0, |e| e.calibration_mae);
    let fr = fabric.finish();
    check_report(&fr, report);
    report.check(
        "determinism: traced Metrics equal timed Metrics",
        fr.metrics == reference.metrics,
        || format!("{other} vs {workers} workers"),
    );

    let mut fabric = Fabric::new(cfg.clone(), fabric_config()).expect("valid configuration");
    let start = Instant::now();
    Engine::new(cfg.seed).run(&mut fabric, rounds);
    let untraced_wall = secs(start);
    drop(fabric.finish());
    trace::save(&tracer, &run_id);

    let starts = tracer.durations("core.round_start", |_| true);
    let replays = tracer.durations("fabric.round_end", |_| true);
    let round_s: f64 = starts.iter().sum();
    let replay_s: f64 = replays.iter().sum();
    let m = &fr.metrics;
    let s = &fr.stats;
    let all_events = events.iter().sum::<usize>() as u64;
    let joins = m.diag.joins_completed;
    let repairs = m.total_repairs();

    report.set("sim.dispatches_per_round", per(dispatches as f64, rounds));
    report.set("core.round_s", round_s);
    report.set("core.round0_s", starts[0]);
    report.set("core.round_ms_p50", percentile(&starts, 50.0) * 1e3);
    report.set("core.round_ms_p99", percentile(&starts, 99.0) * 1e3);
    report.set(
        "core.us_per_block_placed",
        per(round_s * 1e6, m.diag.blocks_uploaded),
    );
    report.set(
        "core.ns_per_peer_round",
        per(round_s * 1e9, m.peer_rounds.iter().sum()),
    );
    report.set("core.blocks_uploaded", m.diag.blocks_uploaded as f64);
    report.set("core.repairs", repairs as f64);
    report.set("core.losses", m.total_losses() as f64);
    report.set("core.pool_shortfalls", m.diag.pool_shortfalls as f64);
    report.set("core.joins_completed", joins as f64);
    report.set(
        "core.pool_shortfall_ratio",
        per(m.diag.pool_shortfalls as f64, joins + repairs),
    );
    report.set("core.bytes_per_peer", bytes_per_peer);
    report.set("core.events_per_round", per(all_events as f64, rounds));
    report.set("estimate.calibration_mae", mae);
    report.set("fabric.replay_s", replay_s);
    report.set("fabric.replay_ms_p50", percentile(&replays, 50.0) * 1e3);
    report.set("fabric.replay_ms_p99", percentile(&replays, 99.0) * 1e3);
    report.set("fabric.ns_per_event", per(replay_s * 1e9, all_events));
    report.set(
        "fabric.ns_per_byte_shipped",
        per(replay_s * 1e9, s.bytes_shipped),
    );
    report.set("fabric.transfers_attempted", s.transfers_attempted as f64);
    report.set("fabric.transfers_retried", s.transfers_retried as f64);
    report.set("fabric.transfers_carried", s.transfers_carried as f64);
    report.set("fabric.bytes_shipped", s.bytes_shipped as f64);
    report.set("fabric.repair_decodes", s.repair_decodes as f64);
    report.set(
        "fabric.delivery_ratio",
        per(s.transfers_delivered as f64, s.transfers_attempted),
    );
    report.set(
        "fabric.decode_success_ratio",
        per(fr.audit.decode_successes as f64, fr.audit.decode_attempts),
    );
    report.set("fabric.audits", reference.audit.checks as f64);
    report.set("fabric.audit_mismatches", reference.audit.mismatches as f64);
    report.set(
        "fabric.scrub_detected",
        reference.stats.scrub_detected as f64,
    );
    report.set(
        "fabric.scrub_unrepaired",
        reference.stats.scrub_unrepaired() as f64,
    );
    let traced_wall: f64 = tracer.durations("round", |_| true).iter().sum();
    report.set("trace.overhead_s", traced_wall - untraced_wall);
    report.set("trace.spans", tracer.spans().len() as f64);
    // The world's `round_end` runs inside `Fabric`'s, in `fabric.replay_s`.
    report.set("core.round_end_s", 0.0);
    report.zero_groups(&[Group::Sim, Group::Fabric, Group::Trace]);
}
