//! The simulator workloads: `join-wave` and `paper-steady`.
//!
//! Both run the paper's geometry (k = m = 128, quota 384, reactive
//! k' = 148, the paper's profiles and five observers) through
//! `Engine::run`. A unit of work is one fresh world: set-up is
//! `BackupWorld::new` plus the warm-up rounds, the timed window is the
//! rounds after them.

use std::time::Instant;

use peerback_core::{AgeCategory, BackupWorld, Metrics, SelectionStrategy, SimConfig, WorldEvent};
use peerback_sim::{sim_rng, Engine, Round, World};

use crate::ledger::Ledger;
use crate::report::Report;
use crate::stats::{median, peak_rss_mib, per, percentile, secs, Units};
use crate::trace::{self, Tracer};
use crate::{Ctx, Group, Workload};

/// Size and shape of one simulator workload.
#[derive(Debug, Clone, Copy)]
struct Spec {
    peers: usize,
    /// Rounds run before the timed window (counted in set-up).
    warm: u64,
    /// Rounds in the timed window.
    window: u64,
    strategy: SelectionStrategy,
    /// Worker count of the timed runs.
    workers: usize,
    /// Fewest units a run repeats.
    min_units: usize,
    /// Extra `BackupWorld::new` calls timed after each unit for the
    /// set-up median when set-up is a bare constructor (so the median
    /// sees many samples, spread over the run like the units are).
    setups_per_unit: usize,
    /// Whether to check the paper's age effect on repair rates.
    paper_effect: bool,
}

fn spec(workload: Workload, ctx: &Ctx) -> Spec {
    match workload {
        Workload::JoinWave => Spec {
            peers: if ctx.smoke { 2_000 } else { 10_000 },
            warm: 0,
            window: if ctx.smoke { 12 } else { 48 },
            strategy: SelectionStrategy::AgeBased,
            workers: ctx.workers(2),
            min_units: 3,
            setups_per_unit: 20,
            paper_effect: false,
        },
        Workload::PaperSteady => Spec {
            peers: if ctx.smoke { 512 } else { 2_048 },
            warm: 500,
            // Past the 6-month (4320-round) Old boundary.
            window: 4_300,
            strategy: SelectionStrategy::LearnedAge,
            workers: ctx.workers(1),
            min_units: 3,
            setups_per_unit: 0,
            paper_effect: true,
        },
        _ => unreachable!("not a simulator workload"),
    }
}

fn config(spec: &Spec, seed: u64, workers: usize) -> SimConfig {
    SimConfig::paper(spec.peers, spec.warm + spec.window, seed)
        .with_paper_observers()
        .with_strategy(spec.strategy)
        .with_shards(workers)
}

/// One untraced unit through `Engine::run`.
struct TimedRun {
    setup: f64,
    wall: f64,
    /// Pool wake-ups during the timed window.
    dispatches: u64,
    world: BackupWorld,
}

fn run_timed(cfg: &SimConfig, spec: &Spec) -> TimedRun {
    let start = Instant::now();
    let mut world = BackupWorld::new(cfg.clone());
    let mut engine = Engine::new(cfg.seed);
    engine.run(&mut world, spec.warm);
    let setup = secs(start);
    let before = world.stage_dispatches();
    let start = Instant::now();
    engine.run(&mut world, spec.window);
    let wall = secs(start);
    TimedRun {
        setup,
        wall,
        dispatches: world.stage_dispatches() - before,
        world,
    }
}

/// The world invariants, checked through the public accessors for every
/// slot and archive.
pub fn check_world(world: &BackupWorld, report: &mut Report) {
    let cfg = world.config();
    let n = cfg.n_blocks() as usize;
    let apa = cfg.archives_per_peer as u8;
    let cap = cfg.quota as usize + cfg.observers.len() * cfg.archives_per_peer as usize;
    let slots = world.peer_slots();
    let mut load = vec![0usize; slots];
    let (mut repeated, mut self_hosted, mut too_wide, mut unknown) = (0, 0, 0, 0);
    for owner in 0..slots as u32 {
        for a in 0..apa {
            let mut hosts = world.archive_hosts(owner, a);
            too_wide += usize::from(hosts.len() > n);
            self_hosted += usize::from(hosts.contains(&owner));
            for &h in &hosts {
                match load.get_mut(h as usize) {
                    Some(l) => *l += 1,
                    None => unknown += 1,
                }
            }
            hosts.sort_unstable();
            let len = hosts.len();
            hosts.dedup();
            repeated += usize::from(hosts.len() != len);
        }
    }
    let max_load = load.iter().copied().max().unwrap_or(0);
    eprintln!("perfbench: world invariants over {slots} slots, max host load {max_load} <= {cap}");
    report.check("world: archive hosts are distinct", repeated == 0, || {
        format!("{repeated} archives list a host twice")
    });
    report.check(
        "world: no archive is hosted by its owner",
        self_hosted == 0,
        || format!("{self_hosted} archives"),
    );
    report.check(
        "world: at most k+m hosts per archive",
        too_wide == 0,
        || format!("{too_wide} archives wider than {n}"),
    );
    report.check("world: hosts are allocated slots", unknown == 0, || {
        format!("{unknown} entries")
    });
    report.check(
        "world: no host exceeds quota + observers x archives",
        max_load <= cap,
        || format!("max load {max_load} > {cap}"),
    );
}

/// The paper's effect: Newcomers cost more repairs per 1000 peer-rounds
/// than Old peers.
fn check_paper_effect(m: &Metrics, report: &mut Report) {
    let newcomer = m.repair_rate_per_1000(AgeCategory::Newcomer);
    let old = m.repair_rate_per_1000(AgeCategory::Old);
    eprintln!("perfbench: repairs per 1000 peer-rounds: Newcomer {newcomer:?}, Old {old:?}");
    report.check(
        "paper effect: Newcomer repair rate exceeds Old",
        matches!((newcomer, old), (Some(n), Some(o)) if n > o),
        || format!("Newcomer {newcomer:?}, Old {old:?}"),
    );
}

/// The untraced run: repeated units, medians of set-up and window time.
pub fn timed(workload: Workload, ctx: &Ctx, report: &mut Report) {
    let spec = spec(workload, ctx);
    let cfg = config(&spec, ctx.seed, spec.workers);
    let mut first: Option<Metrics> = None;
    let mut setups = Vec::new();
    // Peak RSS as of the end of the first unit, so the number of units
    // a run fits in (which depends on speed) cannot move it.
    let mut peak = 0.0;
    let units = Units::repeat(ctx.seconds, spec.min_units, 50, |i| {
        let run = run_timed(&cfg, &spec);
        eprintln!(
            "perfbench: unit {i}: setup {:.4} s, window {:.4} s",
            run.setup, run.wall
        );
        if i == 0 {
            peak = peak_rss_mib();
            check_world(&run.world, report);
        }
        let metrics = run.world.into_metrics();
        match &first {
            None => {
                if spec.paper_effect {
                    check_paper_effect(&metrics, report);
                }
                first = Some(metrics);
            }
            Some(f) => report.check(
                "determinism: every unit has the same Metrics",
                *f == metrics,
                || format!("unit {i} differs"),
            ),
        }
        setups.push(run.setup);
        for _ in 0..spec.setups_per_unit {
            let start = Instant::now();
            let world = BackupWorld::new(cfg.clone());
            setups.push(secs(start));
            drop(world);
        }
        run.wall
    });
    report.attempted += units.count() * spec.window;
    report.set("setup_s", median(&setups));
    report.set("wall_s", median(&units.wall));
    report.set("peak_rss_mib", peak);
}

/// What the traced unit observed besides its spans.
struct TracedRun {
    world: BackupWorld,
    ledger: Ledger,
    /// Metrics as they stood when the timed window began.
    at_window: Metrics,
    /// `pending_events()` after each window round's `round_start`.
    events: Vec<usize>,
    /// Pool wake-ups during the timed window.
    dispatches: u64,
}

/// Steps `World::round_start`/`round_end` directly with spans around
/// each, recording events and replaying them into a ledger.
fn run_traced(cfg: &SimConfig, spec: &Spec, tracer: &mut Tracer) -> TracedRun {
    let mut world = BackupWorld::new(cfg.clone());
    world.set_event_recording(true);
    let mut rng = sim_rng(cfg.seed);
    let mut ledger = Ledger::new(cfg.archives_per_peer as usize);
    let mut at_window = world.metrics().clone();
    let mut events = Vec::with_capacity(spec.window as usize);
    let mut buf: Vec<WorldEvent> = Vec::new();
    let mut actors = Vec::new();
    let mut dispatches = 0;
    for r in 0..spec.warm + spec.window {
        if r == spec.warm {
            at_window = world.metrics().clone();
            dispatches = world.stage_dispatches();
        }
        let round = Round(r);
        let open = tracer.enter("round", r);
        tracer.span("core.round_start", r, || world.round_start(round, &mut rng));
        if r >= spec.warm {
            events.push(world.pending_events());
        }
        world.collect_actors(round, &mut actors);
        assert!(
            actors.is_empty(),
            "the staged world queues no engine actors"
        );
        tracer.span("core.round_end", r, || world.round_end(round, &mut rng));
        tracer.span("bench.ledger", r, || {
            world.swap_event_buf(&mut buf);
            for event in buf.drain(..) {
                ledger.apply(&event);
            }
        });
        tracer.exit(open);
    }
    TracedRun {
        dispatches: world.stage_dispatches() - dispatches,
        world,
        ledger,
        at_window,
        events,
    }
}

/// The event-ledger identities and the ledger-equals-world check.
fn check_ledger(run: &TracedRun, report: &mut Report) {
    let ledger = &run.ledger;
    for e in &ledger.errors {
        eprintln!("perfbench: ledger: {e}");
    }
    report.check_eq("ledger: replay contradicts no event", ledger.error_count, 0);
    let diff = ledger.diff(&run.world);
    report.check(
        "ledger: host lists equal archive_hosts",
        diff.is_empty(),
        || format!("{} archives differ, first {:?}", diff.len(), diff.first()),
    );
    let m = run.world.metrics();
    report.check_eq(
        "ledger: placed hosts = blocks_uploaded",
        ledger.placed,
        m.diag.blocks_uploaded,
    );
    report.check_eq(
        "ledger: JoinCompleted = joins_completed",
        ledger.joins,
        m.diag.joins_completed,
    );
    report.check_eq(
        "ledger: PeerDeparted = departures",
        ledger.departures,
        m.diag.departures,
    );
}

/// Identities that need the observers' totals from `into_metrics`.
fn check_ledger_totals(ledger: &Ledger, m: &Metrics, report: &mut Report) {
    report.check_eq(
        "ledger: ArchiveLost = losses",
        ledger.losses,
        m.total_losses(),
    );
    let observer_repairs: u64 = m.observers.iter().map(|o| o.total_repairs).sum();
    report.check_eq(
        "ledger: EpisodeStarted = repairs + observer repairs",
        ledger.episodes,
        m.total_repairs() + observer_repairs,
    );
}

/// The traced run: a reference unit at the timed worker count, a traced
/// unit at another worker count (whose `Metrics` must equal the
/// reference's), and an untraced unit at the traced worker count for the
/// tracing overhead.
pub fn traced(workload: Workload, ctx: &Ctx, report: &mut Report) {
    let spec = spec(workload, ctx);
    let other = ctx.other_workers(spec.workers);

    let reference = run_timed(&config(&spec, ctx.seed, spec.workers), &spec);
    let reference_metrics = reference.world.into_metrics();

    let run_id = format!("{}-seed{}", workload.name(), ctx.seed);
    let mut tracer = Tracer::new(run_id.clone());
    let cfg = config(&spec, ctx.seed, other);
    let run = run_traced(&cfg, &spec, &mut tracer);
    check_world(&run.world, report);
    check_ledger(&run, report);
    let bytes_per_peer = run.world.memory_breakdown().total();
    let mae = run
        .world
        .estimator_report()
        .map_or(0.0, |r| r.calibration_mae);
    let TracedRun {
        world,
        ledger,
        at_window,
        events,
        dispatches,
    } = run;
    // Pool wake-ups count only on a multi-worker run: take them from
    // whichever of the two units had more workers.
    let dispatches = if other > spec.workers {
        dispatches
    } else {
        reference.dispatches
    };
    let metrics = world.into_metrics();
    check_ledger_totals(&ledger, &metrics, report);
    if spec.paper_effect {
        check_paper_effect(&metrics, report);
    }
    report.check(
        "determinism: traced Metrics equal timed Metrics",
        metrics == reference_metrics,
        || format!("{other} vs {} workers", spec.workers),
    );

    let untraced = run_timed(&cfg, &spec);
    let untraced_wall = untraced.wall;
    drop(untraced);
    trace::save(&tracer, &run_id);

    let in_window = |r: u64| r >= spec.warm;
    let starts = tracer.durations("core.round_start", in_window);
    let round_s: f64 = starts.iter().sum();
    let traced_wall = tracer.durations("round", in_window).iter().sum::<f64>()
        - tracer
            .durations("bench.ledger", in_window)
            .iter()
            .sum::<f64>();
    let d = &metrics.diag;
    let w = &at_window.diag;
    let blocks = d.blocks_uploaded - w.blocks_uploaded;
    let repairs = metrics.total_repairs() - at_window.total_repairs();
    let joins = d.joins_completed - w.joins_completed;
    let shortfalls = d.pool_shortfalls - w.pool_shortfalls;
    let peer_rounds: u64 =
        metrics.peer_rounds.iter().sum::<u64>() - at_window.peer_rounds.iter().sum::<u64>();
    report.set(
        "sim.dispatches_per_round",
        per(dispatches as f64, spec.window),
    );
    report.set("core.round_s", round_s);
    report.set(
        "core.round0_s",
        tracer.durations("core.round_start", |r| r == 0)[0],
    );
    report.set("core.round_ms_p50", percentile(&starts, 50.0) * 1e3);
    report.set("core.round_ms_p99", percentile(&starts, 99.0) * 1e3);
    report.set(
        "core.round_end_s",
        tracer.durations("core.round_end", in_window).iter().sum(),
    );
    report.set("core.us_per_block_placed", per(round_s * 1e6, blocks));
    report.set("core.ns_per_peer_round", per(round_s * 1e9, peer_rounds));
    report.set("core.blocks_uploaded", blocks as f64);
    report.set("core.repairs", repairs as f64);
    report.set(
        "core.losses",
        (metrics.total_losses() - at_window.total_losses()) as f64,
    );
    report.set("core.pool_shortfalls", shortfalls as f64);
    report.set("core.joins_completed", joins as f64);
    report.set(
        "core.pool_shortfall_ratio",
        per(shortfalls as f64, joins + repairs),
    );
    report.set("core.bytes_per_peer", bytes_per_peer);
    report.set(
        "core.events_per_round",
        per(events.iter().sum::<usize>() as f64, events.len() as u64),
    );
    report.set("estimate.calibration_mae", mae);
    report.set("trace.overhead_s", traced_wall - untraced_wall);
    report.set("trace.spans", tracer.spans().len() as f64);
    report.zero_groups(&[Group::Sim, Group::Trace]);
    // Reference, traced and overhead units: three windows of rounds.
    report.attempted += 3 * spec.window;
}
