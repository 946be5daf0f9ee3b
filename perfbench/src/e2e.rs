//! The untraced runs: the assembled `MonitoringSystem` driven closed-loop,
//! timed from outside, with its outputs checked.

use crate::report::Report;
use crate::stats::{median, Samples};
use crate::workload::{
    inputs, Inputs, QueryMix, Workload, DASHBOARD_WARMUP_TICKS, NODES, POWER_CAP_W,
    QUERIES_PER_ROUND, QUERY_KINDS, READBACK_BLOCK_QUERIES, READBACK_EVERY_TICKS, STEADY_TICKS,
};
use hpcmon::durability::{DurabilityConfig, SimDisk};
use hpcmon::gateway::{GatewayConfig, QueryError, QueryRequest, QueryResponse};
use hpcmon::health::{HealthConfig, Transition};
use hpcmon::metrics::{CompId, SeriesKey, Ts};
use hpcmon::response::Consumer;
use hpcmon::store::QueryEngine;
use hpcmon::trace::Sampler;
use hpcmon::{MonitorBuilder, MonitoringSystem};
use std::sync::Arc;
use std::time::Instant;

/// What the traced run compares against: the untraced run's totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Wall time of the timed ticks (dashboard: ticks and queries), s.
    pub timed_s: f64,
    pub series: usize,
    pub samples_ingested: u64,
    /// Incident only: rebuild plus `recover_from_medium`, s.
    pub recovery_s: f64,
    /// Incident only: `recovery_s` per replayed tick (rebuild, checkpoint
    /// restore and replay together), ms.
    pub replay_ms_per_tick: f64,
    /// Incident only: median detection lag over scheduled crashes, ticks.
    pub detect_lag_ticks: f64,
    /// Signals raised, response actions taken and alerts fired.
    pub signals: u64,
    pub actions: u64,
    pub alerts_fired: u64,
    /// Incident with `per_layer` only: `MonitoringSystem::snapshot` plus
    /// serialization (median of three), its size, and decode plus
    /// `restore_snapshot` onto a freshly built system.
    pub snapshot_ms: f64,
    pub checkpoint_bytes: u64,
    pub restore_ms: f64,
}

pub struct Built {
    pub mon: MonitoringSystem,
    pub inputs: Inputs,
    pub disk: Option<Arc<SimDisk>>,
}

/// The system builder for a workload, without a durability plane.
pub fn builder(w: Workload, seed: u64, inputs: &Inputs) -> MonitorBuilder {
    let b = MonitoringSystem::builder(w.sim_config(seed)).self_telemetry(false);
    match w {
        Workload::Dashboard512 => b.tracing(Sampler::off()).gateway(GatewayConfig {
            shards: 1,
            workers_per_shard: 1,
            ..GatewayConfig::default()
        }),
        Workload::Incident512 | Workload::Incident512WalSlo => b
            .chaos(seed ^ 0xC4A05, inputs.chaos.clone())
            .health(health_config(w))
            .tracing(Sampler::one_in(16))
            .bench_suite_every(Some(10))
            .power_cap_w(POWER_CAP_W)
            .workers(2),
    }
}

/// The incident workloads' health plane.
pub fn health_config(w: Workload) -> HealthConfig {
    if w == Workload::Incident512WalSlo {
        HealthConfig::standard().durability()
    } else {
        HealthConfig::standard()
    }
}

/// Total ticks the system will run (warm-up included).
pub fn total_ticks(w: Workload, seconds: u64) -> u64 {
    let timed = w.timed_ticks(seconds);
    if w == Workload::Dashboard512 {
        timed + DASHBOARD_WARMUP_TICKS
    } else {
        timed
    }
}

/// Build the system, hand it its inputs, and (dashboard) warm it up.
pub fn setup(w: Workload, seed: u64, seconds: u64) -> Built {
    let tick_ms = w.sim_config(seed).tick_ms;
    let shards = hpcmon::store::TimeSeriesStore::new().num_shards();
    let inputs = inputs(w, seed, total_ticks(w, seconds), tick_ms, shards);
    let mut b = builder(w, seed, &inputs);
    let mut disk = None;
    if w.is_incident() {
        let d = Arc::new(SimDisk::new());
        b = b.durability(d.clone(), DurabilityConfig::default());
        disk = Some(d);
    }
    let mut mon = b.build();
    if w.is_incident() {
        mon.set_state_hashing(true);
    }
    for job in &inputs.jobs {
        mon.submit_job(job.clone());
    }
    for &(at, kind) in &inputs.faults {
        mon.schedule_fault(at, kind);
    }
    if w == Workload::Dashboard512 {
        mon.run_ticks(DASHBOARD_WARMUP_TICKS);
    }
    Built { mon, inputs, disk }
}

/// Set up `w.setup_reps()` times; keep the last system, report the median.
fn timed_setup(w: Workload, seed: u64, seconds: u64, r: &mut Report) -> Built {
    let mut times = Vec::new();
    let mut built = None;
    for _ in 0..w.setup_reps() {
        drop(built.take());
        let started = Instant::now();
        built = Some(setup(w, seed, seconds));
        times.push(started.elapsed().as_secs_f64());
    }
    r.metric("setup_s", median(&times), "s");
    r.line(format!("setup: {} repetitions, median of {:?} s", times.len(), times));
    built.expect("at least one set-up")
}

/// The answer an admin consumer gets, computed straight from the store.
/// Mirrors the gateway's unscoped evaluation.
pub fn direct_answer(
    engine: &QueryEngine<'_>,
    req: &QueryRequest,
) -> Result<QueryResponse, QueryError> {
    Ok(match req {
        QueryRequest::Series { key, range } => QueryResponse::Points(engine.series(*key, *range)),
        QueryRequest::Downsample { key, range, bucket_ms, agg } => QueryResponse::Points(
            engine
                .downsample(*key, *range, *bucket_ms, *agg)
                .map_err(|e| QueryError::InvalidParam(e.0))?,
        ),
        QueryRequest::AggregateAcross { metric, range, agg } => {
            QueryResponse::Points(engine.aggregate_across_components(*metric, *range, *agg))
        }
        QueryRequest::TopComponentsAt { metric, at, tolerance_ms, limit } => {
            QueryResponse::Ranked(engine.top_components_at(*metric, *at, *tolerance_ms, *limit))
        }
        QueryRequest::ComponentsOfKind { metric, kind, range } => {
            QueryResponse::Grouped(engine.components_of_kind(*metric, *kind, *range))
        }
        other => return Err(QueryError::InvalidParam(format!("not in the mix: {other:?}"))),
    })
}

/// Per-tick outcome checks shared by every workload.
#[derive(Default)]
struct TickLedger {
    times_ms: Samples,
    samples: u64,
    first_keys: Vec<SeriesKey>,
    /// Ticks whose frame lacks part of the first tick's key set.
    incomplete: u64,
    /// Ticks on which the broker dropped envelopes or the spill dropped
    /// frames.
    lossy: u64,
    last_dropped: u64,
}

impl TickLedger {
    /// Time one tick and check what it produced.  `gap_expected` excuses a
    /// coverage gap the chaos plan injected on purpose.
    fn tick(&mut self, mon: &mut MonitoringSystem, gap_expected: bool) -> f64 {
        let started = Instant::now();
        let rep = mon.tick();
        let secs = started.elapsed().as_secs_f64();
        self.times_ms.push(secs * 1e3);
        self.samples += rep.samples as u64;
        let frame = mon.last_frame().expect("a tick publishes a frame");
        if self.first_keys.is_empty() {
            self.first_keys = frame.keys.clone();
        }
        let n = self.first_keys.len();
        let full = frame.keys.len() >= n && frame.keys[..n] == self.first_keys[..];
        let covered = mon.last_coverage().is_none_or(|c| c.pct() >= 100.0);
        if !(gap_expected || full && covered) {
            self.incomplete += 1;
        }
        let dropped = mon.broker().stats().dropped + mon.spill_dropped();
        if dropped > self.last_dropped {
            self.lossy += 1;
        }
        self.last_dropped = dropped;
        secs
    }

    fn report(&self, r: &mut Report, wall_s: f64) {
        let t = &self.times_ms;
        r.line(format!("tick: {}", t.describe("ms")));
        // Printed, not gated: on dashboard_512 the p99 follows the host's
        // CPU steal, on incident_512 it is one checkpoint tick, and the max
        // is one seal or checkpoint tick.
        r.line(format!(
            "tick_p99_ms = {} ms ({} beyond), tick_max_ms = {} ms (printed, not gated)",
            t.p99(),
            t.beyond_p99(),
            t.max()
        ));
        r.metric("tick_p50_ms", t.p50(), "ms");
        r.metric("samples_per_s", self.samples as f64 / wall_s, "samples/s");
        r.line(format!(
            "samples: {} over {} ticks ({:.0}/tick), timed wall {wall_s:.3} s",
            self.samples,
            t.len(),
            self.samples as f64 / t.len().max(1) as f64
        ));
        r.ops("ticks with incomplete coverage", self.incomplete, t.len() as u64);
        r.ops("ticks with dropped samples", self.lossy, t.len() as u64);
        r.check(
            format!("every tick's frame has full coverage ({} incomplete)", self.incomplete),
            self.incomplete == 0,
        );
        r.check(format!("no tick dropped samples ({} lossy)", self.lossy), self.lossy == 0);
        if t.len() < STEADY_TICKS as usize {
            r.line(format!(
                "note: {} timed ticks is short of the {STEADY_TICKS} needed to cross two seal cycles",
                t.len()
            ));
        }
    }
}

/// Closed-loop read-back through `QueryEngine`, for the workloads that
/// serve no gateway queries while they tick.  They read back in blocks
/// spread over the run, so the query figures are not taken from one short
/// window of the run's wall time.  A block asks one query of each kind: a
/// dashboard refresh, timed as a whole.
pub struct Readback {
    mix: QueryMix,
    lat: Samples,
    /// Wall time of each block, ms.
    refresh: Samples,
    errors: u64,
}

impl Readback {
    pub fn new(mon: &MonitoringSystem, seed: u64) -> Readback {
        let mix = QueryMix::new(seed, NODES, mon.metrics(), mon.tick_ms());
        Readback { mix, lat: Samples::default(), refresh: Samples::default(), errors: 0 }
    }

    pub fn block(&mut self, mon: &MonitoringSystem, queries: usize) {
        let now = mon.engine().now();
        let engine = mon.query();
        let mut block_us = 0.0;
        for _ in 0..queries {
            let (_, req) = self.mix.next(now);
            let started = Instant::now();
            let res = direct_answer(&engine, &req);
            let us = started.elapsed().as_secs_f64() * 1e6;
            self.lat.push(us);
            block_us += us;
            self.errors += u64::from(std::hint::black_box(res).is_err());
        }
        self.refresh.push(block_us / 1e3);
    }

    pub fn report(&self, r: &mut Report) {
        let (lat, errors) = (&self.lat, self.errors);
        r.line(format!(
            "read-back queries (QueryEngine, outside tick timing): {}",
            lat.describe("us")
        ));
        query_percentiles(r, lat);
        r.line(format!(
            "read-back refreshes ({READBACK_BLOCK_QUERIES} queries each): {}",
            self.refresh.describe("ms")
        ));
        r.metric("refresh_p50_ms", self.refresh.p50(), "ms");
        r.metric("queries_per_s", lat.len() as f64 / (lat.sum() / 1e6), "queries/s");
        r.ops("read-back queries", errors, lat.len() as u64);
        r.check(format!("read-back queries all answered ({errors} errors)"), errors == 0);
    }
}

/// The single-query percentiles, printed by name but not gated: the p50
/// falls between cache hits and misses, the p99 among the few aggregates
/// over freshly sealed blocks.
fn query_percentiles(r: &mut Report, lat: &Samples) {
    r.line(format!(
        "query_p50_us = {} us, query_p99_us = {} us (n={}; printed, not gated)",
        lat.p50(),
        lat.p99(),
        lat.len()
    ));
}

/// Run the read-back blocks due after `tick`.
fn readback_tick(readback: &mut Readback, mon: &MonitoringSystem, tick: u64) {
    if readback_due(tick) {
        readback.block(mon, READBACK_BLOCK_QUERIES);
    }
}

/// Whether a read-back block is due after tick `tick`.
pub fn readback_due(tick: u64) -> bool {
    tick % READBACK_EVERY_TICKS == READBACK_EVERY_TICKS / 2
}

/// Report the store's end state; the totals every workload shares.
fn finish(mon: &MonitoringSystem, r: &mut Report) -> Totals {
    let stats = mon.store().stats();
    r.metric("store_bytes_per_point", stats.bytes_per_point, "B");
    r.line(format!(
        "store: {} series, {} hot points, {} warm points, {} warm bytes, {} blocks sealed",
        stats.series,
        stats.hot_points,
        stats.warm_points,
        stats.warm_bytes,
        mon.store().op_counts().blocks_sealed
    ));
    Totals {
        series: stats.series,
        samples_ingested: mon.store().op_counts().samples_ingested,
        signals: mon.signals().len() as u64,
        actions: mon.actions().len() as u64,
        alerts_fired: mon
            .alert_events()
            .iter()
            .filter(|e| e.transition == Transition::Firing)
            .count() as u64,
        ..Totals::default()
    }
}

/// One untraced run.  `per_layer` adds the core snapshot and restore
/// timings the traced run reports; they run after the timed ticks.
pub fn run(w: Workload, seed: u64, seconds: u64, per_layer: bool) -> (Report, Totals) {
    let mut r = Report::default();
    let built = timed_setup(w, seed, seconds, &mut r);
    let totals = match w {
        Workload::Dashboard512 => dashboard(built, seed, seconds, &mut r),
        Workload::Incident512 | Workload::Incident512WalSlo => {
            incident(w, built, seed, seconds, per_layer, &mut r)
        }
    };
    (r, totals)
}

fn dashboard(built: Built, seed: u64, seconds: u64, r: &mut Report) -> Totals {
    let w = Workload::Dashboard512;
    let mut mon = built.mon;
    let consumer = Consumer::admin("dashboard");
    let mut mix = QueryMix::new(seed, NODES, mon.metrics(), mon.tick_ms());
    let mut ledger = TickLedger::default();
    let mut lat = Samples::default();
    let mut refresh = Samples::default();
    let mut by_kind: Vec<Samples> = vec![Samples::default(); QUERY_KINDS.len()];
    let mut errors = 0u64;
    let mut wall = 0.0;
    let rounds = w.timed_ticks(seconds);
    let mut last_round: Vec<QueryRequest> = Vec::new();
    let gw = Arc::clone(mon.gateway().expect("dashboard runs a gateway"));
    let cache_before = gw.cache_stats();
    let ingested_before = mon.store().op_counts().samples_ingested;
    for _ in 0..rounds {
        wall += ledger.tick(&mut mon, false);
        let now = mon.engine().now();
        last_round.clear();
        let mut round_us = 0.0;
        for _ in 0..QUERIES_PER_ROUND {
            let (kind, req) = mix.next(now);
            let started = Instant::now();
            let res = gw.query(&consumer, req.clone());
            let secs = started.elapsed().as_secs_f64();
            wall += secs;
            lat.push(secs * 1e6);
            round_us += secs * 1e6;
            by_kind[kind].push(secs * 1e6);
            errors += u64::from(std::hint::black_box(res).is_err());
            last_round.push(req);
        }
        refresh.push(round_us / 1e3);
    }
    ledger.report(r, wall);
    // The store also ingests one analysis-results frame (2 samples) per tick.
    let ingested = mon.store().op_counts().samples_ingested - ingested_before;
    r.check(
        format!(
            "store ingested {ingested} samples == collected {} + 2 analysis samples x {rounds} ticks",
            ledger.samples
        ),
        ingested == ledger.samples + 2 * rounds,
    );
    r.line(format!("gateway queries: {}", lat.describe("us")));
    query_percentiles(r, &lat);
    for (name, s) in QUERY_KINDS.iter().zip(&by_kind) {
        r.line(format!("  {name}: {}", s.describe("us")));
    }
    r.line(format!(
        "dashboard refreshes ({QUERIES_PER_ROUND} queries each): {}",
        refresh.describe("ms")
    ));
    r.metric("refresh_p50_ms", refresh.p50(), "ms");
    r.metric("queries_per_s", lat.len() as f64 / wall, "queries/s");
    let cache = gw.cache_stats();
    let hits = cache.hits - cache_before.hits;
    let lookups = hits + cache.misses - cache_before.misses;
    r.line(format!(
        "gateway cache: {hits} hits of {lookups} lookups ({:.1}%)",
        crate::report::share(hits, lookups) * 100.0
    ));
    r.ops("gateway queries", errors, lat.len() as u64);
    r.check(format!("every gateway query answered ({errors} errors)"), errors == 0);
    // Same store, same epoch: the last round's answers must match the
    // store's own evaluation.
    let engine = mon.query();
    let mismatched = last_round
        .iter()
        .filter(|req| gw.query(&consumer, (*req).clone()) != direct_answer(&engine, req))
        .count();
    r.check(
        format!("last round's gateway answers equal QueryEngine's ({mismatched} differ)"),
        mismatched == 0,
    );
    Totals { timed_s: wall, ..finish(&mon, r) }
}

fn in_windows(tick: u64, windows: &[(u64, u64)], slack: u64) -> bool {
    windows.iter().any(|&(a, b)| tick >= a && tick <= b + slack)
}

fn incident(
    w: Workload,
    built: Built,
    seed: u64,
    seconds: u64,
    per_layer: bool,
    r: &mut Report,
) -> Totals {
    let Built { mut mon, inputs, disk } = built;
    let disk = disk.expect("incident runs a durability plane");
    let cfg = DurabilityConfig::default();
    let mut ledger = TickLedger::default();
    let mut wall = 0.0;
    let ticks = w.timed_ticks(seconds);
    let mut wal_failed_outside = 0u64;
    let mut last_append_failures = 0;
    let mut readback = Readback::new(&mon, seed);
    for tick in 1..=ticks {
        // A collector panic leaves a one-tick gap (two with the re-probe).
        let gap_expected = inputs.panic_ticks.iter().any(|&p| tick >= p && tick <= p + 2);
        wall += ledger.tick(&mut mon, gap_expected);
        let af = mon.durability_counts().expect("plane attached").append_failures;
        if af > last_append_failures && !in_windows(tick, &inputs.disk_fail_windows, 1) {
            wal_failed_outside += 1;
        }
        last_append_failures = af;
        readback_tick(&mut readback, &mon, tick);
    }
    ledger.report(r, wall);
    readback.report(r);
    let dc = mon.durability_counts().expect("plane attached");
    r.line(format!(
        "durability: {} records, {} bytes, {} syncs, {} checkpoints, {} injected append refusals",
        dc.records_appended, dc.bytes_appended, dc.syncs, dc.checkpoints, dc.append_failures
    ));
    r.ops("WAL appends refused outside injected disk faults", wal_failed_outside, ticks);
    r.check(
        format!("WAL appends fail only inside injected disk-fault windows ({wal_failed_outside} outside)"),
        wal_failed_outside == 0,
    );
    r.line(format!(
        "logs: {} records; signals: {}; actions: {}; alert transitions: {}",
        mon.log_store().len(),
        mon.signals().len(),
        mon.actions().len(),
        mon.alert_events().len()
    ));

    // Every scheduled crash must raise a signal on its node.
    let tick_ms = mon.tick_ms();
    let mut lags = Vec::new();
    let mut undetected = 0u64;
    for &(tick, node) in &inputs.crashes {
        let at = Ts(tick * tick_ms);
        match mon.signals().iter().find(|s| s.comp == CompId::node(node) && s.ts >= at) {
            Some(s) => lags.push(((s.ts.0 - at.0) / tick_ms) as f64),
            None => undetected += 1,
        }
    }
    r.ops("scheduled NodeCrash faults undetected", undetected, inputs.crashes.len() as u64);
    r.check(
        format!("every scheduled NodeCrash raised a signal on its node ({undetected} missed)"),
        undetected == 0,
    );
    let detect_lag_ticks = median(&lags);
    r.line(format!(
        "detect_lag_ticks = {detect_lag_ticks} ticks (median over {} scheduled crashes, lags {lags:?})",
        lags.len()
    ));

    // Every injected store-write outage pages and then heals.
    let events: Vec<(u64, Transition)> = mon
        .alert_events()
        .iter()
        .filter(|e| e.key == "store/ingest")
        .map(|e| (e.tick, e.transition))
        .collect();
    let unhealed = inputs
        .store_fail_windows
        .iter()
        .filter(|&&(a, _)| {
            let fired = events
                .iter()
                .find(|&&(t, tr)| tr == Transition::Firing && t >= a && t <= a + 10)
                .map(|&(t, _)| t);
            !fired
                .is_some_and(|f| events.iter().any(|&(t, tr)| tr == Transition::Resolved && t > f))
        })
        .count();
    r.check(
        format!(
            "each of {} StoreWriteFail windows drove store/ingest to Firing then Resolved ({unhealed} did not)",
            inputs.store_fail_windows.len()
        ),
        unhealed == 0,
    );

    let mut totals = finish(&mon, r);
    totals.timed_s = wall;
    totals.detect_lag_ticks = detect_lag_ticks;
    if per_layer {
        core_snapshot(w, seed, &inputs, &mon, &mut totals);
    }

    // Crash at the end of the run, then rebuild and recover.
    drop(mon);
    disk.crash();
    let started = Instant::now();
    let mut rec = builder(w, seed, &inputs).build();
    rec.set_state_hashing(true);
    let outcome = rec.recover_from_medium(disk, cfg);
    let recovery_s = started.elapsed().as_secs_f64();
    r.line(format!(
        "recovery_s = {recovery_s} s (checkpoint tick {:?}, {} ticks replayed, resumed at {})",
        outcome.checkpoint_tick, outcome.replayed_ticks, outcome.resumed_tick
    ));
    let replay_ms_per_tick = recovery_s * 1e3 / outcome.replayed_ticks.max(1) as f64;
    let loss = ticks.saturating_sub(outcome.resumed_tick);
    r.ops("recovered ticks with hash mismatch", outcome.hash_mismatches, outcome.replayed_ticks);
    r.check(
        format!(
            "recovery: {} hash mismatches, {} undecodable records, checkpoint decodable: {}",
            outcome.hash_mismatches, outcome.undecodable_records, !outcome.checkpoint_undecodable
        ),
        outcome.hash_mismatches == 0
            && outcome.undecodable_records == 0
            && !outcome.checkpoint_undecodable,
    );
    r.check(
        format!(
            "recovery lost {loss} ticks, within the sync policy's bound of {}",
            cfg.sync.loss_bound()
        ),
        loss <= cfg.sync.loss_bound(),
    );
    // The recovered system serves the same queries.
    let mut served = Readback::new(&rec, seed);
    served.block(&rec, READBACK_BLOCK_QUERIES);
    r.ops("queries to the recovered system", served.errors, READBACK_BLOCK_QUERIES as u64);
    r.check(
        format!("the recovered system answers queries ({} errors)", served.errors),
        served.errors == 0,
    );
    Totals { recovery_s, replay_ms_per_tick, ..totals }
}

/// Time `MonitoringSystem::snapshot` plus serialization (median of three)
/// and decode plus `restore_snapshot` onto a freshly built twin.
fn core_snapshot(w: Workload, seed: u64, inputs: &Inputs, mon: &MonitoringSystem, t: &mut Totals) {
    let mut times = Vec::new();
    let mut bytes = Vec::new();
    for _ in 0..3 {
        let started = Instant::now();
        bytes = serde_json::to_vec(&mon.snapshot()).expect("CoreSnapshot serializes");
        times.push(started.elapsed().as_secs_f64() * 1e3);
    }
    t.snapshot_ms = median(&times);
    t.checkpoint_bytes = bytes.len() as u64;
    let mut twin = builder(w, seed, inputs).build();
    let started = Instant::now();
    twin.restore_snapshot(serde_json::from_slice(&bytes).expect("CoreSnapshot decodes"));
    t.restore_ms = started.elapsed().as_secs_f64() * 1e3;
}
