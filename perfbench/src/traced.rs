//! The traced run: the tick stages that have a public entry point,
//! re-driven from this package through the layer crates' public functions
//! in the order `MonitoringSystem::tick` calls them, with a span around
//! each call.
//!
//! The re-drive is the serial, unsupervised pipeline.  Stages that are
//! inline in `MonitoringSystem::tick` (the node-health scan, the power-cap
//! loop, turning analysis results into signals) are not copied here, and
//! neither is what only the assembled system can do: chaos with supervised
//! collection and the ingest breaker, the worker pool, the state hash, the
//! assembled `CoreSnapshot` and `recover_from_medium`.  Those are timed
//! through the smallest public call that contains them, on the untraced
//! run's system, and the output names the source of each such metric.

use crate::e2e::{self, direct_answer, Totals};
use crate::report::{share, write_artifact, Report};
use crate::stats::{median, Samples};
use crate::workload::{
    inputs, QueryMix, Workload, DASHBOARD_WARMUP_TICKS, NODES, QUERIES_PER_ROUND, QUERY_KINDS,
    READBACK_BLOCK_QUERIES,
};
use crate::{alloc, span::Spans};
use hpcmon::analysis::{Correlator, Deadman, ImbalanceDetector, NoveltyDetector};
use hpcmon::collect::collectors::standard_collectors;
use hpcmon::collect::{BenchmarkSuite, Collector, FsProbe, LogHarvester, NetworkProbe, StdMetrics};
use hpcmon::durability::{DurabilityConfig, DurabilityPlane, SimDisk};
use hpcmon::gateway::{Gateway, GatewayConfig, QueryError, QueryRequest, QueryResponse};
use hpcmon::health::{FeedValue, HealthEngine, Transition};
use hpcmon::metrics::{ColumnFrame, CompId, Frame, FrameArena, LogRecord, MetricRegistry};
use hpcmon::pipeline::finding_to_signal;
use hpcmon::response::{Consumer, ResponseEngine, Signal};
use hpcmon::sim::SimEngine;
use hpcmon::store::{IngestRoute, LogStore, QueryEngine, TimeSeriesStore};
use hpcmon::system::durability::encode_tick_record;
use hpcmon::system::{DurableTickRecord, TickInputs};
use hpcmon::telemetry::Telemetry;
use hpcmon::trace::{Sampler, Stage, TraceStore, Tracer};
use hpcmon::transport::{topics, BackpressurePolicy, Broker, Payload, Subscription, TopicFilter};
use std::sync::Arc;
use std::time::Instant;

/// The pipeline's parts, owned by the benchmark.
struct Redrive {
    engine: SimEngine,
    metrics: StdMetrics,
    collectors: Vec<Box<dyn Collector>>,
    bench_suite: BenchmarkSuite,
    arena: FrameArena,
    broker: Arc<Broker>,
    store_sub: Subscription,
    store: Arc<TimeSeriesStore>,
    route: IngestRoute,
    harvester: LogHarvester,
    log_store: LogStore,
    correlator: Correlator,
    novelty: NoveltyDetector,
    imbalance: ImbalanceDetector,
    deadman: Deadman,
    response: ResponseEngine,
    // What the re-driven analyses produced.
    signals: u64,
    actions: u64,
    novel_logs: u64,
    imbalance_flagged: u64,
    silent_feeds: u64,
    tracer: Arc<Tracer>,
    trace_store: TraceStore,
    gateway: Option<Arc<Gateway>>,
    health: Option<HealthEngine>,
    broker_baseline: (u64, u64),
    ingested_baseline: u64,
    first_frame_len: usize,
    alerts_fired: u64,
    plane: Option<DurabilityPlane>,
    disk: Option<Arc<SimDisk>>,
    pending_inputs: TickInputs,
    // Per-tick counters the spans cannot carry.
    collect_allocs: Vec<u64>,
    store_allocs: Vec<u64>,
    samples: Samples,
    seal_ms: f64,
    ingest_ns: f64,
    ingested: u64,
    wal_bytes: Vec<u64>,
}

const NOVELTY_TRAINING_TICKS: u64 = 30;
const BENCH_EVERY_TICKS: u64 = 10;

impl Redrive {
    fn new(w: Workload, seed: u64, seconds: u64) -> Redrive {
        let config = w.sim_config(seed);
        let tick_ms = config.tick_ms;
        let registry = MetricRegistry::new();
        let metrics = StdMetrics::register(&registry);
        let mut engine = SimEngine::new(config);
        let broker = Broker::new();
        let store = Arc::new(TimeSeriesStore::new());
        let store_sub =
            broker.subscribe(TopicFilter::new("metrics/#"), 4_096, BackpressurePolicy::Block);
        // MonitorBuilder's defaults: standard collectors, then the probes.
        let mut collectors = standard_collectors(metrics);
        collectors.push(Box::new(FsProbe::new(metrics, seed ^ 0xF5)));
        collectors.push(Box::new(NetworkProbe::spread(metrics, engine.num_nodes(), 16)));
        let sampler = if w.is_incident() { Sampler::one_in(16) } else { Sampler::off() };
        let tracer = Arc::new(Tracer::new(sampler));
        if tracer.is_enabled() {
            broker.set_tracer(tracer.clone());
        }
        let gateway = (w == Workload::Dashboard512).then(|| {
            let cfg = GatewayConfig { shards: 1, workers_per_shard: 1, ..GatewayConfig::default() };
            Arc::new(Gateway::new(store.clone(), broker.clone(), &Telemetry::disabled(), cfg))
        });
        let incident = w.is_incident();
        let disk = incident.then(|| Arc::new(SimDisk::new()));
        let plane =
            disk.as_ref().map(|d| DurabilityPlane::new(d.clone(), DurabilityConfig::default()));
        let shards = store.num_shards();
        let inp = inputs(w, seed, e2e::total_ticks(w, seconds), tick_ms, shards);
        let mut pending_inputs = TickInputs::default();
        for job in &inp.jobs {
            engine.submit_job(job.clone());
            pending_inputs.jobs.push(job.clone());
        }
        for &(at, kind) in &inp.faults {
            engine.schedule_fault(at, kind);
            pending_inputs.faults.push((at, kind));
        }
        Redrive {
            metrics,
            collectors,
            bench_suite: BenchmarkSuite::new(metrics, seed ^ 0xBE, 16),
            arena: FrameArena::new(),
            harvester: LogHarvester::new(Some(broker.clone())),
            broker,
            store_sub,
            store,
            route: IngestRoute::new(),
            log_store: LogStore::new(),
            correlator: Correlator::new(Correlator::production_rules()),
            novelty: NoveltyDetector::new(),
            imbalance: ImbalanceDetector::new(),
            deadman: Deadman::new(tick_ms),
            response: ResponseEngine::new(ResponseEngine::production_rules()),
            signals: 0,
            actions: 0,
            novel_logs: 0,
            imbalance_flagged: 0,
            silent_feeds: 0,
            tracer,
            trace_store: TraceStore::new(256),
            gateway,
            health: incident.then(|| HealthEngine::new(e2e::health_config(w))),
            broker_baseline: (0, 0),
            ingested_baseline: 0,
            first_frame_len: 0,
            alerts_fired: 0,
            plane,
            disk,
            pending_inputs,
            engine,
            collect_allocs: Vec::new(),
            store_allocs: Vec::new(),
            samples: Samples::default(),
            seal_ms: 0.0,
            ingest_ns: 0.0,
            ingested: 0,
            wal_bytes: Vec::new(),
        }
    }

    /// One tick, stage by stage, as `MonitoringSystem::tick` runs it.
    fn tick(&mut self, sp: &mut Spans) {
        let tick = self.engine.tick_count() + 1;
        let tracer = Arc::clone(&self.tracer);
        let trace_ctx = tracer.context_for(tick);
        let root = trace_ctx.as_ref().map(|c| tracer.span(c, Stage::Tick));
        let stage_ctx = root.as_ref().map(|g| g.context());
        sp.span("tick", tick, |sp| {
            sp.span("sim.step", tick, |_| self.engine.step());
            let now = self.engine.now();

            // 1. Collect into the arena's recycled buffers.
            let collect_span = stage_ctx.as_ref().map(|c| tracer.span(c, Stage::Collect));
            let allocs = alloc::count();
            let mut frame = self.arena.take_current(now);
            let mut bench_logs: Vec<LogRecord> = Vec::new();
            sp.span("collect.collectors", tick, |_| {
                for c in self.collectors.iter_mut() {
                    let before = frame.len();
                    c.collect(&self.engine, &mut frame);
                    if frame.len() > before {
                        self.deadman.register(c.name());
                        self.deadman.beat(c.name(), now);
                    }
                }
                if tick.is_multiple_of(BENCH_EVERY_TICKS) {
                    self.bench_suite.run(&self.engine, &mut frame, &mut bench_logs);
                }
            });
            self.collect_allocs.push(alloc::count() - allocs);
            self.samples.push(frame.len() as f64);
            if tick == 1 {
                self.first_frame_len = frame.len();
            }
            drop(collect_span);

            // 2. Transport: publish by epoch swap, the store consumer drains.
            let transport_span = stage_ctx.as_ref().map(|c| tracer.span(c, Stage::Transport));
            let envelope_ctx = transport_span.as_ref().map(|g| g.context()).or(trace_ctx);
            let frame = self.arena.publish(frame);
            let envs = sp.span("transport.publish_drain", tick, |_| {
                self.broker.publish_traced(
                    &topics::metrics("frame"),
                    Payload::Columns(Arc::clone(&frame)),
                    envelope_ctx,
                );
                self.store_sub.drain()
            });
            drop(transport_span);

            // 3. Store ingest along the cached route.
            let sealed = self.store.op_counts().blocks_sealed;
            let allocs = alloc::count();
            let started = Instant::now();
            sp.span("store.ingest", tick, |_| {
                for env in &envs {
                    let _span = env.trace.as_ref().map(|c| tracer.span(c, Stage::Store));
                    if let Some(cf) = env.payload.as_columns() {
                        self.store.ingest_columns(cf, &mut self.route);
                        self.ingested += cf.len() as u64;
                    }
                }
            });
            let ns = started.elapsed().as_nanos() as f64;
            self.ingest_ns += ns;
            self.store_allocs.push(alloc::count() - allocs);
            if self.store.op_counts().blocks_sealed > sealed {
                self.seal_ms += ns / 1e6;
            }
            let drained = envs.len();
            drop(envs);

            let analysis_span = stage_ctx.as_ref().map(|c| tracer.span(c, Stage::Analysis));
            // 4. Logs: harvest, analyse, store.
            let mut records =
                sp.span("collect.harvest", tick, |_| self.harvester.harvest(&mut self.engine));
            records.extend(bench_logs);
            if tick > NOVELTY_TRAINING_TICKS && self.novelty.is_training() {
                self.novelty.freeze();
            }
            let signals: Vec<Signal> = sp.span("analysis.correlator", tick, |_| {
                self.correlator.observe_all(&records).iter().map(finding_to_signal).collect()
            });
            let novel = sp.span("analysis.novelty", tick, |_| {
                records.iter().filter(|rec| self.novelty.observe(rec)).count()
            });
            self.novel_logs += novel as u64;
            sp.span("store.log_append", tick, |_| self.log_store.append_batch(records));

            // 5. Analyses with a public entry point.  The node-health
            //    scan and the power-cap loop are inline in
            //    `MonitoringSystem::tick` and are not re-driven.
            let mut cabs: Vec<(u32, f64)> = frame
                .of_metric(self.metrics.cabinet_power)
                .map(|s| (s.key.comp.index, s.value))
                .collect();
            cabs.sort_by_key(|&(i, _)| i);
            let cabinets: Vec<f64> = cabs.into_iter().map(|(_, v)| v).collect();
            let reading = sp.span("analysis.imbalance", tick, |_| self.imbalance.assess(&cabinets));
            self.imbalance_flagged += u64::from(reading.flagged);
            let silent = sp.span("analysis.detectors", tick, |_| {
                std::hint::black_box(self.engine.environment().exceeds_ashrae_gas_limit());
                self.deadman.check(now)
            });
            self.silent_feeds += silent.len() as u64;
            drop(analysis_span);

            // 6. Respond to the correlator's findings.
            let response_span = stage_ctx.as_ref().map(|c| tracer.span(c, Stage::Response));
            let mut actions = 0;
            for sig in &signals {
                actions += sp.span("response.handle", tick, |_| self.response.handle(sig)).len();
            }
            self.actions += actions as u64;
            drop(response_span);

            // 7. The analysis-results frame is stored with the raw data, so
            //    the re-drive's store holds the same series as the system's.
            sp.span("store.results", tick, |_| {
                let mut results = Frame::new(now);
                results.push(self.metrics.analysis_signals, CompId::SYSTEM, signals.len() as f64);
                results.push(self.metrics.analysis_actions, CompId::SYSTEM, actions as f64);
                self.store.insert_frame(&results);
            });
            self.signals += signals.len() as u64;

            // 7b. Health over this tick's evidence.
            if self.health.is_some() {
                sp.span("health.eval", tick, |_| self.eval_health(tick, frame.len(), drained));
            }

            // 8. Serve: refresh the gateway's job view and subscriptions.
            if let Some(gw) = &self.gateway {
                sp.span("gateway.on_tick", tick, |_| {
                    gw.update_jobs(self.engine.scheduler().records().to_vec());
                    gw.on_tick(now);
                });
            }

            // 9. Close the frame's trace and assemble completed traces.
            drop(root);
            if self.tracer.is_enabled() {
                sp.span("trace.assemble", tick, |_| {
                    self.trace_store.ingest(self.tracer.drain());
                });
            }

            // 11. Journal the tick, sync, checkpoint and scrub on cadence.
            if self.plane.is_some() {
                self.journal(sp, tick, &frame);
            }
        });
    }

    /// The health engine over the re-drive's own evidence, with the feed
    /// formulas core uses for an unsupervised pipeline.  Coverage is this
    /// frame's length against the first frame's; delivery and ingest are
    /// this tick's broker and store deltas.  The re-drive runs no chaos
    /// engine, so the `gateway.serving` and `chaos.quiescence` feeds are
    /// absent (an SLO without a feed grades healthy).
    fn eval_health(&mut self, tick: u64, frame_len: usize, drained: usize) {
        let Some(health) = self.health.as_mut() else { return };
        let expected = self.first_frame_len.max(1) as f64;
        let cov = (frame_len as f64 / expected).min(1.0) * 100.0;
        let b = self.broker.stats();
        let totals = (b.delivered, b.dropped + b.decode_errors);
        let delta = (totals.0 - self.broker_baseline.0, totals.1 - self.broker_baseline.1);
        self.broker_baseline = totals;
        let sops = self.store.op_counts();
        let ingested = sops.samples_ingested - self.ingested_baseline;
        self.ingested_baseline = sops.samples_ingested;
        let mut feeds: Vec<(&str, FeedValue)> = vec![
            ("collect.coverage", FeedValue::Tick { good: cov, bad: 100.0 - cov }),
            ("transport.delivery", FeedValue::Tick { good: drained as f64, bad: delta.1 as f64 }),
            ("trace.drops", FeedValue::Tick { good: delta.0 as f64, bad: delta.1 as f64 }),
            (
                "store.ingest",
                FeedValue::Tick {
                    good: ingested as f64,
                    bad: (frame_len as u64 + 2).saturating_sub(ingested) as f64,
                },
            ),
            (
                "store.integrity",
                FeedValue::Total {
                    good: sops.samples_ingested as f64,
                    bad: self.store.corrupt_blocks() as f64,
                },
            ),
        ];
        if let Some(plane) = &self.plane {
            let dc = plane.counts();
            feeds.push((
                "store.durability",
                FeedValue::Total {
                    good: dc.records_appended as f64,
                    bad: (dc.append_failures
                        + dc.checkpoint_failures
                        + dc.corrupt_events
                        + dc.scrub_failures) as f64,
                },
            ));
        }
        let events = health.observe_tick(tick, &feeds, &|_| 0);
        self.alerts_fired +=
            events.iter().filter(|e| e.transition == Transition::Firing).count() as u64;
    }

    fn journal(&mut self, sp: &mut Spans, tick: u64, frame: &ColumnFrame) {
        let record = DurableTickRecord {
            tick,
            inputs: std::mem::take(&mut self.pending_inputs),
            hash: None,
        };
        let plane = self.plane.as_mut().expect("journal needs a plane");
        let before = plane.counts().bytes_appended;
        sp.span("durability.append", tick, |_| {
            plane.append_tick(tick, &encode_tick_record(&record, frame));
        });
        sp.span("durability.sync", tick, |_| plane.end_tick(tick));
        self.wal_bytes.push(plane.counts().bytes_appended - before);
        let cfg = plane.config();
        if cfg.checkpoint_every > 0 && tick.is_multiple_of(cfg.checkpoint_every) {
            // The re-drive has no `CoreSnapshot`; its checkpoint carries
            // the simulator and store snapshots, the bulk of one.
            let snap = sp.span("core.snapshot_parts", tick, |_| {
                serde_json::to_vec(&(self.engine.snapshot(), self.store.snapshot()))
                    .expect("snapshot serializes")
            });
            let plane = self.plane.as_mut().expect("journal needs a plane");
            sp.span("durability.checkpoint", tick, |_| {
                let _ = plane.checkpoint(tick, &snap);
            });
        }
        let plane = self.plane.as_mut().expect("journal needs a plane");
        if cfg.scrub_every > 0 && tick.is_multiple_of(cfg.scrub_every) {
            sp.span("durability.scrub", tick, |_| {
                let _ = plane.scrub_step();
            });
        }
    }
}

/// Durations of the named spans over ticks `>= from_tick`, in units of
/// `scale` ns.
fn span_samples(sp: &Spans, name: &str, from_tick: u64, scale: f64) -> Samples {
    let mut s = Samples::default();
    for x in sp.all().iter().filter(|x| x.name == name && x.tick >= from_tick) {
        s.push(x.dur_ns() as f64 / scale);
    }
    s
}

const MS: f64 = 1e6;
const US: f64 = 1e3;

pub fn run(w: Workload, seed: u64, seconds: u64) -> Report {
    // The untraced reference: same workload, same seed.
    let (untraced, totals) = e2e::run(w, seed, seconds, true);
    let mut r = Report::default();
    r.line("--- untraced reference run ---");
    for l in untraced.render().lines() {
        r.line(format!("  {l}"));
    }
    for (what, ok) in &untraced.checks {
        r.check(format!("untraced: {what}"), *ok);
    }
    r.attempted += untraced.attempted;
    r.failed += untraced.failed;
    r.line("--- traced re-drive ---");

    let mut sp = Spans::new();
    let mut rd = Redrive::new(w, seed, seconds);
    let warmup = if w == Workload::Dashboard512 { DASHBOARD_WARMUP_TICKS } else { 0 };
    for _ in 0..warmup {
        rd.tick(&mut sp);
    }
    let from = warmup + 1;
    let timed = w.timed_ticks(seconds);
    let mut kind_us: Vec<Samples> = vec![Samples::default(); QUERY_KINDS.len()];
    let mut gw_us = Samples::default();
    let mut overhead_us = Samples::default();
    let mut query_errors = 0u64;
    let mut shed = 0u64;
    let mut mismatched = 0u64;
    let mut queries = 0u64;
    let mut traced_s = 0.0;
    if let Some(gw) = rd.gateway.clone() {
        let consumer = Consumer::admin("dashboard");
        let mut mix = QueryMix::new(seed, NODES, rd.metrics, rd.engine.config().tick_ms);
        let cache_before = gw.cache_stats();
        for _ in 0..timed {
            let started = Instant::now();
            rd.tick(&mut sp);
            let tick = rd.engine.tick_count();
            let now = rd.engine.now();
            // The reference answer for each distinct request, evaluated
            // once per round: the store and its epoch do not change between
            // a round's queries.
            let mut reference: Vec<(QueryRequest, Result<QueryResponse, QueryError>)> = Vec::new();
            for _ in 0..QUERIES_PER_ROUND {
                let (kind, req) = mix.next(now);
                let hits_before = gw.cache_stats().hits;
                let t0 = Instant::now();
                let got = sp.span("gateway.query", tick, |_| gw.query(&consumer, req.clone()));
                let via_gateway = t0.elapsed().as_secs_f64() * 1e6;
                let cache_hit = gw.cache_stats().hits > hits_before;
                gw_us.push(via_gateway);
                let known = reference.iter().position(|(r, _)| *r == req);
                let want = match known {
                    Some(i) => &reference[i].1,
                    None => {
                        let engine = QueryEngine::new(&rd.store);
                        let t0 = Instant::now();
                        let want =
                            sp.span(query_span(kind), tick, |_| direct_answer(&engine, &req));
                        let direct = t0.elapsed().as_secs_f64() * 1e6;
                        kind_us[kind].push(direct);
                        if !cache_hit {
                            overhead_us.push(via_gateway - direct);
                        }
                        reference.push((req, want));
                        &reference[reference.len() - 1].1
                    }
                };
                queries += 1;
                if matches!(got, Err(QueryError::DeadlineExceeded | QueryError::QueueFull)) {
                    shed += 1;
                }
                query_errors += u64::from(got.is_err());
                mismatched += u64::from(got != *want);
            }
            traced_s += started.elapsed().as_secs_f64();
        }
        let cache = gw.cache_stats();
        let hits = cache.hits - cache_before.hits;
        let lookups = hits + cache.misses - cache_before.misses;
        r.line(format!("gateway.cache_hit_ratio base: {hits} hits of {lookups} lookups"));
        r.metric("gateway.cache_hit_ratio", share(hits, lookups), "ratio");
        r.ops("traced gateway queries", query_errors, queries);
        r.check(
            format!("every traced gateway answer equals QueryEngine's on the same store and epoch ({mismatched} of {queries} differ)"),
            mismatched == 0,
        );
    } else {
        // Read-back through QueryEngine where the untraced run reads back.
        let mut mix = QueryMix::new(seed, NODES, rd.metrics, rd.engine.config().tick_ms);
        let mut readback = |rd: &Redrive, sp: &mut Spans| {
            let now = rd.engine.now();
            let tick = rd.engine.tick_count();
            let engine = QueryEngine::new(&rd.store);
            for _ in 0..READBACK_BLOCK_QUERIES {
                let (kind, req) = mix.next(now);
                let t0 = Instant::now();
                let res = sp.span(query_span(kind), tick, |_| direct_answer(&engine, &req));
                kind_us[kind].push(t0.elapsed().as_secs_f64() * 1e6);
                query_errors += u64::from(std::hint::black_box(res).is_err());
                queries += 1;
            }
        };
        for tick in 1..=timed {
            let started = Instant::now();
            rd.tick(&mut sp);
            traced_s += started.elapsed().as_secs_f64();
            if e2e::readback_due(tick) {
                readback(&rd, &mut sp);
            }
        }
        r.metric("gateway.cache_hit_ratio", 0.0, "ratio");
        r.ops("traced read-back queries", query_errors, queries);
    }

    // --- per-layer metrics ---
    let ticks = timed as f64;
    let tick_s = span_samples(&sp, "tick", from, MS);
    r.line(format!("re-drive tick: {}", tick_s.describe("ms")));
    r.metric("sim.step_ms_p50", span_samples(&sp, "sim.step", from, MS).p50(), "ms");
    r.metric("collect.ms_p50", span_samples(&sp, "collect.collectors", from, MS).p50(), "ms");
    r.metric("collect.samples_per_tick", rd.samples.p50(), "samples");
    let collect_allocs: u64 = rd.collect_allocs[warmup as usize..].iter().sum();
    r.metric("collect.allocs_per_tick", collect_allocs as f64 / ticks, "allocs");
    r.metric("collect.harvest_ms_p50", span_samples(&sp, "collect.harvest", from, MS).p50(), "ms");
    r.metric(
        "transport.publish_drain_us_p50",
        span_samples(&sp, "transport.publish_drain", from, US).p50(),
        "us",
    );
    r.metric("transport.dropped", rd.broker.stats().dropped as f64, "count");
    let ingest = span_samples(&sp, "store.ingest", from, MS);
    r.line(format!("store.ingest: {}", ingest.describe("ms")));
    r.metric("store.ingest_ms_p50", ingest.p50(), "ms");
    r.metric("store.ingest_ms_p99", ingest.p99(), "ms");
    r.metric("store.ingest_ms_max", ingest.max(), "ms");
    r.metric("store.ingest_ns_per_sample", rd.ingest_ns / rd.ingested.max(1) as f64, "ns");
    let ops = rd.store.op_counts();
    r.metric("store.blocks_sealed", ops.blocks_sealed as f64, "count");
    r.metric("store.seal_ms_total", rd.seal_ms, "ms");
    let store_allocs: u64 = rd.store_allocs[warmup as usize..].iter().sum();
    r.metric("store.allocs_per_tick", store_allocs as f64 / ticks, "allocs");
    let stats = rd.store.stats();
    r.metric("store.hot_points", stats.hot_points as f64, "points");
    r.metric("store.bytes_per_point", stats.bytes_per_point, "B");
    for (name, s) in QUERY_KINDS.iter().zip(&kind_us) {
        r.line(format!("store.query {name}: {}", s.describe("us")));
        r.metric(&format!("store.query_us_p50.{name}"), s.p50(), "us");
    }
    r.metric(
        "store.log_append_us_p50",
        span_samples(&sp, "store.log_append", from, US).p50(),
        "us",
    );
    r.metric(
        "store.log_index_bytes_per_record",
        rd.log_store.index_bytes() as f64 / rd.log_store.len().max(1) as f64,
        "B",
    );
    r.line(format!("logs: {} records in the re-drive's log store", rd.log_store.len()));
    r.metric("gateway.query_us_p50", gw_us.p50(), "us");
    r.metric("gateway.overhead_us_p50", overhead_us.p50(), "us");
    if rd.gateway.is_some() {
        r.line(format!(
            "gateway.overhead_us_p50 base: {} gateway cache misses, each timed against QueryEngine on the same request",
            overhead_us.len()
        ));
    }
    r.metric("gateway.shed", shed as f64, "count");
    if rd.gateway.is_some() {
        r.line(format!("gateway.query: {}", gw_us.describe("us")));
    }
    r.metric(
        "analysis.detectors_ms_p50",
        span_samples(&sp, "analysis.detectors", from, MS).p50(),
        "ms",
    );
    r.metric(
        "analysis.correlator_ms_p50",
        span_samples(&sp, "analysis.correlator", from, MS).p50(),
        "ms",
    );
    r.metric(
        "analysis.novelty_ms_p50",
        span_samples(&sp, "analysis.novelty", from, MS).p50(),
        "ms",
    );
    r.metric(
        "analysis.imbalance_ms_p50",
        span_samples(&sp, "analysis.imbalance", from, MS).p50(),
        "ms",
    );
    r.line(format!(
        "re-drive analyses: {} correlator signals, {} novel log lines, {} imbalance flags, {} silent feeds; {} response actions, {} alerts fired",
        rd.signals, rd.novel_logs, rd.imbalance_flagged, rd.silent_feeds, rd.actions, rd.alerts_fired
    ));
    r.metric("analysis.signals", totals.signals as f64, "count");
    r.metric("response.handle_us_p50", span_samples(&sp, "response.handle", from, US).p50(), "us");
    r.metric("response.actions", totals.actions as f64, "count");
    r.metric("health.eval_us_p50", span_samples(&sp, "health.eval", from, US).p50(), "us");
    r.metric("health.alerts_fired", totals.alerts_fired as f64, "count");
    r.metric("trace.spans", rd.trace_store.spans_seen() as f64, "count");
    r.metric("trace.assemble_us_p50", span_samples(&sp, "trace.assemble", from, US).p50(), "us");
    r.metric("core.snapshot_ms", totals.snapshot_ms, "ms");
    r.metric("core.checkpoint_bytes", totals.checkpoint_bytes as f64, "B");
    r.metric(
        "durability.append_ms_p50",
        span_samples(&sp, "durability.append", from, MS).p50(),
        "ms",
    );
    r.metric("durability.sync_ms_p50", span_samples(&sp, "durability.sync", from, MS).p50(), "ms");
    r.metric("durability.bytes_per_tick", median_u64(&rd.wal_bytes), "B");
    let ckpt = span_samples(&sp, "durability.checkpoint", from, MS);
    r.metric("durability.checkpoint_ms_p50", ckpt.p50(), "ms");
    r.metric("durability.checkpoint_ms_max", ckpt.max(), "ms");

    // Recovery of the re-drive's own medium: scan and load.
    let load_ms = match rd.disk.clone() {
        Some(disk) => {
            disk.crash();
            let t0 = Instant::now();
            let (_plane, state) = DurabilityPlane::recover(disk, DurabilityConfig::default());
            let load = t0.elapsed().as_secs_f64() * 1e3;
            r.line(format!(
                "re-drive recovery: checkpoint tick {:?}, {} tail records",
                state.checkpoint.as_ref().map(|(t, _)| *t),
                state.records.len()
            ));
            load
        }
        None => 0.0,
    };
    r.metric("core.restore_ms", totals.restore_ms, "ms");
    r.metric("durability.recover_load_ms", load_ms, "ms");
    r.metric("durability.replay_ms_per_tick", totals.replay_ms_per_tick, "ms");
    r.metric("core.recovery_s", totals.recovery_s, "s");
    r.metric("analysis.detect_lag_ticks", totals.detect_lag_ticks, "ticks");

    // Untraced against traced totals, same workload and seed.
    r.metric("bench.untraced_total_s", totals.timed_s, "s");
    r.metric("bench.traced_total_s", traced_s, "s");
    r.line(format!(
        "traced total {traced_s:.3} s against untraced total {:.3} s: tracing and re-driving cost {:+.1}%",
        totals.timed_s,
        (traced_s / totals.timed_s - 1.0) * 100.0
    ));
    compare_store(w, &rd, &totals, &mut r);

    r.line("self time by layer (span duration minus child spans), whole re-drive:");
    let by_layer = sp.self_time_by_layer();
    let total: u64 = by_layer.values().sum();
    for (layer, ns) in &by_layer {
        r.line(format!(
            "  {layer:<12} {:>10.3} ms  {:>5.1}%",
            *ns as f64 / MS,
            share(*ns, total) * 100.0
        ));
    }
    for l in SOURCES {
        r.line(*l);
    }
    write_spans(w, seed, &sp, &mut r);
    r
}

/// Where a metric does not come from a span around one re-driven call.
const SOURCES: &[&str] = &[
    "sources: every *_p50/_p99/_max is an exact nearest-rank percentile of the spans' raw durations",
    "  analysis.detectors = Environment::exceeds_ashrae_gas_limit + Deadman::check (no detectors are attached)",
    "  analysis.imbalance = ImbalanceDetector::assess; analysis.novelty = NoveltyDetector::observe over the tick's logs",
    "  response.handle is driven with the correlator's signals (Correlator::observe_all through finding_to_signal)",
    "  not re-driven, timed only inside MonitoringSystem::tick (tick_p50_ms): the node-health scan, the power-cap loop,",
    "    the signals of the imbalance, novelty and deadman checks, chaos, supervision, the worker pool and the state hash",
    "  health.eval = HealthEngine::observe_tick over the re-drive's coverage, broker, store and WAL counters",
    "  analysis.signals, response.actions, health.alerts_fired: totals of the untraced run's system",
    "  core.snapshot_ms / core.checkpoint_bytes: MonitoringSystem::snapshot + serde_json on the untraced run's system (median of 3)",
    "  core.restore_ms: serde_json decode + MonitoringSystem::restore_snapshot onto a freshly built twin",
    "  the re-drive's checkpoints carry SimEngine + TimeSeriesStore snapshots (span core.snapshot_parts)",
    "  core.recovery_s: rebuild + MonitoringSystem::recover_from_medium on the untraced run (enclosing call);",
    "    durability.replay_ms_per_tick divides it by the ticks replayed",
    "  analysis.detect_lag_ticks: the untraced run's signals",
    "  metrics of layers a workload does not run read 0",
];

fn median_u64(v: &[u64]) -> f64 {
    median(&v.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

fn query_span(kind: usize) -> &'static str {
    [
        "store.query.series",
        "store.query.downsample",
        "store.query.aggregate_across",
        "store.query.top_components_at",
        "store.query.components_of_kind",
    ][kind]
}

fn compare_store(w: Workload, rd: &Redrive, totals: &Totals, r: &mut Report) {
    let series = rd.store.stats().series;
    let ingested = rd.store.op_counts().samples_ingested;
    r.line(format!(
        "store end state: traced {series} series / {ingested} samples ingested, untraced {} / {}",
        totals.series, totals.samples_ingested
    ));
    // Chaos is not re-driven, so only the fault-free workloads must match.
    if !w.is_incident() {
        r.check(
            "traced store ends with the untraced run's series count and samples ingested",
            series == totals.series && ingested == totals.samples_ingested,
        );
    }
}

fn write_spans(w: Workload, seed: u64, sp: &Spans, r: &mut Report) {
    let name = format!("spans-{}-seed{seed}.jsonl", w.name());
    match write_artifact(&name, &sp.to_jsonl()) {
        Ok(path) => {
            r.check(format!("{} spans written to {}", sp.all().len(), path.display()), true)
        }
        Err(e) => r.check(format!("writing {name}: {e}"), false),
    }
}
