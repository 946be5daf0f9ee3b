//! The workloads: machine configuration, seeded inputs and query mix.
//!
//! Everything a run feeds the system derives from the `--seed` argument:
//! the simulator seed, the job mix, the fault and chaos schedules and the
//! queries.  The system itself receives only the generated inputs.

use hpcmon::collect::StdMetrics;
use hpcmon::gateway::QueryRequest;
use hpcmon::metrics::{CompId, CompKind, SeriesKey, Ts};
use hpcmon::sim::failure::FailureRates;
use hpcmon::sim::workload::WorkloadGenerator;
use hpcmon::sim::{FaultKind, JobSpec, Rng, TopologySpec};
use hpcmon::store::{AggFn, TimeRange};
use hpcmon::SimConfig;
use hpcmon_chaos::{ChaosFault, ChaosPlan};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 512 nodes behind a one-worker gateway, one tick then 20 queries
    /// per round: query evaluation and the result cache dominate.
    Dashboard512,
    /// 512 nodes with machine faults, monitoring-plane chaos, health,
    /// tracing, workers and a durable WAL, crashed and recovered at the
    /// end: logs, analysis, response and checkpoints dominate.
    Incident512,
    /// `Incident512` with the health plane's `store/durability` SLO
    /// added.  Its recovery check fails on the current program (every
    /// replayed tick mismatches its recorded hash: replay runs with no
    /// plane attached, so the SLO sees no `store.durability` feed), so it
    /// is runnable but not a registered workload.
    Incident512WalSlo,
}

/// Nodes in every workload's machine: an 8×8×4 torus with 2 nodes per
/// router.
pub const NODES: u32 = 512;
/// Ticks a run needs to cross two store seal cycles (the store seals every
/// series at 512 points, so ticks 512 and 1024 seal).
pub const STEADY_TICKS: u64 = 1_100;
/// Dashboard warm-up before timing starts (crosses the first seal).
pub const DASHBOARD_WARMUP_TICKS: u64 = 600;
/// Gateway queries per dashboard round.
pub const QUERIES_PER_ROUND: usize = 20;
/// The workloads without a gateway read back through `QueryEngine` every
/// this many ticks, half-way through each period, so the blocks fall at
/// every phase of the store's 512-tick seal cycle and spread over the run's
/// wall time.
pub const READBACK_EVERY_TICKS: u64 = 5;
/// Queries per read-back block: one of each kind, so every block (a
/// dashboard refresh) asks the same mix.  A 1,150-tick run reads back 230
/// blocks, 1,150 queries.
pub const READBACK_BLOCK_QUERIES: usize = QUERY_KINDS.len();
/// The shortest run: incident_512 schedules its crashes on distinct ticks
/// between tick 20 and 60 ticks before the end.
pub const MIN_TICKS: u64 = 100;
/// Chaos cycle length in ticks; each cycle injects one of each fault kind.
pub const CHAOS_PERIOD: u64 = 100;
/// Scheduled `NodeCrash` faults in incident_512.
pub const SCHEDULED_CRASHES: usize = 8;

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::Dashboard512, Workload::Incident512, Workload::Incident512WalSlo];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Dashboard512 => "dashboard_512",
            Workload::Incident512 => "incident_512",
            Workload::Incident512WalSlo => "incident_512_wal_slo",
        }
    }

    /// The fault-injected, durable workloads.
    pub fn is_incident(self) -> bool {
        matches!(self, Workload::Incident512 | Workload::Incident512WalSlo)
    }

    /// Timed ticks (dashboard: timed rounds) for a run of `seconds`.  The
    /// work is fixed for a given `seconds`, so two commits measure the same
    /// work; the rates are what a 2-core box sustains, which makes a run at
    /// the configured `run_seconds` cross two seal cycles.  At least
    /// `MIN_TICKS`, so the incident schedule fits in the run.
    pub fn timed_ticks(self, seconds: u64) -> u64 {
        let per_sec = match self {
            Workload::Dashboard512 => 100,
            _ => 46,
        };
        (seconds * per_sec).max(MIN_TICKS)
    }

    /// Repeated set-ups per run; `setup_s` is their median.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::Dashboard512 => 5,
            _ => 31,
        }
    }

    pub fn sim_config(self, seed: u64) -> SimConfig {
        let mut cfg = SimConfig {
            topology: TopologySpec::Torus3D { dims: [8, 8, 4], nodes_per_router: 2 },
            seed,
            ..SimConfig::small()
        };
        if self.is_incident() {
            let p = FailureRates::production();
            cfg.failure_rates = FailureRates {
                node_crash_per_hour: p.node_crash_per_hour * 50.0,
                node_hang_per_hour: p.node_hang_per_hour * 50.0,
                link_down_per_hour: p.link_down_per_hour * 50.0,
                service_down_per_hour: p.service_down_per_hour * 50.0,
                link_errors_per_gb: p.link_errors_per_gb * 50.0,
            };
        }
        cfg
    }

    /// The full configuration as one JSON object, recorded with every
    /// result.
    pub fn describe(self, seed: u64, seconds: u64) -> String {
        let ticks = self.timed_ticks(seconds);
        let body = match self {
            Workload::Dashboard512 => format!(
                "\"topology\":\"torus 8x8x4, 2 nodes/router\",\"nodes\":512,\"jobs\":64,\
                 \"gateway\":\"default, 1 shard x 1 worker\",\"warmup_ticks\":{DASHBOARD_WARMUP_TICKS},\
                 \"timed_rounds\":{ticks},\"queries_per_round\":{QUERIES_PER_ROUND},\
                 \"clients\":1,\"loop\":\"closed\",\"tracing\":\"off\",\"self_telemetry\":false"
            ),
            Workload::Incident512 | Workload::Incident512WalSlo => format!(
                "\"topology\":\"torus 8x8x4, 2 nodes/router\",\"nodes\":512,\"jobs\":64,\
                 \"failure_rates\":\"production x50\",\"scheduled_crashes\":{SCHEDULED_CRASHES},\
                 \"chaos_period_ticks\":{CHAOS_PERIOD},\"health\":\"{}\",\
                 \"tracing\":\"1-in-16\",\"bench_suite_every\":10,\"power_cap_w\":{},\
                 \"durability\":\"default on SimDisk\",\"workers\":2,\"state_hashing\":true,\
                 \"self_telemetry\":false,\"timed_ticks\":{ticks},\"readback\":\"{}\",\
                 \"after_recovery\":\"crash, rebuild, recover_from_medium, {READBACK_BLOCK_QUERIES} queries\"",
                if self == Workload::Incident512 { "standard" } else { "standard + durability" },
                POWER_CAP_W,
                readback_schedule()
            ),
        };
        format!("{{\"workload\":\"{}\",\"seed\":{seed},\"seconds\":{seconds},{body}}}", self.name())
    }
}

fn readback_schedule() -> String {
    format!(
        "{READBACK_BLOCK_QUERIES} queries after every tick t with t mod {READBACK_EVERY_TICKS} = {}",
        READBACK_EVERY_TICKS / 2
    )
}

/// Machine-level power cap for incident_512: below the loaded draw, so the
/// controller throttles and recovers during the run.
pub const POWER_CAP_W: f64 = NODES as f64 * 300.0;

/// Seeded inputs handed to the system before the first tick.
pub struct Inputs {
    pub jobs: Vec<JobSpec>,
    /// Machine faults, in submission order.
    pub faults: Vec<(Ts, FaultKind)>,
    /// `(tick, node)` of every scheduled `NodeCrash`.
    pub crashes: Vec<(u64, u32)>,
    pub chaos: ChaosPlan,
    /// Ticks on which a `CollectorPanic` fires.
    pub panic_ticks: Vec<u64>,
    /// `(first, last)` ticks of every `StoreWriteFail` window.
    pub store_fail_windows: Vec<(u64, u64)>,
    /// `(first, last)` ticks of every `DiskWriteFail` window.
    pub disk_fail_windows: Vec<(u64, u64)>,
}

pub fn inputs(w: Workload, seed: u64, total_ticks: u64, tick_ms: u64, shards: usize) -> Inputs {
    let mut rng = Rng::new(seed ^ 0x5EED_B0B5);
    let gen = WorkloadGenerator::standard(4, 32);
    // Submissions spread over the run keep the scheduler busy throughout.
    let jobs = (0..64)
        .map(|_| {
            let at = rng.below(total_ticks.max(1));
            gen.next_job(Ts(at * tick_ms), &mut rng)
        })
        .collect();
    let mut out = Inputs {
        jobs,
        faults: Vec::new(),
        crashes: Vec::new(),
        chaos: ChaosPlan::new(),
        panic_ticks: Vec::new(),
        store_fail_windows: Vec::new(),
        disk_fail_windows: Vec::new(),
    };
    if !w.is_incident() {
        return out;
    }
    // Crashes on distinct nodes at distinct ticks, clear of the run's ends.
    let span = total_ticks.saturating_sub(60).max(1);
    while out.crashes.len() < SCHEDULED_CRASHES {
        let tick = 20 + rng.below(span);
        let node = rng.below(NODES as u64) as u32;
        if out.crashes.iter().any(|&(t, n)| t == tick || n == node) {
            continue;
        }
        out.crashes.push((tick, node));
    }
    out.crashes.sort_unstable();
    for &(tick, node) in &out.crashes {
        out.faults.push((Ts(tick * tick_ms), FaultKind::NodeCrash { node }));
    }
    for _ in 0..4 {
        let tick = 20 + rng.below(span);
        let ost = rng.below(16) as u32;
        let factor = 2.0 + rng.f64() * 6.0;
        out.faults.push((Ts(tick * tick_ms), FaultKind::OstDegrade { ost, factor }));
        out.faults.push((Ts((tick + 30) * tick_ms), FaultKind::OstRestore { ost }));
    }
    // One of each monitoring-plane fault per cycle.  The last cycle ends
    // well before the crash, so the WAL backlog has drained by then.
    let collectors = ["node", "power", "hsn", "fs", "env", "sched"];
    let mut base = 30;
    while base + CHAOS_PERIOD + 20 <= total_ticks {
        let panic_at = base + rng.below(10);
        let collector = collectors[rng.below(collectors.len() as u64) as usize].to_string();
        out.chaos.schedule(panic_at, ChaosFault::CollectorPanic { collector });
        out.panic_ticks.push(panic_at);
        out.chaos.schedule(
            base + 25,
            ChaosFault::BrokerTopicStall { topic: "metrics/frame".into(), ticks: 2 },
        );
        let shard = rng.below(shards as u64) as usize;
        out.chaos.schedule(base + 50, ChaosFault::StoreWriteFail { shard, ticks: 3 });
        out.store_fail_windows.push((base + 50, base + 52));
        out.chaos.schedule(base + 75, ChaosFault::DiskWriteFail { ticks: 3 });
        out.disk_fail_windows.push((base + 75, base + 77));
        base += CHAOS_PERIOD;
    }
    out
}

/// The dashboard query mix: five kinds in rotation.
pub struct QueryMix {
    rng: Rng,
    nodes: u32,
    metrics: StdMetrics,
    tick_ms: u64,
    issued: usize,
}

pub const QUERY_KINDS: [&str; 5] =
    ["series", "downsample", "aggregate_across", "top_components_at", "components_of_kind"];

impl QueryMix {
    pub fn new(seed: u64, nodes: u32, metrics: StdMetrics, tick_ms: u64) -> QueryMix {
        QueryMix { rng: Rng::new(seed ^ 0x0123_4567), nodes, metrics, tick_ms, issued: 0 }
    }

    /// The next request against a store whose newest tick is `now`, and
    /// the index of its kind in [`QUERY_KINDS`].
    pub fn next(&mut self, now: Ts) -> (usize, QueryRequest) {
        let kind = self.issued % QUERY_KINDS.len();
        self.issued += 1;
        let ago = |mins: u64| Ts(now.0.saturating_sub(mins * 60_000));
        let req = match kind {
            0 | 1 => {
                let node = self.rng.below(self.nodes as u64) as u32;
                let metric =
                    [self.metrics.node_power, self.metrics.node_cpu, self.metrics.node_mem_used]
                        [self.rng.below(3) as usize];
                let key = SeriesKey::new(metric, CompId::node(node));
                let range = TimeRange::new(ago(1 + self.rng.below(720)), now);
                if kind == 0 {
                    QueryRequest::Series { key, range }
                } else {
                    QueryRequest::Downsample {
                        key,
                        range,
                        bucket_ms: 10 * 60_000,
                        agg: AggFn::Mean,
                    }
                }
            }
            2 => QueryRequest::AggregateAcross {
                metric: self.metrics.node_power,
                range: TimeRange::new(ago(60), now),
                agg: AggFn::Sum,
            },
            3 => QueryRequest::TopComponentsAt {
                metric: self.metrics.node_power,
                at: now,
                tolerance_ms: self.tick_ms,
                limit: 10,
            },
            _ => QueryRequest::ComponentsOfKind {
                metric: self.metrics.link_traffic,
                kind: CompKind::Link,
                range: TimeRange::new(ago(10), now),
            },
        };
        (kind, req)
    }
}
