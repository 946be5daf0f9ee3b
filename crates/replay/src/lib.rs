#![warn(missing_docs)]

//! `hpcmon-replay` — a flight recorder for the monitoring plane.
//!
//! Large-scale monitoring incidents are rarely reproducible on demand:
//! the interesting tick happened hours ago, under a particular interleave
//! of injected faults, query arrivals, and collector failures.  This
//! crate turns any [`hpcmon::MonitoringSystem`] run into an attachable,
//! re-executable artifact:
//!
//! * [`FlightRecorder`] wraps a live system, funnels every
//!   non-deterministic input (job submissions, machine faults, gateway
//!   query/subscription arrivals) through a per-tick
//!   [`TickInputs`](hpcmon::TickInputs) record, hashes the full deterministic state after each tick, and
//!   checkpoints complete snapshots every K ticks.
//! * [`EventLog`] is the compact framed binary artifact
//!   (`HPCMRLY1` magic, `[kind][len u32 LE][payload]` frames, explicit
//!   end frame so truncation is detected; JSON header and tick payloads,
//!   snapshots as binary checkpoints).
//! * [`Replayer`] rebuilds an identical system from the log header,
//!   re-drives the tick loop from the logged inputs, and verifies the
//!   state-hash chain tick by tick.  [`Replayer::seek`] restores the
//!   nearest checkpoint at or before the target tick instead of
//!   re-running from 0; [`Replayer::force_full_tracing`] re-executes the
//!   window with 1-in-1 trace sampling without perturbing the hash chain
//!   (the corruption predicate is computed over trace-stripped bytes —
//!   see `DESIGN.md` §11).
//! * On divergence, [`DivergenceReport`] names the first divergent tick,
//!   the first subsystem whose sub-hash differed, and the nearest
//!   snapshot to restart forensics from.
//!
//! ```
//! use hpcmon_replay::{FlightRecorder, Replayer, RunSpec};
//! use hpcmon_sim::{AppProfile, JobSpec};
//! use hpcmon_metrics::Ts;
//!
//! let spec = RunSpec::new(hpcmon::SimConfig::small()).self_telemetry(false);
//! let mut rec = FlightRecorder::new(spec);
//! rec.submit_job(JobSpec::new(
//!     AppProfile::compute_heavy("stencil"), "alice", 8, 600_000, Ts::ZERO,
//! ));
//! for _ in 0..20 { rec.tick(); }
//! let log = rec.finish();
//!
//! let outcome = Replayer::new(&log).run_to_end();
//! assert!(outcome.divergence.is_none());
//! assert_eq!(outcome.ticks_verified, 20);
//! ```

pub mod log;
pub mod recorder;
pub mod replayer;

pub use log::{EventLog, LogError, SnapshotRecord, TickRecord, MAGIC};
pub use recorder::FlightRecorder;
pub use replayer::{DivergenceReport, ReplayOutcome, Replayer};

use hpcmon::{MonitorBuilder, MonitoringSystem, SimConfig};
use hpcmon_chaos::ChaosPlan;
use hpcmon_gateway::GatewayConfig;
use hpcmon_health::HealthConfig;
use hpcmon_store::RetentionPolicy;
use hpcmon_trace::Sampler;
use serde::{Deserialize, Serialize};

/// Everything needed to rebuild a bit-identical [`MonitoringSystem`]:
/// the event log's header frame.
///
/// Strict (hash-verified) replay additionally requires
/// `self_telemetry(false)` — self-observation samples carry wall-clock
/// timer readings whose warm-tier byte sizes feed the store digest (see
/// `DESIGN.md` §11).  The recorder asserts this.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunSpec {
    /// The simulated machine.
    pub sim: SimConfig,
    /// Chaos seed + plan, if fault injection was active.
    pub chaos: Option<(u64, ChaosPlan)>,
    /// Collection worker-pool size (0 = serial).  Hashes are
    /// worker-count-invariant, so replay may use a different value; it
    /// is recorded so a replay reproduces the original schedule shape.
    pub workers: usize,
    /// Whether supervised self-healing collection was on.
    pub supervision: bool,
    /// Whether the monitor observed itself (must be `false` for strict
    /// replay).
    pub self_telemetry: bool,
    /// The trace head-sampling policy of the recording run.
    pub tracing: Sampler,
    /// Gateway configuration, if the query frontend was running.
    pub gateway: Option<GatewayConfig>,
    /// Built-in benchmark-suite cadence (`None` = disabled).
    pub bench_every_ticks: Option<u64>,
    /// Whether synthetic latency/bandwidth probes ran.
    pub probes: bool,
    /// Ticks of novelty-detector training.
    pub novelty_training_ticks: u64,
    /// Cabinet power cap, if the power analysis was capped.
    pub power_cap_w: Option<f64>,
    /// Retention policy + enforcement cadence, if enabled.
    pub retention: Option<(RetentionPolicy, u64)>,
    /// SLO/alerting plane configuration, if health was on.  Alert
    /// timelines are deterministic, so replay reproduces them exactly.
    /// Serde default keeps pre-health event logs loadable.
    #[serde(default)]
    pub health: Option<HealthConfig>,
    /// Snapshot checkpoint cadence in ticks (the "K" in seek-to-T).
    pub snapshot_every: u64,
}

impl RunSpec {
    /// A spec mirroring [`MonitorBuilder`]'s defaults, with
    /// `self_telemetry` forced off (strict replay requires it) and a
    /// 50-tick snapshot cadence.
    pub fn new(sim: SimConfig) -> RunSpec {
        RunSpec {
            sim,
            chaos: None,
            workers: 0,
            supervision: false,
            self_telemetry: false,
            tracing: Sampler::one_in(64),
            gateway: None,
            bench_every_ticks: Some(10),
            probes: true,
            novelty_training_ticks: 30,
            power_cap_w: None,
            retention: None,
            health: None,
            snapshot_every: 50,
        }
    }

    /// Enable chaos fault injection.
    pub fn chaos(mut self, seed: u64, plan: ChaosPlan) -> RunSpec {
        self.chaos = Some((seed, plan));
        self
    }

    /// Set the collection worker-pool size.
    pub fn workers(mut self, n: usize) -> RunSpec {
        self.workers = n;
        self
    }

    /// Enable supervised self-healing collection.
    pub fn supervision(mut self, on: bool) -> RunSpec {
        self.supervision = on;
        self
    }

    /// Toggle self-telemetry (must stay `false` for strict replay).
    pub fn self_telemetry(mut self, on: bool) -> RunSpec {
        self.self_telemetry = on;
        self
    }

    /// Set the trace sampling policy.
    pub fn tracing(mut self, sampler: Sampler) -> RunSpec {
        self.tracing = sampler;
        self
    }

    /// Run the query gateway.
    pub fn gateway(mut self, config: GatewayConfig) -> RunSpec {
        self.gateway = Some(config);
        self
    }

    /// Set the benchmark-suite cadence.
    pub fn bench_every_ticks(mut self, every: Option<u64>) -> RunSpec {
        self.bench_every_ticks = every;
        self
    }

    /// Toggle synthetic probes.
    pub fn probes(mut self, on: bool) -> RunSpec {
        self.probes = on;
        self
    }

    /// Set novelty-detector training length.
    pub fn novelty_training_ticks(mut self, ticks: u64) -> RunSpec {
        self.novelty_training_ticks = ticks;
        self
    }

    /// Cap cabinet power.
    pub fn power_cap_w(mut self, cap: f64) -> RunSpec {
        self.power_cap_w = Some(cap);
        self
    }

    /// Enable retention enforcement.
    pub fn retention(mut self, policy: RetentionPolicy, every_ticks: u64) -> RunSpec {
        self.retention = Some((policy, every_ticks));
        self
    }

    /// Enable the SLO/alerting plane.
    pub fn health(mut self, cfg: HealthConfig) -> RunSpec {
        self.health = Some(cfg);
        self
    }

    /// Set the snapshot checkpoint cadence (0 = header only, no
    /// checkpoints; seek then replays from tick 0).
    pub fn snapshot_every(mut self, every: u64) -> RunSpec {
        self.snapshot_every = every;
        self
    }

    /// Build the [`MonitoringSystem`] this spec describes, with state
    /// hashing enabled (it must be on before the first tick so lazily
    /// registered metric ids line up between recording and replay).
    pub fn build_system(&self) -> MonitoringSystem {
        self.build_system_with_workers(self.workers)
    }

    /// Like [`RunSpec::build_system`] but overriding the worker count —
    /// hashes are worker-count-invariant, so replay on a different pool
    /// size is itself a determinism check.
    pub fn build_system_with_workers(&self, workers: usize) -> MonitoringSystem {
        let mut b = MonitorBuilder::new(self.sim.clone())
            .workers(workers)
            .supervision(self.supervision)
            .self_telemetry(self.self_telemetry)
            .tracing(self.tracing)
            .bench_suite_every(self.bench_every_ticks)
            .with_probes(self.probes)
            .novelty_training_ticks(self.novelty_training_ticks);
        if let Some((seed, plan)) = &self.chaos {
            b = b.chaos(*seed, plan.clone());
        }
        if let Some(cfg) = &self.gateway {
            b = b.gateway(cfg.clone());
        }
        if let Some(cap) = self.power_cap_w {
            b = b.power_cap_w(cap);
        }
        if let Some((policy, every)) = self.retention {
            b = b.retention(policy, every);
        }
        if let Some(cfg) = &self.health {
            b = b.health(cfg.clone());
        }
        let mut system = b.build();
        system.set_state_hashing(true);
        system
    }
}
