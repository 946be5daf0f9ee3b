//! Crash-tolerant durability: WAL + checkpoint recovery under disk-fault
//! chaos (DESIGN.md §15).
//!
//! These tests pin the durability contract end to end: a system with the
//! plane attached produces the *same state-hash chain* as a twin without
//! it (durability is hash-neutral); a crash at any tick recovers — restore
//! the newest checkpoint, replay the WAL tail — to a state byte-identical
//! to an uninterrupted reference at the resume tick; fsync-per-tick loses
//! zero ticks, group-commit loses at most one window; torn tails are
//! truncated, mid-log corruption is diagnosed to a tick and fails closed,
//! and none of it ever panics — including under arbitrary truncations and
//! single-bit flips of the on-disk files.

use hpcmon::health::{HealthConfig, Transition};
use hpcmon::pipeline::DetectorAttachment;
use hpcmon::system::durability::decode_tick_record;
use hpcmon::{
    CheckpointError, CoreSnapshot, MonitoringSystem, RecoveryOutcome, SimConfig, CHECKPOINT_MAGIC,
};
use hpcmon_analysis::ZScoreDetector;
use hpcmon_chaos::{ChaosFault, ChaosPlan, ScheduledFault};
use hpcmon_collect::{Collector, StdMetrics};
use hpcmon_durability::wal::{decode_checkpoint, scan_segment};
use hpcmon_durability::{
    DurabilityConfig, DurabilityPlane, RecoveredState, ScanEnd, SimDisk, StorageMedium, SyncPolicy,
};
use hpcmon_metrics::{ColumnFrame, CompId, MetricRegistry, SeriesKey, Severity, Ts};
use hpcmon_response::SignalKind;
use hpcmon_sim::{AppProfile, JobSpec, SimEngine};
use hpcmon_store::{SnapshotError, TimeSeriesStore};
use proptest::prelude::*;
use std::sync::{Arc, Once, OnceLock};

/// Injected collector panics unwind through the supervisor's
/// `catch_unwind`; keep the default hook from spamming test output with
/// expected backtraces while leaving real panics loud.
fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|m| m.contains("chaos: injected collector panic"));
            if !injected {
                default(info);
            }
        }));
    });
}

fn plan(faults: Vec<(u64, ChaosFault)>) -> ChaosPlan {
    ChaosPlan::from_faults(
        faults.into_iter().map(|(at_tick, fault)| ScheduledFault { at_tick, fault }).collect(),
    )
}

/// Pipeline and disk faults that are all lossless under fsync-per-tick:
/// refused appends queue in the backlog and retry, torn writes only bite
/// unsynced bytes, and there is deliberately no `DiskCorruptByte` (bit rot
/// in the live WAL tail is legitimate loss, exercised separately).
fn lossless_plan() -> ChaosPlan {
    plan(vec![
        (3, ChaosFault::CollectorPanic { collector: "power".into() }),
        (4, ChaosFault::BrokerTopicStall { topic: "metrics/frame".into(), ticks: 2 }),
        (6, ChaosFault::DiskWriteFail { ticks: 2 }),
        (9, ChaosFault::StoreWriteFail { shard: 0, ticks: 2 }),
        (11, ChaosFault::DiskFull { ticks: 2 }),
        (15, ChaosFault::DiskTornWrite),
    ])
}

fn builder(workers: usize) -> hpcmon::system::MonitorBuilder {
    MonitoringSystem::builder(SimConfig::small()).self_telemetry(false).workers(workers)
}

/// External inputs submitted before tick 1; the WAL records them, so the
/// recovered system must *not* have them resubmitted by hand.
fn seed_inputs(mon: &mut MonitoringSystem) {
    mon.submit_job(JobSpec::new(
        AppProfile::checkpointing("climate"),
        "bob",
        32,
        40 * 60_000,
        Ts::ZERO,
    ));
}

/// Canonical byte-diffable image of the full core state.
fn state_json(mon: &MonitoringSystem) -> String {
    serde_json::to_string(&mon.snapshot()).expect("snapshot serializes")
}

/// Run a fresh reference twin (no durability plane) for `ticks` ticks and
/// return its per-tick hash chain plus the system itself.
fn reference_run(
    mk: impl Fn() -> hpcmon::system::MonitorBuilder,
    ticks: u64,
) -> (Vec<hpcmon::TickStateHash>, MonitoringSystem) {
    let mut mon = mk().build();
    mon.set_state_hashing(true);
    seed_inputs(&mut mon);
    let mut chain = Vec::new();
    for _ in 0..ticks {
        mon.tick();
        chain.push(mon.last_state_hash().expect("hashing on"));
    }
    (chain, mon)
}

/// Fsync-per-tick: crash at an arbitrary tick under active chaos
/// (write-fail, disk-full, torn-write windows all in flight) and recover
/// with **zero loss** — the recovered state is byte-identical to an
/// uninterrupted reference, at every worker count.
#[test]
fn fsync_crash_recovers_zero_loss_at_workers_0_and_4() {
    quiet_injected_panics();
    let crash_tick = 17u64;
    let cfg = DurabilityConfig { sync: SyncPolicy::EveryTick, checkpoint_every: 8, scrub_every: 4 };
    for workers in [0usize, 4] {
        let mk = move || builder(workers).chaos(7, lossless_plan());
        let (chain, mut reference) = reference_run(mk, crash_tick);

        let disk = Arc::new(SimDisk::new());
        let mut durable = mk().durability(disk.clone(), cfg).build();
        durable.set_state_hashing(true);
        seed_inputs(&mut durable);
        for _ in 0..crash_tick {
            durable.tick();
        }
        // The plane never feeds back into monitored state: same hash chain.
        assert_eq!(
            durable.last_state_hash().unwrap(),
            chain[crash_tick as usize - 1],
            "durability plane must be hash-neutral (workers={workers})"
        );
        let counts = durable.durability_counts().unwrap();
        assert_eq!(counts.records_appended, crash_tick, "backlog drained every record");
        assert!(counts.append_failures > 0, "the fault windows actually bit");
        assert!(counts.checkpoints >= 2);
        drop(durable);
        disk.crash(); // power cut; fsync-per-tick means nothing was pending

        let mut recovered = mk().build();
        recovered.set_state_hashing(true);
        let outcome = recovered.recover_from_medium(disk.clone(), cfg);
        assert_eq!(outcome.resumed_tick, crash_tick, "zero ticks lost (workers={workers})");
        assert_eq!(outcome.hash_mismatches, 0, "{outcome:?}");
        assert_eq!(outcome.undecodable_records, 0);
        assert_eq!(outcome.checkpoint_tick, Some(16), "checkpoint at tick 16 restored");
        assert_eq!(outcome.replayed_ticks, 1, "only the tail past the checkpoint replays");
        assert_eq!(recovered.last_state_hash().unwrap(), chain[crash_tick as usize - 1]);
        assert_eq!(
            state_json(&recovered),
            state_json(&reference),
            "recovered state byte-identical to the uninterrupted reference"
        );
        // And the recovered system continues in lockstep with the reference.
        for _ in 0..3 {
            reference.tick();
            recovered.tick();
        }
        assert_eq!(recovered.last_state_hash(), reference.last_state_hash());
    }
}

/// Group-commit: a crash between syncs loses at most one commit window of
/// ticks, and the survivors recover to a byte-identical prefix state.
#[test]
fn group_commit_crash_loses_at_most_one_window() {
    quiet_injected_panics();
    let crash_tick = 18u64;
    let cfg =
        DurabilityConfig { sync: SyncPolicy::GroupCommit(4), checkpoint_every: 0, scrub_every: 0 };
    let mk = || builder(0).chaos(7, lossless_plan());
    let (chain, _reference) = reference_run(mk, crash_tick);

    let disk = Arc::new(SimDisk::new());
    let mut durable = mk().durability(disk.clone(), cfg).build();
    durable.set_state_hashing(true);
    seed_inputs(&mut durable);
    for _ in 0..crash_tick {
        durable.tick();
    }
    drop(durable);
    // The tick-15 DiskTornWrite is armed: the crash keeps a seeded partial
    // prefix of the unsynced tail — a record cut mid-frame.
    disk.crash();

    let mut recovered = mk().build();
    recovered.set_state_hashing(true);
    let outcome = recovered.recover_from_medium(disk.clone(), cfg);
    let resumed = outcome.resumed_tick;
    assert!(resumed <= crash_tick);
    assert!(
        resumed + cfg.sync.loss_bound() >= crash_tick,
        "lost more than one commit window: resumed {resumed}, crashed {crash_tick}"
    );
    assert!(resumed >= 15, "everything up to the last group sync survives");
    assert_eq!(outcome.hash_mismatches, 0, "{outcome:?}");
    assert_eq!(outcome.replayed_ticks, resumed, "no checkpoint: the whole WAL replays");
    assert_eq!(recovered.last_state_hash().unwrap(), chain[resumed as usize - 1]);

    // Byte-diff against a fresh reference run to exactly the resume tick.
    let (_, ref_at_resume) = reference_run(mk, resumed);
    assert_eq!(state_json(&recovered), state_json(&ref_at_resume));
}

/// A flipped bit in the middle of the log is *corruption*, not a crash
/// artifact: recovery diagnoses it to the exact tick, cuts the log there,
/// recovers the clean prefix, and never panics.
#[test]
fn midlog_corruption_fails_closed_to_a_tick() {
    let cfg = DurabilityConfig { sync: SyncPolicy::EveryTick, checkpoint_every: 0, scrub_every: 0 };
    let mk = || builder(0);
    let (chain, _reference) = reference_run(mk, 12);

    let disk = Arc::new(SimDisk::new());
    let mut durable = mk().durability(disk.clone(), cfg).build();
    durable.set_state_hashing(true);
    seed_inputs(&mut durable);
    for _ in 0..12 {
        durable.tick();
    }
    drop(durable);

    // Flip one payload bit inside the tick-6 record of the sole segment.
    let seg = disk.read("wal-0000000000.seg").unwrap();
    let (records, end) = scan_segment(&seg);
    assert_eq!(end, ScanEnd::Clean);
    assert_eq!(records.len(), 12);
    let mut off = 8; // segment magic
    for r in &records[..5] {
        off += 17 + r.payload.len(); // record header + payload
    }
    let mut mutated = seg.clone();
    mutated[off + 17 + 3] ^= 0x01;
    let bad_disk = Arc::new(SimDisk::new());
    bad_disk.overwrite("wal-0000000000.seg", &mutated).unwrap();

    let mut recovered = mk().build();
    recovered.set_state_hashing(true);
    let outcome = recovered.recover_from_medium(bad_disk, cfg);
    assert_eq!(outcome.report.corrupt_events, 1);
    assert_eq!(outcome.report.first_bad_tick, Some(6), "damage pinned to the flipped record");
    assert_eq!(outcome.resumed_tick, 5, "clean prefix before the damage recovers");
    assert_eq!(outcome.hash_mismatches, 0);
    assert_eq!(recovered.last_state_hash().unwrap(), chain[4]);
    let (_, ref_at_resume) = reference_run(mk, 5);
    assert_eq!(state_json(&recovered), state_json(&ref_at_resume));
}

/// Dense disk chaos — bit rot, write failures, torn writes, a full disk —
/// with crashes dropped at different ticks: recovery never panics and is
/// always *prefix-consistent* (the recovered state equals an
/// uninterrupted reference at whatever tick it resumed), even when rot in
/// the live tail makes some loss legitimate.
#[test]
fn crash_soak_under_disk_chaos_is_prefix_consistent() {
    quiet_injected_panics();
    let soak_plan = || {
        plan(vec![
            (2, ChaosFault::DiskCorruptByte),
            (3, ChaosFault::DiskWriteFail { ticks: 2 }),
            (5, ChaosFault::DiskTornWrite),
            (6, ChaosFault::DiskFull { ticks: 2 }),
            (9, ChaosFault::DiskCorruptByte),
            (10, ChaosFault::CollectorPanic { collector: "power".into() }),
            (13, ChaosFault::DiskTornWrite),
            (14, ChaosFault::DiskCorruptByte),
        ])
    };
    let cfg =
        DurabilityConfig { sync: SyncPolicy::GroupCommit(2), checkpoint_every: 4, scrub_every: 3 };
    for crash_tick in [7u64, 16] {
        let mk = || builder(0).chaos(23, soak_plan());
        let disk = Arc::new(SimDisk::new());
        let mut durable = mk().durability(disk.clone(), cfg).build();
        durable.set_state_hashing(true);
        seed_inputs(&mut durable);
        for _ in 0..crash_tick {
            durable.tick();
        }
        drop(durable);
        disk.crash();

        let mut recovered = mk().build();
        recovered.set_state_hashing(true);
        let outcome = recovered.recover_from_medium(disk.clone(), cfg);
        let resumed = outcome.resumed_tick;
        assert!(resumed <= crash_tick, "recovery cannot invent ticks");
        assert_eq!(outcome.hash_mismatches, 0, "replayed state must match the recorded hashes");

        // A resume at tick 0 means the whole log was destroyed — and with
        // it the inputs submitted before tick 1, so the reference for that
        // prefix is a fresh, un-seeded build.
        let mut ref_at_resume = if resumed == 0 {
            let mut fresh = mk().build();
            fresh.set_state_hashing(true);
            fresh
        } else {
            reference_run(mk, resumed).1
        };
        assert_eq!(
            state_json(&recovered),
            state_json(&ref_at_resume),
            "crash at {crash_tick}, resumed {resumed}: prefix not consistent ({:?})",
            outcome.report
        );
        // Still in lockstep going forward.
        ref_at_resume.tick();
        recovered.tick();
        assert_eq!(recovered.last_state_hash(), ref_at_resume.last_state_hash());
    }
}

/// A sustained disk-fault window burns the `store.durability` SLO budget:
/// the health plane raises the durability alert and resolves it once the
/// backlog drains.
#[test]
fn disk_fault_window_fires_the_durability_slo() {
    let cfg = DurabilityConfig { sync: SyncPolicy::EveryTick, checkpoint_every: 8, scrub_every: 0 };
    let disk = Arc::new(SimDisk::new());
    let mut mon = builder(0)
        .chaos(11, plan(vec![(4, ChaosFault::DiskWriteFail { ticks: 12 })]))
        .health(HealthConfig::standard().durability())
        .durability(disk, cfg)
        .build();
    mon.run_ticks(36);
    let transitions: Vec<(u64, Transition)> = mon
        .alert_events()
        .iter()
        .filter(|e| e.key == "store/durability")
        .map(|e| (e.tick, e.transition))
        .collect();
    assert!(
        transitions.iter().any(|(_, t)| *t == Transition::Firing),
        "durability SLO never fired: {transitions:?}\n{}",
        mon.health_timeline()
    );
    assert!(
        transitions.iter().any(|(_, t)| *t == Transition::Resolved),
        "durability SLO never resolved after the window: {transitions:?}"
    );
}

/// The WAL payload is the real thing: each record decodes to the tick's
/// external inputs, its state hash, and every sample of the published
/// frame.
#[test]
fn wal_records_carry_inputs_frame_samples_and_hashes() {
    let cfg = DurabilityConfig { sync: SyncPolicy::EveryTick, checkpoint_every: 0, scrub_every: 0 };
    let disk = Arc::new(SimDisk::new());
    let mut mon = builder(0).durability(disk.clone(), cfg).build();
    mon.set_state_hashing(true);
    seed_inputs(&mut mon);
    mon.run_ticks(3);

    let seg = disk.read("wal-0000000000.seg").unwrap();
    let (records, end) = scan_segment(&seg);
    assert_eq!(end, ScanEnd::Clean);
    assert_eq!(records.len(), 3);
    for (i, r) in records.iter().enumerate() {
        let tick = i as u64 + 1;
        assert_eq!(r.tick, tick);
        let (dtr, samples) = decode_tick_record(&r.payload).expect("record decodes");
        assert_eq!(dtr.tick, tick);
        let hash = dtr.hash.expect("hashing was on, so records carry the chain");
        assert_eq!(hash.tick, tick);
        assert!(
            samples.len() > 100,
            "frame samples are durable ({} at tick {tick})",
            samples.len()
        );
    }
    let (first, _) = decode_tick_record(&records[0].payload).unwrap();
    assert_eq!(first.inputs.jobs.len(), 1, "tick 1 recorded the submitted job");
}

// ---------------------------------------------------------------------------
// Property tests: arbitrary damage to the on-disk files (satellite: every
// truncation prefix and every single-bit flip).  These drive the plane
// directly with synthetic payloads so thousands of recoveries stay cheap.
// ---------------------------------------------------------------------------

fn plane_cfg() -> DurabilityConfig {
    DurabilityConfig { sync: SyncPolicy::EveryTick, checkpoint_every: 5, scrub_every: 0 }
}

fn synthetic_payload(tick: u64) -> Vec<u8> {
    (0..40u8).map(|i| (tick as u8).wrapping_mul(31).wrapping_add(i)).collect()
}

/// Record 14 ticks with checkpoints at 5 and 10, then hand back the
/// durable file images.  Retention leaves `ckpt-5`, `ckpt-10`, `wal-6`
/// (ticks 6–10) and `wal-11` (ticks 11–14).
fn recorded_log() -> Vec<(String, Vec<u8>)> {
    let disk = Arc::new(SimDisk::new());
    let mut plane = DurabilityPlane::new(disk.clone(), plane_cfg());
    for tick in 1..=14u64 {
        plane.append_tick(tick, &synthetic_payload(tick));
        plane.end_tick(tick);
        if tick % 5 == 0 {
            plane.checkpoint(tick, format!("snap-{tick}").as_bytes()).unwrap();
        }
    }
    let files = disk.durable_files();
    assert_eq!(files.len(), 4, "{files:?}");
    files
}

/// Whether a file image is self-evidently damaged, by the same CRC rules
/// recovery uses.
fn is_damaged(name: &str, bytes: &[u8]) -> bool {
    if name.ends_with(".seg") {
        !matches!(scan_segment(bytes).1, ScanEnd::Clean)
    } else {
        decode_checkpoint(bytes).is_none()
    }
}

/// The recovered state must always be a trustworthy contiguous chain with
/// byte-exact payloads, whatever was done to the files.
fn assert_chain_integrity(state: &RecoveredState) {
    if let Some((tick, payload)) = &state.checkpoint {
        assert!(*tick == 5 || *tick == 10);
        assert_eq!(payload, format!("snap-{tick}").as_bytes());
        if let Some(first) = state.records.first() {
            assert_eq!(first.tick, tick + 1, "replay starts right after the checkpoint");
        }
    }
    for pair in state.records.windows(2) {
        assert_eq!(pair[1].tick, pair[0].tick + 1, "recovered records must be contiguous");
    }
    for r in &state.records {
        assert!((1..=14).contains(&r.tick));
        assert_eq!(r.payload, synthetic_payload(r.tick), "payload integrity at tick {}", r.tick);
    }
    let report = &state.report;
    assert!(report.corrupt_events == 0 || report.first_bad_tick.is_some());
}

/// Recover a mutated copy of the log and check the fail-closed contract:
/// never panic, never hand back an untrustworthy record, and if the
/// mutated file is CRC-damaged, say so in the report.
fn recover_mutated(files: &[(String, Vec<u8>)], mutated_idx: usize) {
    let disk = Arc::new(SimDisk::new());
    for (name, bytes) in files {
        disk.overwrite(name, bytes).unwrap();
    }
    let (_plane, state) = DurabilityPlane::recover(disk, plane_cfg());
    assert_chain_integrity(&state);
    let (name, bytes) = &files[mutated_idx];
    // A damaged *fallback* checkpoint is shadowed by the valid newest one:
    // recovery stops at the first checkpoint that validates and never
    // reads further back, so only damage it actually saw must be reported.
    let shadowed = name == "ckpt-0000000005.ck" && state.report.checkpoint_tick == Some(10);
    if is_damaged(name, bytes) && !shadowed {
        let r = &state.report;
        assert!(
            r.torn_tail_bytes > 0
                || r.corrupt_events > 0
                || r.checkpoints_invalid > 0
                || r.records_dropped > 0,
            "CRC damage in {name} went unreported: {r:?}"
        );
    }
}

/// Every truncation prefix of the live tail segment: recovery never
/// panics, keeps at least the checkpointed prefix, and reports torn bytes
/// whenever the cut is not on a record boundary.
#[test]
fn every_truncation_of_the_live_tail_recovers() {
    let files = recorded_log();
    let tail = files.iter().position(|(n, _)| n == "wal-0000000011.seg").unwrap();
    let full = files[tail].1.clone();
    for cut in 0..=full.len() {
        let mut mutated = files.clone();
        mutated[tail].1.truncate(cut);
        let disk = Arc::new(SimDisk::new());
        for (name, bytes) in &mutated {
            disk.overwrite(name, bytes).unwrap();
        }
        let (_plane, state) = DurabilityPlane::recover(disk, plane_cfg());
        assert_chain_integrity(&state);
        let last = state.report.last_tick.unwrap();
        assert!((10..=14).contains(&last), "cut {cut}: checkpointed prefix lost ({last})");
        if is_damaged("wal-0000000011.seg", &mutated[tail].1) {
            assert!(state.report.torn_tail_bytes > 0, "cut {cut}: {:?}", state.report);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncate any file — segment or checkpoint — to any prefix length:
    /// recovery never panics and reports whatever the cut destroyed.
    #[test]
    fn recovery_survives_any_truncation(file_sel in 0usize..10_000, cut_sel in 0usize..100_000) {
        let mut files = recorded_log();
        let idx = file_sel % files.len();
        let cut = cut_sel % (files[idx].1.len() + 1);
        files[idx].1.truncate(cut);
        recover_mutated(&files, idx);
    }

    /// Flip any single bit of any file: CRC framing catches it, recovery
    /// never panics, and the damage is counted — as a torn tail, a corrupt
    /// record, or an invalid checkpoint.
    #[test]
    fn recovery_survives_any_single_bit_flip(
        file_sel in 0usize..10_000,
        byte_sel in 0usize..100_000,
        bit in 0u32..8,
    ) {
        let mut files = recorded_log();
        let idx = file_sel % files.len();
        let byte = byte_sel % files[idx].1.len();
        files[idx].1[byte] ^= 1u8 << bit;
        recover_mutated(&files, idx);
    }
}

// ---------------------------------------------------------------------------
// Binary checkpoints (DESIGN.md §15): the health feed replay needs, the
// codec's damage tolerance, and recovery's fail-closed handling of
// checkpoints that do not fit the recovering system.
// ---------------------------------------------------------------------------

/// A crash with the health plane's `store/durability` SLO on.  Recovery
/// replays with no durability plane attached, so each WAL record carries
/// the SLO feed the run saw and replay feeds it back: every replayed tick
/// verifies against its recorded hash.
#[test]
fn crash_recovery_with_the_durability_slo_verifies_every_tick() {
    quiet_injected_panics();
    let crash_tick = 21u64;
    let cfg = DurabilityConfig { sync: SyncPolicy::EveryTick, checkpoint_every: 8, scrub_every: 4 };
    let mk = || builder(0).chaos(7, lossless_plan()).health(HealthConfig::standard().durability());
    let disk = Arc::new(SimDisk::new());
    let mut durable = mk().durability(disk.clone(), cfg).build();
    durable.set_state_hashing(true);
    seed_inputs(&mut durable);
    durable.run_ticks(crash_tick);
    let crashed_hash = durable.last_state_hash().unwrap();
    assert!(durable.durability_counts().unwrap().append_failures > 0, "the feed's bad side moved");
    drop(durable);
    disk.crash();

    let mut recovered = mk().build();
    recovered.set_state_hashing(true);
    let outcome = recovered.recover_from_medium(disk, cfg);
    assert_eq!(outcome.checkpoint_tick, Some(16));
    assert_eq!(outcome.replayed_ticks, crash_tick - 16);
    assert_eq!(outcome.resumed_tick, crash_tick);
    assert_eq!(outcome.hash_mismatches, 0, "{outcome:?}");
    assert_eq!(recovered.last_state_hash().unwrap(), crashed_hash);
}

/// A checkpoint of a short run of `mk`'s system, straight off the codec.
fn checkpoint_of(mk: impl Fn() -> hpcmon::system::MonitorBuilder) -> Vec<u8> {
    let mut mon = mk().build();
    seed_inputs(&mut mon);
    mon.run_ticks(5);
    mon.encode_checkpoint()
}

/// Recover `mon` from a medium holding `checkpoint` (as tick 5) and no WAL.
fn recover_from_checkpoint(mon: &mut MonitoringSystem, checkpoint: &[u8]) -> RecoveryOutcome {
    let cfg = DurabilityConfig { sync: SyncPolicy::EveryTick, checkpoint_every: 0, scrub_every: 0 };
    let disk = Arc::new(SimDisk::new());
    DurabilityPlane::new(disk.clone(), cfg).checkpoint(5, checkpoint).unwrap();
    mon.recover_from_medium(disk, cfg)
}

/// Recovery from a checkpoint that does not restore into `mk`'s system
/// must fail closed: report it undecodable and resume fresh, untouched.
fn assert_resumes_fresh(mk: impl Fn() -> hpcmon::system::MonitorBuilder, checkpoint: &[u8]) {
    let mut mon = mk().build();
    let outcome = recover_from_checkpoint(&mut mon, checkpoint);
    assert!(outcome.checkpoint_undecodable, "{outcome:?}");
    assert_eq!(outcome.checkpoint_tick, None);
    assert_eq!(outcome.resumed_tick, 0);
    assert_eq!(state_json(&mon), state_json(&mk().build()), "a refused checkpoint changes nothing");
}

/// `checkpoint` with its store section swapped for `store`'s.
fn with_store_section(checkpoint: &[u8], store: &TimeSeriesStore) -> Vec<u8> {
    let head_len = u64::from_le_bytes(checkpoint[12..20].try_into().unwrap()) as usize;
    let mut out = checkpoint[..20 + head_len].to_vec();
    store.encode_snapshot(&mut out);
    out
}

#[test]
fn checkpoint_codec_round_trips_and_restores_exactly() {
    let mut mon = builder(0).chaos(7, lossless_plan()).build();
    seed_inputs(&mut mon);
    mon.run_ticks(12);
    let bytes = mon.encode_checkpoint();
    assert_eq!(bytes[..8], CHECKPOINT_MAGIC);
    assert_eq!(mon.snapshot().encode(), bytes, "live and cloned encodes agree");
    let decoded = CoreSnapshot::decode(&bytes).expect("decodes");
    assert_eq!(decoded.tick(), 12);
    assert_eq!(decoded.encode(), bytes);
    let mut twin = builder(0).chaos(7, lossless_plan()).build();
    twin.try_restore_snapshot(decoded).expect("same configuration");
    assert_eq!(state_json(&twin), state_json(&mon));

    let mut recovered = builder(0).chaos(7, lossless_plan()).build();
    let outcome = recover_from_checkpoint(&mut recovered, &bytes);
    assert!(!outcome.checkpoint_undecodable);
    assert_eq!(state_json(&recovered), state_json(&mon));
}

#[test]
fn checkpoint_from_a_store_with_another_shard_count_resumes_fresh() {
    let bytes = checkpoint_of(|| builder(0));
    let other = with_store_section(&bytes, &TimeSeriesStore::with_options(8, 512));
    let err = builder(0).build().try_restore_snapshot(CoreSnapshot::decode(&other).unwrap());
    assert_eq!(
        err,
        Err(CheckpointError::Store(SnapshotError::Mismatch {
            what: "shard count",
            expected: 16,
            found: 8
        }))
    );
    assert_resumes_fresh(|| builder(0), &other);
}

#[test]
fn checkpoint_from_a_store_with_another_seal_threshold_resumes_fresh() {
    let bytes = checkpoint_of(|| builder(0));
    let other = with_store_section(&bytes, &TimeSeriesStore::with_options(16, 64));
    let err = builder(0).build().try_restore_snapshot(CoreSnapshot::decode(&other).unwrap());
    assert_eq!(
        err,
        Err(CheckpointError::Store(SnapshotError::Mismatch {
            what: "seal threshold",
            expected: 512,
            found: 64
        }))
    );
    assert_resumes_fresh(|| builder(0), &other);
}

/// A collector that never reports: it only changes the collector count.
struct Idle;

impl Collector for Idle {
    fn name(&self) -> &str {
        "idle"
    }

    fn collect(&mut self, _engine: &SimEngine, _frame: &mut ColumnFrame) {}
}

#[test]
fn checkpoint_from_a_system_with_other_collectors_resumes_fresh() {
    let bytes = checkpoint_of(|| builder(0));
    let mk = || builder(0).install_collector(Box::new(Idle));
    let err = mk().build().try_restore_snapshot(CoreSnapshot::decode(&bytes).unwrap());
    assert!(matches!(err, Err(CheckpointError::Mismatch { what: "collectors", .. })), "{err:?}");
    assert_resumes_fresh(mk, &bytes);
}

#[test]
fn checkpoint_from_a_system_with_other_detectors_resumes_fresh() {
    let bytes = checkpoint_of(|| builder(0));
    let mk = || {
        builder(0).attach_detector(DetectorAttachment::new(
            SeriesKey::new(
                StdMetrics::register(&MetricRegistry::new()).node_power,
                CompId::node(0),
            ),
            Box::new(ZScoreDetector::new(16, 6.0)),
            SignalKind::MetricAnomaly,
            Severity::Error,
            "node power anomaly",
        ))
    };
    let err = mk().build().try_restore_snapshot(CoreSnapshot::decode(&bytes).unwrap());
    assert_eq!(err, Err(CheckpointError::Mismatch { what: "detectors", expected: 1, found: 0 }));
    assert_resumes_fresh(mk, &bytes);
}

/// Checkpoints written as JSON by older builds are not read: recovery
/// reports them undecodable and resumes fresh.
#[test]
fn legacy_json_checkpoint_is_reported_undecodable() {
    let mut mon = builder(0).build();
    seed_inputs(&mut mon);
    mon.run_ticks(5);
    let json = serde_json::to_vec(&mon.snapshot()).unwrap();
    assert_eq!(CoreSnapshot::decode(&json).err(), Some(CheckpointError::BadMagic));
    assert_resumes_fresh(|| builder(0), &json);
}

/// One small checkpoint, shared by the damage properties below.
fn sample_checkpoint() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let mut mon = builder(0).build();
        seed_inputs(&mut mon);
        mon.run_ticks(3);
        mon.encode_checkpoint()
    })
}

/// Every truncation prefix through the fixed prefix and across the
/// head/section boundary is refused, and so is an even spread of cuts
/// through the store section (the store's own tests cut it at every byte;
/// each cut here re-parses the whole JSON head).
#[test]
fn checkpoint_prefixes_fail_closed() {
    let bytes = sample_checkpoint();
    let section = 20 + u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
    let step = ((bytes.len() - section) / 128).max(1);
    let cuts =
        (0..64).chain(section - 64..section + 64).chain((section..bytes.len()).step_by(step));
    for cut in cuts {
        assert!(CoreSnapshot::decode(&bytes[..cut]).is_err(), "prefix {cut} decoded");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any truncation or single-bit flip of an encoded checkpoint decodes
    /// to an error or a value, never a panic; a truncation never decodes.
    #[test]
    fn damaged_checkpoints_fail_closed(cut_sel in 0usize..1 << 40, bit_sel in 0usize..1 << 40) {
        let bytes = sample_checkpoint();
        prop_assert!(CoreSnapshot::decode(&bytes[..cut_sel % bytes.len()]).is_err());
        let mut flipped = bytes.to_vec();
        let bit = bit_sel % (bytes.len() * 8);
        flipped[bit / 8] ^= 1 << (bit % 8);
        let _ = CoreSnapshot::decode(&flipped);
    }
}

/// A full hot tier: 511 ticks of one sample a series a tick, one short of
/// the default seal threshold of 512, so every point is still hot.  Its
/// checkpoint holds the hot tails as compressed open blocks, at most
/// 3 bytes a point where raw columns took 16, and restores exactly.
#[test]
fn a_full_hot_tier_checkpoints_compressed_and_restores_exactly() {
    let mut mon = builder(0).build();
    seed_inputs(&mut mon);
    mon.run_ticks(511);
    let occ = mon.store().occupancy();
    assert_eq!(occ.warm_points, 0, "nothing has sealed");
    assert!(occ.hot_points > 500 * occ.series, "{occ:?}");
    let bytes = mon.encode_checkpoint();
    let head_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
    let section = bytes.len() - 20 - head_len;
    assert!(section <= 3 * occ.hot_points, "{section} B for {} hot points", occ.hot_points);

    let mut twin = builder(0).build();
    twin.try_restore_snapshot(CoreSnapshot::decode(&bytes).unwrap()).expect("same configuration");
    let (a, b) = (twin.store(), mon.store());
    assert_eq!(a.stats(), b.stats());
    assert_eq!(a.occupancy(), b.occupancy());
    assert_eq!(a.state_digest(), b.state_digest());
    assert_eq!(twin.encode_checkpoint(), bytes, "every hot point restored bit for bit");
}

/// A checkpoint stamped with the previous layout version (1, raw hot
/// columns) is not read: recovery reports it undecodable and resumes
/// fresh.
#[test]
fn version_1_checkpoint_is_reported_undecodable() {
    let mut v1 = sample_checkpoint().to_vec();
    v1[8..12].copy_from_slice(&1u32.to_le_bytes());
    assert_eq!(CoreSnapshot::decode(&v1).err(), Some(CheckpointError::Version(1)));
    assert_resumes_fresh(|| builder(0), &v1);
}
