//! The tiered time-series store.
//!
//! Layout: `SeriesKey → { warm: Vec<SeriesBlock>, hot: Vec<(Ts, f64)> }`,
//! sharded by key hash behind `parking_lot` RwLocks so collector threads
//! ingest concurrently with query threads.  Hot buffers seal into
//! compressed warm blocks at a size threshold; `archive` (cold tier) can
//! evict warm blocks wholesale and reload them later.

use crate::compress;
use hpcmon_metrics::{ColumnFrame, CompId, CompKind, Frame, MetricId, Sample, SeriesKey, Ts};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A sealed, compressed run of one series.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeriesBlock {
    /// The series this block belongs to.
    pub key: SeriesKey,
    /// First timestamp in the block.
    pub start: Ts,
    /// Last timestamp in the block.
    pub end: Ts,
    /// Number of points.
    pub count: u32,
    /// Compressed timestamps.
    pub ts_bytes: Vec<u8>,
    /// Compressed values.
    pub val_bytes: Vec<u8>,
}

/// Why a [`SeriesBlock`] failed to decompress.
///
/// Archived blocks cross a (de)serialization boundary in `archive.rs`, so
/// corrupt bytes are an *input* condition, not a logic error — callers get
/// a `Result`, never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockError {
    /// The timestamp stream is truncated, overflows, or goes negative.
    Timestamps,
    /// The Gorilla value stream is truncated or malformed.
    Values,
    /// Streams decoded but their lengths disagree with each other or with
    /// the block's declared `count`.
    CountMismatch,
}

impl std::fmt::Display for BlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockError::Timestamps => write!(f, "corrupt timestamp stream"),
            BlockError::Values => write!(f, "corrupt value stream"),
            BlockError::CountMismatch => write!(f, "decoded point count mismatch"),
        }
    }
}

impl std::error::Error for BlockError {}

/// Why a fault-aware write was refused.
///
/// Produced only by [`TimeSeriesStore::try_insert_frame`], the ingest
/// entry point that honors injected shard write faults.  The plain
/// `insert*` paths are fault-unaware and never fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteError {
    /// The named shard currently refuses writes (injected fault).  The
    /// frame was **not** inserted — not even its healthy shards — so the
    /// caller can spill it whole and retry later without double-ingesting.
    ShardUnavailable(usize),
}

impl std::fmt::Display for WriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WriteError::ShardUnavailable(s) => write!(f, "store shard {s} unavailable"),
        }
    }
}

impl std::error::Error for WriteError {}

impl SeriesBlock {
    /// Compress a non-empty, time-ordered run of points.
    pub fn compress(key: SeriesKey, points: &[(Ts, f64)]) -> SeriesBlock {
        assert!(!points.is_empty(), "cannot seal an empty block");
        debug_assert!(points.windows(2).all(|w| w[0].0 <= w[1].0), "points must be ordered");
        let OpenBlock { ts_bytes, val_bytes } = OpenBlock::compress(points);
        SeriesBlock {
            key,
            start: points[0].0,
            end: points[points.len() - 1].0,
            count: points.len() as u32,
            ts_bytes,
            val_bytes,
        }
    }

    /// Decompress back to points, or report why the bytes are corrupt.
    pub fn decompress(&self) -> Result<Vec<(Ts, f64)>, BlockError> {
        let ts = compress::decompress_timestamps(&self.ts_bytes).ok_or(BlockError::Timestamps)?;
        let vals = compress::decompress_values(&self.val_bytes).ok_or(BlockError::Values)?;
        if ts.len() != vals.len() || ts.len() != self.count as usize {
            return Err(BlockError::CountMismatch);
        }
        Ok(ts.into_iter().zip(vals).collect())
    }

    /// Compressed size in bytes.
    pub fn compressed_bytes(&self) -> usize {
        self.ts_bytes.len() + self.val_bytes.len()
    }

    /// Whether the block overlaps `[from, to]`.
    pub fn overlaps(&self, from: Ts, to: Ts) -> bool {
        self.start <= to && self.end >= from
    }
}

#[derive(Debug, Default)]
struct SeriesData {
    warm: Vec<SeriesBlock>,
    hot: Vec<(Ts, f64)>,
}

/// One series in a shard's slab: the key plus its tiered data.
#[derive(Debug)]
struct SeriesSlot {
    key: SeriesKey,
    data: SeriesData,
}

/// A shard is a **slab** of series plus a key→slot index.  Slots are
/// append-only under ingest, so a slot number resolved once stays valid
/// until a slot-moving operation (retention drop, snapshot load) bumps the
/// store's layout generation — which is what lets [`IngestRoute`] replace
/// the per-sample hash lookup on the hot path with a direct slab index.
#[derive(Default)]
struct Shard {
    slots: Vec<SeriesSlot>,
    index: HashMap<SeriesKey, u32>,
}

/// A caller-owned routing cache for columnar ingest: where each position
/// of a frame's key column lands (shard and slab slot), plus the per-shard
/// batches in frame order.
///
/// Frames produced by a fixed collector set repeat the same key column
/// tick after tick, so the route — built once with hashing and lookups —
/// is validated per tick by a layout-generation check plus a key-column
/// equality sweep, then reused: ingest costs one slab index and one push
/// per sample, one lock per touched shard, and **zero allocations**.  This
/// also retires the old per-tick `Vec<Vec<&Sample>>` partition rebuild.
#[derive(Debug, Default)]
pub struct IngestRoute {
    /// Store layout generation this route was built against.
    gen: u64,
    /// The key column the route describes (validity check per tick).
    keys: Vec<SeriesKey>,
    /// Slab slot per position (`u32::MAX` = series did not exist when the
    /// route was built; resolved by hash on first ingest, then refreshed).
    slot_of: Vec<u32>,
    /// Sample positions per shard, in frame order.
    per_shard: Vec<Vec<u32>>,
    /// Positions still `u32::MAX` in `slot_of`.
    unresolved: usize,
}

impl IngestRoute {
    /// An empty route; the first ingest through it builds the cache.
    pub fn new() -> IngestRoute {
        IngestRoute::default()
    }

    /// Whether this route currently describes `keys` at layout `gen`.
    fn matches(&self, gen: u64, keys: &[SeriesKey]) -> bool {
        self.gen == gen && self.keys == keys
    }

    /// Whether any sample of the routed frame lands in `shard`.
    pub fn touches(&self, shard: usize) -> bool {
        self.per_shard.get(shard).is_some_and(|b| !b.is_empty())
    }
}

/// Occupancy and compression statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StoreStats {
    /// Number of distinct series.
    pub series: usize,
    /// Points in hot buffers.
    pub hot_points: usize,
    /// Points in warm (compressed) blocks.
    pub warm_points: usize,
    /// Bytes used by warm blocks.
    pub warm_bytes: usize,
    /// Compressed bytes per warm point (0 when no warm data).
    pub bytes_per_point: f64,
    /// Corrupt blocks encountered (skipped on query, rejected on reload).
    /// Monotonic — a counter, not an occupancy figure, carried here so
    /// every stats consumer sees corruption without a second call.
    pub corrupt_blocks: u64,
}

/// Monotonic operation counters: how much work the store has done, as
/// opposed to [`StoreStats`] which reports what it currently holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StoreOpCounts {
    /// Samples accepted by `insert` / `insert_frame`.
    pub samples_ingested: u64,
    /// Hot buffers sealed into warm blocks (threshold or `seal_all`).
    pub blocks_sealed: u64,
    /// Warm blocks handed to the archive tier.
    pub blocks_evicted: u64,
    /// Warm blocks reloaded from the archive tier.
    pub blocks_reloaded: u64,
}

/// The store.
///
/// ```
/// use hpcmon_store::TimeSeriesStore;
/// use hpcmon_metrics::{CompId, MetricId, Sample, SeriesKey, Ts};
///
/// let store = TimeSeriesStore::new();
/// for minute in 0..10 {
///     store.insert(&Sample::new(
///         MetricId(0), CompId::node(7), Ts::from_mins(minute), 200.0 + minute as f64,
///     ));
/// }
/// let key = SeriesKey::new(MetricId(0), CompId::node(7));
/// let points = store.query(key, Ts::from_mins(3), Ts::from_mins(5));
/// assert_eq!(points.len(), 3);
/// assert_eq!(points[0].1, 203.0);
/// ```
pub struct TimeSeriesStore {
    shards: Vec<RwLock<Shard>>,
    seal_threshold: usize,
    samples_ingested: AtomicU64,
    blocks_sealed: AtomicU64,
    blocks_evicted: AtomicU64,
    blocks_reloaded: AtomicU64,
    corrupt_blocks: AtomicU64,
    // Occupancy, maintained incrementally on every write path so
    // `occupancy()` is O(1) — the self-telemetry feed reads it every tick,
    // where the `stats()` scan would grow with the store.
    series_count: AtomicU64,
    hot_points: AtomicU64,
    warm_points: AtomicU64,
    warm_bytes: AtomicU64,
    // Bumped by every mutation (ingest, seal, evict, reload, retention
    // drop).  Consumers that cache derived results — the gateway's query
    // result cache — key entries on this value: an entry computed at epoch
    // E is valid exactly while `epoch()` still returns E.
    epoch: AtomicU64,
    // Bumped only by operations that can move or remove slab slots
    // (retention drops, snapshot loads) — NOT by appends.  An
    // `IngestRoute` built at generation G stays valid while the
    // generation still reads G (and the key column is unchanged).
    layout_gen: AtomicU64,
    // Injected per-shard write faults (chaos testing).  Only
    // `try_insert_frame` consults these; everything else ignores them.
    write_faults: Vec<AtomicBool>,
}

impl TimeSeriesStore {
    /// Default seal threshold: points per series before a hot buffer seals.
    pub const DEFAULT_SEAL_THRESHOLD: usize = 512;

    /// A store with 16 shards and the default seal threshold.
    pub fn new() -> TimeSeriesStore {
        TimeSeriesStore::with_options(16, Self::DEFAULT_SEAL_THRESHOLD)
    }

    /// Full control over sharding and sealing.
    pub fn with_options(shards: usize, seal_threshold: usize) -> TimeSeriesStore {
        assert!(shards > 0 && seal_threshold > 0);
        TimeSeriesStore {
            shards: (0..shards).map(|_| RwLock::new(Shard::default())).collect(),
            seal_threshold,
            samples_ingested: AtomicU64::new(0),
            blocks_sealed: AtomicU64::new(0),
            blocks_evicted: AtomicU64::new(0),
            blocks_reloaded: AtomicU64::new(0),
            corrupt_blocks: AtomicU64::new(0),
            series_count: AtomicU64::new(0),
            hot_points: AtomicU64::new(0),
            warm_points: AtomicU64::new(0),
            warm_bytes: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            layout_gen: AtomicU64::new(0),
            write_faults: (0..shards).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Inject (or clear) a write fault on one shard.  While set, any
    /// [`TimeSeriesStore::try_insert_frame`] touching that shard fails
    /// whole; reads and the fault-unaware insert paths are unaffected.
    /// Out-of-range shards are ignored.
    pub fn set_shard_write_fault(&self, shard: usize, failing: bool) {
        if let Some(flag) = self.write_faults.get(shard) {
            flag.store(failing, Ordering::Release);
        }
    }

    /// Whether a shard currently refuses fault-aware writes.
    pub fn shard_write_faulted(&self, shard: usize) -> bool {
        self.write_faults.get(shard).is_some_and(|f| f.load(Ordering::Acquire))
    }

    /// Fault-aware frame ingest: like [`TimeSeriesStore::insert_frame`],
    /// but refuses the **whole frame** if any shard it would touch has an
    /// injected write fault — all-or-nothing, so a spilled frame can be
    /// retried later without double-ingesting its healthy shards.
    pub fn try_insert_frame(&self, frame: &Frame) -> Result<(), WriteError> {
        let batches = self.partition_frame(frame);
        for (shard, batch) in batches.iter().enumerate() {
            if !batch.is_empty() && self.shard_write_faulted(shard) {
                return Err(WriteError::ShardUnavailable(shard));
            }
        }
        for (shard, batch) in batches.into_iter().enumerate() {
            if !batch.is_empty() {
                self.insert_shard_batch(shard, &batch);
            }
        }
        Ok(())
    }

    /// The store's mutation epoch: a counter advanced by every write-path
    /// operation (`insert`, sealing, eviction, reload, retention drops).
    /// Two reads of the store separated by an unchanged epoch are
    /// guaranteed to observe identical contents, which is what makes
    /// query-result caching sound.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::Release);
    }

    fn bump_epoch_by(&self, n: u64) {
        // Batched ingest advances the epoch by the sample count so the
        // epoch value stays identical to per-sample insertion.
        self.epoch.fetch_add(n, Ordering::Release);
    }

    /// Number of shards (the fan-out width for batched ingest).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Which shard a series key lives in.
    pub fn shard_index(&self, key: &SeriesKey) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    fn shard_of(&self, key: &SeriesKey) -> &RwLock<Shard> {
        &self.shards[self.shard_index(key)]
    }

    /// Insert one sample.  Out-of-order samples (older than the hot tail)
    /// are accepted but land in order within the hot buffer.
    pub fn insert(&self, sample: &Sample) {
        self.samples_ingested.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard_of(&sample.key).write();
        self.insert_locked(&mut shard, sample);
        drop(shard);
        self.bump_epoch();
    }

    /// Resolve (or create) the slab slot for `key` in a locked shard.
    fn resolve_slot(&self, shard: &mut Shard, key: SeriesKey) -> u32 {
        let Shard { slots, index } = shard;
        match index.entry(key) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(v) => {
                let slot = slots.len() as u32;
                slots.push(SeriesSlot { key, data: SeriesData::default() });
                v.insert(slot);
                self.series_count.fetch_add(1, Ordering::Relaxed);
                slot
            }
        }
    }

    /// The per-sample ingest step, with the owning shard's lock held.
    fn insert_locked(&self, shard: &mut Shard, sample: &Sample) {
        let slot = self.resolve_slot(shard, sample.key);
        let data = &mut shard.slots[slot as usize].data;
        self.insert_point(sample.key, data, sample.ts, sample.value);
    }

    /// Append one point to a resolved series, sealing at the threshold.
    /// Occupancy accounting is the caller's: the routed columnar path
    /// bumps `hot_points` once per shard batch instead of per sample.
    #[inline]
    fn append_point(&self, key: SeriesKey, data: &mut SeriesData, ts: Ts, value: f64) {
        // Common case: append in order.
        match data.hot.last() {
            Some(&(last, _)) if last > ts => {
                let pos = data.hot.partition_point(|&(t, _)| t <= ts);
                data.hot.insert(pos, (ts, value));
            }
            _ => data.hot.push((ts, value)),
        }
        if data.hot.len() >= self.seal_threshold {
            let block = SeriesBlock::compress(key, &data.hot);
            self.account_seal(&block);
            data.warm.push(block);
            data.hot.clear();
        }
    }

    /// [`Self::append_point`] plus the per-sample occupancy bump (the row
    /// ingest path counts one sample at a time).
    #[inline]
    fn insert_point(&self, key: SeriesKey, data: &mut SeriesData, ts: Ts, value: f64) {
        self.hot_points.fetch_add(1, Ordering::Relaxed);
        self.append_point(key, data, ts, value);
    }

    /// Move occupancy from hot to warm for a freshly sealed block.
    fn account_seal(&self, block: &SeriesBlock) {
        self.blocks_sealed.fetch_add(1, Ordering::Relaxed);
        self.hot_points.fetch_sub(block.count as u64, Ordering::Relaxed);
        self.warm_points.fetch_add(block.count as u64, Ordering::Relaxed);
        self.warm_bytes.fetch_add(block.compressed_bytes() as u64, Ordering::Relaxed);
    }

    /// Insert every sample of a frame.  Internally shard-batched: one
    /// lock acquisition per touched shard instead of one per sample, with
    /// contents, occupancy, op counts, and epoch identical to per-sample
    /// insertion (frame order is preserved within each shard; samples in
    /// different shards never share a series, so cross-shard order is
    /// immaterial).
    pub fn insert_frame(&self, frame: &Frame) {
        for (shard, batch) in self.partition_frame(frame).into_iter().enumerate() {
            if !batch.is_empty() {
                self.insert_shard_batch(shard, &batch);
            }
        }
    }

    /// Group a frame's samples by owning shard, preserving frame order
    /// within each shard — the split half of concurrent ingest: partition
    /// once, then hand each non-empty batch to a worker.
    pub fn partition_frame<'a>(&self, frame: &'a Frame) -> Vec<Vec<&'a Sample>> {
        let mut batches: Vec<Vec<&Sample>> = vec![Vec::new(); self.shards.len()];
        for s in &frame.samples {
            batches[self.shard_index(&s.key)].push(s);
        }
        batches
    }

    /// Ingest a batch of samples that all hash to `shard`, holding that
    /// shard's write lock once for the whole batch.  Callers must pass
    /// samples in their original frame order; [`TimeSeriesStore::partition_frame`]
    /// produces exactly that.
    ///
    /// Distinct shards can be ingested concurrently: each batch touches
    /// only its own shard's map, and all shared accounting is atomic.
    pub fn insert_shard_batch(&self, shard: usize, samples: &[&Sample]) {
        if samples.is_empty() {
            return;
        }
        self.samples_ingested.fetch_add(samples.len() as u64, Ordering::Relaxed);
        let mut guard = self.shards[shard].write();
        for s in samples {
            debug_assert_eq!(self.shard_index(&s.key), shard, "sample routed to wrong shard");
            self.insert_locked(&mut guard, s);
        }
        drop(guard);
        self.bump_epoch_by(samples.len() as u64);
    }

    /// The store's slab-layout generation: advanced only by operations
    /// that can move or remove slots (retention drops, snapshot loads).
    /// An [`IngestRoute`] is valid exactly while this still reads the
    /// value it was built at.
    pub fn layout_gen(&self) -> u64 {
        self.layout_gen.load(Ordering::Acquire)
    }

    fn bump_layout(&self) {
        self.layout_gen.fetch_add(1, Ordering::Release);
    }

    /// Ensure `route` describes `cf`'s key column against the current slab
    /// layout, rebuilding it if the keys or the layout changed.  Rebuild is
    /// **lookup-only** (read locks, no mutation): series the store has not
    /// seen yet stay unresolved and are created on first ingest.
    pub fn prepare_route(&self, cf: &ColumnFrame, route: &mut IngestRoute) {
        // A default route trivially "matches" an empty frame on a fresh
        // store (gen 0, empty keys) — the shard-table size check catches
        // that and any route built against a differently sharded store.
        if route.per_shard.len() == self.shards.len() && route.matches(self.layout_gen(), &cf.keys)
        {
            return;
        }
        route.gen = self.layout_gen();
        route.keys.clear();
        route.keys.extend_from_slice(&cf.keys);
        route.per_shard.resize_with(self.shards.len(), Vec::new);
        for batch in &mut route.per_shard {
            batch.clear();
        }
        for (i, key) in cf.keys.iter().enumerate() {
            route.per_shard[self.shard_index(key)].push(i as u32);
        }
        route.slot_of.clear();
        route.slot_of.resize(cf.keys.len(), u32::MAX);
        self.refresh_route_slots(route);
    }

    /// Re-run the slot lookup for every position of `route` (read locks
    /// only), leaving positions whose series still do not exist at
    /// `u32::MAX`.
    fn refresh_route_slots(&self, route: &mut IngestRoute) {
        let mut unresolved = 0;
        for (shard_id, batch) in route.per_shard.iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let guard = self.shards[shard_id].read();
            for &i in batch {
                let i = i as usize;
                match guard.index.get(&route.keys[i]) {
                    Some(&slot) => route.slot_of[i] = slot,
                    None => {
                        route.slot_of[i] = u32::MAX;
                        unresolved += 1;
                    }
                }
            }
        }
        route.unresolved = unresolved;
    }

    /// Ingest the samples of `cf` that land in `shard`, holding that
    /// shard's write lock once for the whole batch — the columnar analogue
    /// of [`TimeSeriesStore::insert_shard_batch`].  `route` must have been
    /// prepared for `cf` ([`TimeSeriesStore::prepare_route`]).  Distinct
    /// shards can be ingested concurrently against the same shared route.
    pub fn ingest_route_shard(&self, shard_id: usize, cf: &ColumnFrame, route: &IngestRoute) {
        let batch = &route.per_shard[shard_id];
        if batch.is_empty() {
            return;
        }
        self.samples_ingested.fetch_add(batch.len() as u64, Ordering::Relaxed);
        // One occupancy bump for the whole batch — seals subtract their
        // own counts as they happen, so the final tally matches the
        // per-sample accounting of the row path.
        self.hot_points.fetch_add(batch.len() as u64, Ordering::Relaxed);
        let mut guard = self.shards[shard_id].write();
        for &i in batch {
            let i = i as usize;
            let key = cf.keys[i];
            debug_assert_eq!(self.shard_index(&key), shard_id, "sample routed to wrong shard");
            let hint = route.slot_of[i];
            // The route is validated against the key column and the layout
            // generation, so the hint is normally exact; the slot-key check
            // is a cheap last-line defense (the slot is already in cache).
            let slot = match guard.slots.get(hint as usize) {
                Some(s) if s.key == key => hint,
                _ => self.resolve_slot(&mut guard, key),
            };
            let data = &mut guard.slots[slot as usize].data;
            self.append_point(key, data, cf.stamps[i], cf.values[i]);
        }
        drop(guard);
        self.bump_epoch_by(batch.len() as u64);
    }

    /// Resolve any route positions left unresolved by a lookup-only build
    /// (their series were created during ingest).  Call once after a
    /// routed ingest so the next tick's hot path is hint-complete.
    pub fn finish_route(&self, route: &mut IngestRoute) {
        if route.unresolved > 0 {
            self.refresh_route_slots(route);
        }
    }

    /// Columnar frame ingest through a cached route: contents, occupancy,
    /// op counts, and epoch identical to [`TimeSeriesStore::insert_frame`]
    /// of the equivalent row frame, but with one slab index + push per
    /// sample and no per-tick partition rebuild.
    pub fn ingest_columns(&self, cf: &ColumnFrame, route: &mut IngestRoute) {
        self.prepare_route(cf, route);
        for shard_id in 0..self.shards.len() {
            self.ingest_route_shard(shard_id, cf, route);
        }
        self.finish_route(route);
    }

    /// Fault-aware columnar ingest: refuses the **whole frame** if any
    /// shard it would touch has an injected write fault (all-or-nothing,
    /// like [`TimeSeriesStore::try_insert_frame`]).  The route build is
    /// lookup-only, so a refused frame leaves the store untouched.
    pub fn try_ingest_columns(
        &self,
        cf: &ColumnFrame,
        route: &mut IngestRoute,
    ) -> Result<(), WriteError> {
        self.prepare_route(cf, route);
        for shard_id in 0..self.shards.len() {
            if route.touches(shard_id) && self.shard_write_faulted(shard_id) {
                return Err(WriteError::ShardUnavailable(shard_id));
            }
        }
        for shard_id in 0..self.shards.len() {
            self.ingest_route_shard(shard_id, cf, route);
        }
        self.finish_route(route);
        Ok(())
    }

    /// All points of one series in `[from, to]`, time-ordered.
    pub fn query(&self, key: SeriesKey, from: Ts, to: Ts) -> Vec<(Ts, f64)> {
        let shard = self.shard_of(&key).read();
        let Some(data) = shard.index.get(&key).map(|&slot| &shard.slots[slot as usize].data) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for block in &data.warm {
            if block.overlaps(from, to) {
                match block.decompress() {
                    Ok(pts) => {
                        out.extend(pts.into_iter().filter(|&(t, _)| t >= from && t <= to));
                    }
                    // A corrupt block degrades one range of one series;
                    // it must not take down the query (or the pipeline).
                    Err(_) => {
                        self.corrupt_blocks.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        out.extend(data.hot.iter().copied().filter(|&(t, _)| t >= from && t <= to));
        out.sort_by_key(|&(t, _)| t);
        out
    }

    /// All series keys for a metric (any component).
    pub fn series_of_metric(&self, metric: MetricId) -> Vec<SeriesKey> {
        let mut keys: Vec<SeriesKey> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .slots
                    .iter()
                    .map(|slot| slot.key)
                    .filter(|k| k.metric == metric)
                    .collect::<Vec<_>>()
            })
            .collect();
        keys.sort();
        keys
    }

    /// All distinct series keys.
    pub fn all_series(&self) -> Vec<SeriesKey> {
        let mut keys: Vec<SeriesKey> = self
            .shards
            .iter()
            .flat_map(|s| s.read().slots.iter().map(|slot| slot.key).collect::<Vec<_>>())
            .collect();
        keys.sort();
        keys
    }

    /// Per-component points of one metric in a range: the fan-in for
    /// group-by queries.
    pub fn query_metric(
        &self,
        metric: MetricId,
        from: Ts,
        to: Ts,
    ) -> Vec<(CompId, Vec<(Ts, f64)>)> {
        self.series_of_metric(metric)
            .into_iter()
            .map(|k| (k.comp, self.query(k, from, to)))
            .filter(|(_, pts)| !pts.is_empty())
            .collect()
    }

    /// Force-seal every non-empty hot buffer (used before archiving).
    pub fn seal_all(&self) {
        for shard in &self.shards {
            let mut shard = shard.write();
            for slot in shard.slots.iter_mut() {
                if !slot.data.hot.is_empty() {
                    let block = SeriesBlock::compress(slot.key, &slot.data.hot);
                    self.account_seal(&block);
                    slot.data.warm.push(block);
                    slot.data.hot.clear();
                }
            }
        }
        self.bump_epoch();
    }

    /// Remove and return all warm blocks that end at or before `cutoff`
    /// (the eviction half of the archive flow).
    pub fn evict_warm_before(&self, cutoff: Ts) -> Vec<SeriesBlock> {
        let mut evicted = Vec::new();
        for shard in &self.shards {
            let mut shard = shard.write();
            for slot in shard.slots.iter_mut() {
                let (old, keep): (Vec<_>, Vec<_>) =
                    slot.data.warm.drain(..).partition(|b| b.end <= cutoff);
                evicted.extend(old);
                slot.data.warm = keep;
            }
        }
        self.blocks_evicted.fetch_add(evicted.len() as u64, Ordering::Relaxed);
        let points: u64 = evicted.iter().map(|b| b.count as u64).sum();
        let bytes: u64 = evicted.iter().map(|b| b.compressed_bytes() as u64).sum();
        self.warm_points.fetch_sub(points, Ordering::Relaxed);
        self.warm_bytes.fetch_sub(bytes, Ordering::Relaxed);
        self.bump_epoch();
        evicted
    }

    /// Re-insert previously evicted blocks (the reload half).  Blocks
    /// whose bytes no longer decompress — archives cross a serialization
    /// boundary, so this is an input condition — are rejected and counted
    /// rather than admitted as queryable-looking garbage.
    pub fn reload_blocks(&self, blocks: Vec<SeriesBlock>) {
        for block in blocks {
            if block.decompress().is_err() {
                self.corrupt_blocks.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            self.blocks_reloaded.fetch_add(1, Ordering::Relaxed);
            self.warm_points.fetch_add(block.count as u64, Ordering::Relaxed);
            self.warm_bytes.fetch_add(block.compressed_bytes() as u64, Ordering::Relaxed);
            let mut shard = self.shard_of(&block.key).write();
            let slot = self.resolve_slot(&mut shard, block.key);
            let data = &mut shard.slots[slot as usize].data;
            data.warm.push(block);
            data.warm.sort_by_key(|b| b.start);
        }
        self.bump_epoch();
    }

    /// Delete series whose data ends before `cutoff` and have no hot points
    /// (hard retention; returns dropped series count).
    pub fn drop_series_before(&self, cutoff: Ts) -> usize {
        let mut dropped = 0;
        for shard in &self.shards {
            let mut shard = shard.write();
            let before = shard.slots.len();
            shard.slots.retain(|slot| {
                let data = &slot.data;
                let dead = data.hot.is_empty()
                    && !data.warm.is_empty()
                    && data.warm.iter().all(|b| b.end < cutoff);
                if dead {
                    dropped += 1;
                    let points: u64 = data.warm.iter().map(|b| b.count as u64).sum();
                    let bytes: u64 = data.warm.iter().map(|b| b.compressed_bytes() as u64).sum();
                    self.warm_points.fetch_sub(points, Ordering::Relaxed);
                    self.warm_bytes.fetch_sub(bytes, Ordering::Relaxed);
                }
                !dead
            });
            // Retention compacts the slab, so every slot number may shift:
            // rebuild the index and (below) invalidate cached routes.
            if shard.slots.len() != before {
                let Shard { slots, index } = &mut *shard;
                index.clear();
                for (i, slot) in slots.iter().enumerate() {
                    index.insert(slot.key, i as u32);
                }
            }
        }
        self.series_count.fetch_sub(dropped as u64, Ordering::Relaxed);
        self.bump_layout();
        self.bump_epoch();
        dropped
    }

    /// Occupancy statistics.
    pub fn stats(&self) -> StoreStats {
        let mut s = StoreStats::default();
        for shard in &self.shards {
            let shard = shard.read();
            s.series += shard.slots.len();
            for slot in &shard.slots {
                s.hot_points += slot.data.hot.len();
                for b in &slot.data.warm {
                    s.warm_points += b.count as usize;
                    s.warm_bytes += b.compressed_bytes();
                }
            }
        }
        s.bytes_per_point =
            if s.warm_points > 0 { s.warm_bytes as f64 / s.warm_points as f64 } else { 0.0 };
        s.corrupt_blocks = self.corrupt_blocks.load(Ordering::Relaxed);
        s
    }

    /// Occupancy from the counters maintained on the write paths: O(1),
    /// unlike the [`TimeSeriesStore::stats`] scan — the per-tick read for
    /// the self-telemetry feed.
    pub fn occupancy(&self) -> StoreStats {
        let warm_points = self.warm_points.load(Ordering::Relaxed) as usize;
        let warm_bytes = self.warm_bytes.load(Ordering::Relaxed) as usize;
        StoreStats {
            series: self.series_count.load(Ordering::Relaxed) as usize,
            hot_points: self.hot_points.load(Ordering::Relaxed) as usize,
            warm_points,
            warm_bytes,
            bytes_per_point: if warm_points > 0 {
                warm_bytes as f64 / warm_points as f64
            } else {
                0.0
            },
            corrupt_blocks: self.corrupt_blocks.load(Ordering::Relaxed),
        }
    }

    /// Corrupt blocks encountered so far (skipped on query, rejected on
    /// reload).
    pub fn corrupt_blocks(&self) -> u64 {
        self.corrupt_blocks.load(Ordering::Relaxed)
    }

    /// Admit a warm block without the reload validation — test-only, to
    /// exercise the query path's skip-and-count defense for corruption
    /// that bypasses the ingest boundary (e.g. in-memory bit flips).
    #[cfg(test)]
    fn inject_warm_block(&self, block: SeriesBlock) {
        let mut shard = self.shard_of(&block.key).write();
        let slot = self.resolve_slot(&mut shard, block.key);
        shard.slots[slot as usize].data.warm.push(block);
    }

    /// Monotonic operation counters.
    pub fn op_counts(&self) -> StoreOpCounts {
        StoreOpCounts {
            samples_ingested: self.samples_ingested.load(Ordering::Relaxed),
            blocks_sealed: self.blocks_sealed.load(Ordering::Relaxed),
            blocks_evicted: self.blocks_evicted.load(Ordering::Relaxed),
            blocks_reloaded: self.blocks_reloaded.load(Ordering::Relaxed),
        }
    }

    /// 64-bit digest of the store's deterministic observables, for per-tick
    /// replay verification.  Deliberately counter-based (epoch, occupancy,
    /// op counts): the counters are bit-identical across worker counts and
    /// reruns, and any content divergence (different samples stored,
    /// different seal/evict decisions) moves at least one of them.  Hashing
    /// contents directly would cost a full store scan every tick.
    pub fn state_digest(&self) -> u64 {
        let mut h = hpcmon_metrics::StateHash::new(0x57);
        let occ = self.occupancy();
        let ops = self.op_counts();
        h.u64(self.epoch.load(Ordering::Relaxed))
            .usize(occ.series)
            .usize(occ.hot_points)
            .usize(occ.warm_points)
            .usize(occ.warm_bytes)
            .u64(occ.corrupt_blocks)
            .u64(ops.samples_ingested)
            .u64(ops.blocks_sealed)
            .u64(ops.blocks_evicted)
            .u64(ops.blocks_reloaded);
        h.finish()
    }

    /// Capture the full store contents and counters for a flight-recorder
    /// checkpoint.  Series are sorted by key so the snapshot bytes are
    /// canonical regardless of hash-map iteration order.
    pub fn snapshot(&self) -> StoreSnapshot {
        let mut series = Vec::new();
        for shard in &self.shards {
            let shard = shard.read();
            for slot in &shard.slots {
                series.push(SeriesSnapshot {
                    key: slot.key,
                    hot: OpenBlock::compress(&slot.data.hot),
                    warm: slot.data.warm.clone(),
                });
            }
        }
        series.sort_by_key(|s| s.key);
        StoreSnapshot { series, ..self.snapshot_head() }
    }

    /// The snapshot's header fields: everything but the series.
    fn snapshot_head(&self) -> StoreSnapshot {
        StoreSnapshot {
            num_shards: self.shards.len(),
            seal_threshold: self.seal_threshold,
            series: Vec::new(),
            counts: self.op_counts(),
            corrupt_blocks: self.corrupt_blocks.load(Ordering::Relaxed),
            epoch: self.epoch.load(Ordering::Relaxed),
            write_faults: self.write_faults.iter().map(|f| f.load(Ordering::Relaxed)).collect(),
        }
    }

    /// Append the binary checkpoint section of the live store to `out`:
    /// byte-identical to `self.snapshot().encode(out)`, but encoded
    /// straight from the shards under their read locks, without cloning
    /// the contents into a [`StoreSnapshot`] first.
    pub fn encode_snapshot(&self, out: &mut Vec<u8>) {
        let guards: Vec<_> = self.shards.iter().map(|s| s.read()).collect();
        let mut slots: Vec<&SeriesSlot> = guards.iter().flat_map(|g| g.slots.iter()).collect();
        slots.sort_unstable_by_key(|s| s.key);
        let occ = self.occupancy();
        out.reserve(
            SECTION_HEAD_LEN
                + self.shards.len()
                + slots.len() * (SERIES_HEAD_LEN + OPEN_BLOCK_EST)
                + occ.hot_points * HOT_POINT_EST
                + occ.warm_bytes
                + (occ.warm_points / self.seal_threshold + slots.len()) * BLOCK_HEAD_LEN,
        );
        self.snapshot_head().encode_series(
            slots.len(),
            slots.iter().map(|s| (s.key, s.data.hot.as_slice(), s.data.warm.as_slice())),
            OpenBlock::write,
            out,
        );
    }

    /// Whether `snap` was taken from a store configured like this one
    /// (shard choice is a pure function of the key and shard count, and
    /// the seal threshold shapes every future block).
    fn check_fits(&self, snap: &StoreSnapshot) -> Result<(), SnapshotError> {
        let mismatch = |what, expected: usize, found: usize| SnapshotError::Mismatch {
            what,
            expected: expected as u64,
            found: found as u64,
        };
        if snap.num_shards != self.shards.len() {
            return Err(mismatch("shard count", self.shards.len(), snap.num_shards));
        }
        if snap.seal_threshold != self.seal_threshold {
            return Err(mismatch("seal threshold", self.seal_threshold, snap.seal_threshold));
        }
        Ok(())
    }

    /// Load a checkpoint into this store **in place**, replacing all
    /// contents and counters.  The shard count and seal threshold must
    /// match the checkpoint; a snapshot from a differently configured
    /// store is refused with [`SnapshotError::Mismatch`] before anything
    /// changes.  In-place restore keeps every `Arc<TimeSeriesStore>`
    /// handle (gateway, self-collector, query engines) valid, so replay
    /// seek swaps state without rebuilding the surrounding system.
    pub fn load_snapshot(&self, snap: StoreSnapshot) -> Result<(), SnapshotError> {
        self.check_fits(&snap)?;
        // Decompress every hot tail before anything changes: one bad tail
        // refuses the whole snapshot.
        let mut scratch = HotScratch::default();
        let mut hot_tails = Vec::with_capacity(snap.series.len());
        for s in &snap.series {
            hot_tails.push(s.hot.decompress(self.seal_threshold, &mut scratch)?);
        }
        for shard in &self.shards {
            let mut shard = shard.write();
            shard.slots.clear();
            shard.index.clear();
        }
        let mut hot_points = 0u64;
        let mut warm_points = 0u64;
        let mut warm_bytes = 0u64;
        let series_count = snap.series.len() as u64;
        for (s, hot) in snap.series.into_iter().zip(hot_tails) {
            hot_points += hot.len() as u64;
            for b in &s.warm {
                warm_points += b.count as u64;
                warm_bytes += b.compressed_bytes() as u64;
            }
            let mut shard = self.shard_of(&s.key).write();
            let slot = shard.slots.len() as u32;
            shard.index.insert(s.key, slot);
            shard.slots.push(SeriesSlot { key: s.key, data: SeriesData { warm: s.warm, hot } });
        }
        // Every slot may have moved: cached routes are stale.
        self.bump_layout();
        self.series_count.store(series_count, Ordering::Relaxed);
        self.hot_points.store(hot_points, Ordering::Relaxed);
        self.warm_points.store(warm_points, Ordering::Relaxed);
        self.warm_bytes.store(warm_bytes, Ordering::Relaxed);
        self.samples_ingested.store(snap.counts.samples_ingested, Ordering::Relaxed);
        self.blocks_sealed.store(snap.counts.blocks_sealed, Ordering::Relaxed);
        self.blocks_evicted.store(snap.counts.blocks_evicted, Ordering::Relaxed);
        self.blocks_reloaded.store(snap.counts.blocks_reloaded, Ordering::Relaxed);
        self.corrupt_blocks.store(snap.corrupt_blocks, Ordering::Relaxed);
        self.epoch.store(snap.epoch, Ordering::Relaxed);
        for (i, &f) in snap.write_faults.iter().enumerate() {
            self.set_shard_write_fault(i, f);
        }
        Ok(())
    }

    /// Rebuild a store from a checkpoint: contents land in the same shards
    /// (shard choice is a pure function of the key), occupancy counters are
    /// recomputed from the restored contents, and the monotonic counters
    /// and epoch resume at their recorded values.
    pub fn restore(snap: StoreSnapshot) -> TimeSeriesStore {
        let store = TimeSeriesStore::with_options(snap.num_shards, snap.seal_threshold);
        store.load_snapshot(snap).expect("a store built from the snapshot's own options fits it");
        store
    }
}

/// One series' complete contents, as checkpointed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeriesSnapshot {
    /// The series.
    pub key: SeriesKey,
    /// Unsealed points, compressed.
    pub hot: OpenBlock,
    /// Sealed compressed blocks.
    pub warm: Vec<SeriesBlock>,
}

/// A series' unsealed points as a checkpoint carries them: an *open*
/// block, the timestamp and value streams of a [`SeriesBlock`] without a
/// sealed block's header.  The hot tier stays compressed end to end; its
/// points come back only when the snapshot is loaded.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpenBlock {
    ts_bytes: Vec<u8>,
    val_bytes: Vec<u8>,
}

impl OpenBlock {
    /// Compress a time-ordered, possibly empty run of points.
    pub(crate) fn compress(points: &[(Ts, f64)]) -> OpenBlock {
        let mut ts_bytes = Vec::with_capacity(points.len() + 8);
        compress::write_timestamps(points.iter().map(|p| p.0), &mut ts_bytes);
        let mut vals = Vec::new();
        compress::write_values(points.iter().map(|p| p.1), &mut vals);
        // Sealed blocks live as long as the store, so they keep no growth
        // slack.  An exact-size copy, not `shrink_to_fit`: shrinking in
        // place fragments the heap (dashboard_512 peak RSS +3%).
        OpenBlock { ts_bytes, val_bytes: vals.to_vec() }
    }

    /// Append the section form of `points` as an open block,
    /// `[u32 ts_len][ts][u32 val_len][vals]`, compressing straight into
    /// `out`: the same bytes as [`OpenBlock::compress`] then
    /// [`OpenBlock::put`].
    fn write(points: &[(Ts, f64)], out: &mut Vec<u8>) {
        put_len_prefixed(out, |out| compress::write_timestamps(points.iter().map(|p| p.0), out));
        put_len_prefixed(out, |out| compress::write_values(points.iter().map(|p| p.1), out));
    }

    /// Append this block's section form.
    fn put(&self, out: &mut Vec<u8>) {
        for bytes in [&self.ts_bytes, &self.val_bytes] {
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(bytes);
        }
    }

    /// The points, refusing anything a live store cannot hold (see
    /// [`decode_hot`]).
    fn decompress(
        &self,
        seal_threshold: usize,
        scratch: &mut HotScratch,
    ) -> Result<Vec<(Ts, f64)>, SnapshotError> {
        decode_hot(&self.ts_bytes, &self.val_bytes, seal_threshold, scratch)?;
        Ok(scratch.ts.iter().copied().zip(scratch.vals.iter().copied()).collect())
    }
}

/// Reusable decompression buffers for hot tails, never kept by a snapshot.
#[derive(Default)]
struct HotScratch {
    ts: Vec<Ts>,
    vals: Vec<f64>,
}

/// Decompress a hot tail's timestamp and value streams into `scratch`.
/// Refuses malformed streams, streams of unequal length, decreasing
/// stamps, and tails of `seal_threshold` or more points, which a live
/// store would already have sealed.  That last check runs on the stream
/// headers first, so it also bounds what is decompressed.
fn decode_hot(
    ts: &[u8],
    vals: &[u8],
    seal_threshold: usize,
    scratch: &mut HotScratch,
) -> Result<(), SnapshotError> {
    const MALFORMED: SnapshotError = SnapshotError::Malformed("hot block");
    let n = compress::declared_points(ts).ok_or(MALFORMED)?;
    if compress::declared_points(vals).ok_or(MALFORMED)? != n {
        return Err(SnapshotError::Malformed("hot block point counts differ"));
    }
    if n >= seal_threshold as u64 {
        return Err(SnapshotError::Malformed("hot tail reaches the seal threshold"));
    }
    compress::decompress_timestamps_into(ts, &mut scratch.ts).ok_or(MALFORMED)?;
    compress::decompress_values_into(vals, &mut scratch.vals).ok_or(MALFORMED)?;
    if scratch.ts.windows(2).any(|w| w[0] > w[1]) {
        return Err(SnapshotError::Malformed("hot points out of order"));
    }
    Ok(())
}

/// Append a `u32` length word, then the bytes `write` appends.
fn put_len_prefixed(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    write(out);
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Complete serializable state of the store at a tick boundary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoreSnapshot {
    num_shards: usize,
    seal_threshold: usize,
    series: Vec<SeriesSnapshot>,
    counts: StoreOpCounts,
    corrupt_blocks: u64,
    epoch: u64,
    write_faults: Vec<bool>,
}

/// Why a binary store section failed to decode, or does not fit the store
/// it is loaded into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The section ends before a field it declares (a length header
    /// promises more bytes than remain).
    Truncated,
    /// A field holds a value the store never writes (named here).
    Malformed(&'static str),
    /// The snapshot comes from a differently configured store.
    Mismatch {
        /// Which setting differs.
        what: &'static str,
        /// This store's value.
        expected: u64,
        /// The snapshot's value.
        found: u64,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "store section truncated"),
            SnapshotError::Malformed(what) => write!(f, "store section malformed: {what}"),
            SnapshotError::Mismatch { what, expected, found } => {
                write!(f, "snapshot {what} {found} does not match the store's {expected}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

// Binary store section (DESIGN.md §15), all integers little-endian:
//
//   u64 num_shards, u64 seal_threshold,
//   u64 samples_ingested, blocks_sealed, blocks_evicted, blocks_reloaded,
//   u64 corrupt_blocks, u64 epoch,
//   u32 n, n × u8 write-fault flags (n = num_shards),
//   u64 series count, then per series in ascending key order:
//     u32 metric, u8 component kind, u32 component index,
//     the hot tail as an open block (fewer points than seal_threshold):
//       u32 len + compressed timestamps, u32 len + compressed values,
//     u32 warm block count, per block:
//       u64 start, u64 end, u32 count, u32 len + ts_bytes, u32 len + val_bytes.

/// Fixed header bytes before the write-fault flags and series.
const SECTION_HEAD_LEN: usize = 8 * 8 + 4 + 8;
/// Key plus the two hot and one warm length words: the least a series
/// occupies.
const SERIES_HEAD_LEN: usize = 4 + 1 + 4 + 4 + 4 + 4;
/// Reserve estimate for an open block's stream headers: point counts, the
/// first timestamp and the first value's 64 bits.
const OPEN_BLOCK_EST: usize = 24;
/// Reserve estimate per compressed hot point: about one byte for a
/// regular timestamp and one or two for a slowly moving value.
const HOT_POINT_EST: usize = 3;
/// A warm block's fixed fields: start, end, count and two length words.
const BLOCK_HEAD_LEN: usize = 8 + 8 + 4 + 4 + 4;

impl StoreSnapshot {
    /// Append this snapshot's binary checkpoint section to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.encode_series(
            self.series.len(),
            self.series.iter().map(|s| (s.key, &s.hot, s.warm.as_slice())),
            OpenBlock::put,
            out,
        );
    }

    /// Write this snapshot's header fields, then `count` series records
    /// (which must come in ascending key order), each hot tail written by
    /// `put_hot` — the one writer behind [`StoreSnapshot::encode`] and
    /// [`TimeSeriesStore::encode_snapshot`].
    fn encode_series<'a, H>(
        &self,
        count: usize,
        series: impl Iterator<Item = (SeriesKey, H, &'a [SeriesBlock])>,
        mut put_hot: impl FnMut(H, &mut Vec<u8>),
        out: &mut Vec<u8>,
    ) {
        for v in [
            self.num_shards as u64,
            self.seal_threshold as u64,
            self.counts.samples_ingested,
            self.counts.blocks_sealed,
            self.counts.blocks_evicted,
            self.counts.blocks_reloaded,
            self.corrupt_blocks,
            self.epoch,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(self.write_faults.len() as u32).to_le_bytes());
        out.extend(self.write_faults.iter().map(|&f| f as u8));
        out.extend_from_slice(&(count as u64).to_le_bytes());
        for (key, hot, warm) in series {
            out.extend_from_slice(&key.metric.0.to_le_bytes());
            out.push(key.comp.kind as u8);
            out.extend_from_slice(&key.comp.index.to_le_bytes());
            put_hot(hot, out);
            out.extend_from_slice(&(warm.len() as u32).to_le_bytes());
            for b in warm {
                out.extend_from_slice(&b.start.0.to_le_bytes());
                out.extend_from_slice(&b.end.0.to_le_bytes());
                out.extend_from_slice(&b.count.to_le_bytes());
                out.extend_from_slice(&(b.ts_bytes.len() as u32).to_le_bytes());
                out.extend_from_slice(&b.ts_bytes);
                out.extend_from_slice(&(b.val_bytes.len() as u32).to_le_bytes());
                out.extend_from_slice(&b.val_bytes);
            }
        }
    }

    /// Decode a binary store section that spans all of `bytes`.
    ///
    /// Fails closed on damaged input and never panics: every length header
    /// is checked against the bytes that remain before anything is
    /// allocated, so the decoded value is at most a small constant times
    /// the input's size.  Block payloads are copied verbatim, not
    /// decompressed — a corrupt warm block is the query path's concern, as
    /// it is for any other warm block.  Hot tails stay compressed too, but
    /// are checked point by point ([`decode_hot`], into scratch buffers the
    /// snapshot does not keep), so a decoded section never holds a hot
    /// tail that fails to load.
    pub fn decode(bytes: &[u8]) -> Result<StoreSnapshot, SnapshotError> {
        let mut r = SectionReader { bytes };
        let num_shards = r.usize()?;
        let seal_threshold = r.usize()?;
        if num_shards == 0 || seal_threshold == 0 {
            return Err(SnapshotError::Malformed("zero shard count or seal threshold"));
        }
        let counts = StoreOpCounts {
            samples_ingested: r.u64()?,
            blocks_sealed: r.u64()?,
            blocks_evicted: r.u64()?,
            blocks_reloaded: r.u64()?,
        };
        let corrupt_blocks = r.u64()?;
        let epoch = r.u64()?;
        let n_faults = r.len(1)?;
        if n_faults != num_shards {
            return Err(SnapshotError::Malformed("write-fault flags per shard"));
        }
        let write_faults = r
            .take(n_faults)?
            .iter()
            .map(|&b| match b {
                0 | 1 => Ok(b == 1),
                _ => Err(SnapshotError::Malformed("write-fault flag")),
            })
            .collect::<Result<Vec<bool>, _>>()?;
        let n_series = usize::try_from(r.u64()?).map_err(|_| SnapshotError::Truncated)?;
        if n_series > r.bytes.len() / SERIES_HEAD_LEN {
            return Err(SnapshotError::Truncated);
        }
        let mut series: Vec<SeriesSnapshot> = Vec::with_capacity(n_series);
        let mut scratch = HotScratch::default();
        for _ in 0..n_series {
            let key = r.key()?;
            if series.last().is_some_and(|prev| prev.key >= key) {
                return Err(SnapshotError::Malformed("series keys out of order"));
            }
            let ts_len = r.len(1)?;
            let ts = r.take(ts_len)?;
            let val_len = r.len(1)?;
            let vals = r.take(val_len)?;
            decode_hot(ts, vals, seal_threshold, &mut scratch)?;
            let hot = OpenBlock { ts_bytes: ts.to_vec(), val_bytes: vals.to_vec() };
            let n_blocks = r.len(BLOCK_HEAD_LEN)?;
            let mut warm = Vec::with_capacity(n_blocks);
            for _ in 0..n_blocks {
                let (start, end, count) = (Ts(r.u64()?), Ts(r.u64()?), r.u32()?);
                if count == 0 || start > end {
                    return Err(SnapshotError::Malformed("warm block header"));
                }
                let ts_len = r.len(1)?;
                let ts_bytes = r.take(ts_len)?.to_vec();
                let val_len = r.len(1)?;
                let val_bytes = r.take(val_len)?.to_vec();
                warm.push(SeriesBlock { key, start, end, count, ts_bytes, val_bytes });
            }
            series.push(SeriesSnapshot { key, hot, warm });
        }
        if !r.bytes.is_empty() {
            return Err(SnapshotError::Malformed("trailing bytes"));
        }
        Ok(StoreSnapshot {
            num_shards,
            seal_threshold,
            series,
            counts,
            corrupt_blocks,
            epoch,
            write_faults,
        })
    }
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8-byte chunk"))
}

/// A bounds-checked cursor over a store section.
struct SectionReader<'a> {
    bytes: &'a [u8],
}

impl<'a> SectionReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if n > self.bytes.len() {
            return Err(SnapshotError::Truncated);
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Ok(head)
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(le_u64(self.take(8)?))
    }

    fn usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?).map_err(|_| SnapshotError::Malformed("size field"))
    }

    /// A `u32` count of items at least `unit` bytes each, refused unless
    /// that many items can still fit in the remaining input.
    fn len(&mut self, unit: usize) -> Result<usize, SnapshotError> {
        let n = self.u32()? as usize;
        if n > self.bytes.len() / unit {
            return Err(SnapshotError::Truncated);
        }
        Ok(n)
    }

    fn key(&mut self) -> Result<SeriesKey, SnapshotError> {
        let metric = MetricId(self.u32()?);
        let kind = CompKind::from_u8(self.take(1)?[0])
            .ok_or(SnapshotError::Malformed("component kind"))?;
        let index = self.u32()?;
        Ok(SeriesKey::new(metric, CompId { kind, index }))
    }
}

impl Default for TimeSeriesStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcmon_metrics::MINUTE_MS;

    fn key(m: u32, n: u32) -> SeriesKey {
        SeriesKey::new(MetricId(m), CompId::node(n))
    }

    fn sample(m: u32, n: u32, ts: u64, v: f64) -> Sample {
        Sample::new(MetricId(m), CompId::node(n), Ts(ts), v)
    }

    #[test]
    fn insert_and_query_range() {
        let store = TimeSeriesStore::new();
        for i in 0..10u64 {
            store.insert(&sample(0, 1, i * MINUTE_MS, i as f64));
        }
        let pts = store.query(key(0, 1), Ts(2 * MINUTE_MS), Ts(5 * MINUTE_MS));
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[0], (Ts(2 * MINUTE_MS), 2.0));
        assert_eq!(pts[3], (Ts(5 * MINUTE_MS), 5.0));
    }

    #[test]
    fn unknown_series_is_empty() {
        let store = TimeSeriesStore::new();
        assert!(store.query(key(9, 9), Ts::ZERO, Ts(u64::MAX)).is_empty());
    }

    #[test]
    fn sealing_preserves_data_across_tiers() {
        let store = TimeSeriesStore::with_options(4, 100);
        for i in 0..250u64 {
            store.insert(&sample(0, 1, i * 1_000, (i as f64).sqrt()));
        }
        let stats = store.stats();
        assert_eq!(stats.warm_points, 200, "two sealed blocks");
        assert_eq!(stats.hot_points, 50);
        let pts = store.query(key(0, 1), Ts::ZERO, Ts(u64::MAX));
        assert_eq!(pts.len(), 250);
        for (i, &(t, v)) in pts.iter().enumerate() {
            assert_eq!(t, Ts(i as u64 * 1_000));
            assert_eq!(v, (i as f64).sqrt());
        }
    }

    #[test]
    fn out_of_order_inserts_sorted_on_query() {
        let store = TimeSeriesStore::new();
        store.insert(&sample(0, 1, 3_000, 3.0));
        store.insert(&sample(0, 1, 1_000, 1.0));
        store.insert(&sample(0, 1, 2_000, 2.0));
        let pts = store.query(key(0, 1), Ts::ZERO, Ts(u64::MAX));
        assert_eq!(pts, vec![(Ts(1_000), 1.0), (Ts(2_000), 2.0), (Ts(3_000), 3.0)]);
    }

    #[test]
    fn query_metric_groups_components() {
        let store = TimeSeriesStore::new();
        for n in 0..4u32 {
            store.insert(&sample(7, n, 1_000, n as f64));
        }
        store.insert(&sample(8, 0, 1_000, 99.0)); // other metric
        let by_comp = store.query_metric(MetricId(7), Ts::ZERO, Ts(u64::MAX));
        assert_eq!(by_comp.len(), 4);
        assert!(by_comp.iter().all(|(c, pts)| pts[0].1 == c.index as f64));
    }

    #[test]
    fn seal_all_then_evict_and_reload() {
        let store = TimeSeriesStore::with_options(2, 1_000);
        for i in 0..100u64 {
            store.insert(&sample(0, 1, i * MINUTE_MS, i as f64));
        }
        store.seal_all();
        assert_eq!(store.stats().hot_points, 0);
        let evicted = store.evict_warm_before(Ts(u64::MAX));
        assert_eq!(evicted.len(), 1);
        assert!(store.query(key(0, 1), Ts::ZERO, Ts(u64::MAX)).is_empty());
        store.reload_blocks(evicted);
        assert_eq!(store.query(key(0, 1), Ts::ZERO, Ts(u64::MAX)).len(), 100);
    }

    #[test]
    fn evict_respects_cutoff() {
        let store = TimeSeriesStore::with_options(2, 10);
        for i in 0..30u64 {
            store.insert(&sample(0, 1, i * 1_000, i as f64));
        }
        // Blocks: [0..9], [10..19], [20..29] sealed at threshold 10.
        let evicted = store.evict_warm_before(Ts(15_000));
        assert_eq!(evicted.len(), 1, "only the fully-old block leaves");
        let remaining = store.query(key(0, 1), Ts::ZERO, Ts(u64::MAX));
        assert_eq!(remaining.len(), 20);
    }

    #[test]
    fn drop_series_before_removes_dead_series() {
        let store = TimeSeriesStore::with_options(2, 10);
        for i in 0..10u64 {
            store.insert(&sample(0, 1, i * 1_000, 0.0)); // seals exactly
        }
        for i in 0..5u64 {
            store.insert(&sample(0, 2, 100_000 + i * 1_000, 0.0)); // stays hot
        }
        let dropped = store.drop_series_before(Ts(50_000));
        assert_eq!(dropped, 1);
        assert!(store.query(key(0, 1), Ts::ZERO, Ts(u64::MAX)).is_empty());
        assert_eq!(store.query(key(0, 2), Ts::ZERO, Ts(u64::MAX)).len(), 5);
    }

    #[test]
    fn stats_report_compression() {
        let store = TimeSeriesStore::with_options(2, 1_000);
        for i in 0..1_000u64 {
            store.insert(&sample(0, 1, i * MINUTE_MS, 200.0));
        }
        let stats = store.stats();
        assert_eq!(stats.series, 1);
        assert_eq!(stats.warm_points, 1_000);
        assert!(
            stats.bytes_per_point < 2.0,
            "constant series ~1B/pt, got {}",
            stats.bytes_per_point
        );
    }

    #[test]
    fn concurrent_ingest_is_complete() {
        let store = std::sync::Arc::new(TimeSeriesStore::new());
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1_000u64 {
                    store.insert(&sample(0, t, i * 1_000, i as f64));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..8u32 {
            assert_eq!(store.query(key(0, t), Ts::ZERO, Ts(u64::MAX)).len(), 1_000);
        }
    }

    #[test]
    fn op_counts_track_ingest_seal_evict_reload() {
        let store = TimeSeriesStore::with_options(2, 10);
        for i in 0..25u64 {
            store.insert(&sample(0, 1, i * 1_000, i as f64));
        }
        let ops = store.op_counts();
        assert_eq!(ops.samples_ingested, 25);
        assert_eq!(ops.blocks_sealed, 2, "threshold 10 seals twice");
        store.seal_all();
        assert_eq!(store.op_counts().blocks_sealed, 3);
        let evicted = store.evict_warm_before(Ts(u64::MAX));
        assert_eq!(store.op_counts().blocks_evicted, 3);
        store.reload_blocks(evicted);
        assert_eq!(store.op_counts().blocks_reloaded, 3);
    }

    #[test]
    fn occupancy_counters_match_the_stats_scan() {
        // The O(1) occupancy counters must agree with the ground-truth
        // scan through every transition: ingest, threshold seal, force
        // seal, evict, reload, and hard retention.
        let store = TimeSeriesStore::with_options(2, 10);
        let check = |when: &str| {
            let (scan, fast) = (store.stats(), store.occupancy());
            assert_eq!(scan, fast, "after {when}");
        };
        for series in 0..3u32 {
            for i in 0..25u64 {
                store.insert(&sample(0, series, i * 1_000, i as f64));
            }
        }
        check("ingest with threshold seals");
        store.seal_all();
        check("seal_all");
        let evicted = store.evict_warm_before(Ts(15_000));
        assert!(!evicted.is_empty());
        check("evict");
        store.reload_blocks(evicted);
        check("reload");
        assert_eq!(store.drop_series_before(Ts(u64::MAX)), 3, "all series all-warm");
        check("drop_series_before");
        assert_eq!(store.occupancy().series, 0);
    }

    #[test]
    fn epoch_advances_on_every_mutation_class() {
        let store = TimeSeriesStore::with_options(2, 10);
        let e0 = store.epoch();
        store.insert(&sample(0, 1, 1_000, 1.0));
        let e1 = store.epoch();
        assert!(e1 > e0, "insert advances the epoch");
        assert_eq!(store.epoch(), e1, "queries do not");
        store.query(key(0, 1), Ts::ZERO, Ts(u64::MAX));
        assert_eq!(store.epoch(), e1);
        store.seal_all();
        let e2 = store.epoch();
        assert!(e2 > e1, "sealing advances the epoch");
        let evicted = store.evict_warm_before(Ts(u64::MAX));
        let e3 = store.epoch();
        assert!(e3 > e2, "eviction advances the epoch");
        store.reload_blocks(evicted);
        let e4 = store.epoch();
        assert!(e4 > e3, "reload advances the epoch");
        store.drop_series_before(Ts(u64::MAX));
        assert!(store.epoch() > e4, "retention drop advances the epoch");
    }

    #[test]
    fn block_round_trip_and_overlap() {
        let pts: Vec<(Ts, f64)> = (0..50).map(|i| (Ts(i * 10), i as f64 * 0.5)).collect();
        let b = SeriesBlock::compress(key(0, 0), &pts);
        assert_eq!(b.decompress().unwrap(), pts);
        assert_eq!(b.start, Ts(0));
        assert_eq!(b.end, Ts(490));
        assert!(b.overlaps(Ts(490), Ts(1_000)));
        assert!(b.overlaps(Ts(0), Ts(0)));
        assert!(!b.overlaps(Ts(491), Ts(1_000)));
        assert!(b.compressed_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "empty block")]
    fn empty_block_rejected() {
        SeriesBlock::compress(key(0, 0), &[]);
    }

    fn corrupt(block: &mut SeriesBlock) {
        // Truncating the timestamp stream mid-varint makes decoding fail.
        let keep = block.ts_bytes.len() / 2;
        block.ts_bytes.truncate(keep.max(1));
    }

    #[test]
    fn corrupt_block_is_a_result_not_a_panic() {
        let pts: Vec<(Ts, f64)> = (0..50).map(|i| (Ts(i * 10), i as f64)).collect();
        let mut b = SeriesBlock::compress(key(0, 0), &pts);
        corrupt(&mut b);
        // Before the fix this line panicked via `expect("corrupt ts block")`.
        assert_eq!(b.decompress(), Err(BlockError::Timestamps));

        let mut b2 = SeriesBlock::compress(key(0, 0), &pts);
        b2.val_bytes.truncate(4);
        assert_eq!(b2.decompress(), Err(BlockError::Values));

        let mut b3 = SeriesBlock::compress(key(0, 0), &pts);
        b3.count += 1; // streams decode fine but disagree with the header
        assert_eq!(b3.decompress(), Err(BlockError::CountMismatch));
    }

    #[test]
    fn query_skips_corrupt_blocks_and_counts_them() {
        let store = TimeSeriesStore::with_options(2, 10);
        for i in 0..30u64 {
            store.insert(&sample(0, 1, i * 1_000, i as f64));
        }
        // Three sealed blocks; round-trip the middle one through eviction
        // with tampered bytes, as archive reload would deliver it.
        let mut evicted = store.evict_warm_before(Ts(u64::MAX));
        assert_eq!(evicted.len(), 3);
        corrupt(&mut evicted[1]);
        let (good, bad): (Vec<_>, Vec<_>) =
            evicted.into_iter().partition(|b| b.decompress().is_ok());
        assert_eq!(bad.len(), 1);
        // Reload rejects the corrupt block outright…
        store.reload_blocks(bad);
        assert_eq!(store.corrupt_blocks(), 1);
        assert_eq!(store.stats().corrupt_blocks, 1);
        assert_eq!(store.occupancy().corrupt_blocks, 1);
        // …and the good data stays fully queryable.
        store.reload_blocks(good);
        let pts = store.query(key(0, 1), Ts::ZERO, Ts(u64::MAX));
        assert_eq!(pts.len(), 20, "two good blocks survive");
        assert_eq!(store.stats(), store.occupancy(), "counters stay consistent");
    }

    #[test]
    fn corrupt_warm_block_degrades_query_not_pipeline() {
        // Corruption reaching the warm tier past the reload guard (e.g.
        // an in-memory bit flip) must degrade only the affected range,
        // not panic the querying thread.  Before the fix this query
        // panicked via `expect("corrupt ts block")`.
        let store = TimeSeriesStore::with_options(2, 1_000);
        for i in 0..20u64 {
            store.insert(&sample(0, 1, i * 1_000, i as f64));
        }
        let good: Vec<(Ts, f64)> = (100..120).map(|i| (Ts(i * 1_000), i as f64)).collect();
        let mut bad = SeriesBlock::compress(key(0, 1), &good);
        corrupt(&mut bad);
        store.inject_warm_block(bad);
        let pts = store.query(key(0, 1), Ts::ZERO, Ts(u64::MAX));
        assert_eq!(pts.len(), 20, "hot data still served");
        assert_eq!(store.corrupt_blocks(), 1, "skip was counted");
        // Repeat queries keep counting (each skip is an observed event).
        store.query(key(0, 1), Ts::ZERO, Ts(u64::MAX));
        assert_eq!(store.corrupt_blocks(), 2);
    }

    #[test]
    fn insert_frame_batched_equals_serial_insertion() {
        let serial = TimeSeriesStore::with_options(4, 16);
        let batched = TimeSeriesStore::with_options(4, 16);
        let mut frame = Frame::new(Ts(5_000));
        for i in 0..200u64 {
            let s = sample((i % 3) as u32, (i % 7) as u32, (i / 7) * 1_000, i as f64);
            frame.samples.push(s);
        }
        for s in &frame.samples {
            serial.insert(s);
        }
        batched.insert_frame(&frame);
        assert_eq!(serial.stats(), batched.stats());
        assert_eq!(serial.op_counts(), batched.op_counts());
        assert_eq!(serial.epoch(), batched.epoch());
        for k in serial.all_series() {
            assert_eq!(
                serial.query(k, Ts::ZERO, Ts(u64::MAX)),
                batched.query(k, Ts::ZERO, Ts(u64::MAX)),
            );
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_shard_batched_insert_frame_equals_serial(
            specs in proptest::collection::vec(
                (0u32..6, 0u32..12, 0u64..100, -1.0e6f64..1.0e6),
                0..150,
            ),
        ) {
            use proptest::prelude::*;
            let serial = TimeSeriesStore::with_options(4, 16);
            let batched = TimeSeriesStore::with_options(4, 16);
            let mut frame = Frame::new(Ts(0));
            for &(m, n, t, v) in &specs {
                frame.samples.push(sample(m, n, t * 1_000, v));
            }
            for s in &frame.samples {
                serial.insert(s);
            }
            batched.insert_frame(&frame);
            prop_assert_eq!(serial.stats(), batched.stats());
            prop_assert_eq!(serial.op_counts(), batched.op_counts());
            prop_assert_eq!(serial.epoch(), batched.epoch());
            for k in serial.all_series() {
                prop_assert_eq!(
                    serial.query(k, Ts::ZERO, Ts(u64::MAX)),
                    batched.query(k, Ts::ZERO, Ts(u64::MAX))
                );
            }
        }
    }

    #[test]
    fn shard_write_fault_refuses_whole_frame_all_or_nothing() {
        let store = TimeSeriesStore::with_options(4, 512);
        let mut frame = Frame::new(Ts(1_000));
        for i in 0..40u64 {
            frame.samples.push(sample((i % 3) as u32, (i % 9) as u32, 1_000, i as f64));
        }
        // Find a shard the frame actually touches and fault it.
        let touched = store
            .partition_frame(&frame)
            .iter()
            .position(|b| !b.is_empty())
            .expect("frame touches at least one shard");
        store.set_shard_write_fault(touched, true);
        assert!(store.shard_write_faulted(touched));
        let e0 = store.epoch();
        assert_eq!(store.try_insert_frame(&frame), Err(WriteError::ShardUnavailable(touched)));
        // Nothing landed — not even the healthy shards — and no counter moved.
        assert_eq!(store.epoch(), e0, "refused frame must not mutate the store");
        assert_eq!(store.op_counts().samples_ingested, 0);
        assert!(store.all_series().is_empty());
        // The fault-unaware path still works (it is the pre-chaos baseline).
        store.insert_frame(&frame);
        assert_eq!(store.op_counts().samples_ingested, 40);
        // Clear the fault: the fault-aware path heals.
        store.set_shard_write_fault(touched, false);
        assert!(store.try_insert_frame(&frame).is_ok());
        assert_eq!(store.op_counts().samples_ingested, 80);
        // Out-of-range shard indexes are ignored, not a panic.
        store.set_shard_write_fault(99, true);
        assert!(!store.shard_write_faulted(99));
    }

    #[test]
    fn try_insert_frame_matches_insert_frame_when_healthy() {
        let plain = TimeSeriesStore::with_options(4, 16);
        let tried = TimeSeriesStore::with_options(4, 16);
        let mut frame = Frame::new(Ts(0));
        for i in 0..120u64 {
            frame.samples.push(sample((i % 3) as u32, (i % 7) as u32, (i / 7) * 1_000, i as f64));
        }
        plain.insert_frame(&frame);
        tried.try_insert_frame(&frame).unwrap();
        assert_eq!(plain.stats(), tried.stats());
        assert_eq!(plain.op_counts(), tried.op_counts());
        assert_eq!(plain.epoch(), tried.epoch());
        for k in plain.all_series() {
            assert_eq!(
                plain.query(k, Ts::ZERO, Ts(u64::MAX)),
                tried.query(k, Ts::ZERO, Ts(u64::MAX)),
            );
        }
    }

    #[test]
    fn partition_frame_preserves_order_and_covers_every_sample() {
        let store = TimeSeriesStore::with_options(4, 512);
        let mut frame = Frame::new(Ts(0));
        for i in 0..100u64 {
            frame.samples.push(sample((i % 5) as u32, (i % 11) as u32, i, i as f64));
        }
        let batches = store.partition_frame(&frame);
        assert_eq!(batches.len(), store.num_shards());
        let total: usize = batches.iter().map(Vec::len).sum();
        assert_eq!(total, frame.samples.len());
        for (shard, batch) in batches.iter().enumerate() {
            for pair in batch.windows(2) {
                // Frame order within a shard: each sample's position in
                // the original frame strictly increases.
                let a = frame.samples.iter().position(|s| std::ptr::eq(s, pair[0])).unwrap();
                let b = frame.samples.iter().position(|s| std::ptr::eq(s, pair[1])).unwrap();
                assert!(a < b);
            }
            for s in batch {
                assert_eq!(store.shard_index(&s.key), shard);
            }
        }
    }

    // ---- columnar route ingest ----

    // The counting allocator backs the allocation-regression tests below;
    // it serves the whole test binary (per-thread counters keep concurrent
    // tests from polluting each other).
    #[global_allocator]
    static ALLOC: hpcmon_metrics::alloc_count::CountingAllocator =
        hpcmon_metrics::alloc_count::CountingAllocator;

    fn column_frame(ts: u64, specs: &[(u32, u32, f64)]) -> ColumnFrame {
        let mut cf = ColumnFrame::new(Ts(ts));
        for &(m, n, v) in specs {
            cf.push(MetricId(m), CompId::node(n), v);
        }
        cf
    }

    fn assert_same_contents(a: &TimeSeriesStore, b: &TimeSeriesStore) {
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.op_counts(), b.op_counts());
        assert_eq!(a.epoch(), b.epoch());
        assert_eq!(a.all_series(), b.all_series());
        for k in a.all_series() {
            assert_eq!(a.query(k, Ts::ZERO, Ts(u64::MAX)), b.query(k, Ts::ZERO, Ts(u64::MAX)));
        }
    }

    #[test]
    fn ingest_columns_matches_insert_frame_including_seals() {
        let row = TimeSeriesStore::with_options(4, 16);
        let col = TimeSeriesStore::with_options(4, 16);
        let mut route = IngestRoute::new();
        for tick in 0..40u64 {
            let specs: Vec<(u32, u32, f64)> = (0..50u64)
                .map(|i| ((i % 3) as u32, (i % 7) as u32, (tick * 50 + i) as f64))
                .collect();
            let cf = column_frame(tick * 1_000, &specs);
            row.insert_frame(&cf.to_frame());
            col.ingest_columns(&cf, &mut route);
        }
        assert_same_contents(&row, &col);
    }

    #[test]
    fn layout_generation_moves_only_on_slot_moving_ops() {
        let store = TimeSeriesStore::with_options(2, 10);
        let g0 = store.layout_gen();
        for i in 0..25u64 {
            store.insert(&sample(0, 1, i * 1_000, i as f64));
        }
        store.seal_all();
        let evicted = store.evict_warm_before(Ts(u64::MAX));
        store.reload_blocks(evicted);
        assert_eq!(store.layout_gen(), g0, "appends/seal/evict/reload keep slots in place");
        store.drop_series_before(Ts(u64::MAX));
        assert!(store.layout_gen() > g0, "retention compaction moves slots");
        let g1 = store.layout_gen();
        store.load_snapshot(store.snapshot()).unwrap();
        assert!(store.layout_gen() > g1, "snapshot load rebuilds slots");
    }

    #[test]
    fn route_rebuilds_after_retention_compaction() {
        let store = TimeSeriesStore::with_options(2, 10);
        let mut route = IngestRoute::new();
        // Series (0,1) seals exactly (all-warm, droppable); (0,2) stays hot.
        let specs: Vec<(u32, u32, f64)> = (0..10).map(|i| (0, 1, i as f64)).collect();
        for t in 0..10u64 {
            store.ingest_columns(
                &column_frame(t * 1_000, &specs[t as usize..=t as usize]),
                &mut route,
            );
        }
        let hot: Vec<(u32, u32, f64)> = vec![(0, 2, 7.0)];
        store.ingest_columns(&column_frame(100_000, &hot), &mut route);
        assert_eq!(store.drop_series_before(Ts(50_000)), 1);
        // Stale route (layout gen moved): re-ingesting must land correctly.
        store.ingest_columns(&column_frame(200_000, &specs), &mut route);
        store.ingest_columns(&column_frame(300_000, &hot), &mut route);
        assert_eq!(store.query(key(0, 1), Ts(150_000), Ts(u64::MAX)).len(), 10);
        assert_eq!(store.query(key(0, 2), Ts::ZERO, Ts(u64::MAX)).len(), 2);
    }

    #[test]
    fn try_ingest_columns_is_all_or_nothing() {
        let store = TimeSeriesStore::with_options(4, 512);
        let specs: Vec<(u32, u32, f64)> =
            (0..40u64).map(|i| ((i % 3) as u32, (i % 9) as u32, i as f64)).collect();
        let cf = column_frame(1_000, &specs);
        let mut route = IngestRoute::new();
        store.prepare_route(&cf, &mut route);
        let touched =
            (0..store.num_shards()).find(|&s| route.touches(s)).expect("frame touches a shard");
        store.set_shard_write_fault(touched, true);
        let e0 = store.epoch();
        assert_eq!(
            store.try_ingest_columns(&cf, &mut route),
            Err(WriteError::ShardUnavailable(touched))
        );
        assert_eq!(store.epoch(), e0, "refused frame must not mutate the store");
        assert_eq!(store.op_counts().samples_ingested, 0);
        assert!(store.all_series().is_empty());
        store.set_shard_write_fault(touched, false);
        assert!(store.try_ingest_columns(&cf, &mut route).is_ok());
        assert_eq!(store.op_counts().samples_ingested, 40);
        // Healthy columnar fault-aware path matches the row path exactly.
        let row = TimeSeriesStore::with_options(4, 512);
        row.try_insert_frame(&cf.to_frame()).unwrap();
        assert_same_contents(&row, &store);
    }

    #[test]
    fn routed_ingest_is_allocation_free_in_steady_state() {
        // The satellite regression: the legacy path rebuilt a
        // `Vec<Vec<&Sample>>` partition every tick; the routed columnar
        // path must hit the allocator zero times once warmed up.
        let store = TimeSeriesStore::with_options(4, 1_024);
        let mut route = IngestRoute::new();
        let specs: Vec<(u32, u32, f64)> =
            (0..200u64).map(|i| ((i % 5) as u32, (i % 11) as u32, i as f64)).collect();
        let mut cf = column_frame(0, &specs);
        for tick in 1..4u64 {
            cf.clear_for_tick(Ts(tick * 1_000));
            for &(m, n, v) in &specs {
                cf.push(MetricId(m), CompId::node(n), v);
            }
            store.ingest_columns(&cf, &mut route);
        }
        // Seal to empty the hot buffers while keeping their capacity, so
        // measured ticks cannot hit a hot-vec growth reallocation.
        store.seal_all();
        for tick in 4..7u64 {
            cf.clear_for_tick(Ts(tick * 1_000));
            for &(m, n, v) in &specs {
                cf.push(MetricId(m), CompId::node(n), v);
            }
            let before = hpcmon_metrics::alloc_count::thread_allocations();
            store.ingest_columns(&cf, &mut route);
            let after = hpcmon_metrics::alloc_count::thread_allocations();
            assert_eq!(after - before, 0, "steady-state routed ingest must not allocate");
        }
        // Contrast: the legacy partition path allocates every call.
        let frame = cf.to_frame();
        let before = hpcmon_metrics::alloc_count::thread_allocations();
        let batches = store.partition_frame(&frame);
        let after = hpcmon_metrics::alloc_count::thread_allocations();
        assert!(!batches.is_empty());
        assert!(after > before, "legacy partition rebuild allocates per tick");
    }

    proptest::proptest! {
        #[test]
        fn prop_routed_columnar_ingest_equals_row_ingest(
            ticks in proptest::collection::vec(
                proptest::collection::vec(
                    (0u32..6, 0u32..12, -1.0e6f64..1.0e6),
                    0..80,
                ),
                1..5,
            ),
        ) {
            use proptest::prelude::*;
            let row = TimeSeriesStore::with_options(4, 16);
            let col = TimeSeriesStore::with_options(4, 16);
            let mut route = IngestRoute::new();
            for (t, specs) in ticks.iter().enumerate() {
                let cf = column_frame(t as u64 * 1_000, specs);
                row.insert_frame(&cf.to_frame());
                col.ingest_columns(&cf, &mut route);
            }
            prop_assert_eq!(row.stats(), col.stats());
            prop_assert_eq!(row.op_counts(), col.op_counts());
            prop_assert_eq!(row.epoch(), col.epoch());
            for k in row.all_series() {
                prop_assert_eq!(
                    row.query(k, Ts::ZERO, Ts(u64::MAX)),
                    col.query(k, Ts::ZERO, Ts(u64::MAX))
                );
            }
        }
    }

    // ---- binary checkpoint section ----

    fn section(snap: &StoreSnapshot) -> Vec<u8> {
        let mut out = Vec::new();
        snap.encode(&mut out);
        out
    }

    /// Heap bytes a decoded snapshot holds, by capacity.
    fn footprint(snap: &StoreSnapshot) -> usize {
        use std::mem::size_of;
        snap.series.capacity() * size_of::<SeriesSnapshot>()
            + snap.write_faults.capacity()
            + snap
                .series
                .iter()
                .map(|s| {
                    s.hot.ts_bytes.capacity()
                        + s.hot.val_bytes.capacity()
                        + s.warm.capacity() * size_of::<SeriesBlock>()
                        + s.warm
                            .iter()
                            .map(|b| b.ts_bytes.capacity() + b.val_bytes.capacity())
                            .sum::<usize>()
                })
                .sum::<usize>()
    }

    /// A store with every feature the section carries: sealed blocks and
    /// hot tails built from out-of-order and duplicate-timestamp inserts,
    /// arbitrary value bit patterns (NaN payloads included), series left
    /// empty by eviction, a corrupt-block count and a shard write fault.
    fn featureful_store(points: &[(u32, u32, u64, u64)], evict_before: u64) -> TimeSeriesStore {
        let store = TimeSeriesStore::with_options(4, 8);
        for &(m, n, t, bits) in points {
            store.insert(&sample(m, n, t * 1_000, f64::from_bits(bits)));
        }
        let mut evicted = store.evict_warm_before(Ts(evict_before * 1_000));
        if let Some(b) = evicted.first_mut() {
            corrupt(b);
            store.reload_blocks(vec![evicted.remove(0)]);
        }
        store.set_shard_write_fault(1, true);
        store
    }

    #[test]
    fn live_encode_matches_the_snapshot_encode() {
        let pts: Vec<(u32, u32, u64, u64)> =
            (0..300u64).map(|i| ((i % 3) as u32, (i % 5) as u32, i % 37, i * 977)).collect();
        let store = featureful_store(&pts, 20);
        let mut live = Vec::new();
        store.encode_snapshot(&mut live);
        assert_eq!(live, section(&store.snapshot()));
    }

    #[test]
    fn section_refuses_to_load_into_a_differently_configured_store() {
        let src = TimeSeriesStore::with_options(4, 8);
        src.insert(&sample(0, 1, 1_000, 1.0));
        let snap = StoreSnapshot::decode(&section(&src.snapshot())).unwrap();

        let other_shards = TimeSeriesStore::with_options(2, 8);
        other_shards.insert(&sample(3, 3, 1_000, 3.0));
        let e0 = other_shards.epoch();
        assert_eq!(
            other_shards.load_snapshot(snap.clone()),
            Err(SnapshotError::Mismatch { what: "shard count", expected: 2, found: 4 })
        );
        assert_eq!(other_shards.epoch(), e0, "a refused snapshot changes nothing");
        assert_eq!(other_shards.all_series(), vec![key(3, 3)]);

        let other_threshold = TimeSeriesStore::with_options(4, 16);
        assert_eq!(
            other_threshold.load_snapshot(snap.clone()),
            Err(SnapshotError::Mismatch { what: "seal threshold", expected: 16, found: 8 })
        );
        assert!(other_threshold.all_series().is_empty());

        let same = TimeSeriesStore::with_options(4, 8);
        assert_eq!(same.load_snapshot(snap), Ok(()));
        assert_eq!(same.all_series(), vec![key(0, 1)]);
    }

    #[test]
    fn oversized_length_headers_fail_before_allocating() {
        let store = TimeSeriesStore::with_options(2, 8);
        store.insert(&sample(0, 1, 1_000, 1.0));
        let bytes = section(&store.snapshot());
        // The series count sits right after the header and fault flags.
        let at = SECTION_HEAD_LEN - 8 + 2;
        let mut huge = bytes.clone();
        huge[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(StoreSnapshot::decode(&huge).err(), Some(SnapshotError::Truncated));
        // The one series' hot timestamp length: u32::MAX bytes over 17.
        let mut hot = bytes.clone();
        let h = at + 8 + 9;
        hot[h..h + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(StoreSnapshot::decode(&hot).err(), Some(SnapshotError::Truncated));
        assert!(StoreSnapshot::decode(&bytes).is_ok());
    }

    #[test]
    fn hot_tail_at_the_seal_threshold_is_refused() {
        let store = TimeSeriesStore::with_options(2, 8);
        for t in 0..7u64 {
            store.insert(&sample(0, 1, t * 1_000, t as f64));
        }
        let mut bytes = section(&store.snapshot());
        assert!(StoreSnapshot::decode(&bytes).is_ok(), "7 hot points under a threshold of 8");
        // The same tail under a threshold of 7: a live store seals it.
        bytes[8..16].copy_from_slice(&7u64.to_le_bytes());
        assert_eq!(
            StoreSnapshot::decode(&bytes).err(),
            Some(SnapshotError::Malformed("hot tail reaches the seal threshold"))
        );
        // The load path refuses it too, however the snapshot was made.
        let json = serde_json::to_string(&store.snapshot()).unwrap();
        let forged: StoreSnapshot =
            serde_json::from_str(&json.replace("\"seal_threshold\":8", "\"seal_threshold\":7"))
                .unwrap();
        let target = TimeSeriesStore::with_options(2, 7);
        assert_eq!(
            target.load_snapshot(forged),
            Err(SnapshotError::Malformed("hot tail reaches the seal threshold"))
        );
        assert!(target.all_series().is_empty(), "a refused snapshot changes nothing");
    }

    #[test]
    fn every_prefix_and_bit_flip_of_a_section_fails_closed() {
        let pts: Vec<(u32, u32, u64, u64)> =
            (0..40u64).map(|i| ((i % 2) as u32, (i % 3) as u32, i % 11, i << 52)).collect();
        let bytes = section(&featureful_store(&pts, 4).snapshot());
        for cut in 0..bytes.len() {
            assert!(StoreSnapshot::decode(&bytes[..cut]).is_err(), "prefix {cut} decoded");
        }
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Ok(snap) = StoreSnapshot::decode(&flipped) {
                assert!(footprint(&snap) <= 4 * flipped.len(), "bit {bit}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_section_round_trip_reproduces_the_snapshot(
            points in proptest::collection::vec(
                (0u32..4, 0u32..6, 0u64..40, proptest::prelude::any::<u64>()),
                0..200,
            ),
            evict_before in 0u64..45,
        ) {
            use proptest::prelude::*;
            let store = featureful_store(&points, evict_before);
            let bytes = section(&store.snapshot());
            let mut live = Vec::new();
            store.encode_snapshot(&mut live);
            prop_assert_eq!(&live, &bytes);
            let decoded = StoreSnapshot::decode(&bytes).expect("a fresh section decodes");
            prop_assert!(footprint(&decoded) <= 4 * bytes.len());
            let fresh = TimeSeriesStore::with_options(4, 8);
            fresh.load_snapshot(decoded).expect("same configuration");
            // Bytes compare values bit for bit (NaN payloads included).
            prop_assert_eq!(section(&fresh.snapshot()), bytes);
            prop_assert_eq!(fresh.stats(), store.stats());
            prop_assert_eq!(fresh.occupancy(), store.occupancy());
            prop_assert_eq!(fresh.op_counts(), store.op_counts());
            prop_assert_eq!(fresh.epoch(), store.epoch());
            prop_assert_eq!(fresh.state_digest(), store.state_digest());
            prop_assert!(fresh.shard_write_faulted(1));
        }

        #[test]
        fn prop_damaged_sections_fail_closed(
            points in proptest::collection::vec(
                (0u32..3, 0u32..4, 0u64..30, proptest::prelude::any::<u64>()),
                0..80,
            ),
            cuts in proptest::collection::vec(0u64..1_000_000, 16..17),
            flips in proptest::collection::vec(0u64..1_000_000, 16..17),
        ) {
            use proptest::prelude::*;
            let bytes = section(&featureful_store(&points, 10).snapshot());
            for &c in &cuts {
                let cut = (c as usize) % bytes.len();
                prop_assert!(StoreSnapshot::decode(&bytes[..cut]).is_err());
            }
            for &f in &flips {
                let bit = (f as usize) % (bytes.len() * 8);
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                if let Ok(snap) = StoreSnapshot::decode(&flipped) {
                    prop_assert!(footprint(&snap) <= 4 * flipped.len());
                }
            }
        }
    }
}
