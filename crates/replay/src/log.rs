//! The framed binary event log.
//!
//! Layout: an 8-byte magic (`HPCMRLY1`), then a sequence of frames
//! `[kind: u8][len: u32 LE][payload: len bytes]`, terminated by an
//! explicit end frame.  Payloads are the canonical JSON encodings of the
//! run header ([`RunSpec`]) and of one [`TickRecord`] per tick, and
//! periodic [`SnapshotRecord`]s as `[tick: u64 LE][checkpoint]` — the same
//! binary checkpoint ([`CoreSnapshot::encode`]) the crash-durability plane
//! writes, so one snapshot format serves both journals.  The explicit
//! terminator means a log that was cut
//! off mid-write (crashed recorder, truncated artifact upload) is
//! *rejected* as [`LogError::Truncated`] rather than silently replayed
//! short.

use hpcmon::{CoreSnapshot, TickInputs, TickStateHash};
use serde::{Deserialize, Serialize};

use crate::RunSpec;

/// First eight bytes of every event log: format name + version.
pub const MAGIC: [u8; 8] = *b"HPCMRLY1";

const FRAME_HEADER: u8 = 0x01;
const FRAME_TICK: u8 = 0x02;
const FRAME_SNAPSHOT: u8 = 0x03;
const FRAME_END: u8 = 0x7F;

/// Everything recorded about one tick: the external inputs it received
/// and the state hash the recording run observed after it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TickRecord {
    /// Tick number (1-based: the first `tick()` call is tick 1).
    pub tick: u64,
    /// External inputs applied before this tick ran.
    pub inputs: TickInputs,
    /// State hash observed after this tick in the recording run.
    pub hash: TickStateHash,
}

/// A full deterministic-state checkpoint, written every
/// [`RunSpec::snapshot_every`] ticks so replay can seek without
/// re-running from tick 0.
#[derive(Serialize, Deserialize)]
pub struct SnapshotRecord {
    /// Tick the snapshot was taken after.
    pub tick: u64,
    /// The serialized system state.
    pub state: CoreSnapshot,
}

impl SnapshotRecord {
    /// The frame payload: the tick, then the binary checkpoint.
    fn encode(&self) -> Vec<u8> {
        let mut out = self.tick.to_le_bytes().to_vec();
        out.extend_from_slice(&self.state.encode());
        out
    }

    fn decode(payload: &[u8]) -> Result<SnapshotRecord, LogError> {
        let Some((tick, checkpoint)) = payload.split_first_chunk::<8>() else {
            return Err(LogError::Corrupt("snapshot frame shorter than its tick".into()));
        };
        let state =
            CoreSnapshot::decode(checkpoint).map_err(|e| LogError::Corrupt(e.to_string()))?;
        Ok(SnapshotRecord { tick: u64::from_le_bytes(*tick), state })
    }
}

/// Why a byte buffer failed to parse as an event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogError {
    /// The buffer does not start with [`MAGIC`].
    BadMagic,
    /// The buffer ends before the end frame (or mid-frame): the log was
    /// cut off while being written or transferred.
    Truncated,
    /// A frame kind this version does not understand.
    UnknownFrame(u8),
    /// A frame payload failed to decode.
    Corrupt(String),
    /// The log has no header frame, or frames in an impossible order.
    Malformed(String),
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::BadMagic => write!(f, "not an hpcmon event log (bad magic)"),
            LogError::Truncated => write!(f, "event log truncated before end frame"),
            LogError::UnknownFrame(k) => write!(f, "unknown frame kind 0x{k:02X}"),
            LogError::Corrupt(msg) => write!(f, "corrupt frame payload: {msg}"),
            LogError::Malformed(msg) => write!(f, "malformed event log: {msg}"),
        }
    }
}

impl std::error::Error for LogError {}

/// A complete recorded run: header, per-tick records, and snapshots.
#[derive(Serialize, Deserialize)]
pub struct EventLog {
    /// The run configuration needed to rebuild an identical system.
    pub spec: RunSpec,
    /// One record per executed tick, in order.
    pub ticks: Vec<TickRecord>,
    /// Checkpoints, in tick order (`snapshots[i].tick` is increasing).
    pub snapshots: Vec<SnapshotRecord>,
}

impl EventLog {
    /// Serialize to the framed binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4096);
        out.extend_from_slice(&MAGIC);
        push_frame(&mut out, FRAME_HEADER, &encode_json(&self.spec));
        // Interleave snapshots at their tick position so a streaming
        // writer and this batch writer produce the same bytes.
        let mut snap = self.snapshots.iter().peekable();
        for rec in &self.ticks {
            push_frame(&mut out, FRAME_TICK, &encode_json(rec));
            while snap.peek().is_some_and(|s| s.tick == rec.tick) {
                push_frame(&mut out, FRAME_SNAPSHOT, &snap.next().unwrap().encode());
            }
        }
        // Snapshots recorded past the last tick (tick-0 checkpoints of an
        // empty run) still need flushing.
        for s in snap {
            push_frame(&mut out, FRAME_SNAPSHOT, &s.encode());
        }
        push_frame(&mut out, FRAME_END, &[]);
        out
    }

    /// Parse the framed binary format, rejecting truncated or unknown
    /// input.
    pub fn from_bytes(bytes: &[u8]) -> Result<EventLog, LogError> {
        if bytes.len() < MAGIC.len() {
            return Err(if bytes.is_empty() || MAGIC.starts_with(bytes) {
                LogError::Truncated
            } else {
                LogError::BadMagic
            });
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(LogError::BadMagic);
        }
        let mut cursor = MAGIC.len();
        let mut spec: Option<RunSpec> = None;
        let mut ticks: Vec<TickRecord> = Vec::new();
        let mut snapshots: Vec<SnapshotRecord> = Vec::new();
        let mut ended = false;
        while cursor < bytes.len() {
            if bytes.len() - cursor < 5 {
                return Err(LogError::Truncated);
            }
            let kind = bytes[cursor];
            let len = u32::from_le_bytes([
                bytes[cursor + 1],
                bytes[cursor + 2],
                bytes[cursor + 3],
                bytes[cursor + 4],
            ]) as usize;
            cursor += 5;
            if bytes.len() - cursor < len {
                return Err(LogError::Truncated);
            }
            let payload = &bytes[cursor..cursor + len];
            cursor += len;
            match kind {
                FRAME_HEADER => {
                    if spec.is_some() {
                        return Err(LogError::Malformed("duplicate header frame".into()));
                    }
                    spec = Some(decode_json(payload)?);
                }
                FRAME_TICK => {
                    let rec: TickRecord = decode_json(payload)?;
                    if let Some(last) = ticks.last() {
                        if rec.tick != last.tick + 1 {
                            return Err(LogError::Malformed(format!(
                                "tick {} follows tick {}",
                                rec.tick, last.tick
                            )));
                        }
                    }
                    ticks.push(rec);
                }
                FRAME_SNAPSHOT => snapshots.push(SnapshotRecord::decode(payload)?),
                FRAME_END => {
                    if !payload.is_empty() {
                        return Err(LogError::Corrupt("end frame carries payload".into()));
                    }
                    ended = true;
                    break;
                }
                other => return Err(LogError::UnknownFrame(other)),
            }
        }
        if !ended {
            return Err(LogError::Truncated);
        }
        let spec = spec.ok_or_else(|| LogError::Malformed("missing header frame".into()))?;
        Ok(EventLog { spec, ticks, snapshots })
    }

    /// Write the framed binary format to a file.
    pub fn write_to(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Read and parse an event log from a file.
    pub fn read_from(path: impl AsRef<std::path::Path>) -> std::io::Result<EventLog> {
        let bytes = std::fs::read(path)?;
        EventLog::from_bytes(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// The tick count this log covers.
    pub fn len(&self) -> u64 {
        self.ticks.len() as u64
    }

    /// Whether the log records zero ticks.
    pub fn is_empty(&self) -> bool {
        self.ticks.is_empty()
    }

    /// The latest snapshot at or before `tick` (tick 0 = initial state,
    /// which has no snapshot unless the recorder wrote one).
    pub fn nearest_snapshot(&self, tick: u64) -> Option<&SnapshotRecord> {
        self.snapshots.iter().rev().find(|s| s.tick <= tick)
    }
}

fn push_frame(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

fn encode_json<T: Serialize>(value: &T) -> Vec<u8> {
    serde_json::to_vec(value).expect("event-log payloads always serialize")
}

fn decode_json<T: for<'de> Deserialize<'de>>(payload: &[u8]) -> Result<T, LogError> {
    serde_json::from_slice(payload).map_err(|e| LogError::Corrupt(e.to_string()))
}
