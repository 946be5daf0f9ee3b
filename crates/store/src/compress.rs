//! Time-series block compression.
//!
//! Timestamps use zigzag-varint delta-of-delta (a perfectly regular cadence
//! costs one byte per point after the header); values use the Gorilla XOR
//! scheme (Facebook, VLDB'15): identical values cost one bit, values with a
//! stable exponent/mantissa window cost a few bits.  Together they bring a
//! one-minute node-metric stream to roughly 1–3 bytes per sample, which is
//! what makes "keep all data" (Table I) a defensible requirement.

use hpcmon_metrics::Ts;

/// Bit-level writer over a byte vector.
///
/// Bits accumulate MSB-first in a 64-bit word that spills to the byte
/// vector eight bytes at a time, so a `write_bits` call costs a shift and
/// an or, not one branch per bit.
#[derive(Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    // Pending bits, right-aligned: the low `pending` bits of `acc` follow
    // the last byte of `bytes`, most significant first.
    acc: u64,
    // 0..=63: a full word is flushed as soon as it fills.
    pending: u8,
}

/// The low `n` bits of `value` (`n` in 0..=64).
#[inline]
fn low_bits(value: u64, n: u8) -> u64 {
    if n >= 64 {
        value
    } else {
        value & ((1u64 << n) - 1)
    }
}

impl BitWriter {
    /// Empty writer.
    pub fn new() -> BitWriter {
        BitWriter::default()
    }

    /// Append a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u64, 1);
    }

    /// Append the low `n` bits of `value`, most significant first.
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u8) {
        assert!(n <= 64);
        if n == 0 {
            return;
        }
        let value = low_bits(value, n);
        let free = 64 - self.pending;
        if n < free {
            self.acc = (self.acc << n) | value;
            self.pending += n;
            return;
        }
        // The word fills: emit it and keep the `n - free` bits left over.
        let rest = n - free;
        let word = if free == 64 { value } else { (self.acc << free) | (value >> rest) };
        self.bytes.extend_from_slice(&word.to_be_bytes());
        self.acc = low_bits(value, rest);
        self.pending = rest;
    }

    /// Finish, returning the packed bytes (the final byte zero-padded).
    pub fn finish(mut self) -> Vec<u8> {
        if self.pending > 0 {
            let aligned = self.acc << (64 - self.pending);
            let tail = (self.pending as usize).div_ceil(8);
            self.bytes.extend_from_slice(&aligned.to_be_bytes()[..tail]);
        }
        self.bytes
    }

    /// Bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.pending as usize
    }
}

/// Bit-level reader over a byte slice.
#[derive(Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Read from the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> BitReader<'a> {
        BitReader { bytes, pos: 0 }
    }

    /// Next bit; `None` at end of input.
    pub fn read_bit(&mut self) -> Option<bool> {
        let byte = self.bytes.get(self.pos / 8)?;
        let bit = (byte >> (7 - (self.pos % 8) as u8)) & 1 == 1;
        self.pos += 1;
        Some(bit)
    }

    /// Next `n` bits as an integer (MSB first); `None` (with the input
    /// consumed) when fewer than `n` bits remain.
    #[inline]
    pub fn read_bits(&mut self, n: u8) -> Option<u64> {
        assert!(n <= 64);
        if n == 0 {
            return Some(0);
        }
        let n = n as usize;
        let total = self.bytes.len() * 8;
        if total - self.pos < n {
            self.pos = total;
            return None;
        }
        let first = self.pos / 8;
        let skip = self.pos % 8;
        let v = if skip + n <= 64 && first + 8 <= self.bytes.len() {
            // Fast path: the field lies inside one big-endian word.
            let word =
                u64::from_be_bytes(self.bytes[first..first + 8].try_into().expect("8 bytes"));
            (word << skip) >> (64 - n)
        } else {
            // Near the end of input, or a field straddling nine bytes.
            let last = (self.pos + n - 1) / 8;
            let mut acc = 0u128;
            for &b in &self.bytes[first..=last] {
                acc = (acc << 8) | b as u128;
            }
            let below = (last - first + 1) * 8 - skip - n;
            low_bits((acc >> below) as u64, n as u8)
        };
        self.pos += n;
        Some(v)
    }
}

// ----- varint / zigzag -----

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

// ----- timestamps: delta-of-delta varint -----

/// Compress a monotone-nondecreasing timestamp sequence.
pub fn compress_timestamps(ts: &[Ts]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ts.len() + 8);
    write_timestamps(ts.iter().copied(), &mut out);
    out
}

/// Append the [`compress_timestamps`] stream of `ts` to `out`, with no
/// staging buffer.
pub(crate) fn write_timestamps(mut ts: impl ExactSizeIterator<Item = Ts>, out: &mut Vec<u8>) {
    write_varint(out, ts.len() as u64);
    let Some(first) = ts.next() else { return };
    write_varint(out, first.0);
    let Some(second) = ts.next() else { return };
    let mut prev_delta = second.0 as i64 - first.0 as i64;
    write_varint(out, zigzag(prev_delta));
    let mut prev = second.0 as i64;
    for t in ts {
        let delta = t.0 as i64 - prev;
        write_varint(out, zigzag(delta - prev_delta));
        prev_delta = delta;
        prev = t.0 as i64;
    }
}

/// Decompress timestamps written by [`compress_timestamps`].
///
/// Returns `None` on truncated input, overflow, or a cumulative timestamp
/// that goes negative: a corrupt or adversarial block must surface as an
/// error, never silently round-trip to *different* data.
pub fn decompress_timestamps(bytes: &[u8]) -> Option<Vec<Ts>> {
    let mut out = Vec::new();
    decompress_timestamps_into(bytes, &mut out)?;
    Some(out)
}

/// [`decompress_timestamps`] into `out`, which is cleared first, so one
/// buffer can serve many streams.  On `None`, `out` holds garbage.
pub(crate) fn decompress_timestamps_into(bytes: &[u8], out: &mut Vec<Ts>) -> Option<()> {
    let mut pos = 0usize;
    let n = read_varint(bytes, &mut pos)? as usize;
    // The length header is attacker/corruption-controlled: never trust it
    // into an allocation.  Each point costs at least one varint byte, so a
    // plausible block carries at least `n` bytes after the header.
    if n > bytes.len() - pos {
        return None;
    }
    out.clear();
    out.reserve_exact(n);
    if n == 0 {
        return Some(());
    }
    let first = read_varint(bytes, &mut pos)?;
    out.push(Ts(first));
    if n == 1 {
        return Some(());
    }
    let mut delta = unzigzag(read_varint(bytes, &mut pos)?);
    let mut cur = i64::try_from(first).ok()?.checked_add(delta)?;
    if cur < 0 {
        return None;
    }
    out.push(Ts(cur as u64));
    for _ in 2..n {
        let dod = unzigzag(read_varint(bytes, &mut pos)?);
        delta = delta.checked_add(dod)?;
        cur = cur.checked_add(delta)?;
        if cur < 0 {
            return None;
        }
        out.push(Ts(cur as u64));
    }
    Some(())
}

/// The point count a [`compress_timestamps`] or [`compress_values`]
/// stream declares in its header, read without decoding the stream.
pub(crate) fn declared_points(bytes: &[u8]) -> Option<u64> {
    read_varint(bytes, &mut 0)
}

// ----- values: Gorilla XOR -----

/// Compress a float sequence with the Gorilla XOR scheme.
pub fn compress_values(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::new();
    write_values(values.iter().copied(), &mut out);
    out
}

/// Append the [`compress_values`] stream of `values` to `out`, with no
/// staging buffer.
pub(crate) fn write_values(mut values: impl ExactSizeIterator<Item = f64>, out: &mut Vec<u8>) {
    write_varint(out, values.len() as u64);
    let Some(first) = values.next() else { return };
    // The bit stream continues `out` in place: the writer only ever
    // appends whole bytes, so it can own the vector while it writes.
    let mut w = BitWriter { bytes: std::mem::take(out), acc: 0, pending: 0 };
    w.write_bits(first.to_bits(), 64);
    let mut prev = first.to_bits();
    let mut prev_leading: u8 = 65; // sentinel: no previous window
    let mut prev_trailing: u8 = 0;
    for v in values {
        let bits = v.to_bits();
        let xor = bits ^ prev;
        // Each case writes its control bits (and a new window's header)
        // as one field, then the meaningful bits.
        if xor == 0 {
            // Same value: control bit 0.
            w.write_bits(0, 1);
        } else {
            let leading = (xor.leading_zeros() as u8).min(31);
            let trailing = xor.trailing_zeros() as u8;
            if prev_leading <= 64 && leading >= prev_leading && trailing >= prev_trailing {
                // Fits the previous window: control bits 10, meaningful bits.
                let meaningful = 64 - prev_leading - prev_trailing;
                w.write_bits(0b10, 2);
                w.write_bits(xor >> prev_trailing, meaningful);
            } else {
                // New window: control bits 11, 5 bits leading, 6 bits
                // length (64 wraps to 0), meaningful bits.
                let meaningful = 64 - leading - trailing;
                let head = (0b11 << 11) | (leading as u64) << 6 | (meaningful as u64 & 0x3F);
                w.write_bits(head, 13);
                w.write_bits(xor >> trailing, meaningful);
                prev_leading = leading;
                prev_trailing = trailing;
            }
        }
        prev = bits;
    }
    *out = w.finish();
}

/// Decompress floats written by [`compress_values`].
pub fn decompress_values(bytes: &[u8]) -> Option<Vec<f64>> {
    let mut out = Vec::new();
    decompress_values_into(bytes, &mut out)?;
    Some(out)
}

/// [`decompress_values`] into `out`, which is cleared first, so one buffer
/// can serve many streams.  On `None`, `out` holds garbage.
pub(crate) fn decompress_values_into(bytes: &[u8], out: &mut Vec<f64>) -> Option<()> {
    let mut pos = 0usize;
    let n = read_varint(bytes, &mut pos)? as usize;
    // Bound the corruption-controlled length by the bit budget actually
    // present: 64 bits for the first value, then at least one bit each.
    if n > 0 && 64usize.saturating_add(n - 1) > (bytes.len() - pos).saturating_mul(8) {
        return None;
    }
    out.clear();
    out.reserve_exact(n);
    if n == 0 {
        return Some(());
    }
    let mut r = BitReader::new(&bytes[pos..]);
    let mut prev = r.read_bits(64)?;
    out.push(f64::from_bits(prev));
    let mut leading: u8 = 0;
    let mut meaningful: u8 = 0;
    for _ in 1..n {
        if !r.read_bit()? {
            out.push(f64::from_bits(prev));
            continue;
        }
        if r.read_bit()? {
            leading = r.read_bits(5)? as u8;
            meaningful = r.read_bits(6)? as u8;
            if meaningful == 0 {
                // 6 bits cannot express 64; 0 encodes a full-width window.
                meaningful = 64;
            }
        }
        // A corrupt window header can claim more than 64 bits, and a
        // corrupt stream can reuse a window before opening one (a 64-bit
        // shift): both are malformed.
        let trailing = 64u8.checked_sub(leading + meaningful)?;
        let xor = r.read_bits(meaningful)?.checked_shl(trailing as u32)?;
        let bits = prev ^ xor;
        out.push(f64::from_bits(bits));
        prev = bits;
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The original bit-at-a-time codec, kept as the oracle the
    /// word-at-a-time `BitWriter`/`BitReader` must match byte for byte.
    mod oracle {
        #[derive(Default)]
        pub struct BitWriter {
            bytes: Vec<u8>,
            bit_pos: u8,
        }

        impl BitWriter {
            pub fn write_bit(&mut self, bit: bool) {
                if self.bit_pos == 0 {
                    self.bytes.push(0);
                }
                if bit {
                    let last = self.bytes.len() - 1;
                    self.bytes[last] |= 1 << (7 - self.bit_pos);
                }
                self.bit_pos = (self.bit_pos + 1) % 8;
            }

            pub fn write_bits(&mut self, value: u64, n: u8) {
                for i in (0..n).rev() {
                    self.write_bit((value >> i) & 1 == 1);
                }
            }

            pub fn bit_len(&self) -> usize {
                if self.bit_pos == 0 {
                    self.bytes.len() * 8
                } else {
                    (self.bytes.len() - 1) * 8 + self.bit_pos as usize
                }
            }

            pub fn finish(self) -> Vec<u8> {
                self.bytes
            }
        }

        /// The original Gorilla writer: one `write_bit` per control bit.
        pub fn compress_values(values: &[f64]) -> Vec<u8> {
            let mut out = Vec::new();
            super::write_varint(&mut out, values.len() as u64);
            let Some((first, rest)) = values.split_first() else { return out };
            let mut w = BitWriter::default();
            w.write_bits(first.to_bits(), 64);
            let mut prev = first.to_bits();
            let (mut prev_leading, mut prev_trailing) = (65u8, 0u8);
            for &v in rest {
                let xor = v.to_bits() ^ prev;
                if xor == 0 {
                    w.write_bit(false);
                } else {
                    w.write_bit(true);
                    let leading = (xor.leading_zeros() as u8).min(31);
                    let trailing = xor.trailing_zeros() as u8;
                    if prev_leading <= 64 && leading >= prev_leading && trailing >= prev_trailing {
                        w.write_bit(false);
                        w.write_bits(xor >> prev_trailing, 64 - prev_leading - prev_trailing);
                    } else {
                        w.write_bit(true);
                        let meaningful = 64 - leading - trailing;
                        w.write_bits(leading as u64, 5);
                        w.write_bits(meaningful as u64, 6);
                        w.write_bits(xor >> trailing, meaningful);
                        prev_leading = leading;
                        prev_trailing = trailing;
                    }
                }
                prev = v.to_bits();
            }
            out.extend_from_slice(&w.finish());
            out
        }

        pub struct BitReader<'a> {
            pub bytes: &'a [u8],
            pub pos: usize,
        }

        impl BitReader<'_> {
            pub fn read_bit(&mut self) -> Option<bool> {
                let byte = self.bytes.get(self.pos / 8)?;
                let bit = (byte >> (7 - (self.pos % 8) as u8)) & 1 == 1;
                self.pos += 1;
                Some(bit)
            }

            pub fn read_bits(&mut self, n: u8) -> Option<u64> {
                let mut v = 0u64;
                for _ in 0..n {
                    v = (v << 1) | self.read_bit()? as u64;
                }
                Some(v)
            }
        }
    }

    #[test]
    fn bitwriter_round_trip() {
        let mut w = BitWriter::new();
        w.write_bit(true);
        w.write_bits(0b1011, 4);
        w.write_bits(u64::MAX, 64);
        w.write_bit(false);
        assert_eq!(w.bit_len(), 70);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bit(), Some(true));
        assert_eq!(r.read_bits(4), Some(0b1011));
        assert_eq!(r.read_bits(64), Some(u64::MAX));
        assert_eq!(r.read_bit(), Some(false));
    }

    #[test]
    fn reader_ends_cleanly() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8), Some(0xFF));
        assert_eq!(r.read_bit(), None);
        assert_eq!(r.read_bits(4), None);
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, 1, -1, 42, -42, i64::MAX / 2, i64::MIN / 2] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn empty_and_singleton_series() {
        assert_eq!(decompress_timestamps(&compress_timestamps(&[])).unwrap(), vec![]);
        assert_eq!(decompress_values(&compress_values(&[])).unwrap(), Vec::<f64>::new());
        let one = vec![Ts(99)];
        assert_eq!(decompress_timestamps(&compress_timestamps(&one)).unwrap(), one);
        let onev = vec![std::f64::consts::PI];
        assert_eq!(decompress_values(&compress_values(&onev)).unwrap(), onev);
    }

    #[test]
    fn regular_cadence_is_one_byte_per_point() {
        let ts: Vec<Ts> = (0..1_000).map(Ts::from_mins).collect();
        let bytes = compress_timestamps(&ts);
        // header + first + first delta + 998 single-byte zero dods.
        assert!(bytes.len() < 1_020, "got {} bytes", bytes.len());
        assert_eq!(decompress_timestamps(&bytes).unwrap(), ts);
    }

    #[test]
    fn irregular_timestamps_round_trip() {
        let ts = vec![Ts(0), Ts(7), Ts(7), Ts(1_000_000), Ts(1_000_001)];
        assert_eq!(decompress_timestamps(&compress_timestamps(&ts)).unwrap(), ts);
    }

    #[test]
    fn constant_values_compress_to_bits() {
        let vals = vec![42.5; 10_000];
        let bytes = compress_values(&vals);
        // 64-bit first value + ~1 bit each after.
        assert!(bytes.len() < 1_300, "got {} bytes", bytes.len());
        assert_eq!(decompress_values(&bytes).unwrap(), vals);
    }

    #[test]
    fn slowly_varying_values_compress_well() {
        let vals: Vec<f64> = (0..10_000).map(|i| 200.0 + (i as f64 * 0.01).sin()).collect();
        let bytes = compress_values(&vals);
        let ratio = bytes.len() as f64 / (vals.len() * 8) as f64;
        // Full-precision sin() wiggles most mantissa bits; Gorilla still
        // beats raw by trimming the stable exponent/sign window.
        assert!(ratio < 0.85, "ratio {ratio}");
        let back = decompress_values(&bytes).unwrap();
        assert_eq!(back, vals);
    }

    #[test]
    fn full_width_xor_window() {
        // Values engineered so the XOR has no leading/trailing zeros:
        // meaningful = 64 exercises the 6-bit length wrap encoding.
        let a = f64::from_bits(0x8000_0000_0000_0001);
        let b = f64::from_bits(0x0000_0000_0000_0000);
        let vals = vec![a, b, a, b];
        assert_eq!(decompress_values(&compress_values(&vals)).unwrap(), vals);
    }

    #[test]
    fn special_floats_round_trip() {
        let vals = vec![0.0, -0.0, f64::MIN_POSITIVE, f64::MAX, -f64::MAX, 1e-300];
        let back = decompress_values(&compress_values(&vals)).unwrap();
        assert_eq!(back.len(), vals.len());
        for (x, y) in back.iter().zip(&vals) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn negative_cumulative_timestamp_is_an_error_not_wrong_data() {
        // Hand-encode a block whose second point lands at 10 - 15 = -5.
        // Before the fix this decoded "successfully" to Ts(0) — silently
        // different data; now it must be rejected.
        let mut bytes = Vec::new();
        write_varint(&mut bytes, 2); // n
        write_varint(&mut bytes, 10); // first
        write_varint(&mut bytes, zigzag(-15)); // first delta
        assert_eq!(decompress_timestamps(&bytes), None);

        // Same shape but going negative mid-stream via a delta-of-delta.
        let mut bytes = Vec::new();
        write_varint(&mut bytes, 3); // n
        write_varint(&mut bytes, 100); // first
        write_varint(&mut bytes, zigzag(5)); // 100 -> 105
        write_varint(&mut bytes, zigzag(-300)); // delta becomes -295 -> -190
        assert_eq!(decompress_timestamps(&bytes), None);

        // A negative delta that stays non-negative is still legal.
        let ts = vec![Ts(100), Ts(40), Ts(0)];
        assert_eq!(decompress_timestamps(&compress_timestamps(&ts)).unwrap(), ts);
    }

    #[test]
    fn overflowing_delta_stream_is_an_error() {
        let mut bytes = Vec::new();
        write_varint(&mut bytes, 3);
        write_varint(&mut bytes, 0);
        write_varint(&mut bytes, zigzag(i64::MAX)); // delta = i64::MAX
        write_varint(&mut bytes, zigzag(i64::MAX)); // delta overflows
        assert_eq!(decompress_timestamps(&bytes), None);
    }

    #[test]
    fn oversized_declared_length_is_rejected_before_allocating() {
        // A header claiming u64::MAX points over a 3-byte body must fail
        // up front — before the fix it reached `Vec::with_capacity(n)`.
        let mut bytes = Vec::new();
        write_varint(&mut bytes, u64::MAX);
        bytes.extend_from_slice(&[1, 2, 3]);
        assert_eq!(decompress_timestamps(&bytes), None);
        assert_eq!(decompress_values(&bytes), None);

        // One over the plausible budget is already rejected...
        let mut bytes = Vec::new();
        write_varint(&mut bytes, 4);
        bytes.extend_from_slice(&[0, 0, 0]); // 3 bytes < 4 points
        assert_eq!(decompress_timestamps(&bytes), None);
        // ...while an exactly-plausible block still decodes.
        let ts = vec![Ts(0), Ts(1), Ts(2), Ts(3)];
        assert!(decompress_timestamps(&compress_timestamps(&ts)).is_some());
    }

    #[test]
    fn reusing_a_window_before_opening_one_is_malformed() {
        // The first value, then control bits `10` ("same window as
        // before") although no window was ever opened: a 64-bit shift.
        let mut bytes = Vec::new();
        write_varint(&mut bytes, 2);
        let mut w = BitWriter::new();
        w.write_bits(1.5f64.to_bits(), 64);
        w.write_bits(0b10, 2);
        bytes.extend_from_slice(&w.finish());
        assert_eq!(decompress_values(&bytes), None);
    }

    #[test]
    fn writers_append_after_existing_bytes() {
        let ts: Vec<Ts> = (0..50).map(|i| Ts(1_000 + i * 60_000)).collect();
        let vals: Vec<f64> = (0..50).map(|i| 200.0 + i as f64 * 0.25).collect();
        let mut out = b"prefix".to_vec();
        write_timestamps(ts.iter().copied(), &mut out);
        let ts_end = out.len();
        write_values(vals.iter().copied(), &mut out);
        assert_eq!(&out[..6], b"prefix");
        assert_eq!(out[6..ts_end], compress_timestamps(&ts)[..]);
        assert_eq!(out[ts_end..], compress_values(&vals)[..]);
    }

    #[test]
    fn truncated_input_returns_none() {
        let ts: Vec<Ts> = (0..100).map(Ts::from_secs).collect();
        let bytes = compress_timestamps(&ts);
        assert!(decompress_timestamps(&bytes[..bytes.len() / 2]).is_none());
        let vals: Vec<f64> = (0..100).map(|i| i as f64 * 1.7).collect();
        let vb = compress_values(&vals);
        assert!(decompress_values(&vb[..vb.len() / 2]).is_none());
    }

    proptest! {
        #[test]
        fn prop_timestamps_round_trip(mut raw in proptest::collection::vec(0u64..10_000_000_000, 0..300)) {
            raw.sort_unstable();
            let ts: Vec<Ts> = raw.into_iter().map(Ts).collect();
            prop_assert_eq!(decompress_timestamps(&compress_timestamps(&ts)).unwrap(), ts);
        }

        #[test]
        fn prop_adversarial_dod_streams_round_trip_or_fail_explicitly(
            first in 0u64..1_000_000_000,
            deltas in proptest::collection::vec(-1_099_511_627_776i64..1_099_511_627_776, 1..50),
        ) {
            // Hand-encode a delta-of-delta stream with large negative
            // swings (±2^40).  If every cumulative timestamp stays
            // non-negative the decoder must be lossless; otherwise it
            // must refuse — never clamp to different data.
            let n = deltas.len() + 1;
            let mut bytes = Vec::new();
            write_varint(&mut bytes, n as u64);
            write_varint(&mut bytes, first);
            let mut prev_delta = 0i64;
            for (i, &d) in deltas.iter().enumerate() {
                if i == 0 {
                    write_varint(&mut bytes, zigzag(d));
                } else {
                    write_varint(&mut bytes, zigzag(d - prev_delta));
                }
                prev_delta = d;
            }
            let mut expected = vec![first as i64];
            let mut cur = first as i64;
            for &d in &deltas {
                cur += d; // |values| ≤ 2^30 + 50·2^40: no i64 overflow
                expected.push(cur);
            }
            let decoded = decompress_timestamps(&bytes);
            if expected.iter().all(|&t| t >= 0) {
                let want: Vec<Ts> = expected.into_iter().map(|t| Ts(t as u64)).collect();
                prop_assert_eq!(decoded, Some(want));
            } else {
                prop_assert_eq!(decoded, None);
            }
        }

        #[test]
        fn prop_values_round_trip(vals in proptest::collection::vec(-1.0e12f64..1.0e12, 0..300)) {
            let back = decompress_values(&compress_values(&vals)).unwrap();
            prop_assert_eq!(back.len(), vals.len());
            for (x, y) in back.iter().zip(&vals) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }

        #[test]
        fn prop_corrupt_length_headers_fail_closed(
            n in any::<u64>(),
            raw_body in proptest::collection::vec(0u64..256, 0..64),
        ) {
            let body: Vec<u8> = raw_body.iter().map(|&b| b as u8).collect();
            // Arbitrary declared length over an arbitrary small body: the
            // decoders must either decode exactly `n` points that fit the
            // input's byte/bit budget, or refuse — never allocate on the
            // say-so of a corrupt header.
            let mut bytes = Vec::new();
            write_varint(&mut bytes, n);
            bytes.extend_from_slice(&body);
            if let Some(out) = decompress_timestamps(&bytes) {
                prop_assert_eq!(out.len() as u64, n);
                prop_assert!(out.len() <= body.len());
                prop_assert!(out.capacity() <= bytes.len());
            }
            if let Some(out) = decompress_values(&bytes) {
                prop_assert_eq!(out.len() as u64, n);
                prop_assert!(n == 0 || 64 + (n as usize - 1) <= body.len() * 8);
                prop_assert!(out.capacity() <= bytes.len().saturating_mul(8));
            }
        }

        #[test]
        fn prop_word_codec_matches_bit_at_a_time_oracle(
            fields in proptest::collection::vec((any::<u64>(), 0u8..65), 0..120),
            tail in proptest::collection::vec(0u8..65, 0..8),
        ) {
            let mut fast = BitWriter::new();
            let mut slow = oracle::BitWriter::default();
            for &(v, n) in &fields {
                fast.write_bits(v, n);
                slow.write_bits(v, n);
                prop_assert_eq!(fast.bit_len(), slow.bit_len());
            }
            let (fast, slow) = (fast.finish(), slow.finish());
            prop_assert_eq!(&fast, &slow);
            // Read back the same field widths, then keep reading past the
            // end: both readers agree on every value and on exhaustion.
            let mut r = BitReader::new(&fast);
            let mut o = oracle::BitReader { bytes: &slow, pos: 0 };
            for n in fields.iter().map(|&(_, n)| n).chain(tail.iter().copied()) {
                prop_assert_eq!(r.read_bits(n), o.read_bits(n));
                prop_assert_eq!(r.read_bit(), o.read_bit());
            }
        }

        #[test]
        fn prop_value_writer_matches_the_oracle(
            bits in proptest::collection::vec(any::<u64>(), 0..200),
            steps in proptest::collection::vec(-64i32..64, 0..200),
            jitter in proptest::collection::vec(0u64..1 << 24, 0..200),
        ) {
            // Arbitrary patterns open wide windows; small steps on a gauge
            // reuse them; low-bit jitter has XORs with more leading zeros
            // than the 5-bit field holds.  All must encode exactly as the
            // original writer.
            let vals: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
            prop_assert_eq!(compress_values(&vals), oracle::compress_values(&vals));
            let gauge: Vec<f64> =
                steps.iter().scan(200.0, |g, &s| { *g += s as f64 * 0.125; Some(*g) }).collect();
            prop_assert_eq!(compress_values(&gauge), oracle::compress_values(&gauge));
            let noisy: Vec<f64> = jitter.iter().map(|&j| f64::from_bits(200f64.to_bits() ^ j)).collect();
            prop_assert_eq!(compress_values(&noisy), oracle::compress_values(&noisy));
        }

        #[test]
        fn prop_value_bit_patterns_round_trip(bits in proptest::collection::vec(any::<u64>(), 0..200)) {
            // Arbitrary bit patterns (including NaNs with odd payloads)
            // must survive: the store must not corrupt vendor data.
            let vals: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
            let back = decompress_values(&compress_values(&vals)).unwrap();
            prop_assert_eq!(back.len(), vals.len());
            for (x, y) in back.iter().zip(&vals) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
}
