//! Invertible Bloom Lookup Table over 128-bit keys.
//!
//! The digest sync path uses IBLTs *by subtraction*: the target sends a
//! sketch of its knowledge entry set; the source inserts its cached
//! copy of that set into an identically-seeded sketch, subtracts, and
//! peels the remainder. The peeled keys are exactly the symmetric
//! difference, so the sketch size scales with how much changed since
//! the peers last met — not with the size of either set.
//!
//! Each cell holds `(count, key_sum, check_sum)` where `key_sum` and
//! `check_sum` are XOR accumulators. A cell is *pure* when
//! `count == ±1` and the checksum of `key_sum` matches `check_sum`;
//! peeling extracts pure cells and removes their key from its other
//! cells until the sketch drains (success) or no pure cell remains
//! (failure — caller falls back to a full exchange). Cells are split
//! into `k` equal partitions with one independently-hashed probe per
//! partition, so a key's probes never collide with each other, which
//! measurably improves the peel success rate at small sizes.

use crate::codec::{put_signed, put_varint, signed_len, varint_len, Cursor};
use crate::hash::{key_check, key_hash};
use crate::ReconError;

/// Hard cap on cells accepted from the wire (~29 MiB worst case, far
/// above anything the sizing policy produces).
pub const MAX_IBLT_CELLS: usize = 1 << 20;
/// Probes per key. Three is the sweet spot for peel success vs. size.
pub const IBLT_HASHES: u32 = 3;

const IBLT_TAG: u8 = 0x1B;
/// Minimum serialized bytes per cell: 4 one-byte varints.
const MIN_CELL_BYTES: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Cell {
    count: i64,
    key_sum: u128,
    check_sum: u64,
}

impl Cell {
    fn is_zero(&self) -> bool {
        self.count == 0 && self.key_sum == 0 && self.check_sum == 0
    }
}

/// The two sides of a decoded symmetric difference: keys present only
/// in the sketch `subtract` was called on (`only_local`) and keys
/// present only in the subtracted sketch (`only_remote`). Both are
/// sorted for determinism.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DecodedDiff {
    pub only_local: Vec<u128>,
    pub only_remote: Vec<u128>,
}

impl DecodedDiff {
    pub fn len(&self) -> usize {
        self.only_local.len() + self.only_remote.len()
    }

    pub fn is_empty(&self) -> bool {
        self.only_local.is_empty() && self.only_remote.is_empty()
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Iblt {
    seed: u64,
    cells: Vec<Cell>,
}

impl Iblt {
    /// Build an empty sketch with exactly `cells` cells (rounded up to
    /// a multiple of the probe count so partitions divide evenly).
    pub fn with_cells(cells: usize, seed: u64) -> Self {
        let k = IBLT_HASHES as usize;
        let cells = cells.clamp(k, MAX_IBLT_CELLS);
        let cells = cells.div_ceil(k) * k;
        Iblt {
            seed,
            cells: vec![Cell::default(); cells],
        }
    }

    /// Size a sketch to decode an expected symmetric difference of `d`
    /// keys with high probability. The asymptotic peel threshold for
    /// k = 3 is ~1.22 cells per key, but small sketches need far more
    /// headroom (variance dominates), so the multiplier decays with
    /// `d`. Oversizing is cheap — an empty cell serializes to four
    /// bytes — while undersizing costs a whole fallback round.
    pub fn for_expected_diff(d: usize, seed: u64) -> Self {
        let mult = match d {
            0..=20 => 3.0,
            21..=50 => 2.4,
            51..=200 => 1.9,
            _ => 1.5,
        };
        let cells = ((d as f64 * mult).ceil() as usize + 12).max(24);
        Self::with_cells(cells, seed)
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    pub fn cells(&self) -> usize {
        self.cells.len()
    }

    /// One *independently salted* hash per partition. Double hashing
    /// (as the Bloom filter uses) would be cheaper, but with small
    /// partitions it collapses the index triple to a function of
    /// `(h1 mod part, h2 mod part)` — a space of only `part²/2`
    /// distinct triples — so two keys collide on *all* probes at
    /// birthday rates and entangle permanently, wrecking the peel.
    /// Independent hashes keep full-triple collisions at `part^-k`.
    #[inline]
    fn indices(&self, key: u128) -> [usize; IBLT_HASHES as usize] {
        let part = self.cells.len() / IBLT_HASHES as usize;
        let mut idx = [0usize; IBLT_HASHES as usize];
        for (i, slot) in idx.iter_mut().enumerate() {
            let salt = (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let h = key_hash(key, self.seed ^ salt);
            *slot = i * part + (h % part as u64) as usize;
        }
        idx
    }

    #[inline]
    fn apply(&mut self, key: u128, delta: i64) {
        let check = key_check(key, self.seed);
        for i in self.indices(key) {
            let cell = &mut self.cells[i];
            cell.count += delta;
            cell.key_sum ^= key;
            cell.check_sum ^= check;
        }
    }

    pub fn insert(&mut self, key: u128) {
        self.apply(key, 1);
    }

    pub fn remove(&mut self, key: u128) {
        self.apply(key, -1);
    }

    /// Cell-wise difference `self - other`. Requires identical seed and
    /// geometry (both derive from the same negotiated sizing).
    pub fn subtract(&self, other: &Iblt) -> Result<Iblt, ReconError> {
        if self.seed != other.seed || self.cells.len() != other.cells.len() {
            return Err(ReconError::Mismatch);
        }
        let mut out = self.clone();
        for (c, o) in out.cells.iter_mut().zip(&other.cells) {
            c.count -= o.count;
            c.key_sum ^= o.key_sum;
            c.check_sum ^= o.check_sum;
        }
        Ok(out)
    }

    /// Peel a (typically subtracted) sketch down to the key sets on
    /// each side. Consumes the sketch — peeling is destructive.
    ///
    /// Returns `Err(DecodeFailed)` when the sketch was undersized for
    /// the actual difference; callers treat that as "fall back to a
    /// full exchange", never as corruption.
    pub fn decode(mut self) -> Result<DecodedDiff, ReconError> {
        let mut out = DecodedDiff::default();
        let mut work: Vec<usize> = (0..self.cells.len()).collect();
        // Guard against pathological inputs: each successful peel
        // strictly reduces sketch mass, so iterations are bounded.
        let mut budget = self.cells.len() * 8 + 64;
        while let Some(i) = work.pop() {
            if budget == 0 {
                return Err(ReconError::DecodeFailed);
            }
            budget -= 1;
            let cell = self.cells[i];
            if cell.count != 1 && cell.count != -1 {
                continue;
            }
            let key = cell.key_sum;
            if cell.check_sum != key_check(key, self.seed) {
                continue;
            }
            if cell.count == 1 {
                out.only_local.push(key);
            } else {
                out.only_remote.push(key);
            }
            let delta = -cell.count;
            self.apply(key, delta);
            // Removing the key may have made its other cells pure.
            for j in self.indices(key) {
                if j != i {
                    work.push(j);
                }
            }
        }
        if self.cells.iter().any(|c| !c.is_zero()) {
            return Err(ReconError::DecodeFailed);
        }
        out.only_local.sort_unstable();
        out.only_remote.sort_unstable();
        Ok(out)
    }

    /// Serialized size in bytes (exact).
    pub fn encoded_len(&self) -> usize {
        let cells: usize = self
            .cells
            .iter()
            .map(|c| {
                signed_len(c.count)
                    + varint_len(c.key_sum as u64)
                    + varint_len((c.key_sum >> 64) as u64)
                    + varint_len(c.check_sum)
            })
            .sum();
        1 + varint_len(self.seed) + varint_len(self.cells.len() as u64) + cells
    }

    pub fn encode(&self, out: &mut Vec<u8>) {
        out.push(IBLT_TAG);
        put_varint(out, self.seed);
        put_varint(out, self.cells.len() as u64);
        for c in &self.cells {
            put_signed(out, c.count);
            put_varint(out, c.key_sum as u64);
            put_varint(out, (c.key_sum >> 64) as u64);
            put_varint(out, c.check_sum);
        }
    }

    pub fn to_bytes(&self) -> Vec<u8> {
        // Empty cells cost 4 bytes; budget a little above that.
        let mut out = Vec::with_capacity(16 + self.cells.len() * 8);
        self.encode(&mut out);
        out
    }

    pub(crate) fn decode_bytes(cur: &mut Cursor<'_>) -> Result<Iblt, ReconError> {
        if cur.get_u8()? != IBLT_TAG {
            return Err(ReconError::Malformed);
        }
        let seed = cur.get_varint()?;
        let n = cur.get_count(MAX_IBLT_CELLS, MIN_CELL_BYTES)?;
        if n == 0 || n % IBLT_HASHES as usize != 0 {
            return Err(ReconError::Malformed);
        }
        let mut cells = Vec::with_capacity(n);
        for _ in 0..n {
            let count = cur.get_signed()?;
            let lo = cur.get_varint()? as u128;
            let hi = cur.get_varint()? as u128;
            let check_sum = cur.get_varint()?;
            cells.push(Cell {
                count,
                key_sum: (hi << 64) | lo,
                check_sum,
            });
        }
        Ok(Iblt { seed, cells })
    }

    pub fn from_bytes(buf: &[u8]) -> Result<Iblt, ReconError> {
        let mut cur = Cursor::new(buf);
        let t = Self::decode_bytes(&mut cur)?;
        if !cur.is_empty() {
            return Err(ReconError::Malformed);
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> u128 {
        ((i as u128) << 64) | (i.wrapping_mul(0x9e37_79b9)) as u128
    }

    #[test]
    fn subtract_and_peel_recovers_symmetric_difference() {
        let seed = 42;
        let mut a = Iblt::for_expected_diff(16, seed);
        let mut b = Iblt::for_expected_diff(16, seed);
        // 200 shared keys, 5 only in a, 7 only in b.
        for i in 0..200 {
            a.insert(key(i));
            b.insert(key(i));
        }
        for i in 1000..1005 {
            a.insert(key(i));
        }
        for i in 2000..2007 {
            b.insert(key(i));
        }
        let diff = a.subtract(&b).unwrap().decode().unwrap();
        assert_eq!(diff.only_local.len(), 5);
        assert_eq!(diff.only_remote.len(), 7);
        let want_a: Vec<u128> = {
            let mut v: Vec<u128> = (1000..1005).map(key).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(diff.only_local, want_a);
    }

    #[test]
    fn empty_difference_decodes_empty() {
        let mut a = Iblt::with_cells(12, 9);
        let mut b = Iblt::with_cells(12, 9);
        for i in 0..50 {
            a.insert(key(i));
            b.insert(key(i));
        }
        let diff = a.subtract(&b).unwrap().decode().unwrap();
        assert!(diff.is_empty());
    }

    #[test]
    fn undersized_sketch_fails_cleanly() {
        let mut a = Iblt::with_cells(6, 1);
        let b = Iblt::with_cells(6, 1);
        for i in 0..500 {
            a.insert(key(i));
        }
        assert!(matches!(
            a.subtract(&b).unwrap().decode(),
            Err(ReconError::DecodeFailed)
        ));
    }

    #[test]
    fn mismatched_geometry_rejected() {
        let a = Iblt::with_cells(12, 1);
        let b = Iblt::with_cells(24, 1);
        assert!(a.subtract(&b).is_err());
        let c = Iblt::with_cells(12, 2);
        assert!(a.subtract(&c).is_err());
    }

    #[test]
    fn roundtrip() {
        let mut a = Iblt::for_expected_diff(8, 77);
        for i in 0..30 {
            a.insert(key(i));
        }
        let bytes = a.to_bytes();
        assert_eq!(Iblt::from_bytes(&bytes).unwrap(), a);
    }

    #[test]
    fn insert_remove_cancels() {
        let mut a = Iblt::with_cells(12, 5);
        a.insert(key(1));
        a.insert(key(2));
        a.remove(key(1));
        let b = Iblt::with_cells(12, 5);
        let diff = a.subtract(&b).unwrap().decode().unwrap();
        assert_eq!(diff.only_local, vec![key(2)]);
        assert!(diff.only_remote.is_empty());
    }

    #[test]
    fn hostile_cell_count_rejected_before_allocation() {
        let mut buf = vec![IBLT_TAG];
        crate::codec::put_varint(&mut buf, 1);
        crate::codec::put_varint(&mut buf, (MAX_IBLT_CELLS as u64) * 2);
        assert!(Iblt::from_bytes(&buf).is_err());
    }

    #[test]
    fn deterministic_under_seed() {
        let build = || {
            let mut a = Iblt::for_expected_diff(10, 31);
            for i in 0..40 {
                a.insert(key(i));
            }
            a.to_bytes()
        };
        assert_eq!(build(), build());
    }
}
