//! Content-addressable memory for the dispatch TLBs.
//!
//! A TLB is "a CAM used to store ID tuples which is used as an index into
//! a RAM" (§4.2). [`Cam`] models both halves: fixed-capacity fully
//! associative match on the `(PID, CID)` key, returning the RAM word.
//! Slot choice is the OS's job (it programs the TLB), so insertion takes
//! an explicit slot.

/// The globally unique custom-instruction name: `(PID, CID)` (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleKey {
    /// Process ID.
    pub pid: u32,
    /// Process-local Circuit ID.
    pub cid: u8,
}

impl TupleKey {
    /// Construct a key.
    pub fn new(pid: u32, cid: u8) -> Self {
        Self { pid, cid }
    }

    /// The packed CAM word: `pid << 8 | cid`. Distinct keys pack to
    /// distinct words, all below [`EMPTY`].
    fn packed(self) -> u64 {
        (u64::from(self.pid) << 8) | u64::from(self.cid)
    }

    fn unpack(word: u64) -> Self {
        Self { pid: (word >> 8) as u32, cid: word as u8 }
    }
}

/// The key word of an empty slot. The largest packed key is
/// `u32::MAX << 8 | 255`, so no lookup can match it.
const EMPTY: u64 = u64::MAX;

/// A fixed-capacity CAM + RAM pair.
///
/// The match lines are a packed array of key words beside the RAM
/// words, so a lookup scans one dense `u64` slice.
///
/// # Example
///
/// ```
/// use proteus_rfu::{Cam, TupleKey};
///
/// let mut tlb = Cam::new(4);
/// let slot = tlb.free_slot().expect("empty TLB has free slots");
/// tlb.insert(slot, TupleKey::new(7, 0), 2); // (PID 7, CID 0) -> PFU 2
/// assert_eq!(tlb.lookup(TupleKey::new(7, 0)), Some(2));
/// assert_eq!(tlb.lookup(TupleKey::new(8, 0)), None, "other PIDs miss");
/// ```
#[derive(Debug, Clone)]
pub struct Cam {
    /// Packed key per slot ([`EMPTY`] when free).
    keys: Vec<u64>,
    /// RAM word per slot (meaningful only where the key is occupied).
    values: Vec<u32>,
}

impl Cam {
    /// A CAM with `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "CAM needs at least one slot");
        Self { keys: vec![EMPTY; capacity], values: vec![0; capacity] }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Occupied slots.
    pub fn len(&self) -> usize {
        self.keys.iter().filter(|&&k| k != EMPTY).count()
    }

    /// True if no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Associative lookup (the hardware fast path).
    pub fn lookup(&self, key: TupleKey) -> Option<u32> {
        let word = key.packed();
        self.keys.iter().position(|&k| k == word).map(|slot| self.values[slot])
    }

    /// First free slot, if any.
    pub fn free_slot(&self) -> Option<usize> {
        self.keys.iter().position(|&k| k == EMPTY)
    }

    /// Program `slot` with a mapping (OS operation). Replaces whatever
    /// the slot held; if the same key is already present in another slot
    /// that stale entry is invalidated, keeping keys unique.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn insert(&mut self, slot: usize, key: TupleKey, value: u32) {
        self.invalidate(key);
        self.keys[slot] = key.packed();
        self.values[slot] = value;
    }

    /// Invalidate the entry for `key`, returning its value if present.
    pub fn invalidate(&mut self, key: TupleKey) -> Option<u32> {
        let word = key.packed();
        let slot = self.keys.iter().position(|&k| k == word)?;
        self.keys[slot] = EMPTY;
        Some(self.values[slot])
    }

    /// Invalidate every entry whose value matches `value` (e.g. all
    /// tuples pointing at a PFU being unloaded). Returns how many were
    /// dropped.
    pub fn invalidate_value(&mut self, value: u32) -> usize {
        self.invalidate_where(|_, v| v == value)
    }

    /// Invalidate every entry belonging to `pid` (process exit). Returns
    /// how many were dropped.
    pub fn invalidate_pid(&mut self, pid: u32) -> usize {
        self.invalidate_where(|key, _| key.pid == pid)
    }

    fn invalidate_where(&mut self, hit: impl Fn(TupleKey, u32) -> bool) -> usize {
        let mut n = 0;
        for (k, &v) in self.keys.iter_mut().zip(&self.values) {
            if *k != EMPTY && hit(TupleKey::unpack(*k), v) {
                *k = EMPTY;
                n += 1;
            }
        }
        n
    }

    /// Iterate over occupied entries as `(slot, key, value)`.
    pub fn entries(&self) -> impl Iterator<Item = (usize, TupleKey, u32)> + '_ {
        self.keys
            .iter()
            .zip(&self.values)
            .enumerate()
            .filter(|(_, (&k, _))| k != EMPTY)
            .map(|(i, (&k, &v))| (i, TupleKey::unpack(k), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_hits_and_misses() {
        let mut cam = Cam::new(4);
        cam.insert(0, TupleKey::new(1, 0), 7);
        cam.insert(1, TupleKey::new(2, 0), 8);
        assert_eq!(cam.lookup(TupleKey::new(1, 0)), Some(7));
        assert_eq!(cam.lookup(TupleKey::new(2, 0)), Some(8));
        assert_eq!(cam.lookup(TupleKey::new(1, 1)), None);
    }

    #[test]
    fn same_pfu_under_many_tuples() {
        // Circuit sharing: several (PID, CID) tuples -> one PFU (§4.2).
        let mut cam = Cam::new(4);
        cam.insert(0, TupleKey::new(1, 0), 2);
        cam.insert(1, TupleKey::new(1, 9), 2);
        cam.insert(2, TupleKey::new(5, 3), 2);
        assert_eq!(cam.lookup(TupleKey::new(1, 9)), Some(2));
        assert_eq!(cam.invalidate_value(2), 3);
        assert!(cam.is_empty());
    }

    #[test]
    fn insert_keeps_keys_unique() {
        let mut cam = Cam::new(4);
        cam.insert(0, TupleKey::new(1, 0), 7);
        cam.insert(3, TupleKey::new(1, 0), 9);
        assert_eq!(cam.lookup(TupleKey::new(1, 0)), Some(9));
        assert_eq!(cam.len(), 1);
    }

    #[test]
    fn pid_invalidation_on_exit() {
        let mut cam = Cam::new(4);
        cam.insert(0, TupleKey::new(1, 0), 0);
        cam.insert(1, TupleKey::new(1, 1), 1);
        cam.insert(2, TupleKey::new(2, 0), 2);
        assert_eq!(cam.invalidate_pid(1), 2);
        assert_eq!(cam.lookup(TupleKey::new(2, 0)), Some(2));
    }

    #[test]
    fn free_slot_tracking() {
        let mut cam = Cam::new(2);
        assert_eq!(cam.free_slot(), Some(0));
        cam.insert(0, TupleKey::new(1, 0), 0);
        assert_eq!(cam.free_slot(), Some(1));
        cam.insert(1, TupleKey::new(1, 1), 1);
        assert_eq!(cam.free_slot(), None);
        cam.invalidate(TupleKey::new(1, 0));
        assert_eq!(cam.free_slot(), Some(0));
    }
}
