//! Per-PFU usage statistics (paper §4.5).
//!
//! Each PFU has "a register containing a count of the times that
//! instruction has completed", incremented at *completion* (so
//! interrupted-and-reissued instructions count once), readable and
//! clearable by the OS. The kernel's LRU / Second Chance policies are
//! built on these.

/// The bank of per-PFU completion counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageCounters {
    counts: Vec<u64>,
}

impl UsageCounters {
    /// Counters for `pfus` units, all zero.
    pub fn new(pfus: usize) -> Self {
        Self { counts: vec![0; pfus] }
    }

    /// Number of counters.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True if there are no counters.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Hardware increment on instruction completion.
    pub fn record_completion(&mut self, pfu: usize) {
        self.counts[pfu] = self.counts[pfu].saturating_add(1);
    }

    /// OS read.
    pub fn read(&self, pfu: usize) -> u64 {
        self.counts[pfu]
    }

    /// OS read-and-clear (the typical scan in a replacement policy).
    pub fn read_and_clear(&mut self, pfu: usize) -> u64 {
        std::mem::take(&mut self.counts[pfu])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_completions() {
        let mut c = UsageCounters::new(4);
        c.record_completion(2);
        c.record_completion(2);
        c.record_completion(0);
        assert_eq!(c.read(2), 2);
        assert_eq!(c.read_and_clear(2), 2);
        assert_eq!(c.read(2), 0);
        assert_eq!(c.read(0), 1);
    }
}
