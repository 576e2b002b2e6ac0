//! Behavioral circuit model.
//!
//! The scheduling experiments need circuits whose *timing behaviour*
//! (latency, the init/done protocol, resumable progress) matches real
//! hardware without paying gate-level simulation costs on every
//! invocation. [`FixedLatency`] implements [`PfuCircuit`] exactly like
//! [`crate::NetlistCircuit`] does; for the alpha-blend instruction the
//! integration tests prove the behavioral model equivalent to the
//! gate-level one.

use proteus_fabric::FabricError;

use crate::circuit::{CircuitClock, CircuitState, PfuCircuit};

/// A fixed-latency instruction computing `f(op_a, op_b)`.
///
/// The result appears with `done` on the `latency`-th clock after `init`.
/// Progress (cycles elapsed) is circuit state, so an interrupted
/// invocation resumes where it stopped — the same observable behaviour as
/// a gate-level counter-driven datapath.
pub struct FixedLatency {
    name: &'static str,
    latency: u32,
    func: fn(u32, u32) -> u32,
    elapsed: u32,
    latched: (u32, u32),
    state_words: usize,
}

impl std::fmt::Debug for FixedLatency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FixedLatency")
            .field("name", &self.name)
            .field("latency", &self.latency)
            .field("elapsed", &self.elapsed)
            .finish()
    }
}

impl FixedLatency {
    /// Create a model named `name` (for diagnostics) with the given
    /// per-invocation `latency` in cycles and combinational function.
    ///
    /// `state_words` sizes the state frames the OS must move on a swap
    /// (use the real circuit's register count / 32).
    ///
    /// # Panics
    ///
    /// Panics if `latency` is zero.
    pub fn new(name: &'static str, latency: u32, state_words: usize, func: fn(u32, u32) -> u32) -> Self {
        assert!(latency > 0, "instructions take at least one cycle");
        Self { name, latency, func, elapsed: 0, latched: (0, 0), state_words }
    }

    /// The model's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Per-invocation latency in cycles.
    pub fn latency(&self) -> u32 {
        self.latency
    }
}

impl PfuCircuit for FixedLatency {
    fn clock(&mut self, op_a: u32, op_b: u32, init: bool) -> CircuitClock {
        if init {
            self.elapsed = 0;
            self.latched = (op_a, op_b);
        }
        self.elapsed += 1;
        if self.elapsed >= self.latency {
            let (a, b) = self.latched;
            self.elapsed = 0;
            CircuitClock { result: (self.func)(a, b), done: true }
        } else {
            CircuitClock { result: 0, done: false }
        }
    }

    fn run_clocks(&mut self, op_a: u32, op_b: u32, init: bool, budget: u64) -> (u64, Option<u32>) {
        if init {
            self.elapsed = 0;
            self.latched = (op_a, op_b);
        }
        // `done` rises on the clock where elapsed reaches latency; at
        // least one clock always elapses.
        let remaining = u64::from(self.latency.saturating_sub(self.elapsed)).max(1);
        if remaining <= budget {
            let (a, b) = self.latched;
            self.elapsed = 0;
            (remaining, Some((self.func)(a, b)))
        } else {
            self.elapsed += budget as u32;
            (budget, None)
        }
    }

    fn save_state(&self) -> CircuitState {
        let mut words = vec![0u32; self.state_words.max(3)];
        words[0] = self.elapsed;
        words[1] = self.latched.0;
        words[2] = self.latched.1;
        CircuitState(words)
    }

    fn load_state(&mut self, state: &CircuitState) -> Result<(), FabricError> {
        if state.0.len() < 3 {
            return Err(FabricError::StateMismatch {
                detail: format!("{} needs ≥3 state words, got {}", self.name, state.0.len()),
            });
        }
        // `elapsed` resets on the completing clock, so a frame at or past
        // the latency was never saved by this circuit.
        let elapsed = state.0[0];
        if elapsed >= self.latency {
            return Err(FabricError::StateMismatch {
                detail: format!(
                    "{} cannot hold {elapsed} clocks elapsed at latency {}",
                    self.name, self.latency
                ),
            });
        }
        self.elapsed = elapsed;
        self.latched = (state.0[1], state.0[2]);
        Ok(())
    }

    fn state_words(&self) -> usize {
        self.state_words.max(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::run_clocks_per_clock;

    #[test]
    fn run_clocks_fast_forward_matches_per_cycle_clocking() {
        for latency in [1u32, 2, 5, 7] {
            let mut fast = FixedLatency::new("t", latency, 4, |a, b| a ^ b);
            let mut slow = FixedLatency::new("t", latency, 4, |a, b| a ^ b);
            let mut init = true;
            for budget in [1u64, 3, 2, 10, 1, 4, 2, 9] {
                let f = fast.run_clocks(9, 5, init, budget);
                let s = run_clocks_per_clock(&mut slow, 9, 5, init, budget);
                assert_eq!(f, s, "latency={latency} budget={budget}");
                init = f.1.is_some();
            }
            assert_eq!(fast.save_state().0, slow.save_state().0);
        }
    }

    #[test]
    fn fixed_latency_counts_cycles() {
        let mut c = FixedLatency::new("add3", 3, 4, |a, b| a + b);
        assert!(!c.clock(1, 2, true).done);
        assert!(!c.clock(1, 2, false).done);
        let out = c.clock(1, 2, false);
        assert!(out.done);
        assert_eq!(out.result, 3);
    }

    #[test]
    fn operands_latch_at_init() {
        // Changing the buses mid-instruction must not change the result —
        // the circuit latched them on init, like real hardware registers.
        let mut c = FixedLatency::new("add", 2, 4, |a, b| a + b);
        assert!(!c.clock(10, 20, true).done);
        let out = c.clock(999, 999, false);
        assert_eq!(out.result, 30);
    }

    #[test]
    fn interrupt_resume_via_state() {
        let mut c = FixedLatency::new("add5", 5, 4, |a, b| a + b);
        c.clock(7, 8, true);
        c.clock(7, 8, false);
        let saved = c.save_state();
        // Simulate being swapped out and back in.
        let mut c2 = FixedLatency::new("add5", 5, 4, |a, b| a + b);
        c2.load_state(&saved).expect("restore");
        assert!(!c2.clock(7, 8, false).done);
        assert!(!c2.clock(7, 8, false).done);
        let out = c2.clock(7, 8, false);
        assert!(out.done);
        assert_eq!(out.result, 15);
    }

    #[test]
    fn short_state_rejected() {
        let mut c = FixedLatency::new("x", 1, 4, |a, _| a);
        assert!(c.load_state(&CircuitState(vec![1])).is_err());
    }

    #[test]
    fn unreachable_state_frames_rejected() {
        let latency = 5;
        let mut c = FixedLatency::new("add5", latency, 4, |a, b| a + b);
        let before = c.save_state();
        for elapsed in [latency, latency + 1, u32::MAX] {
            let mut words = before.0.clone();
            words[0] = elapsed;
            let err = c.load_state(&CircuitState(words));
            assert!(matches!(err, Err(FabricError::StateMismatch { .. })), "elapsed {elapsed}: {err:?}");
            assert_eq!(c.save_state(), before, "a rejected load must not change the circuit");
        }
        // The last reachable progress loads and completes on the next
        // clock, on the fast-forward lane and the per-clock referee alike.
        let mut words = before.0;
        words[0] = latency - 1;
        words[1] = 7;
        words[2] = 8;
        let frame = CircuitState(words);
        let mut fast = FixedLatency::new("add5", latency, 4, |a, b| a + b);
        let mut slow = FixedLatency::new("add5", latency, 4, |a, b| a + b);
        fast.load_state(&frame).expect("latency - 1 is reachable");
        slow.load_state(&frame).expect("latency - 1 is reachable");
        assert_eq!(fast.run_clocks(0, 0, false, 3), (1, Some(15)));
        assert_eq!(run_clocks_per_clock(&mut slow, 0, 0, false, 3), (1, Some(15)));
    }
}
