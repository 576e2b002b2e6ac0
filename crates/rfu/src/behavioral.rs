//! Behavioral circuit model.
//!
//! The scheduling experiments need circuits whose *timing behaviour*
//! (latency, the init/done protocol, resumable progress) matches real
//! hardware without paying gate-level simulation costs on every
//! invocation. [`Invocation`] is that timing, once, for every circuit
//! whose clock count is known at `init` ([`FixedLatency`] and the Twofish
//! block circuit). [`FixedLatency`] implements [`PfuCircuit`] exactly like
//! [`crate::NetlistCircuit`] does; for the alpha-blend instruction the
//! integration tests prove the behavioral model equivalent to the
//! gate-level one.

use proteus_fabric::FabricError;

use crate::circuit::{CircuitClock, CircuitState, PfuCircuit};

/// The §4.4 timing of one invocation whose clock count is known at
/// `init`: operands latch on the clock `init` is high, `done` rises on the
/// `latency`-th clock, and progress is state, so an interrupted invocation
/// resumes where it stopped when it is reissued with `init` low.
///
/// Each call takes the latency of the invocation under way; the circuit
/// that owns the counter knows it (a constant, or a phase's latency).
/// `elapsed` stays below that latency: it resets on the completing clock,
/// and [`Invocation::load`] rejects frames that break this.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Invocation {
    elapsed: u32,
    latched: (u32, u32),
}

impl Invocation {
    /// Clocks elapsed in the invocation under way.
    pub fn elapsed(&self) -> u32 {
        self.elapsed
    }

    /// Advance one clock. Returns the latched operands on the clock that
    /// raises `done`, `None` before it.
    ///
    /// This is the per-clock reference [`Invocation::run`] is tested
    /// against.
    pub fn clock(&mut self, op_a: u32, op_b: u32, init: bool, latency: u32) -> Option<(u32, u32)> {
        if init {
            self.elapsed = 0;
            self.latched = (op_a, op_b);
        }
        self.elapsed += 1;
        if self.elapsed < latency {
            return None;
        }
        self.elapsed = 0;
        Some(self.latched)
    }

    /// Clock up to `budget` (≥ 1) times in O(1), presenting `init` on the
    /// first clock only. Returns the clocks consumed and the latched
    /// operands if `done` rose on the final one — the same outcome and
    /// state as that many calls of [`Invocation::clock`].
    #[inline]
    pub fn run(&mut self, op_a: u32, op_b: u32, init: bool, budget: u64, latency: u32) -> (u64, Option<(u32, u32)>) {
        if init {
            self.elapsed = 0;
            self.latched = (op_a, op_b);
        }
        // At least one clock remains: `elapsed` is below the latency.
        let remaining = u64::from(latency - self.elapsed);
        if remaining > budget {
            self.elapsed += budget as u32;
            return (budget, None);
        }
        self.elapsed = 0;
        (remaining, Some(self.latched))
    }

    /// The three state words: clocks elapsed, then the latched operands.
    pub fn save(&self) -> [u32; 3] {
        [self.elapsed, self.latched.0, self.latched.1]
    }

    /// Restore [`Invocation::save`]'s words for an invocation of
    /// `latency` clocks.
    ///
    /// # Errors
    ///
    /// [`FabricError::StateMismatch`], leaving `self` unchanged, if the
    /// frame holds `latency` or more clocks elapsed: `elapsed` resets on
    /// the completing clock, so no invocation ever saved it.
    pub fn load(&mut self, words: [u32; 3], latency: u32) -> Result<(), FabricError> {
        let [elapsed, a, b] = words;
        if elapsed < latency {
            *self = Self { elapsed, latched: (a, b) };
            return Ok(());
        }
        Err(FabricError::StateMismatch {
            detail: format!("an invocation of {latency} clocks cannot hold {elapsed} clocks elapsed"),
        })
    }
}

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
    invocation: Invocation,
    state_words: usize,
}

impl std::fmt::Debug for FixedLatency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FixedLatency")
            .field("name", &self.name)
            .field("latency", &self.latency)
            .field("elapsed", &self.invocation.elapsed())
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
        Self { name, latency, func, invocation: Invocation::default(), state_words }
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
        match self.invocation.clock(op_a, op_b, init, self.latency) {
            Some((a, b)) => CircuitClock { result: (self.func)(a, b), done: true },
            None => CircuitClock { result: 0, done: false },
        }
    }

    fn run_clocks(&mut self, op_a: u32, op_b: u32, init: bool, budget: u64) -> (u64, Option<u32>) {
        let (used, done) = self.invocation.run(op_a, op_b, init, budget, self.latency);
        (used, done.map(|(a, b)| (self.func)(a, b)))
    }

    fn save_state(&self) -> CircuitState {
        let mut words = vec![0u32; self.state_words()];
        words[..3].copy_from_slice(&self.invocation.save());
        CircuitState(words)
    }

    fn load_state(&mut self, state: &CircuitState) -> Result<(), FabricError> {
        let Some(&words) = state.0.first_chunk() else {
            return Err(FabricError::StateMismatch {
                detail: format!("{} needs ≥3 state words, got {}", self.name, state.0.len()),
            });
        };
        self.invocation.load(words, self.latency)
    }

    fn state_words(&self) -> usize {
        self.state_words.max(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::run_clocks_per_clock;
    use proptest::prelude::*;

    /// [`Invocation::run`] spelled as clocks: [`Invocation::clock`] up to
    /// `budget` times, `init` on the first only.
    fn run_per_clock(
        inv: &mut Invocation,
        (op_a, op_b): (u32, u32),
        mut init: bool,
        budget: u64,
        latency: u32,
    ) -> (u64, Option<(u32, u32)>) {
        for used in 1..=budget {
            if let Some(operands) = inv.clock(op_a, op_b, init, latency) {
                return (used, Some(operands));
            }
            init = false;
        }
        (budget, None)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The fast-forward against the per-clock reference through
        /// random issues and budgets. At random cuts the fast value moves
        /// into a fresh one through its state words, or is offered a
        /// frame at or past the latency, which it must reject unchanged.
        #[test]
        fn invocation_run_matches_per_clock_reference(
            latency in 1u32..=64,
            steps in proptest::collection::vec((any::<bool>(), 1u64..=80, any::<[u32; 2]>(), 0u32..8), 1..40),
        ) {
            let mut fast = Invocation::default();
            let mut slow = Invocation::default();
            for (init, budget, [op_a, op_b], cut) in steps {
                let expect = run_per_clock(&mut slow, (op_a, op_b), init, budget, latency);
                prop_assert_eq!(fast.run(op_a, op_b, init, budget, latency), expect);
                prop_assert_eq!(fast, slow);
                match cut {
                    0 => {
                        let mut moved = Invocation::default();
                        prop_assert!(moved.load(fast.save(), latency).is_ok());
                        fast = moved;
                    }
                    1..=4 => {
                        let elapsed = if cut == 4 { u32::MAX } else { latency + cut - 1 };
                        let before = fast;
                        prop_assert!(fast.load([elapsed, op_a, op_b], latency).is_err());
                        prop_assert_eq!(fast, before);
                    }
                    _ => {}
                }
            }
        }
    }

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
