//! Property tests over the Twofish implementation and its hardware
//! circuit model.

use proptest::prelude::*;
use proteus_apps::twofish::{BlockCircuit, Twofish, ENCRYPT_LATENCY};
use proteus_rfu::circuit::run_clocks_per_clock;
use proteus_rfu::PfuCircuit;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn decrypt_inverts_encrypt(key in any::<[u8; 16]>(), pt in any::<[u8; 16]>()) {
        let tf = Twofish::new(&key);
        prop_assert_eq!(tf.decrypt_block(&tf.encrypt_block(&pt)), pt);
    }

    #[test]
    fn encryption_is_a_permutation(key in any::<[u8; 16]>(), a in any::<[u8; 16]>(), b in any::<[u8; 16]>()) {
        prop_assume!(a != b);
        let tf = Twofish::new(&key);
        prop_assert_ne!(tf.encrypt_block(&a), tf.encrypt_block(&b));
    }

    #[test]
    fn ecb_stream_matches_blockwise(key in any::<[u8; 16]>(), blocks in proptest::collection::vec(any::<[u8; 16]>(), 1..6)) {
        let tf = Twofish::new(&key);
        let data: Vec<u8> = blocks.iter().flatten().copied().collect();
        let stream = tf.encrypt_ecb(&data);
        for (i, block) in blocks.iter().enumerate() {
            let ct = tf.encrypt_block(block);
            prop_assert_eq!(&stream[16 * i..16 * (i + 1)], ct.as_slice());
        }
    }

    /// The phase-machine circuit computes exactly what the cipher does,
    /// block after block.
    #[test]
    fn block_circuit_matches_cipher(key in any::<[u8; 16]>(), blocks in proptest::collection::vec(any::<[u32; 4]>(), 1..5)) {
        let tf = Twofish::new(&key);
        let mut circuit = BlockCircuit::new(&key);
        let run = |c: &mut BlockCircuit, a: u32, b: u32| {
            let mut init = true;
            loop {
                let out = c.clock(a, b, init);
                init = false;
                if out.done {
                    return out.result;
                }
            }
        };
        for w in &blocks {
            let mut block = [0u8; 16];
            for (i, word) in w.iter().enumerate() {
                block[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
            }
            let ct = tf.encrypt_block(&block);
            let expect: Vec<u32> =
                ct.chunks_exact(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect();
            run(&mut circuit, w[0], w[1]);
            let ct0 = run(&mut circuit, w[2], w[3]);
            prop_assert_eq!(ct0, expect[0]);
            for e in &expect[1..] {
                prop_assert_eq!(run(&mut circuit, 0, 0), *e);
            }
        }
    }

    /// Circuit state can be saved/restored at any phase boundary without
    /// corrupting the stream.
    #[test]
    fn block_circuit_state_roundtrips(key in any::<[u8; 16]>(), w in any::<[u32; 4]>(), cut in 0usize..5) {
        let run = |c: &mut BlockCircuit, a: u32, b: u32| {
            let mut init = true;
            loop {
                let out = c.clock(a, b, init);
                init = false;
                if out.done {
                    return out.result;
                }
            }
        };
        let invocations = [(w[0], w[1]), (w[2], w[3]), (0, 0), (0, 0), (0, 0)];
        // Reference: uninterrupted.
        let mut reference = BlockCircuit::new(&key);
        let expect: Vec<u32> = invocations.iter().map(|&(a, b)| run(&mut reference, a, b)).collect();
        // Cut: save/transfer state to a fresh instance mid-protocol.
        let mut first = BlockCircuit::new(&key);
        let mut got = Vec::new();
        for &(a, b) in &invocations[..cut] {
            got.push(run(&mut first, a, b));
        }
        let saved = first.save_state();
        let mut second = BlockCircuit::new(&key);
        second.load_state(&saved).expect("restore");
        for &(a, b) in &invocations[cut..] {
            got.push(run(&mut second, a, b));
        }
        prop_assert_eq!(got, expect);
    }

    /// The O(1) `run_clocks` override is observably the per-clock
    /// reference: for random budgets through every phase of random
    /// blocks, each call returns the same `(used, result)` and leaves the
    /// same state frames. The first encrypt is cut after `cut` clocks and
    /// both circuits are swapped into fresh instances through
    /// `save_state`/`load_state` before it resumes.
    #[test]
    fn block_circuit_fast_forward_matches_per_clock(
        key in any::<[u8; 16]>(),
        blocks in proptest::collection::vec(any::<[u32; 4]>(), 1..4),
        budgets in proptest::collection::vec(1u64..=25, 1..40),
        cut in 1u64..20,
    ) {
        let mut fast = BlockCircuit::new(&key);
        let mut slow = BlockCircuit::new(&key);
        let mut budgets = budgets.iter().copied().cycle();
        let mut swapped = false;
        for w in &blocks {
            for (a, b) in [(w[0], w[1]), (w[2], w[3]), (0, 0), (0, 0), (0, 0)] {
                let mut init = true;
                loop {
                    let budget = if swapped { budgets.next().expect("cycled budgets") } else { cut };
                    let got = fast.run_clocks(a, b, init, budget);
                    let expect = run_clocks_per_clock(&mut slow, a, b, init, budget);
                    prop_assert_eq!(got, expect, "budget {}", budget);
                    prop_assert_eq!(fast.save_state(), slow.save_state());
                    if got.1.is_some() {
                        break;
                    }
                    // Interrupted mid-encrypt: only the encrypting
                    // invocation outlasts a budget.
                    prop_assert_eq!(fast.save_state().0[0], 1);
                    init = false;
                    if !swapped {
                        for c in [&mut fast, &mut slow] {
                            let mut fresh = BlockCircuit::new(&key);
                            fresh.load_state(&c.save_state()).expect("restore mid-encrypt");
                            *c = fresh;
                        }
                        swapped = true;
                    }
                }
            }
        }
        prop_assert!(swapped, "the first encrypt was not cut");
    }

    /// The circuit's ciphertext memo is invisible. Two block streams
    /// drawn from a small pool of near-twin blocks, so blocks repeat,
    /// share one instance through `save_state`/`load_state`, as a shared
    /// circuit's processes do. Every invocation runs in random
    /// `run_clocks` budgets against the per-clock reference, both
    /// circuits move once into fresh instances (an empty memo) after
    /// `fresh_at` calls, and every block's `ct0`–`ct3` must be the
    /// cipher's.
    #[test]
    fn block_circuit_memo_matches_cipher(
        key in any::<[u8; 16]>(),
        pool in proptest::collection::vec(any::<[u32; 4]>(), 1..6),
        stream0 in proptest::collection::vec(any::<usize>(), 1..12),
        stream1 in proptest::collection::vec(any::<usize>(), 0..12),
        picks in proptest::collection::vec(any::<bool>(), 1..16),
        budgets in proptest::collection::vec(1u64..=25, 1..40),
        fresh_at in 1usize..60,
    ) {
        let tf = Twofish::new(&key);
        // Each pool block has a twin that differs in the last word only.
        let pool: Vec<[u32; 4]> = pool.iter().flat_map(|&w| [w, [w[0], w[1], w[2], !w[3]]]).collect();
        let blocks: Vec<Vec<[u32; 4]>> =
            [stream0, stream1].iter().map(|s| s.iter().map(|&i| pool[i % pool.len()]).collect()).collect();
        let mut fast = BlockCircuit::new(&key);
        let mut slow = BlockCircuit::new(&key);
        let idle = fast.save_state();
        // Per stream: (block, invocation) next, whether its next call
        // raises init, the ciphertext words so far and its parked frames.
        let mut pos = [(0usize, 0usize); 2];
        let mut init = [true; 2];
        let mut ct = [[0u32; 4]; 2];
        let mut parked = [(idle.clone(), idle.clone()), (idle.clone(), idle)];
        let mut owner = 0;
        let mut picks = picks.iter().cycle();
        let mut budgets = budgets.iter().copied().cycle();
        let mut calls = 0;
        while (0..2).any(|s| pos[s].0 < blocks[s].len()) {
            let want = usize::from(*picks.next().expect("cycled picks"));
            let s = if pos[want].0 < blocks[want].len() { want } else { 1 - want };
            if s != owner {
                parked[owner] = (fast.save_state(), slow.save_state());
                fast.load_state(&parked[s].0).expect("load a parked frame");
                slow.load_state(&parked[s].1).expect("load a parked frame");
                owner = s;
            }
            let (block, inv) = pos[s];
            let w = blocks[s][block];
            let (a, b) = [(w[0], w[1]), (w[2], w[3]), (0, 0), (0, 0), (0, 0)][inv];
            let budget = budgets.next().expect("cycled budgets");
            let got = fast.run_clocks(a, b, init[s], budget);
            prop_assert_eq!(got, run_clocks_per_clock(&mut slow, a, b, init[s], budget), "budget {}", budget);
            prop_assert_eq!(fast.save_state(), slow.save_state());
            init[s] = got.1.is_some();
            if let Some(r) = got.1 {
                match inv {
                    0 => prop_assert_eq!(r, 0),
                    _ => ct[s][inv - 1] = r,
                }
                pos[s] = if inv == 4 {
                    prop_assert_eq!(ct[s], tf.encrypt_words(w), "stream {}, block {}", s, block);
                    (block + 1, 0)
                } else {
                    (block, inv + 1)
                };
            }
            calls += 1;
            if calls == fresh_at {
                for c in [&mut fast, &mut slow] {
                    let mut fresh = BlockCircuit::new(&key);
                    fresh.load_state(&c.save_state()).expect("restore into a fresh instance");
                    *c = fresh;
                }
            }
        }
    }

    /// Alpha blend reference is bounded by its inputs for equal channels.
    #[test]
    fn alpha_blend_is_bounded(a in any::<u8>(), b in any::<u8>(), alpha in any::<u8>()) {
        let out = proteus_fabric::library::alpha_blend_ref(a, b, alpha);
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(out >= lo && out <= hi, "blend({a},{b},{alpha}) = {out} outside [{lo},{hi}]");
    }

    /// Echo reference: silence in, silence out; gain 0 is identity.
    #[test]
    fn echo_identities(input in proptest::collection::vec(0u32..0x8000, 1..64), delay in 1usize..16) {
        prop_assume!(delay < input.len());
        let out = proteus_apps::echo::echo_ref(&input, delay, 0);
        prop_assert_eq!(out, input);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// More distinct blocks than the memo holds (1,024), over two
    /// passes: the blocks stored on the first pass and the ones past the
    /// cap, encrypted on every visit, all give the cipher's words.
    #[test]
    fn block_circuit_past_memo_cap_matches_cipher(key in any::<[u8; 16]>(), salt in any::<[u32; 3]>()) {
        let tf = Twofish::new(&key);
        let mut circuit = BlockCircuit::new(&key);
        let blocks: Vec<[u32; 4]> = (0..1100u32).map(|i| [i, salt[0] ^ i, salt[1], salt[2].wrapping_add(i)]).collect();
        for pass in 0..2 {
            for (i, w) in blocks.iter().enumerate() {
                let mut got = [0u32; 4];
                prop_assert_eq!(circuit.run_clocks(w[0], w[1], true, u64::MAX), (1, Some(0)));
                let (used, ct0) = circuit.run_clocks(w[2], w[3], true, u64::MAX);
                prop_assert_eq!(used, u64::from(ENCRYPT_LATENCY));
                got[0] = ct0.expect("encrypt completes");
                for word in &mut got[1..] {
                    *word = circuit.run_clocks(0, 0, true, u64::MAX).1.expect("one-clock invocation");
                }
                prop_assert_eq!(got, tf.encrypt_words(*w), "pass {}, block {}", pass, i);
            }
        }
    }
}
