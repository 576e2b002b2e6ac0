//! Model test for the dispatch-TLB CAM: random operation sequences on
//! the packed-key `Cam` must behave exactly like a naive slot vector of
//! `Option<(key, value)>` with the same explicit-slot, unique-key
//! semantics.

use proptest::prelude::*;
use proteus_rfu::{Cam, TupleKey};

/// The reference: one optional `(key, value)` per slot.
#[derive(Debug)]
struct Model(Vec<Option<(TupleKey, u32)>>);

impl Model {
    fn lookup(&self, key: TupleKey) -> Option<u32> {
        self.0.iter().flatten().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }

    fn free_slot(&self) -> Option<usize> {
        self.0.iter().position(Option::is_none)
    }

    fn insert(&mut self, slot: usize, key: TupleKey, value: u32) {
        for s in self.0.iter_mut() {
            if s.is_some_and(|(k, _)| k == key) {
                *s = None;
            }
        }
        self.0[slot] = Some((key, value));
    }

    fn invalidate(&mut self, key: TupleKey) -> Option<u32> {
        let slot = self.0.iter().position(|s| s.is_some_and(|(k, _)| k == key))?;
        self.0[slot].take().map(|(_, v)| v)
    }

    fn invalidate_where(&mut self, hit: impl Fn(TupleKey, u32) -> bool) -> usize {
        let mut n = 0;
        for s in self.0.iter_mut() {
            if s.is_some_and(|(k, v)| hit(k, v)) {
                *s = None;
                n += 1;
            }
        }
        n
    }

    fn entries(&self) -> Vec<(usize, TupleKey, u32)> {
        self.0.iter().enumerate().filter_map(|(i, s)| s.map(|(k, v)| (i, k, v))).collect()
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert { slot: usize, key: TupleKey, value: u32 },
    Invalidate(TupleKey),
    InvalidateValue(u32),
    InvalidatePid(u32),
    Lookup(TupleKey),
}

/// A small key pool, so inserts collide and invalidations hit, that
/// includes the extreme `(u32::MAX, 255)` next to the empty-slot word.
fn arb_key() -> impl Strategy<Value = TupleKey> {
    let pid = prop_oneof![Just(1u32), Just(2), Just(3), Just(u32::MAX - 1), Just(u32::MAX)];
    let cid = prop_oneof![Just(0u8), Just(1), Just(254), Just(255)];
    (pid, cid).prop_map(|(pid, cid)| TupleKey::new(pid, cid))
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Listed twice: inserts are weighted up so the CAM fills.
        (0usize..16, arb_key(), 0u32..4).prop_map(|(slot, key, value)| Op::Insert { slot, key, value }),
        (0usize..16, arb_key(), 0u32..4).prop_map(|(slot, key, value)| Op::Insert { slot, key, value }),
        arb_key().prop_map(Op::Invalidate),
        (0u32..4).prop_map(Op::InvalidateValue),
        prop_oneof![Just(1u32), Just(2), Just(u32::MAX)].prop_map(Op::InvalidatePid),
        arb_key().prop_map(Op::Lookup),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cam_matches_slot_vector_model(capacity in 1usize..=16, ops in proptest::collection::vec(arb_op(), 1..64)) {
        let mut cam = Cam::new(capacity);
        let mut model = Model(vec![None; capacity]);
        for op in ops {
            match op {
                Op::Insert { slot, key, value } => {
                    let slot = slot % capacity;
                    cam.insert(slot, key, value);
                    model.insert(slot, key, value);
                }
                Op::Invalidate(key) => prop_assert_eq!(cam.invalidate(key), model.invalidate(key), "{:?}", op),
                Op::InvalidateValue(value) => prop_assert_eq!(
                    cam.invalidate_value(value),
                    model.invalidate_where(|_, v| v == value),
                    "{:?}",
                    op
                ),
                Op::InvalidatePid(pid) => prop_assert_eq!(
                    cam.invalidate_pid(pid),
                    model.invalidate_where(|k, _| k.pid == pid),
                    "{:?}",
                    op
                ),
                Op::Lookup(key) => prop_assert_eq!(cam.lookup(key), model.lookup(key), "{:?}", op),
            }
            prop_assert_eq!(cam.capacity(), capacity);
            prop_assert_eq!(cam.len(), model.entries().len(), "after {:?}", op);
            prop_assert_eq!(cam.is_empty(), model.entries().is_empty());
            prop_assert_eq!(cam.free_slot(), model.free_slot(), "after {:?}", op);
            prop_assert_eq!(cam.entries().collect::<Vec<_>>(), model.entries(), "after {:?}", op);
            for (_, key, value) in model.entries() {
                prop_assert_eq!(cam.lookup(key), Some(value));
            }
        }
    }
}
