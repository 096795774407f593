//! Model-based property test for the copy-on-write [`SegVec`] trie.
//!
//! Random `push` / `get_mut` / `resize` / `extend` / `clone` sequences run
//! against a plain `Vec<u32>` model, with lengths crossing the 4,096-element
//! chunk boundary. After every step the vector must hold exactly the
//! model's contents, every earlier clone must still hold the contents it
//! was taken with (clones never see writes), and a single write must
//! diverge exactly one leaf from the state before it.

use dkindex_graph::segvec::{CHUNK_SIZE, SEG_SIZE};
use dkindex_graph::SegVec;
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Push(u32),
    /// Write through `get_mut` at `index % len`.
    Write(usize, u32),
    Resize(usize, u32),
    Extend(usize, u32),
    /// Keep a clone and a copy of the model to re-check later.
    Snapshot,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u32>().prop_map(Op::Push),
        (any::<usize>(), any::<u32>()).prop_map(|(i, v)| Op::Write(i, v)),
        (any::<usize>(), any::<u32>()).prop_map(|(i, v)| Op::Write(i, v)),
        (0usize..3 * CHUNK_SIZE, any::<u32>()).prop_map(|(n, v)| Op::Resize(n, v)),
        (0usize..2 * SEG_SIZE + 3, any::<u32>()).prop_map(|(n, v)| Op::Extend(n, v)),
        Just(Op::Snapshot),
    ]
}

fn same_contents(v: &SegVec<u32>, model: &[u32]) -> bool {
    v.len() == model.len()
        && v.segment_count() == model.len().div_ceil(SEG_SIZE)
        && v.iter().eq(model.iter())
        && v.get(model.len()).is_none()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn segvec_matches_a_vec_model(
        start in 0usize..2 * CHUNK_SIZE + 100,
        ops in prop::collection::vec(op(), 1..28),
    ) {
        let mut model: Vec<u32> = (0..start as u32).collect();
        let mut v: SegVec<u32> = model.iter().copied().collect();
        let mut snapshots: Vec<(SegVec<u32>, Vec<u32>)> = Vec::new();
        prop_assert!(same_contents(&v, &model));

        for op in ops {
            let before = v.clone();
            match op.clone() {
                Op::Push(x) => {
                    v.push(x);
                    model.push(x);
                    // Only the trailing leaf may diverge; a push onto a
                    // fresh leaf leaves every old leaf shared.
                    let partial_tail = usize::from(!before.len().is_multiple_of(SEG_SIZE));
                    prop_assert_eq!(
                        v.shared_segments_with(&before),
                        before.segment_count() - partial_tail
                    );
                }
                Op::Write(i, x) => {
                    if model.is_empty() {
                        prop_assert!(v.get_mut(i).is_none());
                        continue;
                    }
                    let i = i % model.len();
                    if let Some(slot) = v.get_mut(i) {
                        *slot = x;
                    }
                    model[i] = x;
                    prop_assert_eq!(
                        v.shared_segments_with(&before),
                        v.segment_count() - 1,
                        "a write at {} of {} must diverge exactly one leaf",
                        i,
                        model.len()
                    );
                }
                Op::Resize(n, x) => {
                    v.resize(n, x);
                    model.resize(n, x);
                }
                Op::Extend(n, x) => {
                    v.extend(std::iter::repeat_n(x, n));
                    model.extend(std::iter::repeat_n(x, n));
                }
                Op::Snapshot => snapshots.push((v.clone(), model.clone())),
            }
            prop_assert!(same_contents(&v, &model), "after {:?}", op);
            for (clone, contents) in &snapshots {
                prop_assert!(same_contents(clone, contents), "a clone saw a later write");
            }
            // Spot-check random access at the leaf and chunk edges.
            for i in [SEG_SIZE - 1, SEG_SIZE, CHUNK_SIZE - 1, CHUNK_SIZE, model.len().wrapping_sub(1)] {
                prop_assert_eq!(v.get(i), model.get(i));
            }
        }
    }
}
