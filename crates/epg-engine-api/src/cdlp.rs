//! CDLP's label rule for every engine (Graphalytics): a vertex adopts the
//! most frequent of its neighbours' labels, ties to the smallest.

use std::cmp::Reverse;
use std::iter::repeat_n;

/// The most frequent label, ties to the smallest; `None` when `labels` is
/// empty. Sorts `labels`.
pub fn mode(labels: &mut [u64]) -> Option<u64> {
    labels.sort_unstable();
    // `min_by_key` keeps the first of equal keys: the smallest label.
    labels.chunk_by(|a, b| a == b).min_by_key(|run| Reverse(run.len())).map(|run| run[0])
}

/// The label multiset a gather or a message reduction builds edge by edge;
/// it allocates only once it holds two different labels.
#[derive(Clone, Debug)]
pub enum LabelBag {
    /// `.1` copies of the label `.0`.
    Run(u64, usize),
    /// Every label held, in no order.
    Many(Vec<u64>),
}

impl LabelBag {
    /// One edge's label.
    pub fn one(label: u64) -> LabelBag {
        LabelBag::Run(label, 1)
    }

    /// Both multisets' labels; merging runs of one label allocates nothing.
    pub fn merge(self, other: LabelBag) -> LabelBag {
        use LabelBag::{Many, Run};
        match (self, other) {
            (Run(a, x), Run(b, y)) if a == b => Run(a, x + y),
            (Many(mut all), bag) | (bag, Many(mut all)) => {
                match bag {
                    Run(label, count) => all.extend(repeat_n(label, count)),
                    Many(more) => all.extend(more),
                }
                Many(all)
            }
            (Run(a, x), Run(b, y)) => {
                // Room for as many labels again and at least a cache line's
                // worth, so the merges still to come rarely reallocate.
                let mut all = Vec::with_capacity((2 * (x + y)).max(8));
                all.extend(repeat_n(a, x).chain(repeat_n(b, y)));
                Many(all)
            }
        }
    }

    /// The bag's [`mode`].
    pub fn mode(self) -> u64 {
        match self {
            LabelBag::Run(label, _) => label,
            LabelBag::Many(mut all) => mode(&mut all).expect("a `Many` holds two labels"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    /// The rule written plainly: count with a map, then the largest count,
    /// ties to the smallest label.
    fn reference(labels: &[u64]) -> Option<u64> {
        let mut freq: HashMap<u64, usize> = HashMap::new();
        for &l in labels {
            *freq.entry(l).or_insert(0) += 1;
        }
        freq.into_iter().max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0))).map(|(l, _)| l)
    }

    /// Multisets of at least `min` labels with many ties: labels from a
    /// small or a sparse range, or `k` labels each repeated `c` times,
    /// shuffled.
    fn multiset(min: usize) -> impl Strategy<Value = Vec<u64>> {
        let small = collection::vec(0u64..4, min..40);
        let sparse = collection::vec(prop_oneof![Just(u64::MAX), 0u64..1 << 40], min..40);
        let tied = (collection::vec(0u64..1 << 40, 1..6), 1usize..5, 0u64..u64::MAX).prop_map(
            |(mut labels, c, seed)| {
                labels.sort_unstable();
                labels.dedup();
                let mut all: Vec<u64> = labels.iter().flat_map(|&l| repeat_n(l, c)).collect();
                all.shuffle(&mut StdRng::seed_from_u64(seed));
                all
            },
        );
        prop_oneof![small, sparse, tied]
    }

    /// The labels a bag holds, ascending.
    fn contents(bag: &LabelBag) -> Vec<u64> {
        let mut all = match bag {
            LabelBag::Run(label, count) => vec![*label; *count],
            LabelBag::Many(all) => all.clone(),
        };
        all.sort_unstable();
        all
    }

    #[test]
    fn merging_one_label_allocates_nothing() {
        let bag = (0..5).map(|_| LabelBag::one(6)).reduce(LabelBag::merge).unwrap();
        assert!(matches!(bag, LabelBag::Run(6, 5)));
    }

    proptest! {
        #[test]
        fn mode_matches_a_counting_reference(mut labels in multiset(0)) {
            let want = reference(&labels);
            prop_assert_eq!(mode(&mut labels), want);
        }

        /// Shuffle the multiset, cut it into pieces at random points, fold
        /// each piece from single labels, then merge random pairs in random
        /// order until one bag is left: every merge tree and order holds
        /// the same labels and so gives the same mode.
        #[test]
        fn every_merge_tree_gives_the_same_mode(labels in multiset(1), seed in 0u64..u64::MAX) {
            let mut want = labels.clone();
            want.sort_unstable();
            let rng = &mut StdRng::seed_from_u64(seed);
            for _ in 0..4 {
                let mut shuffled = labels.clone();
                shuffled.shuffle(rng);
                let ncuts = rng.gen_range(0..shuffled.len());
                let mut cuts: Vec<usize> =
                    (0..ncuts).map(|_| rng.gen_range(1..shuffled.len())).collect();
                cuts.extend([0, shuffled.len()]);
                cuts.sort_unstable();
                cuts.dedup();
                let mut bags: Vec<LabelBag> = cuts
                    .windows(2)
                    .map(|w| {
                        let piece = shuffled[w[0]..w[1]].iter().map(|&l| LabelBag::one(l));
                        piece.reduce(LabelBag::merge).unwrap()
                    })
                    .collect();
                while bags.len() > 1 {
                    let a = bags.swap_remove(rng.gen_range(0..bags.len()));
                    let b = bags.swap_remove(rng.gen_range(0..bags.len()));
                    bags.push(a.merge(b));
                }
                let bag = bags.pop().unwrap();
                prop_assert_eq!(contents(&bag), want.clone());
                prop_assert_eq!(Some(bag.mode()), reference(&labels));
            }
        }
    }
}
