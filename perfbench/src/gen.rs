//! Seeded inputs: the benchmark suite, novel workload mixes and the daemon
//! request stream.  Everything here is a pure function of `--seed`.

use std::collections::HashSet;

use autoreconf::canonical_shares;
use workloads::{Arith, Blastn, Drr, Frag, Scale, Workload};

/// SplitMix64: tiny, seedable and std-only.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// One independent stream per `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The paper's four workloads at the `Scale::Small` sizes, with every
/// seedable input generator seeded from `seed` (Arith has no input data).
pub fn seeded_suite(seed: u64) -> Vec<Box<dyn Workload + Send + Sync>> {
    let mut rng = Rng::new(seed, 1);
    vec![
        Box::new(Blastn {
            seed: rng.next_u64(),
            ..Blastn::scaled(Scale::Small)
        }),
        Box::new(Drr {
            seed: rng.next_u64(),
            ..Drr::scaled(Scale::Small)
        }),
        Box::new(Frag {
            seed: rng.next_u64(),
            ..Frag::scaled(Scale::Small)
        }),
        Box::new(Arith::scaled(Scale::Small)),
    ]
}

/// Continuous-valued workload mixes that are pairwise distinct after
/// [`canonical_shares`], so every one is a store miss.  (The library's
/// `random_mixes` draws integer weights 0–4 and repeats after a few hundred
/// mixes, which turns "novel" requests into store hits.)
pub struct MixGen {
    rng: Rng,
    seen: HashSet<Vec<u64>>,
}

impl MixGen {
    /// A generator that also never yields any mix in `exclude` (for example
    /// the equal mix a warm-up already stored).
    pub fn new(seed: u64, stream: u64, exclude: &[Vec<f64>]) -> MixGen {
        let mut gen = MixGen {
            rng: Rng::new(seed, stream),
            seen: HashSet::new(),
        };
        for mix in exclude {
            gen.seen.insert(canonical_key(mix));
        }
        gen
    }

    /// The next never-seen mix of `n` weights, each in `[0.05, 1.05)`.
    pub fn next_mix(&mut self, n: usize) -> Vec<f64> {
        loop {
            let mix: Vec<f64> = (0..n).map(|_| 0.05 + self.rng.unit()).collect();
            if self.seen.insert(canonical_key(&mix)) {
                return mix;
            }
        }
    }
}

/// The bit pattern of a mix's canonical shares: equal keys mean the store
/// treats two mixes as the same objective.
pub fn canonical_key(mix: &[f64]) -> Vec<u64> {
    canonical_shares(mix)
        .expect("generated mixes are valid")
        .iter()
        .map(|s| s.to_bits())
        .collect()
}

/// Requests per block of the daemon stream; exactly one per block is novel.
pub const BLOCK: usize = 5;

/// One daemon request of the seeded stream.
#[derive(Clone, Debug, PartialEq)]
pub enum Query {
    /// Per-application optimum of workload `i` (a repeat: already stored).
    Optimize(usize),
    /// Figure 2 sweep of workload `i` (a repeat: already stored).
    Sweep(usize),
    /// Co-optimization for a mix no one has asked for before.
    CoOptimize(Vec<f64>),
}

/// One closed-loop client's request stream: blocks of [`BLOCK`] requests,
/// one novel co-optimization at a seeded position per block and seeded
/// repeat queries elsewhere.
pub struct QueryStream {
    rng: Rng,
    mixes: MixGen,
    workloads: usize,
}

impl QueryStream {
    pub fn new(seed: u64, client: u64, workloads: usize, exclude: &[Vec<f64>]) -> QueryStream {
        QueryStream {
            rng: Rng::new(seed, 100 + 2 * client),
            mixes: MixGen::new(seed, 101 + 2 * client, exclude),
            workloads,
        }
    }

    /// The next block of [`BLOCK`] queries.
    pub fn next_block(&mut self) -> Vec<Query> {
        let novel_at = self.rng.below(BLOCK as u64) as usize;
        (0..BLOCK)
            .map(|i| {
                if i == novel_at {
                    Query::CoOptimize(self.mixes.next_mix(self.workloads))
                } else {
                    let w = self.rng.below(self.workloads as u64) as usize;
                    if self.rng.below(2) == 0 {
                        Query::Optimize(w)
                    } else {
                        Query::Sweep(w)
                    }
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_deterministic_per_seed_and_differs_across_seeds() {
        let fps = |seed| {
            seeded_suite(seed)
                .iter()
                .map(|w| w.fingerprint())
                .collect::<Vec<_>>()
        };
        assert_eq!(fps(7), fps(7));
        let (a, b) = (fps(7), fps(8));
        assert_ne!(
            a[..3],
            b[..3],
            "seeded workloads take their inputs from the seed"
        );
        assert_eq!(a[3], b[3], "Arith has no input data");
    }

    #[test]
    fn mixes_are_deterministic_per_seed() {
        let draw = |seed| {
            let mut g = MixGen::new(seed, 3, &[]);
            (0..50).map(|_| g.next_mix(4)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }

    #[test]
    fn mixes_are_continuous_and_canonically_distinct() {
        let equal = vec![1.0; 4];
        let mut g = MixGen::new(5, 3, std::slice::from_ref(&equal));
        let mut keys = HashSet::new();
        keys.insert(canonical_key(&equal));
        for _ in 0..20_000 {
            let mix = g.next_mix(4);
            assert!(mix.iter().all(|w| (0.05..1.05).contains(w)));
            assert!(
                keys.insert(canonical_key(&mix)),
                "mix {mix:?} repeats a canonical mix"
            );
        }
        // far more distinct vectors than integer weights 0..=4 could give
        assert!(keys.len() > 5usize.pow(4));
    }

    #[test]
    fn every_block_has_exactly_one_novel_query() {
        let mut s = QueryStream::new(9, 0, 4, &[]);
        let mut t = QueryStream::new(9, 0, 4, &[]);
        for _ in 0..200 {
            let block = s.next_block();
            assert_eq!(block, t.next_block(), "stream is deterministic per seed");
            assert_eq!(block.len(), BLOCK);
            assert_eq!(
                block
                    .iter()
                    .filter(|q| matches!(q, Query::CoOptimize(_)))
                    .count(),
                1
            );
        }
    }

    #[test]
    fn client_streams_do_not_share_mixes() {
        let mut keys = HashSet::new();
        for client in 0..2 {
            let mut s = QueryStream::new(4, client, 4, &[]);
            for _ in 0..500 {
                for q in s.next_block() {
                    if let Query::CoOptimize(mix) = q {
                        assert!(keys.insert(canonical_key(&mix)));
                    }
                }
            }
        }
    }
}
