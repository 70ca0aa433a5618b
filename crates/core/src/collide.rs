//! §6.2 — colliding with kernel addresses: brute force, collision
//! collection, and recovery of the cross-privilege BTB functions
//! (**Figure 7**).
//!
//! The paper's procedure: allocate a kernel address `K` (a kernel-module
//! function of nops + return), make it observable, then find user
//! addresses whose BTB entries serve predictions at `K`. Brute-forcing
//! bit-flip patterns fails on Zen 3 (every function folds `b47`, so a
//! collision needs 13+ coordinated flips); generating *random* colliding
//! addresses and solving for consistent XOR functions succeeds. We
//! replace the paper's Z3 with GF(2) elimination (`phantom-gf2`), which
//! is exact for XOR-linear functions.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use phantom_bpu::{BtbScheme, SignatureTable};
use phantom_gf2::{recover_functions, RecoveredFunction, RecoveryConfig};
use phantom_mem::VirtAddr;

/// A behavioural collision oracle: "does training a branch at `user`
/// make the predictor serve it at `kernel`?" — what the paper measures
/// with performance counters and timing, per candidate.
pub trait CollisionOracle {
    /// Test one (user, kernel) address pair.
    fn collides(&mut self, user: VirtAddr, kernel: VirtAddr) -> bool;
}

/// A fast oracle over a bare BTB: it answers whether a fresh BTB,
/// trained once at `user`, serves a prediction at `kernel`. That lookup
/// hits exactly when the two addresses share their page offset and fold
/// signature — the BTB's own alias criterion, whatever the scheme's ways
/// or privilege tagging, since neither enters a lookup after a single
/// training. The oracle evaluates that criterion directly on the
/// scheme's compiled [`SignatureTable`] and caches the last kernel
/// address's signature. Speed matters: random collisions occur at rate
/// `2^-12`, so the §6.2 search makes thousands of calls per collider. A
/// property test pins the oracle to the train-then-lookup round trip on
/// a live [`phantom_bpu::Btb`].
#[derive(Debug)]
pub struct BtbOracle {
    table: SignatureTable,
    /// The last kernel address probed and its signature. Signatures are
    /// linear, so address 0 signs to 0 and the cache starts out valid.
    kernel: (VirtAddr, u32),
}

impl BtbOracle {
    /// Oracle over the given BTB scheme.
    pub fn new(scheme: BtbScheme) -> BtbOracle {
        BtbOracle {
            table: scheme.family.signature_table(),
            kernel: (VirtAddr::new(0), 0),
        }
    }
}

impl CollisionOracle for BtbOracle {
    // Inlined into a caller generic over the oracle (the
    // [`collisions`] stream), so the sampler's per-candidate check is a
    // few table loads rather than a call.
    #[inline]
    fn collides(&mut self, user: VirtAddr, kernel: VirtAddr) -> bool {
        if user.page_offset() != kernel.page_offset() {
            return false;
        }
        if self.kernel.0 != kernel {
            self.kernel = (kernel, self.table.signature(kernel));
        }
        self.table.signature(user) == self.kernel.1
    }
}

/// Outcome of the brute-force search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BruteForceOutcome {
    /// Patterns (XOR masks over bits 12–47 plus the canonical high bits)
    /// that produced collisions.
    pub patterns: Vec<u64>,
    /// How many candidate patterns were tested.
    pub tested: u64,
}

/// Brute force §6.2-style: flip up to `max_flips` bits of `K` (among
/// bits 12–46, always flipping `b47` and the sign-extension bits to land
/// in user space) and test each pattern. On Zen 3/4 this fails for small
/// `max_flips` — every fold function involves `b47`, so clearing it
/// disturbs all twelve functions at once.
pub fn brute_force<O: CollisionOracle + ?Sized>(
    oracle: &mut O,
    kernel: VirtAddr,
    max_flips: u32,
) -> BruteForceOutcome {
    // Flipping into user space: clear bits 63..47.
    let to_user = 0xffff_8000_0000_0000u64 & kernel.raw();
    let mut patterns = Vec::new();
    let mut tested = 0;

    // Enumerate subsets of bits 12..=46 with |S| <= max_flips.
    let bits: Vec<u32> = (12..47).collect();
    let mut stack: Vec<(usize, u64, u32)> = vec![(0, 0, 0)];
    while let Some((idx, mask, used)) = stack.pop() {
        let pattern = to_user | mask;
        tested += 1;
        if oracle.collides(VirtAddr::new(kernel.raw() ^ pattern), kernel) {
            patterns.push(pattern);
        }
        if used < max_flips {
            for (i, &b) in bits.iter().enumerate().skip(idx) {
                stack.push((i + 1, mask | (1 << b), used + 1));
            }
        }
    }
    BruteForceOutcome { patterns, tested }
}

/// The §6.2 collision sampler as a lazy stream: random user-space
/// addresses that collide with `K`, in acceptance order. Each keeps
/// `K`'s low 12 bits (the paper shrinks the search space the same way)
/// and randomizes bits 12–46; the stream is a pure function of
/// `(oracle, kernel, seed)`. Generic over the oracle, so a concrete
/// [`BtbOracle`] is called without dynamic dispatch per candidate.
///
/// Every prefix of the stream is a valid sample, so a caller that can
/// decide from fewer collisions stops pulling early.
pub fn collisions<O: CollisionOracle + ?Sized>(
    oracle: &mut O,
    kernel: VirtAddr,
    seed: u64,
) -> impl Iterator<Item = u64> + '_ {
    let mut rng = StdRng::seed_from_u64(seed);
    let low12 = kernel.raw() & 0xfff;
    std::iter::from_fn(move || loop {
        let random_mid: u64 = rng.gen::<u64>() & 0x0000_7fff_ffff_f000;
        let candidate = VirtAddr::new(random_mid | low12);
        if oracle.collides(candidate, kernel) {
            return Some(candidate.raw());
        }
    })
}

/// The first `count` addresses of [`collisions`]: the fixed-size sample
/// Figure 7 solves.
pub fn collect_collisions<O: CollisionOracle + ?Sized>(
    oracle: &mut O,
    kernel: VirtAddr,
    count: usize,
    seed: u64,
) -> Vec<u64> {
    collisions(oracle, kernel, seed).take(count).collect()
}

/// The full Figure 7 reproduction: collisions against several kernel
/// addresses, solved into a bounded-weight basis of XOR functions.
#[derive(Debug, Clone)]
pub struct Figure7 {
    /// The recovered functions (weight ≤ 4, like the paper's `n = 4`).
    pub functions: Vec<RecoveredFunction>,
    /// Collision samples used per kernel address.
    pub samples_per_address: usize,
    /// The two XOR collision patterns the paper publishes
    /// (`0xffffbff800000000` and `0xffff8003ff800000`), re-validated
    /// against the recovered functions.
    pub paper_patterns_hold: bool,
}

/// Recover the Zen 3/4 cross-privilege BTB functions from behavioural
/// collisions only.
pub fn recover_figure7<O: CollisionOracle + ?Sized>(
    oracle: &mut O,
    kernel_addresses: &[VirtAddr],
    samples_per_address: usize,
    seed: u64,
) -> Figure7 {
    let collisions: Vec<(u64, Vec<u64>)> = kernel_addresses
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            (
                k.raw(),
                collect_collisions(oracle, k, samples_per_address, seed ^ i as u64),
            )
        })
        .collect();
    let functions = recover_functions(&collisions, RecoveryConfig::default());

    // §6.2's sanity check: the two published patterns must preserve every
    // recovered function.
    let paper_patterns_hold = [0xffff_bff8_0000_0000u64, 0xffff_8003_ff80_0000]
        .iter()
        .all(|&p| functions.iter().all(|f| f.eval(p) == 0));

    Figure7 {
        functions,
        samples_per_address,
        paper_patterns_hold,
    }
}

/// Derive a usable user⇄kernel XOR pattern from recovered functions: a
/// pattern that flips `b47` (and the canonical upper bits) while keeping
/// every function's parity — what the exploits use to choose training
/// addresses ("to create collisions, we use the higher bits").
pub fn collision_pattern(functions: &[RecoveredFunction]) -> Option<u64> {
    let mut pattern: u64 = 0xffff_8000_0000_0000;
    for _ in 0..64 {
        let violated: Vec<&RecoveredFunction> =
            functions.iter().filter(|f| f.eval(pattern) == 1).collect();
        if violated.is_empty() {
            return Some(pattern);
        }
        let f = violated[0];
        let bit = f
            .bits()
            .into_iter()
            .find(|&b| b < 47 && pattern >> b & 1 == 0)?;
        pattern |= 1 << bit;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    use phantom_bpu::Btb;
    use phantom_gf2::BitMatrix;
    use phantom_isa::BranchKind;
    use phantom_mem::PrivilegeLevel;
    use phantom_pipeline::spec::mutate::mutate_spec;
    use phantom_pipeline::UarchSpec;
    use proptest::prelude::*;

    const K: u64 = 0xffff_ffff_8124_6ac0;

    /// A builtin BTB scheme (Intel's privilege-tagged ones included) or
    /// a seeded mutant of one.
    fn arb_scheme() -> impl Strategy<Value = BtbScheme> {
        (0..8usize, any::<u64>(), any::<bool>()).prop_map(|(i, seed, mutate)| {
            let base = UarchSpec::builtins().swap_remove(i);
            let spec = if mutate {
                mutate_spec(&base, seed).unwrap_or(base)
            } else {
                base
            };
            spec.btb.scheme()
        })
    }

    /// The reference the oracle is pinned to: train a fresh BTB at
    /// `user`, then look up `kernel`.
    fn train_then_lookup(scheme: &BtbScheme, user: VirtAddr, kernel: VirtAddr) -> bool {
        let mut btb = Btb::new(scheme.clone());
        btb.train(
            user,
            BranchKind::Indirect,
            VirtAddr::new(0x30_0000),
            PrivilegeLevel::User,
            0,
        );
        btb.lookup(kernel).is_some()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The oracle answers exactly what a live BTB answers. Random
        /// pairs alias only at 2^-12, so most pairs are forced: `k ^ v`
        /// for `v` a combination of the folds' orthogonal basis, either
        /// over bits 12–63 only (an alias) or over all bits (same
        /// signature, page offset free to differ), or `k` with only its
        /// bits 12–63 redrawn (same page offset).
        #[test]
        fn oracle_matches_train_then_lookup(
            scheme in arb_scheme(),
            pairs in proptest::collection::vec((any::<u64>(), any::<u64>(), 0u8..4), 1..24),
        ) {
            let masks: Vec<u64> = scheme.family.fns().iter().map(|f| f.mask).collect();
            let ortho = BitMatrix::from_rows(64, &masks).orthogonal_basis();
            let page_ortho: Vec<u64> = ortho.iter().copied().filter(|v| v & 0xfff == 0).collect();
            let combine = |basis: &[u64], k: u64, r: u64| {
                basis
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| r >> i & 1 == 1)
                    .fold(k, |u, (_, v)| u ^ v)
            };
            let mut oracle = BtbOracle::new(scheme.clone());
            for (k, r, kind) in pairs {
                let user = match kind {
                    0 => combine(&page_ortho, k, r),
                    1 => combine(&ortho, k, r),
                    2 => (r & !0xfff) | (k & 0xfff),
                    _ => r,
                };
                let (user, kernel) = (VirtAddr::new(user), VirtAddr::new(k));
                let got = oracle.collides(user, kernel);
                prop_assert_eq!(got, train_then_lookup(&scheme, user, kernel), "{} vs {}", user, kernel);
                prop_assert!(got || kind != 0, "forced alias {} of {} missed", user, kernel);
            }
        }

        /// The stream, pulled through a concrete oracle, yields what the
        /// fixed-size sampler collects through `dyn`, and a shorter
        /// sample is a prefix of a longer one: a caller that stops early
        /// saw exactly the head of the full sample.
        #[test]
        fn collision_stream_matches_the_collected_sample(
            scheme in arb_scheme(),
            kernel in any::<u64>(),
            seed in any::<u64>(),
            n in 1usize..12,
        ) {
            // A user-half target, as discover samples: every signature
            // it has is reachable by flipping bits 12–46.
            let kernel = VirtAddr::new(kernel & 0x7fff_ffff_ffff);
            let streamed: Vec<u64> = collisions(&mut BtbOracle::new(scheme.clone()), kernel, seed)
                .take(n)
                .collect();
            let mut oracle = BtbOracle::new(scheme);
            let collected = collect_collisions(&mut oracle, kernel, n + 4, seed);
            prop_assert_eq!(&streamed[..], &collected[..n]);
            for &u in &collected {
                prop_assert!(oracle.collides(VirtAddr::new(u), kernel));
            }
        }

        /// The compiled table signs every address, bits 48–63 included,
        /// as the fold family does.
        #[test]
        fn signature_table_matches_the_family(scheme in arb_scheme(), addr in any::<u64>()) {
            let table = scheme.family.signature_table();
            for a in (0..64).map(|b| 1u64 << b).chain([addr, addr | 0xffff << 48]) {
                prop_assert_eq!(
                    table.signature(VirtAddr::new(a)),
                    scheme.family.signature(VirtAddr::new(a)),
                    "{:#x}",
                    a
                );
            }
        }
    }

    #[test]
    fn collision_sampler_stream_is_pinned() {
        // Discover's oracle verdicts and corpus depend on this exact
        // acceptance order of the seeded random search.
        let got = collect_collisions(
            &mut BtbOracle::new(BtbScheme::zen34()),
            VirtAddr::new(0x40_0ac0),
            32,
            42,
        );
        let want: [u64; 32] = [
            0x5f19018f0ac0,
            0x184dd1855ac0,
            0x56553e05bac0,
            0x2e51af74aac0,
            0x1de14e09ac0,
            0x1cecb8d76ac0,
            0x46ff16b79ac0,
            0x2cc18b747ac0,
            0xbcff2f4eac0,
            0x2301863b6ac0,
            0x6e10b1250ac0,
            0x547c6b92cac0,
            0x5f41574a3ac0,
            0x716f32824ac0,
            0x4727e2790ac0,
            0x6722a34d1ac0,
            0x3c4b848ac0,
            0x381819f98ac0,
            0x368af2d9aac0,
            0x5a75670cac0,
            0x47be19e62ac0,
            0x2b0cc6e76ac0,
            0x2f7ee4c13ac0,
            0x78162e5afac0,
            0x7123ca0d8ac0,
            0x5609bf8dfac0,
            0x667a62805ac0,
            0x6146e14f5ac0,
            0x64b67e435ac0,
            0x3ae2715dfac0,
            0xd40080dcac0,
            0x76c11c270ac0,
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn brute_force_fails_on_zen34_small_budgets() {
        // The paper: "this approach does not yield any results … when
        // flipping up to 6 bits". Exhausting 6 flips over 35 bits is
        // ~2M oracle calls; 3 flips (~7k) already demonstrates the
        // structural point — every fold involves b47.
        let mut oracle = BtbOracle::new(BtbScheme::zen34());
        let out = brute_force(&mut oracle, VirtAddr::new(K), 3);
        assert!(
            out.patterns.is_empty(),
            "no small collision pattern on Zen 3"
        );
        assert!(out.tested > 7000);
    }

    #[test]
    fn brute_force_succeeds_on_zen12() {
        // On Zen 1/2 nothing above bit 35 is folded: flipping only the
        // high bits (zero extra flips) already collides — why Retbleed
        // worked there.
        let mut oracle = BtbOracle::new(BtbScheme::zen12());
        let out = brute_force(&mut oracle, VirtAddr::new(K), 0);
        assert_eq!(out.patterns.len(), 1);
    }

    #[test]
    fn random_collisions_occur_and_verify() {
        let mut oracle = BtbOracle::new(BtbScheme::zen34());
        let got = collect_collisions(&mut oracle, VirtAddr::new(K), 4, 7);
        assert_eq!(got.len(), 4);
        for &u in &got {
            assert!(!VirtAddr::new(u).is_kernel_half());
            assert_eq!(u & 0xfff, K & 0xfff);
            assert!(oracle.collides(VirtAddr::new(u), VirtAddr::new(K)));
        }
    }

    #[test]
    fn figure7_recovery_matches_ground_truth() {
        let mut oracle = BtbOracle::new(BtbScheme::zen34());
        let ks = [VirtAddr::new(K), VirtAddr::new(0xffff_ffff_9230_0ac0)];
        let fig7 = recover_figure7(&mut oracle, &ks, 24, 11);
        assert_eq!(fig7.functions.len(), 12, "rank-12 family");
        assert!(fig7.paper_patterns_hold);
        // Every recovered function lies in the planted Figure 7 span.
        let truth = phantom_bpu::FoldFamily::zen34();
        let truth_matrix = phantom_gf2::BitMatrix::from_rows(
            48,
            &truth.fns().iter().map(|f| f.mask).collect::<Vec<_>>(),
        );
        for f in &fig7.functions {
            assert!(truth_matrix.in_row_space(f.mask), "{f}");
        }
    }

    #[test]
    fn derived_pattern_actually_collides() {
        let mut oracle = BtbOracle::new(BtbScheme::zen34());
        let fig7 = recover_figure7(&mut oracle, &[VirtAddr::new(K)], 30, 3);
        let pattern = collision_pattern(&fig7.functions).expect("pattern exists");
        let user = VirtAddr::new(K ^ pattern);
        assert!(!user.is_kernel_half());
        assert!(
            oracle.collides(user, VirtAddr::new(K)),
            "pattern {pattern:#x}"
        );
    }
}
