//! XOR-function recovery from collision lists — the §6.2 procedure with
//! Gaussian elimination standing in for the Z3 SMT solver.

use crate::matrix::{parity, BitMatrix};
use crate::span::Span;

/// Configuration for [`recover_functions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Lowest address bit considered (the paper ignores the low 12
    /// untranslated bits).
    pub min_bit: u32,
    /// Highest address bit considered (47 — the canonical boundary).
    pub max_bit: u32,
    /// Maximum number of coefficients per function; the paper gradually
    /// increased `n` and reports results for `n = 4`.
    pub max_weight: u32,
}

impl Default for RecoveryConfig {
    fn default() -> RecoveryConfig {
        RecoveryConfig {
            min_bit: 12,
            max_bit: 47,
            max_weight: 4,
        }
    }
}

/// One recovered XOR function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RecoveredFunction {
    /// Mask of selected address bits.
    pub mask: u64,
}

impl RecoveredFunction {
    /// Number of selected bits.
    pub fn weight(&self) -> u32 {
        self.mask.count_ones()
    }

    /// Selected bit positions, descending (paper notation
    /// `b47 ^ b35 ^ b23`).
    pub fn bits(&self) -> Vec<u32> {
        (0..64).rev().filter(|b| self.mask >> b & 1 == 1).collect()
    }

    /// Evaluate on an address.
    pub fn eval(&self, addr: u64) -> u64 {
        parity(addr & self.mask)
    }
}

impl std::fmt::Display for RecoveredFunction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let bits = self.bits();
        for (i, b) in bits.iter().enumerate() {
            if i > 0 {
                write!(f, " ^ ")?;
            }
            write!(f, "b{b}")?;
        }
        if bits.is_empty() {
            write!(f, "0")?;
        }
        Ok(())
    }
}

/// Recover a minimal-weight basis of XOR functions from collision data.
///
/// `collisions` maps each probed kernel address `K` to the list `L_K` of
/// addresses observed to collide with it. Every linear function the BTB
/// uses must satisfy `f(K ^ A) = 0` for all `A ∈ L_K`; the returned
/// functions are a basis of all bounded-weight solutions, found by
/// enumerating candidate masks in increasing weight (the paper's
/// "gradually increase `n`" loop) and keeping those that are independent
/// of the ones already found.
///
/// Returns an empty vector when the data admits no bounded-weight
/// nonzero solution (e.g. too few collisions, so everything is still
/// unconstrained — callers should collect more data).
///
/// # Examples
///
/// ```
/// use phantom_gf2::{recover_functions, RecoveryConfig};
/// // Ground truth: f = b13 ^ b14. Collisions differ only in ways f
/// // cannot see.
/// let k = 0xffff_0000_0000u64;
/// let colliding = vec![k ^ (1 << 13) ^ (1 << 14), k ^ (1 << 20)];
/// let cfg = RecoveryConfig { min_bit: 12, max_bit: 21, max_weight: 2 };
/// let fns = recover_functions(&[(k, colliding)], cfg);
/// assert!(fns.iter().any(|f| f.mask == (1 << 13) | (1 << 14)));
/// ```
pub fn recover_functions(
    collisions: &[(u64, Vec<u64>)],
    cfg: RecoveryConfig,
) -> Vec<RecoveredFunction> {
    let width = cfg.max_bit - cfg.min_bit + 1;
    assert!(width <= 64, "bit range too wide");

    // Difference vectors, shifted down to the considered window.
    let mut diffs = BitMatrix::new(width);
    for (k, list) in collisions {
        for a in list {
            let d = (k ^ a) >> cfg.min_bit;
            let mask = if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            diffs.push_row(d & mask);
        }
    }

    // The solution space is the orthogonal complement of the difference
    // span. We search it for a bounded-weight basis by enumerating masks
    // in increasing weight (paper's incremental `n`), keeping each mask
    // that annihilates all differences and grows the rank.
    let diff_basis = diffs.row_basis();
    let annihilates = |m: u64| diff_basis.iter().all(|&d| parity(m & d) == 0);

    let solution_dim = width as usize - diff_basis.len();
    let mut found: Vec<u64> = Vec::new();
    let mut found_span = Span::new();

    'outer: for weight in 1..=cfg.max_weight {
        // Enumerate all masks of exactly `weight` bits over `width`
        // columns in lexicographic order (Gosper's hack).
        if weight > width {
            break;
        }
        let limit: u64 = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let mut m: u64 = (1u64 << weight) - 1;
        loop {
            if annihilates(m) && found_span.insert(m) {
                found.push(m);
                if found.len() == solution_dim {
                    break 'outer;
                }
            }
            // Next mask with the same popcount.
            let c = m & m.wrapping_neg();
            let r = m + c;
            if r > limit || r == 0 {
                break;
            }
            m = (((r ^ m) >> 2) / c) | r;
            if m > limit {
                break;
            }
        }
    }

    let mut out: Vec<RecoveredFunction> = found
        .into_iter()
        .map(|m| RecoveredFunction {
            mask: m << cfg.min_bit,
        })
        .collect();
    out.sort_by_key(|f| (f.weight(), f.mask));
    out
}

/// Verify that a set of recovered functions is consistent with all the
/// collision data (every collider agrees with its kernel address on
/// every function).
#[cfg(test)]
pub fn verify_functions(functions: &[RecoveredFunction], collisions: &[(u64, Vec<u64>)]) -> bool {
    collisions.iter().all(|(k, list)| {
        list.iter()
            .all(|a| functions.iter().all(|f| f.eval(*k) == f.eval(*a)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Plant the paper's Figure 7 family and recover it from synthetic
    /// collision lists.
    fn figure7_masks() -> Vec<u64> {
        let of = |bits: &[u32]| bits.iter().fold(0u64, |m, b| m | (1 << b));
        vec![
            of(&[47, 35, 23]),
            of(&[47, 36, 24, 12]),
            of(&[47, 37, 25, 13]),
            of(&[47, 38, 26, 14]),
            of(&[47, 39, 26, 13]),
            of(&[47, 39, 27, 15]),
            of(&[47, 40, 28, 16]),
            of(&[47, 41, 29, 17]),
            of(&[47, 42, 30, 18]),
            of(&[47, 43, 31, 19]),
            of(&[47, 44, 32, 20]),
            of(&[47, 45, 33, 21]),
        ]
    }

    /// Deterministic pseudo-random colliding addresses: enumerate the
    /// nullspace of the planted family.
    fn synthetic_collisions(k: u64, count: usize) -> Vec<u64> {
        let masks = figure7_masks();
        let fam = BitMatrix::from_rows(48, &masks);
        let ortho = fam.orthogonal_basis(); // vectors invisible to all fns
                                            // Only perturb bits 12..=47 (low bits stay equal per the paper).
        let usable: Vec<u64> = ortho
            .into_iter()
            .map(|v| v & 0x0000_ffff_ffff_f000)
            .filter(|&v| v != 0)
            .collect();
        let mut out = Vec::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        while out.len() < count {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let mut d = 0u64;
            for (i, &v) in usable.iter().enumerate() {
                if (state >> i) & 1 == 1 {
                    d ^= v;
                }
            }
            if d != 0 {
                out.push(k ^ d);
            }
        }
        out
    }

    #[test]
    fn recovers_a_basis_of_the_figure7_space() {
        let k = 0xffff_ffff_8124_6000u64;
        let colliders = synthetic_collisions(k, 64);
        let fns = recover_functions(&[(k, colliders.clone())], RecoveryConfig::default());
        // Exactly 12 independent functions of weight <= 4.
        assert_eq!(fns.len(), 12, "rank-12 solution space");
        for f in &fns {
            assert!(f.weight() <= 4);
        }
        // They verify against the data…
        assert!(verify_functions(&fns, &[(k, colliders)]));
        // …and span the same space as the ground truth.
        let truth = BitMatrix::from_rows(48, &figure7_masks());
        for f in &fns {
            assert!(
                truth.in_row_space(f.mask),
                "recovered {f} not in planted space"
            );
        }
        let recovered = BitMatrix::from_rows(48, &fns.iter().map(|f| f.mask).collect::<Vec<_>>());
        assert_eq!(recovered.rank(), 12);
    }

    #[test]
    fn too_little_data_underconstrains() {
        let k = 0xffff_ffff_8124_6000u64;
        let colliders = synthetic_collisions(k, 2);
        let fns = recover_functions(&[(k, colliders.clone())], RecoveryConfig::default());
        // With only 2 difference vectors the solution space has dimension
        // >= 34; whatever is found must still verify.
        assert!(verify_functions(&fns, &[(k, colliders)]));
        assert!(
            fns.len() > 12,
            "underconstrained: too many spurious functions"
        );
    }

    #[test]
    fn weight_bound_is_respected() {
        let k = 0x8000_0000_0000u64; // bit 47 set
        let colliders = synthetic_collisions(k, 64);
        for w in 1..=4u32 {
            let cfg = RecoveryConfig {
                max_weight: w,
                ..RecoveryConfig::default()
            };
            for f in recover_functions(&[(k, colliders.clone())], cfg) {
                assert!(f.weight() <= w);
            }
        }
    }

    #[test]
    fn display_matches_paper_notation() {
        let f = RecoveredFunction {
            mask: (1 << 47) | (1 << 35) | (1 << 23),
        };
        assert_eq!(f.to_string(), "b47 ^ b35 ^ b23");
    }

    #[test]
    fn multiple_kernel_addresses_combine() {
        // Different K values: all constraints pool into one system.
        let k1 = 0xffff_ffff_8124_6000u64;
        let k2 = 0xffff_ffff_a200_0000u64;
        let c1 = synthetic_collisions(k1, 32);
        let c2 = synthetic_collisions(k2, 32);
        let fns = recover_functions(
            &[(k1, c1.clone()), (k2, c2.clone())],
            RecoveryConfig::default(),
        );
        assert_eq!(fns.len(), 12);
        assert!(verify_functions(&fns, &[(k1, c1), (k2, c2)]));
    }
}
