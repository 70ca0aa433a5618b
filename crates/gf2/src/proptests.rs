//! Property-based tests for the GF(2) solver.

use proptest::prelude::*;

use crate::matrix::{parity, BitMatrix};
use crate::recover::{recover_functions, verify_functions, RecoveryConfig};
use crate::span::Span;

/// The row-echelon elimination `BitMatrix` ran before it kept a
/// [`Span`]: reduce each row against the basis in descending order,
/// keep a non-zero remainder, re-sort. `BitMatrix` now answers through
/// `Span`, so this is the independent reference.
fn reference_basis(rows: &[u64]) -> Vec<u64> {
    let mut basis: Vec<u64> = Vec::new();
    for &row in rows {
        let mut r = row;
        for &b in &basis {
            let lead = 63 - b.leading_zeros();
            if r >> lead & 1 == 1 {
                r ^= b;
            }
        }
        if r != 0 {
            basis.push(r);
            basis.sort_unstable_by_key(|&x| std::cmp::Reverse(x));
        }
    }
    basis
}

fn reference_contains(basis: &[u64], v: u64) -> bool {
    basis.iter().fold(v, |r, &b| {
        let lead = 63 - b.leading_zeros();
        if r >> lead & 1 == 1 {
            r ^ b
        } else {
            r
        }
    }) == 0
}

proptest! {
    /// `Span` (and so `BitMatrix::rank`, `in_row_space` and
    /// `row_basis`) agrees with the reference elimination: same
    /// dimension, same membership for members and random probes, and
    /// the same echelon rows, which `orthogonal_basis` and everything
    /// built on it read.
    #[test]
    fn span_matches_the_reference_elimination(
        rows in proptest::collection::vec(any::<u64>(), 0..24),
        gens in proptest::collection::vec(any::<u64>(), 6),
        low_rank in any::<bool>(),
        picks in any::<u32>(),
        probes in proptest::collection::vec(any::<u64>(), 1..8),
    ) {
        // Half the cases draw rows from the span of six generators, so
        // dependent rows are common.
        let rows: Vec<u64> = if low_rank {
            rows.iter()
                .map(|r| gens.iter().enumerate().filter(|(i, _)| r >> i & 1 == 1).fold(0, |a, (_, g)| a ^ g))
                .collect()
        } else {
            rows
        };
        let reference = reference_basis(&rows);
        let mut span = Span::new();
        for (i, &r) in rows.iter().enumerate() {
            let before = span.dim();
            prop_assert_eq!(span.insert(r), span.dim() == before + 1, "row {}", i);
        }
        let m = BitMatrix::from_rows(64, &rows);
        prop_assert_eq!(span.dim() as usize, reference.len());
        prop_assert_eq!(m.rank(), span.dim());
        prop_assert_eq!(m.row_basis(), reference.clone());
        let combo = rows.iter().enumerate().filter(|(i, _)| picks >> (i % 32) & 1 == 1).fold(0, |a, (_, r)| a ^ r);
        prop_assert!(span.contains(combo));
        for v in probes.into_iter().chain([combo, 0]) {
            let want = reference_contains(&reference, v);
            prop_assert_eq!(span.contains(v), want, "{:#x}", v);
            prop_assert_eq!(m.in_row_space(v), want, "{:#x}", v);
        }
    }

    /// rank <= min(rows, cols), and appending a dependent row never
    /// changes the rank.
    #[test]
    fn rank_bounds_and_dependence(rows in proptest::collection::vec(any::<u64>(), 1..20)) {
        let m = BitMatrix::from_rows(48, &rows);
        let r = m.rank();
        prop_assert!(r as usize <= rows.len());
        prop_assert!(r <= 48);
        // Append the XOR of the first two rows (dependent).
        if rows.len() >= 2 {
            let mut m2 = m.clone();
            m2.push_row(rows[0] ^ rows[1]);
            prop_assert_eq!(m2.rank(), r);
        }
    }

    /// Every orthogonal-basis vector is orthogonal to every row, and
    /// dim(row space) + dim(orthogonal) == cols.
    #[test]
    fn orthogonal_complement_dimensions(
        cols in 1u32..48,
        rows in proptest::collection::vec(any::<u64>(), 0..16),
    ) {
        let m = BitMatrix::from_rows(cols, &rows);
        let ortho = m.orthogonal_basis();
        prop_assert_eq!(ortho.len() as u32 + m.rank(), cols);
        for &v in &ortho {
            for &row in m.rows() {
                prop_assert_eq!(parity(v & row), 0);
            }
        }
        // Orthogonal vectors are independent.
        let om = BitMatrix::from_rows(cols, &ortho);
        prop_assert_eq!(om.rank() as usize, ortho.len());
    }

    /// in_row_space is closed under XOR of rows.
    #[test]
    fn row_space_closure(rows in proptest::collection::vec(any::<u64>(), 2..10), picks in any::<u16>()) {
        let m = BitMatrix::from_rows(40, &rows);
        let mask = (1u64 << 40) - 1;
        let mut combo = 0u64;
        for (i, &r) in rows.iter().enumerate() {
            if (picks >> i) & 1 == 1 {
                combo ^= r & mask;
            }
        }
        prop_assert!(m.in_row_space(combo));
    }

    /// Recovery soundness: whatever is recovered verifies against the
    /// input collision data.
    #[test]
    fn recovery_is_sound(
        k in any::<u64>(),
        seeds in proptest::collection::vec(any::<u64>(), 1..20),
    ) {
        // Plant a random 3-function family over bits 12..=29.
        let f1 = (1u64 << 12) | (1 << 18) | (1 << 24);
        let f2 = (1u64 << 13) | (1 << 19) | (1 << 25);
        let f3 = (1u64 << 14) | (1 << 20);
        let fam = [f1, f2, f3];
        // Colliders: differences orthogonal to the family, derived from
        // random seeds projected onto the orthogonal complement.
        let m = BitMatrix::from_rows(30, &fam);
        let ortho: Vec<u64> = m.orthogonal_basis().into_iter()
            .map(|v| v & 0x3fff_f000) // bits 12..=29 only
            .filter(|&v| v != 0)
            .collect();
        let colliders: Vec<u64> = seeds.iter().map(|&s| {
            let mut d = 0u64;
            for (i, &v) in ortho.iter().enumerate() {
                if (s >> (i % 64)) & 1 == 1 {
                    d ^= v;
                }
            }
            k ^ d
        }).collect();
        let cfg = RecoveryConfig { min_bit: 12, max_bit: 29, max_weight: 3 };
        let fns = recover_functions(&[(k, colliders.clone())], cfg);
        prop_assert!(verify_functions(&fns, &[(k, colliders)]));
        // Every kept function is independent of the ones before it.
        let all = BitMatrix::from_rows(64, &fns.iter().map(|f| f.mask).collect::<Vec<_>>());
        prop_assert_eq!(all.rank() as usize, fns.len());
        // The planted functions are always consistent with the data, so
        // each must lie in the span of what a fully-constrained recovery
        // returns — check containment when enough data was provided.
        if seeds.len() >= 10 {
            let rec = BitMatrix::from_rows(30, &fns.iter().map(|f| f.mask).collect::<Vec<_>>());
            for planted in fam {
                if rec.rank() == 3 {
                    prop_assert!(rec.in_row_space(planted));
                }
            }
        }
    }
}
