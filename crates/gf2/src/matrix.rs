//! Bit-packed matrices over GF(2).

use std::fmt;

use crate::span::Span;

/// A matrix over GF(2), each row packed into a `u64` (so up to 64
/// columns — addresses have 48 meaningful bits, plenty).
///
/// # Examples
///
/// ```
/// use phantom_gf2::BitMatrix;
/// let m = BitMatrix::from_rows(3, &[0b001, 0b010, 0b011]);
/// assert_eq!(m.rank(), 2);
/// assert!(m.in_row_space(0b011));
/// assert!(!m.in_row_space(0b100));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMatrix {
    cols: u32,
    rows: Vec<u64>,
    /// The row space, grown row by row.
    span: Span,
}

impl BitMatrix {
    /// An empty matrix with `cols` columns.
    ///
    /// # Panics
    ///
    /// Panics if `cols > 64`.
    pub fn new(cols: u32) -> BitMatrix {
        assert!(cols <= 64, "at most 64 columns supported");
        BitMatrix {
            cols,
            rows: Vec::new(),
            span: Span::new(),
        }
    }

    /// Build from explicit row bit-patterns.
    pub fn from_rows(cols: u32, rows: &[u64]) -> BitMatrix {
        let mut m = BitMatrix::new(cols);
        for &r in rows {
            m.push_row(r);
        }
        m
    }

    /// Append a row.
    pub fn push_row(&mut self, row: u64) {
        let mask = if self.cols == 64 {
            u64::MAX
        } else {
            (1u64 << self.cols) - 1
        };
        self.rows.push(row & mask);
        self.span.insert(row & mask);
    }

    /// The rows.
    #[cfg(test)]
    pub fn rows(&self) -> &[u64] {
        &self.rows
    }

    /// Row-echelon basis of the row space (pivot rows, descending pivot
    /// bit). Each basis row is the first row that grew the rank, reduced
    /// against the pivots before it.
    pub fn row_basis(&self) -> Vec<u64> {
        self.span.basis().collect()
    }

    /// The rank of the matrix.
    pub fn rank(&self) -> u32 {
        self.span.dim()
    }

    /// Whether `v` lies in the row space.
    pub fn in_row_space(&self, v: u64) -> bool {
        self.span.contains(v)
    }

    /// A basis of the *nullspace dual*: all vectors `m` with
    /// `parity(m & row) == 0` for every row. (Equivalently: a basis of
    /// the orthogonal complement of the row space.)
    pub fn orthogonal_basis(&self) -> Vec<u64> {
        // Build the row space basis in reduced form, track pivot columns,
        // then read off the standard nullspace construction of the
        // transpose-free formulation: we want the kernel of the linear
        // map m -> (parity(m & row_i))_i, i.e. the nullspace of the
        // matrix whose rows are our rows.
        let mut basis = self.row_basis();
        // Reduce fully (each pivot bit appears in exactly one basis row).
        for i in 0..basis.len() {
            let lead = 63 - basis[i].leading_zeros();
            for j in 0..basis.len() {
                if i != j && (basis[j] >> lead) & 1 == 1 {
                    basis[j] ^= basis[i];
                }
            }
        }
        let pivots: Vec<u32> = basis.iter().map(|&b| 63 - b.leading_zeros()).collect();
        let is_pivot = |c: u32| pivots.contains(&c);

        let mut out = Vec::new();
        for free in 0..self.cols {
            if is_pivot(free) {
                continue;
            }
            // Set the free column to 1; solve the pivot columns so that
            // every basis row has even parity.
            let mut v = 1u64 << free;
            for (&b, &p) in basis.iter().zip(&pivots) {
                if (b >> free) & 1 == 1 {
                    v |= 1u64 << p;
                }
            }
            out.push(v);
        }
        out
    }
}

impl fmt::Display for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in &self.rows {
            for c in (0..self.cols).rev() {
                write!(f, "{}", (row >> c) & 1)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Parity (XOR of bits) of `x`.
pub fn parity(x: u64) -> u64 {
    u64::from(x.count_ones() & 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_of_identity() {
        let m = BitMatrix::from_rows(4, &[0b0001, 0b0010, 0b0100, 0b1000]);
        assert_eq!(m.rank(), 4);
    }

    #[test]
    fn rank_with_dependent_rows() {
        let m = BitMatrix::from_rows(4, &[0b0011, 0b0110, 0b0101, 0b1111]);
        // 0b0101 = 0b0011 ^ 0b0110; rank is 3 (0b1111 independent).
        assert_eq!(m.rank(), 3);
    }

    #[test]
    fn row_space_membership() {
        let m = BitMatrix::from_rows(5, &[0b00011, 0b01100]);
        assert!(m.in_row_space(0b01111));
        assert!(m.in_row_space(0));
        assert!(!m.in_row_space(0b00001));
        assert!(!m.in_row_space(0b10000));
    }

    #[test]
    fn orthogonal_basis_is_orthogonal_and_complete() {
        let m = BitMatrix::from_rows(6, &[0b000111, 0b111000]);
        let ortho = m.orthogonal_basis();
        // dim(ortho) = cols - rank = 6 - 2 = 4.
        assert_eq!(ortho.len(), 4);
        for &v in &ortho {
            for &row in m.rows() {
                assert_eq!(parity(v & row), 0, "v={v:#b} row={row:#b}");
            }
        }
        // The orthogonal vectors are independent.
        let check = BitMatrix::from_rows(6, &ortho);
        assert_eq!(check.rank(), 4);
    }

    #[test]
    fn orthogonal_of_full_rank_is_empty() {
        let m = BitMatrix::from_rows(3, &[0b001, 0b010, 0b100]);
        assert!(m.orthogonal_basis().is_empty());
    }

    #[test]
    fn rows_are_masked_to_cols() {
        let mut m = BitMatrix::new(4);
        m.push_row(0xFF);
        assert_eq!(m.rows()[0], 0xF);
    }

    #[test]
    fn parity_fn() {
        assert_eq!(parity(0), 0);
        assert_eq!(parity(0b1011), 1);
        assert_eq!(parity(u64::MAX), 0);
    }
}
