//! An incrementally built subspace of GF(2)^64.

/// The span of the vectors inserted so far, kept as a basis indexed by
/// leading bit: `basis[b]` is zero or the one basis vector whose highest
/// set bit is `b`. Every elimination in this crate goes through
/// [`Span::insert`] and [`Span::contains`].
///
/// # Examples
///
/// ```
/// use phantom_gf2::Span;
/// let mut s = Span::new();
/// assert!(s.insert(0b011));
/// assert!(s.insert(0b110));
/// assert!(!s.insert(0b101)); // the sum of the first two
/// assert_eq!(s.dim(), 2);
/// assert!(s.contains(0b101));
/// assert!(!s.contains(0b001));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    basis: [u64; 64],
    dim: u32,
}

impl Default for Span {
    fn default() -> Span {
        Span::new()
    }
}

impl Span {
    /// The zero subspace.
    pub fn new() -> Span {
        Span {
            basis: [0; 64],
            dim: 0,
        }
    }

    /// Add `v` to the span. Returns whether the dimension grew, i.e.
    /// whether `v` was outside the span before.
    pub fn insert(&mut self, v: u64) -> bool {
        let r = self.reduce(v);
        if r == 0 {
            return false;
        }
        self.basis[leading_bit(r)] = r;
        self.dim += 1;
        true
    }

    /// Whether `v` lies in the span.
    pub fn contains(&self, v: u64) -> bool {
        self.reduce(v) == 0
    }

    /// The dimension of the span.
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// The basis vectors, highest leading bit first.
    pub(crate) fn basis(&self) -> impl Iterator<Item = u64> + '_ {
        self.basis.iter().rev().copied().filter(|&b| b != 0)
    }

    /// Clear every set bit of `v` that leads a basis vector, from the
    /// highest down. The remainder is zero exactly when `v` lies in the
    /// span; otherwise it is independent of the basis.
    fn reduce(&self, mut v: u64) -> u64 {
        let mut unseen = v;
        while unseen != 0 {
            let b = leading_bit(unseen);
            v ^= self.basis[b];
            // A basis vector led by `b` touches only bits at or below
            // `b`, and clears bit `b` itself.
            unseen = v & ((1u64 << b) - 1);
        }
        v
    }
}

fn leading_bit(v: u64) -> usize {
    63 - v.leading_zeros() as usize
}
