//! The row store behind the set-associative caches and the
//! conditional-branch predictor: fixed-width rows (one per set) in
//! copy-on-write chunks, with a set journal that makes rewinds and
//! resets O(rows touched).
//!
//! A machine is cloned for every snapshot, fork and boot-template
//! instance, but a trial touches only a handful of cache and predictor
//! sets. So the rows live in chunks of 16 sets (`CHUNK_ROWS`), each either
//! shared (`Arc`) or owned by one store: a clone bumps one pointer per
//! shared chunk, [`RowStore::seal`] shares a store's owned chunks, and
//! the first write to a shared chunk copies that chunk alone. A chunk
//! whose rows are all in their reset state is the store's one cold
//! chunk, which a clone does not even count.

use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Rows per chunk: the unit a first write copies and a clone shares.
///
/// Chosen by measurement on the campaign jobs: 8-row chunks lost to
/// 16-row ones (more chunks to count on every clone and drop), and
/// 32-row ones were no faster while copying twice as much per first
/// write. See EXPERIMENTS.md "Copy-on-write set rows".
pub(crate) const CHUNK_ROWS: usize = 16;

/// Source of epoch tokens. Process-global, so two journals hold equal
/// tokens only when one was cloned from the other with no epoch
/// boundary in between.
static EPOCH_TOKENS: AtomicU64 = AtomicU64::new(1);

fn next_epoch_token() -> u64 {
    EPOCH_TOKENS.fetch_add(1, Ordering::Relaxed)
}

/// Which rows of a store changed since a snapshot, or since the store
/// was last in its reset state.
///
/// The store logs a row before it hands it out for writing, so every
/// row a journal has not logged still holds what it held when the
/// journal's epoch token was drawn. Opening an epoch on the live store
/// just before cloning it gives the snapshot that token and an empty
/// log; rewinding to it copies back only the rows logged since. Any
/// other snapshot needs a full copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SetJournal {
    token: u64,
    /// One bit per row (bit `i % 64` of word `i / 64`), set for the
    /// rows in `log`.
    logged: Vec<u64>,
    /// The rows touched since the token was drawn, in first-touch order.
    log: Vec<u32>,
    /// Whether every row outside `log` holds its reset contents.
    reset_outside_log: bool,
}

impl SetJournal {
    /// The journal of a table of `rows` rows in its reset state.
    fn new(rows: usize) -> SetJournal {
        SetJournal {
            token: next_epoch_token(),
            logged: vec![0; rows.div_ceil(64)],
            log: Vec::new(),
            reset_outside_log: true,
        }
    }

    /// Log `row`, which the owner is about to mutate.
    #[inline]
    fn touch(&mut self, row: usize) {
        let (word, bit) = (row / 64, 1u64 << (row % 64));
        if self.logged[word] & bit == 0 {
            self.logged[word] |= bit;
            self.log.push(row as u32);
        }
    }

    /// Number of rows logged.
    fn logged_rows(&self) -> usize {
        self.log.len()
    }

    /// Empty the log, calling `each` with every row it held.
    fn drain(&mut self, mut each: impl FnMut(usize)) {
        for &row in &self.log {
            each(row as usize);
            self.logged[row as usize / 64] = 0;
        }
        self.log.clear();
    }

    /// Open a new epoch: draw a fresh token and forget the log.
    fn begin_epoch(&mut self) {
        self.token = next_epoch_token();
        self.drain(|_| {});
        self.reset_outside_log = false;
    }

    /// Make this journal equal `snap`'s. Returns `true` after calling
    /// `copy_row` with every row that can differ from the owner's
    /// snapshot, which holds when `snap` shares this journal's token
    /// and has logged nothing. Otherwise returns `false`, having called
    /// nothing: the owner must copy its whole table.
    fn restore_from(&mut self, snap: &SetJournal, copy_row: impl FnMut(usize)) -> bool {
        let fast = self.token == snap.token && snap.log.is_empty();
        if fast {
            self.drain(copy_row);
        } else {
            self.token = snap.token;
            self.logged.clone_from(&snap.logged);
            self.log.clone_from(&snap.log);
        }
        self.reset_outside_log = snap.reset_outside_log;
        fast
    }

    /// Start over in the reset state under a fresh token. Returns
    /// `true` after calling `clear_row` with every row that can differ
    /// from its reset contents. Returns `false` when the owner must
    /// clear every row: an epoch opened since the table was last reset,
    /// here or in a journal this one was restored from.
    fn reset(&mut self, mut clear_row: impl FnMut(usize)) -> bool {
        let fast = self.reset_outside_log;
        self.drain(|row| {
            if fast {
                clear_row(row);
            }
        });
        self.token = next_epoch_token();
        self.reset_outside_log = true;
        fast
    }
}

/// One chunk of rows: the store's cold chunk, shared copy-on-write,
/// or owned by one store.
#[derive(Clone)]
enum Chunk<T> {
    /// The store's `cold` chunk: every row in its reset state. Not
    /// counted, so cloning and dropping it is free.
    Cold,
    Shared(Arc<[T]>),
    Owned(Box<[T]>),
}

impl<T: Copy> Chunk<T> {
    #[inline]
    fn items<'a>(&'a self, cold: &'a [T]) -> &'a [T] {
        match self {
            Chunk::Cold => cold,
            Chunk::Shared(items) => items,
            Chunk::Owned(items) => items,
        }
    }

    /// The chunk's items for writing, copying them first unless owned.
    #[inline]
    fn items_mut(&mut self, cold: &[T]) -> &mut [T] {
        match self {
            Chunk::Cold => *self = Chunk::Owned(unshare(cold)),
            Chunk::Shared(items) => *self = Chunk::Owned(unshare(items)),
            Chunk::Owned(_) => {}
        }
        match self {
            Chunk::Owned(items) => items,
            Chunk::Cold | Chunk::Shared(_) => unreachable!("unshared above"),
        }
    }

    /// Become a copy of `src`: free if `src` is cold or the same shared
    /// allocation, a pointer bump if it is shared, an in-place copy if
    /// both are owned.
    fn copy_from(&mut self, src: &Chunk<T>) {
        match (&mut *self, src) {
            (Chunk::Owned(dst), Chunk::Owned(src)) if dst.len() == src.len() => {
                dst.copy_from_slice(src);
            }
            (Chunk::Shared(dst), Chunk::Shared(src)) if Arc::ptr_eq(dst, src) => {}
            (dst, _) => *dst = src.clone(),
        }
    }
}

/// The chunk holding `row` of a store `width` items wide, and the
/// row's items in that chunk.
#[inline]
fn locate(row: usize, width: usize) -> (usize, Range<usize>) {
    let start = row % CHUNK_ROWS * width;
    (row / CHUNK_ROWS, start..start + width)
}

/// The first write to a cold or shared chunk: copy it.
#[cold]
#[inline(never)]
fn unshare<T: Copy>(items: &[T]) -> Box<[T]> {
    Box::from(items)
}

/// Fixed-width rows in copy-on-write chunks, journaled for O(touched)
/// rewinds and resets.
///
/// Row `i` is `width` consecutive items. Reads go through
/// [`row`](RowStore::row); writes through [`row_mut`](RowStore::row_mut),
/// which logs the row in the store's journal and, on the first write to
/// a chunk the store does not own, copies that chunk. A clone shares
/// every shared chunk and copies the owned ones, so the owner
/// [`seal`](RowStore::seal)s a store before it becomes a template that
/// many clones are taken from. Chunks whose rows are all in the reset
/// state point at the store's one cold chunk, which costs a clone
/// nothing, not even a reference count.
///
/// Rewinds follow the epoch protocol: [`begin_epoch`](RowStore::begin_epoch)
/// on the live store just before cloning it into a snapshot, then
/// [`restore_from`](RowStore::restore_from) that snapshot copies back
/// only the rows written since. [`reset`](RowStore::reset) clears only
/// the rows written since the last reset when it can tell which.
///
/// # Examples
///
/// ```
/// use phantom_mem::RowStore;
///
/// let mut table = RowStore::new(64, 2, 0u8);
/// table.begin_epoch();
/// table.seal();
/// let snap = table.clone();
/// assert_eq!(table.owned_chunks(), 0, "the clone shares every chunk");
/// table.row_mut(3)[1] = 7;
/// assert_eq!(table.owned_chunks(), 1, "the write copied one chunk");
/// assert_eq!(snap.row(3), &[0, 0], "and the snapshot kept its row");
/// table.restore_from(&snap);
/// assert!(table == snap);
/// ```
#[derive(Clone)]
pub struct RowStore<T> {
    rows: usize,
    width: usize,
    /// What every item holds in the reset state.
    fill: T,
    /// One chunk of `fill`: what every `Chunk::Cold` slot holds.
    cold: Arc<[T]>,
    /// Row `i` is in chunk `i / CHUNK_ROWS` (see [`locate`]). Every
    /// chunk holds `min(rows, CHUNK_ROWS)` rows; the last may pad past
    /// `rows`.
    chunks: Vec<Chunk<T>>,
    journal: SetJournal,
}

impl<T: Copy + PartialEq> RowStore<T> {
    /// A store of `rows` rows of `width` items, every item `fill`.
    pub fn new(rows: usize, width: usize, fill: T) -> RowStore<T> {
        let chunk_rows = rows.clamp(1, CHUNK_ROWS);
        let cold: Arc<[T]> = vec![fill; chunk_rows * width].into();
        RowStore {
            rows,
            width,
            fill,
            chunks: vec![Chunk::Cold; rows.div_ceil(chunk_rows)],
            cold,
            journal: SetJournal::new(rows),
        }
    }

    /// Put the store in the state `RowStore::new(rows, width, fill)`
    /// builds, in place. The same shape and fill clears only the rows
    /// the journal names when it can, in place in an owned chunk; any
    /// other chunk that may differ from the reset state becomes the
    /// cold chunk, with no copy. Another shape or fill builds a new
    /// store.
    pub fn reset(&mut self, rows: usize, width: usize, fill: T) {
        if (rows, width) != (self.rows, self.width) || fill != self.fill {
            *self = RowStore::new(rows, width, fill);
            return;
        }
        let chunks = &mut self.chunks;
        let fast = self.journal.reset(|row| {
            let (c, items) = locate(row, width);
            match &mut chunks[c] {
                Chunk::Owned(owned) => owned[items].fill(fill),
                // Every row outside the log is already reset, so the
                // whole chunk is once this row is.
                chunk => *chunk = Chunk::Cold,
            }
        });
        if !fast {
            chunks.fill(Chunk::Cold);
        }
    }

    /// Put the store back in its reset state, keeping its shape.
    pub fn clear(&mut self) {
        self.reset(self.rows, self.width, self.fill);
    }

    /// Number of rows.
    #[cfg(test)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Items per row.
    #[cfg(test)]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Row `row`.
    #[inline]
    pub fn row(&self, row: usize) -> &[T] {
        debug_assert!(row < self.rows);
        let (c, items) = locate(row, self.width);
        &self.chunks[c].items(&self.cold)[items]
    }

    /// Row `row` for writing: logs it in the journal and, if its chunk
    /// is shared, copies the chunk first.
    #[inline]
    pub fn row_mut(&mut self, row: usize) -> &mut [T] {
        debug_assert!(row < self.rows);
        self.journal.touch(row);
        let (c, items) = locate(row, self.width);
        &mut self.chunks[c].items_mut(&self.cold)[items]
    }

    /// Every row, in order.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[T]> {
        (0..self.rows).map(|row| self.row(row))
    }

    /// Share every owned chunk, so that clones taken from now on copy
    /// no rows until they write them. Leaves the rows and the journal
    /// as they are.
    pub fn seal(&mut self) {
        for chunk in &mut self.chunks {
            if let Chunk::Owned(items) = chunk {
                *chunk = Chunk::Shared(Arc::from(std::mem::take(items)));
            }
        }
    }

    /// Number of chunks this store owns, that is, has copied or written
    /// since it was last sealed, cloned from a sealed store or reset.
    pub fn owned_chunks(&self) -> usize {
        self.chunks
            .iter()
            .filter(|c| matches!(c, Chunk::Owned(_)))
            .count()
    }

    /// Number of rows written since the last epoch or reset.
    pub fn logged_rows(&self) -> usize {
        self.journal.logged_rows()
    }

    /// Open a new restore epoch: draw a fresh journal token and forget
    /// the log. Call on the live store immediately before cloning it
    /// into a snapshot.
    pub fn begin_epoch(&mut self) {
        self.journal.begin_epoch();
    }

    /// Rewind to `snap`, to rows and journal equal to a clone of it.
    /// When `snap` was cloned from this store's current epoch and has
    /// written nothing since, only the rows this store wrote are copied
    /// back (a chunk it still shares is pointed at the snapshot's), and
    /// the return is `true`. Otherwise every chunk becomes a copy of the
    /// snapshot's (shared ones by pointer), and the return is `false`.
    pub fn restore_from(&mut self, snap: &RowStore<T>) -> bool {
        let (chunks, width) = (&mut self.chunks, self.width);
        let fast = self.journal.restore_from(&snap.journal, |row| {
            let (c, items) = locate(row, width);
            match &mut chunks[c] {
                Chunk::Owned(owned) => {
                    owned[items.clone()].copy_from_slice(&snap.chunks[c].items(&snap.cold)[items])
                }
                // Rows this store did not log equal the snapshot's, so
                // the whole chunk may become the snapshot's.
                chunk => chunk.copy_from(&snap.chunks[c]),
            }
        });
        if !fast {
            (self.rows, self.width, self.fill) = (snap.rows, snap.width, snap.fill);
            if !Arc::ptr_eq(&self.cold, &snap.cold) {
                self.cold = Arc::clone(&snap.cold);
            }
            self.chunks.truncate(snap.chunks.len());
            let kept = self.chunks.len();
            for (dst, src) in self.chunks.iter_mut().zip(&snap.chunks) {
                dst.copy_from(src);
            }
            self.chunks.extend(snap.chunks[kept..].iter().cloned());
        }
        fast
    }

    /// The journal, for the model checks.
    #[cfg(test)]
    pub(crate) fn journal(&self) -> &SetJournal {
        &self.journal
    }
}

/// Equal rows: the shape and every row's items, however the chunks
/// are shared. The journal is bookkeeping and is not compared.
impl<T: Copy + PartialEq> PartialEq for RowStore<T> {
    fn eq(&self, other: &RowStore<T>) -> bool {
        (self.rows, self.width) == (other.rows, other.width)
            && self.iter_rows().eq(other.iter_rows())
    }
}

/// The shape and the sharing, not the items (a cache prints thousands).
impl<T> fmt::Debug for RowStore<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let owned = self
            .chunks
            .iter()
            .filter(|c| matches!(c, Chunk::Owned(_)))
            .count();
        f.debug_struct("RowStore")
            .field("rows", &self.rows)
            .field("width", &self.width)
            .field("chunks", &self.chunks.len())
            .field("owned_chunks", &owned)
            .field("logged_rows", &self.journal.logged_rows())
            .finish()
    }
}
