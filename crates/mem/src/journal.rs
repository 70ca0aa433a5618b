//! The set journal behind the O(touched) rewinds and resets of the
//! set-associative caches and the conditional-branch predictor.

use std::sync::atomic::{AtomicU64, Ordering};

/// Source of epoch tokens. Process-global, so two journals hold equal
/// tokens only when one was cloned from the other with no epoch
/// boundary in between.
static EPOCH_TOKENS: AtomicU64 = AtomicU64::new(1);

fn next_epoch_token() -> u64 {
    EPOCH_TOKENS.fetch_add(1, Ordering::Relaxed)
}

/// Which rows (sets) of a table changed since a snapshot, or since the
/// table was last in its reset state.
///
/// The owner calls [`touch`](SetJournal::touch) before it mutates a
/// row, so every row a journal has not logged still holds what it held
/// when the journal's epoch token was drawn. Calling
/// [`begin_epoch`](SetJournal::begin_epoch) on the live table just
/// before cloning it gives the snapshot that token and an empty log;
/// rewinding to it copies back only the rows logged since. Any other
/// snapshot needs a full copy.
///
/// # Examples
///
/// ```
/// use phantom_mem::SetJournal;
///
/// let (mut table, mut journal) = (vec![0u64; 8], SetJournal::new(8));
/// journal.begin_epoch();
/// let (snap, base) = (table.clone(), journal.clone());
/// journal.touch(3);
/// table[3] = 7;
/// assert!(journal.restore_from(&base, |row| table[row] = snap[row]));
/// assert_eq!((table, journal), (snap, base));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetJournal {
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
    pub fn new(rows: usize) -> SetJournal {
        SetJournal {
            token: next_epoch_token(),
            logged: vec![0; rows.div_ceil(64)],
            log: Vec::new(),
            reset_outside_log: true,
        }
    }

    /// Log `row`, which the owner is about to mutate.
    #[inline]
    pub fn touch(&mut self, row: usize) {
        let (word, bit) = (row / 64, 1u64 << (row % 64));
        if self.logged[word] & bit == 0 {
            self.logged[word] |= bit;
            self.log.push(row as u32);
        }
    }

    /// Number of rows logged.
    pub fn logged_rows(&self) -> usize {
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
    pub fn begin_epoch(&mut self) {
        self.token = next_epoch_token();
        self.drain(|_| {});
        self.reset_outside_log = false;
    }

    /// Make this journal equal `snap`'s. Returns `true` after calling
    /// `copy_row` with every row that can differ from the owner's
    /// snapshot, which holds when `snap` shares this journal's token
    /// and has logged nothing. Otherwise returns `false`, having called
    /// nothing: the owner must copy its whole table.
    pub fn restore_from(&mut self, snap: &SetJournal, copy_row: impl FnMut(usize)) -> bool {
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
    pub fn reset(&mut self, mut clear_row: impl FnMut(usize)) -> bool {
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
