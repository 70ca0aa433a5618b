//! Sparse physical memory with frame allocation and copy-on-write
//! checkpointing.
//!
//! Resident frames live in `Arc`-shared chunks of 64, so cloning a
//! memory (a checkpoint, a fork) costs one pointer bump per chunk. The
//! flat one-entry-per-frame store the chunks replaced is kept only as
//! a `#[cfg(test)]` oracle (`flat_model.rs`) under a proptest.
//!
//! Rewinds always walk a dirty-frame journal (O(frames written since
//! the checkpoint)) and always recycle retired frames through a
//! bounded pool. The full-scan rewind the journal replaced is kept only
//! as a `#[cfg(test)]` oracle (`restore_from_scan`) for the unit tests
//! and proptests that compare the two.

use std::sync::{Arc, OnceLock};

use crate::addr::{PhysAddr, PAGE_SIZE};
use crate::hash::IntMap;

/// Error returned when physical memory is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfFrames {
    /// Configured capacity in bytes.
    pub capacity: u64,
}

impl std::fmt::Display for OutOfFrames {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "physical memory exhausted ({} bytes)", self.capacity)
    }
}

impl std::error::Error for OutOfFrames {}

/// One all-zero frame shared by every memory: restore points absent
/// frames here instead of deallocating, so earlier checkpoints that
/// still reference the frame number stay restorable.
pub(crate) fn zero_frame() -> Arc<[u8; PAGE_SIZE as usize]> {
    static ZERO: OnceLock<Arc<[u8; PAGE_SIZE as usize]>> = OnceLock::new();
    Arc::clone(ZERO.get_or_init(|| Arc::new([0; PAGE_SIZE as usize])))
}

/// A resident frame: reference-counted contents plus the write epoch
/// that last touched it (see [`PhysMemory::snapshot`]).
#[derive(Debug, Clone)]
pub(crate) struct Frame {
    pub(crate) data: Arc<[u8; PAGE_SIZE as usize]>,
    pub(crate) epoch: u64,
}

/// Frames per chunk: the unit a clone shares and the first write to a
/// shared chunk copies.
const CHUNK_FRAMES: u64 = 64;

/// One chunk of the frame store: slot `page % CHUNK_FRAMES` of chunk
/// `page / CHUNK_FRAMES` holds that page's frame, if materialized.
type Chunk = [Option<Frame>; CHUNK_FRAMES as usize];

const EMPTY_SLOT: Option<Frame> = None;

/// Upper bound on pooled retired frames. A trial dirties a few dozen
/// frames; the bound only exists so a pathological workload cannot pin
/// unbounded memory in the pool.
const FRAME_POOL_CAP: usize = 4096;

/// Recycler for retired frame allocations: frames displaced by
/// [`PhysMemory::restore_from`] whose contents nothing else references
/// are kept and handed back to the next copy-on-write fault instead of
/// round-tripping through the allocator.
///
/// The pool only ever holds `Arc`s with a strong count of exactly one
/// (and no weak references), so a pooled buffer can never alias a live
/// frame; `take` transfers that exclusive ownership to the caller.
#[derive(Debug, Default)]
pub(crate) struct FramePool {
    free: Vec<Arc<[u8; PAGE_SIZE as usize]>>,
}

impl FramePool {
    /// Retire a frame buffer into the pool if nothing else can see it.
    pub(crate) fn put(&mut self, buf: Arc<[u8; PAGE_SIZE as usize]>) {
        if self.free.len() < FRAME_POOL_CAP
            && Arc::strong_count(&buf) == 1
            && Arc::weak_count(&buf) == 0
        {
            self.free.push(buf);
        }
    }

    pub(crate) fn take(&mut self) -> Option<Arc<[u8; PAGE_SIZE as usize]>> {
        self.free.pop()
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.free.len()
    }

    #[cfg(test)]
    fn entries(&self) -> &[Arc<[u8; PAGE_SIZE as usize]>] {
        &self.free
    }
}

#[cfg(test)]
impl PhysMemory {
    /// Retired buffers currently pooled.
    pub(crate) fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// Test-only invariant check: every pooled buffer is exclusively
    /// owned and is not the backing store of any live frame.
    pub(crate) fn pool_is_alias_free(&self) -> bool {
        self.pool.entries().iter().all(|buf| {
            Arc::strong_count(buf) == 1
                && Arc::weak_count(buf) == 0
                && !self
                    .frames()
                    .any(|(_, frame)| Arc::ptr_eq(&frame.data, buf))
        })
    }
}

/// Pooled buffers are exclusively owned, so sharing them with a clone
/// would break the no-aliasing invariant: clones start with an empty
/// pool and refill from their own retired frames.
impl Clone for FramePool {
    fn clone(&self) -> FramePool {
        FramePool::default()
    }
}

/// Sparse, frame-granular physical memory.
///
/// Frames are 4 KiB and materialized lazily so "64 GiB" machines (Table 5
/// runs with 8 GiB and 64 GiB parts) cost only what is touched.
///
/// Frames are backed by `Arc`s and copy-on-write, and grouped into
/// `Arc`-shared chunks of 64: [`Clone`] and
/// [`snapshot`](PhysMemory::snapshot) share every chunk with the copy
/// (O(chunks) pointer bumps — about 17 for a booted 1 GiB machine —
/// not O(resident frames)). The first write to a chunk still shared
/// with a copy copies that chunk's 64 slots (pointer bumps); the first
/// write to a shared frame then pays one 4 KiB copy, and
/// [`restore_from`](PhysMemory::restore_from) copies back only the
/// frames written since the checkpoint.
///
/// # Examples
///
/// ```
/// use phantom_mem::{PhysAddr, PhysMemory};
/// let mut m = PhysMemory::new(1 << 20);
/// let f = m.alloc_frame().unwrap();
/// m.write_u64(f + 8, 0xdead_beef);
/// assert_eq!(m.read_u64(f + 8), 0xdead_beef);
/// assert_eq!(m.read_u64(f), 0); // untouched bytes read as zero
///
/// let snap = m.snapshot();
/// m.write_u64(f + 8, 0);
/// m.restore_from(&snap);
/// assert_eq!(m.read_u64(f + 8), 0xdead_beef);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PhysMemory {
    capacity: u64,
    /// Resident frames by chunk number (`page / CHUNK_FRAMES`).
    chunks: IntMap<u64, Arc<Chunk>>,
    /// Materialized frames across all chunks.
    resident: usize,
    next_free: u64,
    /// Frames skipped by `alloc_huge` alignment, handed back out by
    /// `alloc_frame` once the bump region is exhausted.
    recycled: Vec<u64>,
    /// Current write epoch. Bumped by `snapshot` so writes after a
    /// checkpoint are distinguishable from the state it captured.
    epoch: u64,
    /// Dirty-frame journal: entry `i` records that page
    /// `journal_pages[i]` had its epoch raised to `journal_epochs[i]`,
    /// in raise order — epochs are therefore non-decreasing, so the
    /// entries newer than a checkpoint's cutoff are a suffix found by
    /// binary search. `restore_from` walks that suffix (O(dirtied))
    /// instead of scanning every resident frame, and rewrites it in
    /// place into the list of pages it rewound.
    journal_epochs: Vec<u64>,
    journal_pages: Vec<u64>,
    pool: FramePool,
    cow_faults: u64,
    restore_frames_copied: u64,
    rewind_journal_frames: u64,
    frame_pool_reuses: u64,
}

impl PhysMemory {
    /// Create a physical memory of `capacity` bytes (rounded down to a
    /// whole number of frames).
    pub fn new(capacity: u64) -> PhysMemory {
        PhysMemory {
            capacity: capacity & !(PAGE_SIZE - 1),
            ..PhysMemory::default()
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of frames that have been materialized.
    pub fn resident_frames(&self) -> usize {
        self.resident
    }

    /// The resident frame of `page`, if materialized.
    fn frame(&self, page: u64) -> Option<&Frame> {
        self.chunks.get(&(page / CHUNK_FRAMES))?[(page % CHUNK_FRAMES) as usize].as_ref()
    }

    /// Every resident frame with its page number, in no fixed order.
    fn frames(&self) -> impl Iterator<Item = (u64, &Frame)> {
        self.chunks.iter().flat_map(|(&chunk, slots)| {
            slots.iter().enumerate().filter_map(move |(slot, frame)| {
                Some((chunk * CHUNK_FRAMES + slot as u64, frame.as_ref()?))
            })
        })
    }

    /// Drop the pooled retired frames. A memory sealed as a read-only
    /// checkpoint never faults again, so its pool would only pin
    /// buffers (clones start with an empty pool anyway).
    pub fn clear_frame_pool(&mut self) {
        self.pool = FramePool::default();
    }

    /// Allocate the next free frame (bump allocator, falling back to
    /// frames recycled from `alloc_huge` alignment gaps once the bump
    /// region is exhausted).
    ///
    /// # Errors
    ///
    /// Returns [`OutOfFrames`] when the configured capacity is exhausted.
    pub fn alloc_frame(&mut self) -> Result<PhysAddr, OutOfFrames> {
        if self.next_free + PAGE_SIZE > self.capacity {
            return match self.recycled.pop() {
                Some(base) => Ok(PhysAddr::new(base)),
                None => Err(OutOfFrames {
                    capacity: self.capacity,
                }),
            };
        }
        let pa = PhysAddr::new(self.next_free);
        self.next_free += PAGE_SIZE;
        Ok(pa)
    }

    /// Allocate `n` physically contiguous frames, returning the base.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfFrames`] when the configured capacity is exhausted.
    #[cfg(test)]
    pub fn alloc_contiguous(&mut self, n: u64) -> Result<PhysAddr, OutOfFrames> {
        if self.next_free + n * PAGE_SIZE > self.capacity {
            return Err(OutOfFrames {
                capacity: self.capacity,
            });
        }
        let pa = PhysAddr::new(self.next_free);
        self.next_free += n * PAGE_SIZE;
        Ok(pa)
    }

    /// Allocate a 2 MiB-aligned run of 512 frames (a transparent huge
    /// page, as the physmap and Table 5 attacks use). Frames skipped to
    /// reach the alignment boundary are recycled: `alloc_frame` hands
    /// them out once the bump region is exhausted, so alignment never
    /// costs capacity.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfFrames`] when the configured capacity is exhausted.
    pub fn alloc_huge(&mut self) -> Result<PhysAddr, OutOfFrames> {
        const HUGE: u64 = 2 * 1024 * 1024;
        let aligned = (self.next_free + HUGE - 1) & !(HUGE - 1);
        if aligned + HUGE > self.capacity {
            return Err(OutOfFrames {
                capacity: self.capacity,
            });
        }
        let mut gap = self.next_free;
        while gap < aligned {
            self.recycled.push(gap);
            gap += PAGE_SIZE;
        }
        self.next_free = aligned + HUGE;
        Ok(PhysAddr::new(aligned))
    }

    /// Take a copy-on-write checkpoint: the returned memory shares every
    /// chunk with `self` (one pointer bump per chunk), and the epoch
    /// bump makes later writes to `self` detectable by
    /// [`restore_from`].
    ///
    /// [`restore_from`]: PhysMemory::restore_from
    pub fn snapshot(&mut self) -> PhysMemory {
        let snap = self.clone();
        self.epoch += 1;
        snap
    }

    /// Open a new copy-on-write epoch without taking a checkpoint.
    ///
    /// Cloning a checkpointed memory produces a copy whose epoch still
    /// equals the checkpoint's, so writes through the clone would be
    /// indistinguishable from the checkpointed state and
    /// [`restore_from`](PhysMemory::restore_from) would skip them.
    /// Forked timelines (see `phantom_pipeline`'s `Checkpoint::fork`)
    /// call this right after the clone so every subsequent write lands
    /// above the checkpoint's cutoff and stays rewindable.
    pub fn begin_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Rewind to `snap`, a checkpoint taken from this memory's own
    /// timeline (via [`snapshot`](PhysMemory::snapshot), possibly with
    /// other checkpoints and restores in between). Only frames written
    /// since the checkpoint are copied back — located through the
    /// dirty-frame journal, O(dirtied) rather than O(resident) — and
    /// frames materialized after it are pointed at a shared zero frame
    /// (observationally identical to absent, and keeps other
    /// outstanding checkpoints restorable). Displaced private frames
    /// retire into the frame pool for the next copy-on-write fault.
    ///
    /// Returns the physical page numbers whose contents the rewind
    /// changed (written-since-checkpoint frames, including ones
    /// zero-tombstoned away), sorted. `Machine::restore` drops the
    /// cached decodes of every page in it, so the list must name every
    /// page whose bytes the rewind changed, zero-tombstoned frames
    /// among them: a page left out keeps stale decodes. The list is the
    /// rewritten journal tail, so a rewind allocates nothing.
    pub fn restore_from(&mut self, snap: &PhysMemory) -> &[u64] {
        debug_assert!(
            snap.frames().all(|(page, _)| self.frame(page).is_some()),
            "restore_from: snapshot is not from this memory's timeline"
        );
        // Everything written after the checkpoint is the journal suffix
        // past the boundary. Sort and dedup it in place.
        let boundary = self.journal_boundary(snap);
        let tail = &mut self.journal_pages[boundary..];
        tail.sort_unstable();
        let mut unique = 0;
        for i in 0..tail.len() {
            if unique == 0 || tail[i] != tail[unique - 1] {
                tail[unique] = tail[i];
                unique += 1;
            }
        }
        self.journal_pages.truncate(boundary + unique);
        self.journal_epochs.truncate(boundary + unique);
        self.rewind_journal_frames += unique as u64;
        debug_assert!(
            self.journal_pages[boundary..] == self.scan_dirty(snap),
            "journal disagrees with a full dirty-frame scan"
        );
        self.rewind(snap, boundary)
    }

    /// Test oracle for [`restore_from`](PhysMemory::restore_from): the
    /// same rewind with the dirty set found by scanning every resident
    /// frame instead of the journal (the pre-journal implementation).
    #[cfg(test)]
    pub(crate) fn restore_from_scan(&mut self, snap: &PhysMemory) -> Vec<u64> {
        let dirty = self.scan_dirty(snap);
        let boundary = self.journal_boundary(snap);
        self.journal_pages.truncate(boundary);
        self.journal_pages.extend(&dirty);
        self.journal_epochs.truncate(boundary);
        self.journal_epochs
            .resize(self.journal_pages.len(), self.epoch);
        self.rewind(snap, boundary).to_vec()
    }

    /// Where the journal entries newer than `snap`'s cutoff begin.
    fn journal_boundary(&self, snap: &PhysMemory) -> usize {
        self.journal_epochs.partition_point(|&e| e <= snap.epoch)
    }

    /// Resident pages written since `snap`, sorted, found by a full
    /// scan of the frame map.
    fn scan_dirty(&self, snap: &PhysMemory) -> Vec<u64> {
        let mut dirty: Vec<u64> = self
            .frames()
            .filter(|(_, f)| f.epoch > snap.epoch)
            .map(|(p, _)| p)
            .collect();
        dirty.sort_unstable();
        dirty
    }

    /// Copy `snap`'s contents back into the pages of the journal tail
    /// from `boundary` (sorted, deduplicated candidates; entries no
    /// longer newer than the checkpoint are skipped) and rewind the
    /// allocator, epoch and journal to match. Returns the pages
    /// actually rewound: the new journal tail.
    fn rewind(&mut self, snap: &PhysMemory, boundary: usize) -> &[u64] {
        self.capacity = snap.capacity;
        self.next_free = snap.next_free;
        self.recycled.clone_from(&snap.recycled);
        // The live epoch must stay strictly above every outstanding
        // checkpoint's cutoff so restored frames remain conservatively
        // dirty with respect to all of them.
        self.epoch = self.epoch.max(snap.epoch + 1);
        let epoch = self.epoch;
        let mut copied = boundary;
        for i in boundary..self.journal_pages.len() {
            let page = self.journal_pages[i];
            // Both `expect`s below rest on one invariant: every journaled
            // page was materialized by `frame_mut`, and a resident frame
            // is never dropped.
            #[allow(clippy::expect_used)]
            let stamped = self.frame(page).expect("dirty frames are resident").epoch;
            if stamped <= snap.epoch {
                continue; // journal entry superseded by an older restore
            }
            // Checked before `make_mut`, so a superseded entry never
            // copies a chunk still shared with a checkpoint.
            #[allow(clippy::expect_used)]
            let frame = self
                .chunks
                .get_mut(&(page / CHUNK_FRAMES))
                .and_then(|chunk| Arc::make_mut(chunk)[(page % CHUNK_FRAMES) as usize].as_mut())
                .expect("dirty frames are resident");
            let fresh = match snap.frame(page) {
                Some(original) => Arc::clone(&original.data),
                None => zero_frame(),
            };
            let retired = std::mem::replace(&mut frame.data, fresh);
            frame.epoch = epoch;
            self.pool.put(retired);
            self.journal_pages[copied] = page;
            copied += 1;
        }
        // The journal tail is now the restored frames, re-stamped at the
        // live epoch (so older outstanding checkpoints still see them as
        // dirty — the interleaved-checkpoint guarantee); the superseded
        // entries are gone.
        self.journal_pages.truncate(copied);
        self.journal_epochs.truncate(boundary);
        self.journal_epochs.resize(copied, epoch);
        self.restore_frames_copied += (copied - boundary) as u64;
        &self.journal_pages[boundary..]
    }

    /// Writes that had to copy a frame shared with a checkpoint (each
    /// paid one 4 KiB copy).
    pub fn cow_faults(&self) -> u64 {
        self.cow_faults
    }

    /// Frames copied back by [`restore_from`](PhysMemory::restore_from)
    /// over this memory's lifetime.
    pub fn restore_frames_copied(&self) -> u64 {
        self.restore_frames_copied
    }

    /// Dirty frames located via the journal (instead of a full scan) by
    /// journaled [`restore_from`](PhysMemory::restore_from) calls.
    pub fn rewind_journal_frames(&self) -> u64 {
        self.rewind_journal_frames
    }

    /// Copy-on-write copies and fresh materializations served from the
    /// retired-frame pool instead of the allocator.
    pub fn frame_pool_reuses(&self) -> u64 {
        self.frame_pool_reuses
    }

    /// Resident frames currently sharing contents with a checkpoint (or
    /// the global zero frame) instead of owning a private copy: a frame
    /// counts when its chunk is shared (the copy reaches the frame
    /// through the same chunk) or its contents are.
    pub fn cow_frames_shared(&self) -> u64 {
        self.chunks
            .values()
            .map(|chunk| {
                let chunk_shared = Arc::strong_count(chunk) > 1;
                chunk
                    .iter()
                    .flatten()
                    .filter(|f| chunk_shared || Arc::strong_count(&f.data) > 1)
                    .count() as u64
            })
            .sum()
    }

    fn frame_mut(&mut self, pa: PhysAddr) -> &mut [u8; PAGE_SIZE as usize] {
        let epoch = self.epoch;
        let page = pa.page_number();
        // A chunk still shared with a copy is copied here (64 slot
        // clones); its frames' contents stay shared until written.
        let chunk = Arc::make_mut(
            self.chunks
                .entry(page / CHUNK_FRAMES)
                .or_insert_with(|| Arc::new([EMPTY_SLOT; CHUNK_FRAMES as usize])),
        );
        let frame = match &mut chunk[(page % CHUNK_FRAMES) as usize] {
            Some(frame) => {
                if frame.epoch != epoch {
                    frame.epoch = epoch;
                    self.journal_epochs.push(epoch);
                    self.journal_pages.push(page);
                }
                frame
            }
            empty @ None => {
                let data = match self.pool.take() {
                    Some(mut buf) => {
                        self.frame_pool_reuses += 1;
                        // Pooled buffers are exclusively owned (see
                        // `FramePool::put`), so this never copies.
                        Arc::make_mut(&mut buf).fill(0);
                        buf
                    }
                    None => Arc::new([0; PAGE_SIZE as usize]),
                };
                self.journal_epochs.push(epoch);
                self.journal_pages.push(page);
                self.resident += 1;
                empty.insert(Frame { data, epoch })
            }
        };
        if Arc::strong_count(&frame.data) > 1 || Arc::weak_count(&frame.data) > 0 {
            self.cow_faults += 1;
            let mut fresh = match self.pool.take() {
                Some(buf) => {
                    self.frame_pool_reuses += 1;
                    buf
                }
                None => Arc::new([0u8; PAGE_SIZE as usize]),
            };
            Arc::make_mut(&mut fresh).copy_from_slice(&frame.data[..]);
            frame.data = fresh;
        }
        // The frame is exclusively owned now (just unshared, or never
        // shared), so `make_mut` hands it out without copying.
        Arc::make_mut(&mut frame.data)
    }

    /// Read one byte. Unmaterialized memory reads as zero.
    #[cfg(test)]
    pub fn read_u8(&self, pa: PhysAddr) -> u8 {
        self.frame(pa.page_number())
            .map_or(0, |f| f.data[pa.page_offset() as usize])
    }

    /// Write one byte.
    #[cfg(test)]
    pub fn write_u8(&mut self, pa: PhysAddr, value: u8) {
        self.frame_mut(pa)[pa.page_offset() as usize] = value;
    }

    /// Read a little-endian u64 (may straddle frames). One frame
    /// lookup when the 8 bytes sit in one frame.
    pub fn read_u64(&self, pa: PhysAddr) -> u64 {
        let mut bytes = [0u8; 8];
        self.read_into(pa, &mut bytes);
        u64::from_le_bytes(bytes)
    }

    /// Test oracle for [`read_u64`](PhysMemory::read_u64): one
    /// [`read_u8`](PhysMemory::read_u8) per byte (the pre-chunking
    /// implementation).
    #[cfg(test)]
    pub(crate) fn read_u64_per_byte(&self, pa: PhysAddr) -> u64 {
        let mut bytes = [0u8; 8];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = self.read_u8(pa + i as u64);
        }
        u64::from_le_bytes(bytes)
    }

    /// Write a little-endian u64 (may straddle frames). One frame
    /// lookup when the 8 bytes sit in one frame; the flat-store oracle
    /// keeps the byte-at-a-time write it is checked against.
    pub fn write_u64(&mut self, pa: PhysAddr, value: u64) {
        self.write_bytes(pa, &value.to_le_bytes());
    }

    /// Copy `data` into memory starting at `pa`.
    pub fn write_bytes(&mut self, pa: PhysAddr, data: &[u8]) {
        let mut off = 0usize;
        while off < data.len() {
            let addr = pa + off as u64;
            let in_frame = (PAGE_SIZE - addr.page_offset()) as usize;
            let chunk = in_frame.min(data.len() - off);
            let frame = self.frame_mut(addr);
            let start = addr.page_offset() as usize;
            frame[start..start + chunk].copy_from_slice(&data[off..off + chunk]);
            off += chunk;
        }
    }

    /// Read `len` bytes starting at `pa`.
    pub fn read_bytes(&self, pa: PhysAddr, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let addr = pa + out.len() as u64;
            let in_frame = (PAGE_SIZE - addr.page_offset()) as usize;
            let chunk = in_frame.min(len - out.len());
            match self.frame(addr.page_number()) {
                Some(frame) => {
                    let start = addr.page_offset() as usize;
                    out.extend_from_slice(&frame.data[start..start + chunk]);
                }
                None => out.extend(std::iter::repeat_n(0, chunk)),
            }
        }
        out
    }

    /// Whether the bytes starting at `pa` equal `data`: one frame lookup
    /// and one slice comparison per frame the range touches, and no
    /// copy. Unmaterialized memory reads as zero.
    pub fn holds(&self, pa: PhysAddr, data: &[u8]) -> bool {
        let mut off = 0usize;
        while off < data.len() {
            let addr = pa + off as u64;
            let start = addr.page_offset() as usize;
            let chunk = (PAGE_SIZE as usize - start).min(data.len() - off);
            let want = &data[off..off + chunk];
            let same = match self.frame(addr.page_number()) {
                Some(frame) => frame.data[start..start + chunk] == *want,
                None => want.iter().all(|&b| b == 0),
            };
            if !same {
                return false;
            }
            off += chunk;
        }
        true
    }

    /// Fill `buf` with the bytes starting at `pa`: one frame lookup
    /// and one slice copy per frame the range touches.
    /// Unmaterialized memory reads as zero.
    pub fn read_into(&self, pa: PhysAddr, buf: &mut [u8]) {
        let mut off = 0usize;
        while off < buf.len() {
            let addr = pa + off as u64;
            let start = addr.page_offset() as usize;
            let chunk = (PAGE_SIZE as usize - start).min(buf.len() - off);
            let dst = &mut buf[off..off + chunk];
            match self.frame(addr.page_number()) {
                Some(frame) => dst.copy_from_slice(&frame.data[start..start + chunk]),
                None => dst.fill(0),
            }
            off += chunk;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_allocation_is_disjoint() {
        let mut m = PhysMemory::new(4 * PAGE_SIZE);
        let a = m.alloc_frame().unwrap();
        let b = m.alloc_frame().unwrap();
        assert_ne!(a, b);
        assert_eq!(b - a, PAGE_SIZE);
        m.write_u8(a, 1);
        m.write_u8(b, 2);
        assert_eq!(m.read_u8(a), 1);
        assert_eq!(m.read_u8(b), 2);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut m = PhysMemory::new(2 * PAGE_SIZE);
        m.alloc_frame().unwrap();
        m.alloc_frame().unwrap();
        assert!(m.alloc_frame().is_err());
    }

    #[test]
    fn huge_pages_are_aligned() {
        let mut m = PhysMemory::new(16 * 1024 * 1024);
        m.alloc_frame().unwrap(); // misalign the bump pointer
        let h = m.alloc_huge().unwrap();
        assert!(h.is_aligned(2 * 1024 * 1024));
    }

    #[test]
    fn huge_page_alignment_gaps_are_recycled() {
        const HUGE: u64 = 2 * 1024 * 1024;
        let mut m = PhysMemory::new(2 * HUGE);
        m.alloc_frame().unwrap(); // misalign: 511 frames skipped by alloc_huge
        let h = m.alloc_huge().unwrap();
        assert_eq!(h.raw(), HUGE);
        // The bump region is exhausted; exactly the 511 gap frames remain.
        let mut recycled = Vec::new();
        while let Ok(pa) = m.alloc_frame() {
            recycled.push(pa.raw());
        }
        assert_eq!(recycled.len(), 511);
        recycled.sort_unstable();
        let expected: Vec<u64> = (1..512).map(|i| i * PAGE_SIZE).collect();
        assert_eq!(recycled, expected, "every skipped frame is handed out once");
    }

    #[test]
    fn bump_region_is_preferred_over_recycled_frames() {
        const HUGE: u64 = 2 * 1024 * 1024;
        let mut m = PhysMemory::new(4 * HUGE);
        m.alloc_frame().unwrap();
        m.alloc_huge().unwrap();
        // Capacity left above the huge page: bump allocation continues
        // there, leaving the gap untouched (so allocation addresses of
        // non-exhausted runs are unchanged by recycling).
        let next = m.alloc_frame().unwrap();
        assert_eq!(next.raw(), 2 * HUGE);
    }

    #[test]
    fn u64_roundtrip_straddles_frames() {
        let mut m = PhysMemory::new(8 * PAGE_SIZE);
        let pa = PhysAddr::new(PAGE_SIZE - 4); // straddles frames 0 and 1
        m.write_u64(pa, 0x0102_0304_0506_0708);
        assert_eq!(m.read_u64(pa), 0x0102_0304_0506_0708);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut m = PhysMemory::new(8 * PAGE_SIZE);
        let data: Vec<u8> = (0..=255).collect();
        m.write_bytes(PhysAddr::new(100), &data);
        assert_eq!(m.read_bytes(PhysAddr::new(100), 256), data);
    }

    #[test]
    fn sparse_memory_stays_sparse() {
        let mut m = PhysMemory::new(64 << 30); // "64 GiB" machine
        let f = m.alloc_contiguous(1 << 20).unwrap(); // 4 GiB reserved
        m.write_u8(f + (1 << 30), 7);
        assert_eq!(m.resident_frames(), 1);
        assert_eq!(m.read_u8(f + (1 << 30)), 7);
    }

    #[test]
    fn snapshot_shares_frames_and_restore_copies_only_dirty() {
        let mut m = PhysMemory::new(64 * PAGE_SIZE);
        for i in 0..16 {
            m.write_u8(PhysAddr::new(i * PAGE_SIZE), i as u8 + 1);
        }
        let snap = m.snapshot();
        assert_eq!(m.cow_frames_shared(), 16, "checkpoint shares every frame");
        assert_eq!(m.cow_faults(), 0);

        m.write_u8(PhysAddr::new(0), 0xaa);
        m.write_u8(PhysAddr::new(0) + 1, 0xbb); // same frame: one copy
        m.write_u8(PhysAddr::new(5 * PAGE_SIZE), 0xcc);
        assert_eq!(m.cow_faults(), 2, "one copy per dirtied frame");

        m.restore_from(&snap);
        assert_eq!(m.restore_frames_copied(), 2, "only dirty frames copied");
        for i in 0..16 {
            assert_eq!(m.read_u8(PhysAddr::new(i * PAGE_SIZE)), i as u8 + 1);
        }
    }

    #[test]
    fn restore_zeroes_frames_materialized_after_the_checkpoint() {
        let mut m = PhysMemory::new(64 * PAGE_SIZE);
        m.write_u8(PhysAddr::new(0), 1);
        let snap = m.snapshot();
        m.write_u8(PhysAddr::new(3 * PAGE_SIZE), 9);
        m.restore_from(&snap);
        assert_eq!(m.read_u8(PhysAddr::new(3 * PAGE_SIZE)), 0);
        assert_eq!(m.read_u8(PhysAddr::new(0)), 1);
    }

    #[test]
    fn interleaved_checkpoints_restore_independently() {
        let pa = PhysAddr::new(2 * PAGE_SIZE);
        let mut m = PhysMemory::new(64 * PAGE_SIZE);
        m.write_u8(pa, 1);
        let snap_a = m.snapshot();
        m.write_u8(pa, 2);
        let snap_b = m.snapshot();
        m.write_u8(pa, 3);

        m.restore_from(&snap_a);
        assert_eq!(m.read_u8(pa), 1);
        m.restore_from(&snap_b);
        assert_eq!(m.read_u8(pa), 2);
        m.restore_from(&snap_a);
        assert_eq!(m.read_u8(pa), 1);
    }

    #[test]
    fn restore_rewinds_the_allocator() {
        let mut m = PhysMemory::new(16 * PAGE_SIZE);
        m.alloc_frame().unwrap();
        let snap = m.snapshot();
        let b = m.alloc_frame().unwrap();
        m.restore_from(&snap);
        assert_eq!(m.alloc_frame().unwrap(), b, "bump pointer rewound");
    }

    #[test]
    fn journaled_and_scan_rewinds_agree() {
        // Same operation sequence through the journal and the
        // full-scan oracle: contents, counters and the copied-page set
        // must match.
        let run = |journal: bool| {
            let mut m = PhysMemory::new(64 * PAGE_SIZE);
            for i in 0..16 {
                m.write_u8(PhysAddr::new(i * PAGE_SIZE), i as u8 + 1);
            }
            let snap = m.snapshot();
            m.write_u8(PhysAddr::new(0), 0xaa);
            m.write_u8(PhysAddr::new(5 * PAGE_SIZE), 0xcc);
            m.write_u8(PhysAddr::new(40 * PAGE_SIZE), 0xdd); // post-snap frame
            let copied = if journal {
                m.restore_from(&snap).to_vec()
            } else {
                m.restore_from_scan(&snap)
            };
            let state: Vec<u8> = (0..64)
                .map(|i| m.read_u8(PhysAddr::new(i * PAGE_SIZE)))
                .collect();
            (copied, state, m.restore_frames_copied())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn journal_survives_interleaved_restores() {
        let pa = PhysAddr::new(2 * PAGE_SIZE);
        let mut m = PhysMemory::new(64 * PAGE_SIZE);
        m.write_u8(pa, 1);
        let snap_a = m.snapshot();
        m.write_u8(pa, 2);
        let snap_b = m.snapshot();
        m.write_u8(pa, 3);

        m.restore_from(&snap_a);
        assert_eq!(m.read_u8(pa), 1);
        // snap_b must still see the frame as dirty after the rewind to
        // snap_a re-stamped it.
        m.restore_from(&snap_b);
        assert_eq!(m.read_u8(pa), 2);
        m.restore_from(&snap_a);
        assert_eq!(m.read_u8(pa), 1);
        assert_eq!(m.rewind_journal_frames(), 3);
    }

    #[test]
    fn retired_frames_are_pooled_and_reused() {
        let mut m = PhysMemory::new(64 * PAGE_SIZE);
        m.write_u8(PhysAddr::new(0), 5);
        let snap = m.snapshot();
        m.write_u8(PhysAddr::new(0), 6); // CoW: private copy
        m.restore_from(&snap); // private copy retired into the pool
        assert_eq!(m.pool.len(), 1);
        assert_eq!(m.frame_pool_reuses(), 0);
        m.write_u8(PhysAddr::new(0), 7); // CoW again: served from the pool
        assert_eq!(m.pool.len(), 0);
        assert_eq!(m.frame_pool_reuses(), 1);
        m.restore_from(&snap);
        assert_eq!(m.read_u8(PhysAddr::new(0)), 5);
    }

    #[test]
    fn pooled_frames_are_rezeroed_for_new_frames() {
        let mut m = PhysMemory::new(64 * PAGE_SIZE);
        m.write_bytes(PhysAddr::new(0), &[0xff; PAGE_SIZE as usize]);
        let snap = m.snapshot();
        m.write_bytes(PhysAddr::new(0), &[0xee; PAGE_SIZE as usize]);
        m.restore_from(&snap); // pool now holds an all-0xee buffer
        assert_eq!(m.pool.len(), 1);
        m.write_u8(PhysAddr::new(9 * PAGE_SIZE) + 17, 1); // new frame from the pool
        assert_eq!(m.frame_pool_reuses(), 1);
        for off in 0..PAGE_SIZE {
            let expect = if off == 17 { 1 } else { 0 };
            assert_eq!(m.read_u8(PhysAddr::new(9 * PAGE_SIZE) + off), expect);
        }
    }

    #[test]
    fn pool_never_holds_a_shared_frame() {
        let mut m = PhysMemory::new(64 * PAGE_SIZE);
        for i in 0..8 {
            m.write_u8(PhysAddr::new(i * PAGE_SIZE), i as u8 + 1);
        }
        let snap = m.snapshot();
        for i in 0..8 {
            m.write_u8(PhysAddr::new(i * PAGE_SIZE), 0xaa);
        }
        m.restore_from(&snap);
        for buf in m.pool.entries() {
            assert_eq!(Arc::strong_count(buf), 1);
            assert_eq!(Arc::weak_count(buf), 0);
        }
    }

    #[test]
    fn clones_share_chunks_and_a_write_copies_only_its_chunk() {
        let mut m = PhysMemory::new(1 << 24);
        // 200 frames over four chunks (64 frames each).
        for i in 0..200 {
            m.write_u8(PhysAddr::new(i * PAGE_SIZE), 1);
        }
        assert_eq!(m.chunks.len(), 4);
        let mut copy = m.clone();
        let shared = |a: &PhysMemory, b: &PhysMemory| {
            let mut n = 0;
            for (k, chunk) in &a.chunks {
                n += usize::from(Arc::ptr_eq(chunk, &b.chunks[k]));
            }
            n
        };
        assert_eq!(shared(&m, &copy), 4, "a clone shares every chunk");
        assert_eq!(copy.cow_frames_shared(), 200);
        copy.write_u8(PhysAddr::new(70 * PAGE_SIZE), 2);
        assert_eq!(shared(&m, &copy), 3, "the write copied one chunk");
        assert_eq!(copy.cow_faults(), 1, "and one frame");
        assert_eq!(copy.cow_frames_shared(), 199);
        assert_eq!(m.cow_frames_shared(), 199);
        assert_eq!(m.read_u8(PhysAddr::new(70 * PAGE_SIZE)), 1);
        drop(copy);
        assert_eq!(
            m.cow_frames_shared(),
            0,
            "nothing shared once the copy is gone"
        );
    }

    #[test]
    fn clones_start_with_an_empty_pool() {
        let mut m = PhysMemory::new(64 * PAGE_SIZE);
        m.write_u8(PhysAddr::new(0), 5);
        let snap = m.snapshot();
        m.write_u8(PhysAddr::new(0), 6);
        m.restore_from(&snap);
        assert_eq!(m.pool.len(), 1);
        let clone = m.clone();
        assert_eq!(clone.pool.len(), 0, "pooled buffers are never shared");
    }
}
