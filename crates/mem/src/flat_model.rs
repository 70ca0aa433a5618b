//! Test-only reference model: physical memory with one flat
//! `IntMap<page, Frame>` entry per resident frame. [`crate::PhysMemory`]
//! groups frames into `Arc`-shared chunks of 64 instead, so a clone
//! costs O(chunks); `proptests.rs` checks the two agree on contents,
//! every counter, `resident_frames` and `restore_from`'s page lists
//! over random operation sequences. The implementation below is kept
//! as it was when the chunked layout replaced it.

use std::sync::Arc;

use crate::addr::{PhysAddr, PAGE_SIZE};
use crate::hash::IntMap;
use crate::phys::{zero_frame, Frame, FramePool, OutOfFrames};

/// Physical memory in its flat layout: one map entry per frame.
#[derive(Debug, Clone, Default)]
pub struct FlatPhysMemory {
    capacity: u64,
    frames: IntMap<u64, Frame>,
    next_free: u64,
    recycled: Vec<u64>,
    epoch: u64,
    journal: Vec<(u64, u64)>,
    pool: FramePool,
    cow_faults: u64,
    restore_frames_copied: u64,
    rewind_journal_frames: u64,
    frame_pool_reuses: u64,
}

impl FlatPhysMemory {
    pub fn new(capacity: u64) -> FlatPhysMemory {
        FlatPhysMemory {
            capacity: capacity & !(PAGE_SIZE - 1),
            ..FlatPhysMemory::default()
        }
    }

    pub fn resident_frames(&self) -> usize {
        self.frames.len()
    }

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

    pub fn snapshot(&mut self) -> FlatPhysMemory {
        let snap = self.clone();
        self.epoch += 1;
        snap
    }

    pub fn begin_epoch(&mut self) {
        self.epoch += 1;
    }

    pub fn restore_from(&mut self, snap: &FlatPhysMemory) -> Vec<u64> {
        let boundary = self.journal.partition_point(|&(e, _)| e <= snap.epoch);
        let mut dirty: Vec<u64> = self.journal[boundary..].iter().map(|&(_, p)| p).collect();
        dirty.sort_unstable();
        dirty.dedup();
        self.rewind_journal_frames += dirty.len() as u64;
        self.rewind(snap, dirty)
    }

    fn rewind(&mut self, snap: &FlatPhysMemory, dirty: Vec<u64>) -> Vec<u64> {
        self.capacity = snap.capacity;
        self.next_free = snap.next_free;
        self.recycled.clone_from(&snap.recycled);
        self.epoch = self.epoch.max(snap.epoch + 1);
        let epoch = self.epoch;
        let mut copied = Vec::with_capacity(dirty.len());
        for page in dirty {
            let frame = self
                .frames
                .get_mut(&page)
                .expect("dirty frames are resident");
            if frame.epoch <= snap.epoch {
                continue;
            }
            let fresh = match snap.frames.get(&page) {
                Some(original) => Arc::clone(&original.data),
                None => zero_frame(),
            };
            let retired = std::mem::replace(&mut frame.data, fresh);
            frame.epoch = epoch;
            self.pool.put(retired);
            copied.push(page);
        }
        let boundary = self.journal.partition_point(|&(e, _)| e <= snap.epoch);
        self.journal.truncate(boundary);
        self.journal.extend(copied.iter().map(|&p| (epoch, p)));
        self.restore_frames_copied += copied.len() as u64;
        copied
    }

    pub fn cow_faults(&self) -> u64 {
        self.cow_faults
    }

    pub fn restore_frames_copied(&self) -> u64 {
        self.restore_frames_copied
    }

    pub fn rewind_journal_frames(&self) -> u64 {
        self.rewind_journal_frames
    }

    pub fn frame_pool_reuses(&self) -> u64 {
        self.frame_pool_reuses
    }

    pub fn cow_frames_shared(&self) -> u64 {
        self.frames
            .values()
            .filter(|f| Arc::strong_count(&f.data) > 1)
            .count() as u64
    }

    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    fn frame_mut(&mut self, pa: PhysAddr) -> &mut [u8; PAGE_SIZE as usize] {
        use std::collections::hash_map::Entry;
        let epoch = self.epoch;
        let page = pa.page_number();
        let frame = match self.frames.entry(page) {
            Entry::Occupied(e) => {
                let frame = e.into_mut();
                if frame.epoch != epoch {
                    frame.epoch = epoch;
                    self.journal.push((epoch, page));
                }
                frame
            }
            Entry::Vacant(e) => {
                let data = match self.pool.take() {
                    Some(mut buf) => {
                        self.frame_pool_reuses += 1;
                        Arc::get_mut(&mut buf)
                            .expect("pooled frames are exclusively owned")
                            .fill(0);
                        buf
                    }
                    None => Arc::new([0; PAGE_SIZE as usize]),
                };
                self.journal.push((epoch, page));
                e.insert(Frame { data, epoch })
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
            Arc::get_mut(&mut fresh)
                .expect("pooled frames are exclusively owned")
                .copy_from_slice(&frame.data[..]);
            frame.data = fresh;
        }
        Arc::get_mut(&mut frame.data).expect("frame was just unshared")
    }

    pub fn read_u8(&self, pa: PhysAddr) -> u8 {
        self.frames
            .get(&pa.page_number())
            .map_or(0, |f| f.data[pa.page_offset() as usize])
    }

    pub fn write_u8(&mut self, pa: PhysAddr, value: u8) {
        self.frame_mut(pa)[pa.page_offset() as usize] = value;
    }

    pub fn write_u64(&mut self, pa: PhysAddr, value: u64) {
        for (i, b) in value.to_le_bytes().iter().enumerate() {
            self.write_u8(pa + i as u64, *b);
        }
    }

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

    pub fn read_bytes(&self, pa: PhysAddr, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let addr = pa + out.len() as u64;
            let in_frame = (PAGE_SIZE - addr.page_offset()) as usize;
            let chunk = in_frame.min(len - out.len());
            match self.frames.get(&addr.page_number()) {
                Some(frame) => {
                    let start = addr.page_offset() as usize;
                    out.extend_from_slice(&frame.data[start..start + chunk]);
                }
                None => out.extend(std::iter::repeat_n(0, chunk)),
            }
        }
        out
    }
}
