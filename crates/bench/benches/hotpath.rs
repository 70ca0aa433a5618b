//! Microbenchmarks for the trial hot loop's fast paths: machine
//! checkpoint/rewind (copy-on-write) and virtual-address translation
//! (TLB fast path vs the `BTreeMap` page walk). Numbers are recorded
//! in `EXPERIMENTS.md`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use phantom::UarchProfile;
use phantom_mem::{PageFlags, VirtAddr, PAGE_SIZE};
use phantom_pipeline::Machine;

const DATA_BASE: u64 = 0x5000_0000;
/// Warm resident footprint: 1 MiB = 256 materialized frames.
const WARM_BYTES: u64 = 1 << 20;

/// A machine with a warm 1 MiB data footprint — the resident state a
/// trained trial machine carries into its snapshot.
fn warm_machine() -> Machine {
    let mut m = Machine::new(UarchProfile::zen2(), 1 << 26);
    m.map_range(VirtAddr::new(DATA_BASE), WARM_BYTES, PageFlags::USER_DATA)
        .expect("warm region fits");
    let warm = vec![0xa5u8; WARM_BYTES as usize];
    m.poke(VirtAddr::new(DATA_BASE), &warm);
    m
}

fn bench_snapshot(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath/snapshot");
    group.sample_size(20);
    // The CoW checkpoint: one machine clone whose memory is one Arc
    // bump per 64-frame chunk.
    group.bench_function("cow", |b| {
        let mut m = warm_machine();
        b.iter(|| black_box(m.snapshot()))
    });
    group.finish();
}

fn bench_restore(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath/restore");
    group.sample_size(20);
    for dirty_pages in [1u64, 8, 64] {
        group.bench_with_input(
            BenchmarkId::new("dirty_pages", dirty_pages),
            &dirty_pages,
            |b, &dirty_pages| {
                let mut m = warm_machine();
                let snap = m.snapshot();
                b.iter(|| {
                    for page in 0..dirty_pages {
                        m.poke_u64(VirtAddr::new(DATA_BASE + page * PAGE_SIZE), page);
                    }
                    m.restore(&snap);
                })
            },
        );
    }
    group.finish();
}

fn bench_translate(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath/translate");
    group.sample_size(20);
    let va = VirtAddr::new(DATA_BASE + 0x1008);
    // TLB fast-path hit: prime a version-current supervisor entry so
    // `peek`'s translation is served without walking the page table.
    group.bench_function("tlb_hit", |b| {
        let mut m = warm_machine();
        let pa = m
            .page_table()
            .translate(
                va,
                phantom_mem::AccessKind::Read,
                phantom_mem::PrivilegeLevel::Supervisor,
            )
            .expect("mapped");
        let version = m.page_table().version();
        m.tlb_mut().insert(va, pa, PageFlags::USER_DATA, 1, version);
        b.iter(|| black_box(m.peek_u64(va)))
    });
    // No TLB entry: every translation is a full `BTreeMap` walk over
    // the 256-page mapping.
    group.bench_function("page_walk", |b| {
        let m = warm_machine();
        b.iter(|| black_box(m.peek_u64(va)))
    });
    group.finish();
}

criterion_group!(benches, bench_snapshot, bench_restore, bench_translate);
criterion_main!(benches);
