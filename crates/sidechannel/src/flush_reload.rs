//! Flush+Reload on shared memory.
//!
//! Requires the attacker and the measurement target to share a line —
//! in the paper either genuinely shared memory or, crucially, *physmap*:
//! once the attacker knows the physical address of their own page, the
//! kernel's direct-map alias of that page is a shared line they can
//! Flush+Reload while the kernel touches it (§7.4).

use phantom_mem::{AccessKind, PrivilegeLevel, VirtAddr};
use phantom_pipeline::Machine;

use crate::noise::NoiseModel;
#[cfg(test)]
use crate::{reading::Reading, threshold::Calibration};

/// Flush the line holding `va` from the whole hierarchy (`clflush`).
///
/// # Panics
///
/// Panics if `va` is unmapped (an attacker always flushes through a
/// mapping they own).
pub fn flush(machine: &mut Machine, va: VirtAddr) {
    let pa = machine
        .page_table()
        .translate(va, AccessKind::Read, PrivilegeLevel::Supervisor)
        .unwrap_or_else(|e| panic!("flush of unmapped {va}: {e}"));
    machine.caches_mut().flush_line(pa.raw());
    machine.add_cycles(40);
}

/// Timed reload of `va`; returns the measured (jittered) latency.
///
/// # Panics
///
/// Panics if `va` is unmapped.
pub fn reload(machine: &mut Machine, va: VirtAddr, noise: &mut NoiseModel) -> u64 {
    let pa = machine
        .page_table()
        .translate(va, AccessKind::Read, PrivilegeLevel::Supervisor)
        .unwrap_or_else(|e| panic!("reload of unmapped {va}: {e}"));
    let (_, latency) = machine.caches_mut().access_data(pa.raw());
    machine.add_cycles(latency);
    noise.jitter(latency)
}

/// One full Flush+Reload round: reload, classify against `threshold`
/// (cycles), and flush again for the next round. Returns `true` when the
/// line was cached (the victim touched it).
#[cfg(test)]
pub fn flush_reload(
    machine: &mut Machine,
    va: VirtAddr,
    threshold: u64,
    noise: &mut NoiseModel,
) -> bool {
    let latency = reload(machine, va, noise);
    flush(machine, va);
    latency <= threshold
}

/// [`flush_reload`] with a confidence-scored [`Reading`]: classifies
/// against the calibration's threshold and normalizes the margin
/// against its hit/miss span, so a reload one cycle under the threshold
/// scores near zero and one a full span away scores 1.
///
/// # Panics
///
/// Panics if `va` is unmapped (as [`flush`]/[`reload`] do).
#[cfg(test)]
pub fn flush_reload_scored(
    machine: &mut Machine,
    va: VirtAddr,
    cal: &Calibration,
    noise: &mut NoiseModel,
) -> Reading {
    let latency = reload(machine, va, noise);
    flush(machine, va);
    Reading::classify(latency, cal.threshold, cal.span())
}

#[cfg(test)]
mod tests {
    use super::*;
    use phantom_mem::PageFlags;
    use phantom_pipeline::UarchProfile;

    fn setup() -> (Machine, VirtAddr) {
        let mut m = Machine::new(UarchProfile::zen2(), 1 << 24);
        let va = VirtAddr::new(0x5000_0000);
        m.map_range(va, 4096, PageFlags::USER_DATA).unwrap();
        (m, va)
    }

    #[test]
    fn untouched_line_reloads_slow() {
        let (mut m, va) = setup();
        let mut noise = NoiseModel::quiet(0);
        flush(&mut m, va);
        let latency = reload(&mut m, va, &mut noise);
        let cfg = m.caches().config();
        assert!(latency >= cfg.memory_latency);
    }

    #[test]
    fn touched_line_reloads_fast() {
        let (mut m, va) = setup();
        let mut noise = NoiseModel::quiet(0);
        flush(&mut m, va);
        // Victim touch.
        let pa = m
            .page_table()
            .translate(va, AccessKind::Read, PrivilegeLevel::User)
            .unwrap();
        m.caches_mut().access_data(pa.raw());
        let latency = reload(&mut m, va, &mut noise);
        assert!(latency <= m.caches().config().l1_latency + 1);
    }

    #[test]
    fn flush_reload_classifies_and_rearms() {
        let (mut m, va) = setup();
        let mut noise = NoiseModel::quiet(0);
        let threshold = m.caches().config().l2_latency + m.caches().config().l1_latency;
        flush(&mut m, va);
        assert!(!flush_reload(&mut m, va, threshold, &mut noise));
        let pa = m
            .page_table()
            .translate(va, AccessKind::Read, PrivilegeLevel::User)
            .unwrap();
        m.caches_mut().access_data(pa.raw());
        assert!(flush_reload(&mut m, va, threshold, &mut noise));
        // The classification round flushed again: next is slow.
        assert!(!flush_reload(&mut m, va, threshold, &mut noise));
    }

    #[test]
    fn scored_flush_reload_matches_and_grades_the_boolean() {
        let (mut m, va) = setup();
        let mut noise = NoiseModel::quiet(0);
        let cal = Calibration::run(&mut m, &mut noise, 8).unwrap();
        flush(&mut m, va);
        let cold = flush_reload_scored(&mut m, va, &cal, &mut noise);
        assert!(!cold.hit);
        assert!(cold.confidence.value() >= 0.4, "{cold:?}");
        let pa = m
            .page_table()
            .translate(va, AccessKind::Read, PrivilegeLevel::User)
            .unwrap();
        m.caches_mut().access_data(pa.raw());
        let warm = flush_reload_scored(&mut m, va, &cal, &mut noise);
        assert!(warm.hit);
        assert!(warm.confidence.value() > 0.0, "{warm:?}");
        assert_eq!(warm.cycles, m.caches().config().l1_latency);
    }

    #[test]
    fn physmap_alias_is_the_same_line() {
        // Two virtual mappings of one physical frame: touching one makes
        // the other reload fast (the §7.4 setup).
        let mut m = Machine::new(UarchProfile::zen2(), 1 << 24);
        let frame = m.phys_mut().alloc_frame().unwrap();
        let user = VirtAddr::new(0x5000_0000);
        let kernel_alias = VirtAddr::new(0xffff_8880_0000_0000);
        m.page_table_mut().map_4k(user, frame, PageFlags::USER_DATA);
        m.page_table_mut()
            .map_4k(kernel_alias, frame, PageFlags::KERNEL_DATA);
        let mut noise = NoiseModel::quiet(0);
        flush(&mut m, user);
        // Kernel touches its alias.
        let pa = m
            .page_table()
            .translate(kernel_alias, AccessKind::Read, PrivilegeLevel::Supervisor)
            .unwrap();
        m.caches_mut().access_data(pa.raw());
        let latency = reload(&mut m, user, &mut noise);
        assert!(latency <= m.caches().config().l1_latency);
    }
}
