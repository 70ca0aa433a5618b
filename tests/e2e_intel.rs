//! Cross-crate integration: why the paper "limits our focus to the AMD
//! parts for exploitation" (§6) — on the modeled Intel parts, user-mode
//! BTB training is never served in kernel mode.

use phantom::primitives::{p1_detect_executable, PrimitiveConfig};
use phantom::UarchProfile;
use phantom_isa::BranchKind;
use phantom_kernel::System;
use phantom_mem::VirtAddr;
use phantom_sidechannel::NoiseModel;

#[test]
fn user_injected_predictions_are_not_served_in_kernel_mode() {
    // "the Intel processors we tested do not re-use a user-injected
    // prediction in kernel mode, even while the mitigation is switched
    // off" — modeled as privilege-tagged BTB entries.
    for profile in [UarchProfile::intel9(), UarchProfile::intel12()] {
        let name = profile.name.clone();
        let mut sys = System::new(profile, 1 << 28, 70).expect("boot");
        let victim = sys.image().listing1_nop;
        let target = sys.image().base + 0x1000;
        // Train directly at the kernel victim address (page-fault-and-
        // catch, the strongest possible aliasing)...
        sys.train_user_branch(victim, BranchKind::Indirect, target)
            .expect("training runs");
        // ...yet the kernel-mode prediction query refuses to serve it.
        let pred = sys.machine_mut().bpu_mut().predict_window(
            victim,
            32,
            phantom_mem::PrivilegeLevel::Supervisor,
            0,
        );
        assert!(pred.is_none(), "{name}: cross-privilege reuse must fail");
    }
}

#[test]
fn p1_kaslr_probe_is_blind_on_intel() {
    // The full P1 probe (the Table 3 building block) sees nothing on
    // Intel: the kernel never fires the user-trained entry.
    let mut sys = System::new(UarchProfile::intel13(), 1 << 28, 71).expect("boot");
    let cfg = PrimitiveConfig {
        pattern: 0, // exact-address aliasing — the best case
        attacker_base: VirtAddr::new(0x5000_0000),
        arena: None,
    };
    let mut noise = NoiseModel::quiet(0);
    let victim = sys.image().listing1_nop;
    let mapped = sys.image().base + 0x1000;
    let detected =
        p1_detect_executable(&mut sys, &cfg, victim, mapped, &mut noise).expect("probe runs");
    assert!(!detected, "no cross-privilege P1 signal on Intel");
}

#[test]
fn same_mode_phantom_still_works_on_intel() {
    // Table 1 shows IF/ID on Intel for user->user confusion: the
    // privilege tag only blocks *cross-mode* reuse.
    use phantom::experiment::{run_combo, TrainKind, VictimKind};
    let o = run_combo(
        UarchProfile::intel12(),
        TrainKind::JmpInd,
        VictimKind::NonBranch,
        0,
    )
    .expect("combo");
    assert!(
        o.fetched && o.decoded,
        "same-mode phantom fetch/decode on Intel"
    );
    assert!(!o.executed, "but never execution");
}
