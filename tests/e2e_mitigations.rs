//! Cross-crate integration: the mitigation matrix of §6.3/§8.

use phantom::mitigations::{
    ibpb_blocks_p1, o4_suppress_bp_on_non_br, o5_auto_ibrs_fetch, suppress_overhead_on,
};
use phantom::primitives::{p2_detect_mapped, PrimitiveConfig};
use phantom::runner::TrialRunner;
use phantom::UarchProfile;
use phantom_kernel::System;
use phantom_mem::VirtAddr;
use phantom_sidechannel::NoiseModel;

#[test]
fn o4_matrix_across_zen_parts() {
    // §8.1's two problems: ① the bit does not exist on Zen 1;
    // ② on Zen 2 it stops execution but not IF/ID.
    let zen1 = o4_suppress_bp_on_non_br(UarchProfile::zen1()).expect("runs");
    assert!(zen1.suppressed.executed, "problem ①: unsupported on Zen 1");

    let zen2 = o4_suppress_bp_on_non_br(UarchProfile::zen2()).expect("runs");
    assert!(zen2.baseline.executed);
    assert!(
        zen2.suppressed.fetched && zen2.suppressed.decoded,
        "problem ②: IF/ID survive"
    );
    assert!(!zen2.suppressed.executed, "…but EX is stopped");
}

#[test]
fn suppress_does_not_protect_branch_victims() {
    // "P2 and P3 still work if targeting a victim instruction that is a
    // control-flow edge": the readv() call-site confusion drives a
    // branch victim, so SuppressBPOnNonBr (enabled by the hardened boot)
    // does not stop it on Zen 2.
    let mut sys = System::new(UarchProfile::zen2(), 1 << 28, 5).expect("boot");
    assert!(
        sys.machine().bpu().msr().suppress_bp_on_non_br,
        "hardened boot sets the bit"
    );
    let cfg = PrimitiveConfig::for_system(&sys, VirtAddr::new(0x5000_0000));
    let mut noise = NoiseModel::quiet(0);
    let (l2c, l3g) = (sys.image().listing2_call, sys.image().listing3_gadget);
    let physmap_addr = sys.layout().physmap_base() + 0x10_4000;
    let detected =
        p2_detect_mapped(&mut sys, &cfg, l2c, l3g, physmap_addr, &mut noise).expect("p2");
    assert!(
        detected,
        "P2 through a call victim despite SuppressBPOnNonBr"
    );
}

#[test]
fn o5_and_ibpb() {
    assert!(
        o5_auto_ibrs_fetch(3).expect("runs"),
        "O5: AutoIBRS leaves cross-privilege IF intact"
    );
    assert!(
        !ibpb_blocks_p1(4).expect("runs"),
        "IBPB flushes every prediction structure and kills P1"
    );
}

#[test]
fn overhead_is_fraction_of_a_percent_shaped() {
    let r = suppress_overhead_on(&TrialRunner::new(), UarchProfile::zen2()).unwrap();
    assert!(r.geomean_overhead_pct > 0.0);
    assert!(r.geomean_overhead_pct < 2.0, "{}", r.geomean_overhead_pct);
    // The cost concentrates in decoder-path-heavy (big-code) workloads.
    let bigcode = r
        .per_workload
        .iter()
        .find(|(name, _, _)| *name == "bigcode")
        .expect("suite includes bigcode");
    let overhead = bigcode.2 as f64 / bigcode.1 as f64 - 1.0;
    assert!(overhead > 0.003, "bigcode overhead {overhead}");
}

#[test]
fn suppress_bit_is_a_noop_on_zen1_machines() {
    use phantom_pipeline::Machine;
    let mut m = Machine::new(UarchProfile::zen1(), 1 << 20);
    let effective = m.write_msr(phantom_bpu::MsrState {
        suppress_bp_on_non_br: true,
        ..Default::default()
    });
    assert!(!effective.suppress_bp_on_non_br);
}
