//! The §6.1 attacker primitives.
//!
//! * **P1** — detect mapped *executable* memory: inject a `jmp*`
//!   prediction at a kernel instruction on the `getpid()` path, pointed
//!   at a probe target `T`. The phantom fetch fills an I-cache line iff
//!   `T` is present and executable; observed with L1I Prime+Probe.
//!   Works on every Zen (and is unaffected by AutoIBRS — O5).
//! * **P2** — detect mapped (possibly non-executable) memory: confuse
//!   the direct `call` on the `readv()` path with a `jmp*` prediction to
//!   the Listing 3 gadget `mov r12, [r12+0xbe0]`; the transient load
//!   fills a D-cache line iff `[R12+0xbe0]` is present. Needs phantom
//!   *execution*: Zen 1/2 only.
//! * **P3** — leak a victim register: steer the same call-site confusion
//!   to a gadget that cache-encodes a byte of the live register into an
//!   attacker-observable buffer.
//!
//! Every primitive takes the *collision pattern* recovered in
//! [`crate::collide`] to choose its user-space training address, and an
//! attacker memory region for the eviction sets.

use phantom_isa::BranchKind;
use phantom_kernel::image::LISTING3_DISP;
use phantom_kernel::System;
use phantom_mem::VirtAddr;
use phantom_sidechannel::{
    NoiseModel, PrimeProbe, ProbeArena, ProbeLevel, ProbeResult, Reading, WayLatencies,
};

/// Attacker configuration shared by the primitives.
#[derive(Debug, Clone, Copy)]
pub struct PrimitiveConfig {
    /// XOR pattern mapping a kernel address to an aliasing user address
    /// (from [`crate::collide::collision_pattern`], or the trivial
    /// high-bit pattern on Zen 1/2).
    pub pattern: u64,
    /// Base of the attacker's user region used for eviction sets.
    pub attacker_base: VirtAddr,
    /// A standing probe mapping to re-arm instead of rebuilding the
    /// eviction-set mapping every probe ([`ProbeArena::install`] it
    /// once, before checkpointing). `None` maps per probe. The probe
    /// primitives only consult an arena whose level matches theirs
    /// (P1 wants L1I, P2 wants L1D), so a config armed for one channel
    /// is safe to pass to the other.
    pub arena: Option<ProbeArena>,
}

impl PrimitiveConfig {
    /// A config using the paper's published Zen 3/4 pattern.
    pub fn zen34_paper(attacker_base: VirtAddr) -> PrimitiveConfig {
        PrimitiveConfig {
            pattern: 0xffff_bff8_0000_0000,
            attacker_base,
            arena: None,
        }
    }

    /// A config for Zen 1/2, where clearing the untagged high bits
    /// aliases directly.
    pub fn zen12(attacker_base: VirtAddr) -> PrimitiveConfig {
        PrimitiveConfig {
            pattern: 0xffff_fff0_0000_0000,
            attacker_base,
            arena: None,
        }
    }

    /// The same config with a standing [`ProbeArena`].
    pub fn with_arena(mut self, arena: ProbeArena) -> PrimitiveConfig {
        self.arena = Some(arena);
        self
    }

    /// The right pattern for a system's microarchitecture.
    pub fn for_system(sys: &System, attacker_base: VirtAddr) -> PrimitiveConfig {
        match sys.machine().profile().name.as_str() {
            "Zen" | "Zen 2" => PrimitiveConfig::zen12(attacker_base),
            _ => PrimitiveConfig::zen34_paper(attacker_base),
        }
    }

    /// The user-space alias of a kernel address under this pattern.
    pub fn user_alias(&self, kernel: VirtAddr) -> VirtAddr {
        VirtAddr::new(kernel.raw() ^ self.pattern)
    }
}

/// Errors from primitive execution.
#[derive(Debug)]
pub struct PrimitiveError(pub String);

impl std::fmt::Display for PrimitiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "primitive failed: {}", self.0)
    }
}

impl std::error::Error for PrimitiveError {}

fn err<E: std::fmt::Display>(e: E) -> PrimitiveError {
    PrimitiveError(e.to_string())
}

/// The L1 set that `target`'s line maps to.
fn set_of(target: VirtAddr) -> usize {
    ((target.raw() >> 6) & 63) as usize
}

/// **P1**: does executing `victim_pc` in the kernel transiently fetch
/// `target`? Returns the raw probe of I-cache set `probe_set` (callers
/// threshold or score against a baseline): the §7.3 scoring probes the
/// *same* set both with the injected target mapping into it (`T_S`)
/// and mapping elsewhere (the baseline `B_S`).
///
/// Steps (§6.1): ① train the BTB with a branch to `target` at the
/// user alias of `victim_pc`, ② prime the I-cache set, ③ execute the
/// victim (`getpid()`), ④ probe.
///
/// # Errors
///
/// Returns [`PrimitiveError`] on setup or syscall failure.
pub fn p1_probe_in_set(
    sys: &mut System,
    cfg: &PrimitiveConfig,
    victim_pc: VirtAddr,
    target: VirtAddr,
    probe_set: usize,
    noise: &mut NoiseModel,
) -> Result<ProbeResult, PrimitiveError> {
    Ok(p1_probe_in_set_scored(sys, cfg, victim_pc, target, probe_set, noise)?.0)
}

/// [`p1_probe_in_set`] with the probe's confidence-scored [`Reading`]
/// alongside the raw result, for decoders that weigh margins instead of
/// trusting the eviction count outright.
///
/// # Errors
///
/// Returns [`PrimitiveError`] on setup or syscall failure.
pub fn p1_probe_in_set_scored(
    sys: &mut System,
    cfg: &PrimitiveConfig,
    victim_pc: VirtAddr,
    target: VirtAddr,
    probe_set: usize,
    noise: &mut NoiseModel,
) -> Result<(ProbeResult, Reading), PrimitiveError> {
    p1_triggered(sys, cfg, victim_pc, target, probe_set)?
        .probe_scored(sys.machine_mut(), noise)
        .map_err(err)
}

/// Steps ①–③ of P1 on I-cache set `probe_set`: returns the primed
/// eviction set after the victim ran, ready for ④ the probe.
fn p1_triggered(
    sys: &mut System,
    cfg: &PrimitiveConfig,
    victim_pc: VirtAddr,
    target: VirtAddr,
    probe_set: usize,
) -> Result<PrimeProbe, PrimitiveError> {
    let pp = match cfg.arena {
        Some(arena) if arena.level() == ProbeLevel::L1I => {
            arena.arm(sys.machine_mut(), probe_set).map_err(err)?
        }
        _ => PrimeProbe::new_l1i(sys.machine_mut(), cfg.attacker_base, probe_set).map_err(err)?,
    };
    sys.train_user_branch(cfg.user_alias(victim_pc), BranchKind::Indirect, target)
        .map_err(err)?;
    pp.prime(sys.machine_mut()).map_err(err)?;
    sys.getpid().map_err(err)?;
    Ok(pp)
}

/// **P1** as a confidence-scored [`Reading`], probing the I-cache set
/// `target` maps to.
///
/// # Errors
///
/// Returns [`PrimitiveError`] on setup or syscall failure.
pub fn p1_probe_scored(
    sys: &mut System,
    cfg: &PrimitiveConfig,
    victim_pc: VirtAddr,
    target: VirtAddr,
    noise: &mut NoiseModel,
) -> Result<Reading, PrimitiveError> {
    Ok(p1_probe_in_set_scored(sys, cfg, victim_pc, target, set_of(target), noise)?.1)
}

/// **P1** without the noise: each way's raw latency from probing the
/// I-cache set `target` maps to, with no noise drawn and no line
/// flushed ([`PrimeProbe::probe_latencies`]). Scored with
/// [`ProbeScale::score`](phantom_sidechannel::ProbeScale::score), it
/// reads what [`p1_probe_scored`] reads whenever the noise rolls no
/// spurious eviction.
///
/// # Errors
///
/// Returns [`PrimitiveError`] on setup or syscall failure.
pub fn p1_probe_latencies(
    sys: &mut System,
    cfg: &PrimitiveConfig,
    victim_pc: VirtAddr,
    target: VirtAddr,
) -> Result<WayLatencies, PrimitiveError> {
    p1_triggered(sys, cfg, victim_pc, target, set_of(target))?
        .probe_latencies(sys.machine_mut())
        .map_err(err)
}

/// **P1** with a baseline: probes `target`, then probes again with the
/// injected target pointing at a *different* I-cache set, and returns
/// whether the signal beats the baseline. This is the practical
/// mapped-executable detector.
///
/// # Errors
///
/// Returns [`PrimitiveError`] on setup or syscall failure.
pub fn p1_detect_executable(
    sys: &mut System,
    cfg: &PrimitiveConfig,
    victim_pc: VirtAddr,
    target: VirtAddr,
    noise: &mut NoiseModel,
) -> Result<bool, PrimitiveError> {
    // §7.3: probe the SAME set twice — once with the injected target
    // mapping into it, once with the target shifted to another set — so
    // the kernel path's own cache footprint cancels out.
    let set = set_of(target);
    let signal = p1_probe_in_set(sys, cfg, victim_pc, target, set, noise)?;
    let baseline_target = VirtAddr::new(target.raw() ^ 0x800);
    let baseline = p1_probe_in_set(sys, cfg, victim_pc, baseline_target, set, noise)?;
    Ok(signal.evictions > baseline.evictions)
}

/// **P2**: is `target` mapped (readable) in the kernel, even if NX?
///
/// Injects `jmp*`-to-Listing-3 at the `readv()` call site and passes
/// `target - 0xbe0` as the second syscall argument, so the transient
/// `mov r12, [r12+0xbe0]` loads `target`. Probes L1D set `probe_set`
/// (§7.3 scoring picks it). Only effective where phantom windows execute
/// (Zen 1/2).
///
/// # Errors
///
/// Returns [`PrimitiveError`] on setup or syscall failure.
pub fn p2_probe_in_set(
    sys: &mut System,
    cfg: &PrimitiveConfig,
    listing2_call: VirtAddr,
    listing3_gadget: VirtAddr,
    target: VirtAddr,
    probe_set: usize,
    noise: &mut NoiseModel,
) -> Result<ProbeResult, PrimitiveError> {
    Ok(p2_probe_in_set_scored(
        sys,
        cfg,
        listing2_call,
        listing3_gadget,
        target,
        probe_set,
        noise,
    )?
    .0)
}

/// [`p2_probe_in_set`] with the probe's confidence-scored [`Reading`].
///
/// # Errors
///
/// Returns [`PrimitiveError`] on setup or syscall failure.
#[allow(clippy::too_many_arguments)] // mirrors p2_probe_in_set
pub fn p2_probe_in_set_scored(
    sys: &mut System,
    cfg: &PrimitiveConfig,
    listing2_call: VirtAddr,
    listing3_gadget: VirtAddr,
    target: VirtAddr,
    probe_set: usize,
    noise: &mut NoiseModel,
) -> Result<(ProbeResult, Reading), PrimitiveError> {
    p2_triggered(sys, cfg, listing2_call, listing3_gadget, target, probe_set)?
        .probe_scored(sys.machine_mut(), noise)
        .map_err(err)
}

/// P2 up to its probe on L1D set `probe_set`: returns the primed
/// eviction set after the victim syscall ran.
fn p2_triggered(
    sys: &mut System,
    cfg: &PrimitiveConfig,
    listing2_call: VirtAddr,
    listing3_gadget: VirtAddr,
    target: VirtAddr,
    probe_set: usize,
) -> Result<PrimeProbe, PrimitiveError> {
    let pp = match cfg.arena {
        Some(arena) if arena.level() == ProbeLevel::L1D => {
            arena.arm(sys.machine_mut(), probe_set).map_err(err)?
        }
        _ => PrimeProbe::new_l1d(sys.machine_mut(), cfg.attacker_base + 0x20_0000, probe_set)
            .map_err(err)?,
    };
    sys.train_user_branch(
        cfg.user_alias(listing2_call),
        BranchKind::Indirect,
        listing3_gadget,
    )
    .map_err(err)?;
    pp.prime(sys.machine_mut()).map_err(err)?;
    sys.readv(0, target.raw().wrapping_sub(LISTING3_DISP as u64))
        .map_err(err)?;
    Ok(pp)
}

/// **P2** as a confidence-scored [`Reading`], probing the L1D set
/// `target` maps to.
///
/// # Errors
///
/// Returns [`PrimitiveError`] on setup or syscall failure.
pub fn p2_probe_scored(
    sys: &mut System,
    cfg: &PrimitiveConfig,
    listing2_call: VirtAddr,
    listing3_gadget: VirtAddr,
    target: VirtAddr,
    noise: &mut NoiseModel,
) -> Result<Reading, PrimitiveError> {
    let set = set_of(target);
    Ok(p2_probe_in_set_scored(sys, cfg, listing2_call, listing3_gadget, target, set, noise)?.1)
}

/// **P2** without the noise: each way's raw latency from probing the
/// L1D set `target` maps to (see [`p1_probe_latencies`]).
///
/// # Errors
///
/// Returns [`PrimitiveError`] on setup or syscall failure.
pub fn p2_probe_latencies(
    sys: &mut System,
    cfg: &PrimitiveConfig,
    listing2_call: VirtAddr,
    listing3_gadget: VirtAddr,
    target: VirtAddr,
) -> Result<WayLatencies, PrimitiveError> {
    let set = set_of(target);
    p2_triggered(sys, cfg, listing2_call, listing3_gadget, target, set)?
        .probe_latencies(sys.machine_mut())
        .map_err(err)
}

/// **P2** with a baseline comparison (target vs. a shifted set).
///
/// # Errors
///
/// Returns [`PrimitiveError`] on setup or syscall failure.
pub fn p2_detect_mapped(
    sys: &mut System,
    cfg: &PrimitiveConfig,
    listing2_call: VirtAddr,
    listing3_gadget: VirtAddr,
    target: VirtAddr,
    noise: &mut NoiseModel,
) -> Result<bool, PrimitiveError> {
    // Same-set signal/baseline pairing as P1 (§7.3).
    let set = set_of(target);
    let signal = p2_probe_in_set(sys, cfg, listing2_call, listing3_gadget, target, set, noise)?;
    let baseline_target = VirtAddr::new(target.raw() ^ 0x800);
    let baseline = p2_probe_in_set(
        sys,
        cfg,
        listing2_call,
        listing3_gadget,
        baseline_target,
        set,
        noise,
    )?;
    Ok(signal.evictions > baseline.evictions)
}

/// **P3**: leak the low byte of the victim's live `R12` during
/// `readv()`.
///
/// The attacker supplies a 256-line reload buffer (kernel-virtual
/// address `reload_kva`, typically the physmap alias of an attacker
/// page) and Flush+Reloads its own user mapping `reload_uva` afterward.
/// Returns the leaked byte, or `None` when no line lit up (squashed
/// window — e.g. on Zen 3/4).
///
/// # Errors
///
/// Returns [`PrimitiveError`] on setup or syscall failure.
#[allow(clippy::too_many_arguments)] // the primitive's contract mirrors the paper's step list
#[cfg(test)]
pub fn p3_leak_byte(
    sys: &mut System,
    cfg: &PrimitiveConfig,
    listing2_call: VirtAddr,
    p3_gadget: VirtAddr,
    victim_r12: u64,
    reload_uva: VirtAddr,
    reload_kva: VirtAddr,
    noise: &mut NoiseModel,
) -> Result<Option<u8>, PrimitiveError> {
    sys.train_user_branch(
        cfg.user_alias(listing2_call),
        BranchKind::Indirect,
        p3_gadget,
    )
    .map_err(err)?;
    // Flush all 256 candidate lines.
    for b in 0..256u64 {
        phantom_sidechannel::flush(sys.machine_mut(), reload_uva + (b << 6));
    }
    // The victim value rides in arg2 (which the readv path moves into
    // R12); the reload buffer's kernel address rides in arg1 (the fd),
    // which stays in R1 and is what the gadget adds.
    sys.readv(reload_kva.raw(), victim_r12).map_err(err)?;
    // Reload scan.
    let cfg_cache = *sys.machine().caches().config();
    let threshold = cfg_cache.l1_latency + cfg_cache.l2_latency + noise.jitter_cycles;
    let mut hit = None;
    for b in 0..256u64 {
        let latency = phantom_sidechannel::reload(sys.machine_mut(), reload_uva + (b << 6), noise);
        if latency <= threshold && hit.is_none() {
            hit = Some(b as u8);
        }
    }
    Ok(hit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phantom_mem::PageFlags;
    use phantom_pipeline::UarchProfile;

    const ATTACKER: VirtAddr = VirtAddr::new(0x5000_0000);

    fn boot(profile: UarchProfile, seed: u64) -> System {
        System::new(profile, 1 << 30, seed).expect("boot")
    }

    #[test]
    fn p1_sees_mapped_executable_kernel_text() {
        for profile in [UarchProfile::zen3(), UarchProfile::zen4()] {
            let name = profile.name.clone();
            let mut sys = boot(profile, 1);
            let mut noise = NoiseModel::quiet(0);
            let cfg = PrimitiveConfig::for_system(&sys, ATTACKER);
            let victim = sys.image().listing1_nop;
            // Target: another executable address inside the kernel image.
            let mapped = sys.image().base + 0x1000;
            let detected =
                p1_detect_executable(&mut sys, &cfg, victim, mapped, &mut noise).unwrap();
            assert!(
                detected,
                "P1 detects kernel text on {name} (despite AutoIBRS, O5)"
            );
        }
    }

    #[test]
    fn p1_rejects_unmapped_addresses() {
        let mut sys = boot(UarchProfile::zen3(), 2);
        let mut noise = NoiseModel::quiet(0);
        let cfg = PrimitiveConfig::for_system(&sys, ATTACKER);
        let victim = sys.image().listing1_nop;
        // An address in a *different* (unoccupied) KASLR slot.
        let unmapped = VirtAddr::new(sys.image().base.raw() ^ 0x1000_0000);
        let detected = p1_detect_executable(&mut sys, &cfg, victim, unmapped, &mut noise).unwrap();
        assert!(!detected, "no fetch from an unmapped candidate");
    }

    #[test]
    fn p1_rejects_mapped_but_nx_memory() {
        let mut sys = boot(UarchProfile::zen3(), 3);
        let mut noise = NoiseModel::quiet(0);
        let cfg = PrimitiveConfig::for_system(&sys, ATTACKER);
        let victim = sys.image().listing1_nop;
        let physmap_addr = sys.layout().physmap_base() + 0x4000;
        let detected =
            p1_detect_executable(&mut sys, &cfg, victim, physmap_addr, &mut noise).unwrap();
        assert!(!detected, "NX physmap is invisible to P1");
    }

    #[test]
    fn p2_sees_nx_physmap_on_zen2_only() {
        for (profile, expect) in [
            (UarchProfile::zen1(), true),
            (UarchProfile::zen2(), true),
            (UarchProfile::zen3(), false),
        ] {
            let name = profile.name.clone();
            let mut sys = boot(profile, 4);
            let mut noise = NoiseModel::quiet(0);
            let cfg = PrimitiveConfig::for_system(&sys, ATTACKER);
            let (l2c, l3g) = (sys.image().listing2_call, sys.image().listing3_gadget);
            let physmap_addr = sys.layout().physmap_base() + 0x10_4000;
            let detected =
                p2_detect_mapped(&mut sys, &cfg, l2c, l3g, physmap_addr, &mut noise).unwrap();
            assert_eq!(detected, expect, "P2 on {name}");
        }
    }

    #[test]
    fn p3_leaks_the_victim_register_byte_on_zen2() {
        let mut sys = boot(UarchProfile::zen2(), 5);
        let mut noise = NoiseModel::quiet(0);
        let cfg = PrimitiveConfig::for_system(&sys, ATTACKER);
        // Attacker reload buffer: 256 lines user + its kernel (physmap)
        // alias.
        let reload_uva = VirtAddr::new(0x5200_0000);
        sys.map_user(reload_uva, 256 * 64, PageFlags::USER_DATA)
            .unwrap();
        let pa = sys
            .machine()
            .page_table()
            .translate(
                reload_uva,
                phantom_mem::AccessKind::Read,
                phantom_mem::PrivilegeLevel::User,
            )
            .unwrap();
        let reload_kva = sys.layout().physmap_base() + pa.raw();
        let (l2c, gadget) = (sys.image().listing2_call, sys.module().p3_gadget);
        let leaked = p3_leak_byte(
            &mut sys,
            &cfg,
            l2c,
            gadget,
            0x1357_9bdf_0246_8ace,
            reload_uva,
            reload_kva,
            &mut noise,
        )
        .unwrap();
        assert_eq!(leaked, Some(0xce), "low byte of the victim R12");
    }

    #[test]
    fn p3_is_squashed_on_zen4() {
        let mut sys = boot(UarchProfile::zen4(), 6);
        let mut noise = NoiseModel::quiet(0);
        let cfg = PrimitiveConfig::for_system(&sys, ATTACKER);
        let reload_uva = VirtAddr::new(0x5200_0000);
        sys.map_user(reload_uva, 256 * 64, PageFlags::USER_DATA)
            .unwrap();
        let pa = sys
            .machine()
            .page_table()
            .translate(
                reload_uva,
                phantom_mem::AccessKind::Read,
                phantom_mem::PrivilegeLevel::User,
            )
            .unwrap();
        let reload_kva = sys.layout().physmap_base() + pa.raw();
        let (l2c, gadget) = (sys.image().listing2_call, sys.module().p3_gadget);
        let leaked = p3_leak_byte(
            &mut sys, &cfg, l2c, gadget, 0xAB, reload_uva, reload_kva, &mut noise,
        )
        .unwrap();
        assert_eq!(leaked, None, "no phantom execution on Zen 4");
    }

    #[test]
    fn p1_works_at_a_kernel_ret_victim_too() {
        // "given that branches are common in software, the impact of
        // this mitigation is negligible" (§6.3): the injection point
        // need not be a nop. Confuse the kernel's __fdget_pos inner
        // `ret` (exercised by readv) instead of the getpid nop.
        let mut sys = boot(UarchProfile::zen3(), 91);
        let mut noise = NoiseModel::quiet(0);
        let cfg = PrimitiveConfig::for_system(&sys, ATTACKER);
        // The inner function's ret: call target + 3 (its NopN len 3).
        let inner_ret = {
            let call = sys.image().listing2_call;
            let bytes = sys.machine().try_peek(call, 5).unwrap();
            let (inst, _) = phantom_isa::decode::decode(&bytes).unwrap();
            let target = inst.direct_target(call.raw()).unwrap();
            VirtAddr::new(target + 3)
        };
        let mapped = sys.image().base + 0x1000;
        // Inject at the ret's alias; readv() executes it.
        let set = ((mapped.raw() >> 6) & 63) as usize;
        let pp = PrimeProbe::new_l1i(sys.machine_mut(), ATTACKER, set).unwrap();
        sys.train_user_branch(
            cfg.user_alias(inner_ret),
            phantom_isa::BranchKind::Indirect,
            mapped,
        )
        .unwrap();
        pp.prime(sys.machine_mut()).unwrap();
        sys.readv(0, 0).unwrap();
        let signal = pp.probe(sys.machine_mut(), &mut noise).unwrap().evictions;
        assert!(
            signal > 0,
            "phantom fires at a branch victim inside the kernel"
        );
    }

    #[test]
    fn stibp_blocks_cross_thread_injection() {
        // Sibling-thread injection: with STIBP (part of the hardened
        // boot), an entry trained on thread 1 never steers thread 0.
        // Same-set signal/baseline pairing cancels the kernel's own
        // cache footprint.
        let mut fresh = boot(UarchProfile::zen3(), 93);
        assert!(fresh.machine().bpu().msr().stibp);
        let cfg = PrimitiveConfig::for_system(&fresh, ATTACKER);
        let victim = fresh.image().listing1_nop;
        let mapped = fresh.image().base + 0x1000;
        let set = ((mapped.raw() >> 6) & 63) as usize;
        let measure = |sys: &mut System, target: VirtAddr, train_thread: u8| -> usize {
            sys.machine_mut().set_thread(train_thread);
            sys.train_user_branch(
                cfg.user_alias(victim),
                phantom_isa::BranchKind::Indirect,
                target,
            )
            .unwrap();
            sys.machine_mut().set_thread(0);
            let pp = PrimeProbe::new_l1i(sys.machine_mut(), ATTACKER, set).unwrap();
            pp.prime(sys.machine_mut()).unwrap();
            sys.getpid().unwrap();
            let mut noise = NoiseModel::quiet(0);
            pp.probe(sys.machine_mut(), &mut noise).unwrap().evictions
        };
        // Baseline: sibling-trained target aimed at another set.
        let baseline = measure(&mut fresh, VirtAddr::new(mapped.raw() ^ 0x800), 1);
        let signal = measure(&mut fresh, mapped, 1);
        assert!(
            signal <= baseline,
            "STIBP hides sibling-trained entries: signal {signal} baseline {baseline}"
        );
        // Control: same-thread training does fire.
        let same = measure(&mut fresh, mapped, 0);
        assert!(
            same > baseline,
            "same-thread injection works: {same} vs {baseline}"
        );
    }
}
