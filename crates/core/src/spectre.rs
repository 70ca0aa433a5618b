//! The baseline: conventional Spectre — what the paper positions PHANTOM
//! against.
//!
//! A conventional Spectre-V2 attack (§2.3) hijacks an *execute-dependent*
//! branch: the BTB steers an indirect branch to a disclosure gadget, and
//! the wide backend-resteer window executes **two dependent loads** —
//! fetch the secret, then touch a secret-indexed cache line. This module
//! implements that baseline end-to-end and the comparisons the paper
//! draws:
//!
//! * both window classes measured side by side
//!   ([`window_comparison`]): backend windows fit tens of µops, frontend
//!   (phantom) windows fit at most a handful;
//! * conventional Spectre works on **every** microarchitecture — its
//!   window is backend-resteered — while phantom execution is Zen 1/2
//!   only;
//! * a *single-load* (MDS) gadget is useless to conventional Spectre but
//!   leakable with PHANTOM's nested steer (§7.4's central claim),
//!   asserted in this module's tests.

use phantom_isa::asm::Assembler;
use phantom_isa::encode::encode;
use phantom_isa::inst::AluOp;
use phantom_isa::{Inst, Reg};
use phantom_mem::{PageFlags, VirtAddr};
use phantom_pipeline::{Machine, ResteerKind, TransientWindow, UarchProfile};
use phantom_sidechannel::NoiseModel;

/// Errors from baseline construction.
#[derive(Debug)]
pub struct SpectreError(pub String);

impl std::fmt::Display for SpectreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "spectre baseline failed: {}", self.0)
    }
}

impl std::error::Error for SpectreError {}

fn err<E: std::fmt::Display>(e: E) -> SpectreError {
    SpectreError(e.to_string())
}

/// Result of one Spectre-V2 leak attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpectreLeak {
    /// The byte the cache channel recovered, if any line lit up.
    pub leaked: Option<u8>,
    /// The planted secret byte (scoring).
    pub secret: u8,
}

impl SpectreLeak {
    /// Whether the attack recovered the secret exactly.
    pub fn correct(&self) -> bool {
        self.leaked == Some(self.secret)
    }
}

/// A classic user-space Spectre-V2 leak: train an indirect jump to a
/// two-load disclosure gadget, then run the victim with a different
/// architectural target. The backend window executes
/// `secret = [R6]; touch reload[secret << 6]`, and Flush+Reload on the
/// reload buffer recovers the byte.
///
/// Works on **all** modeled microarchitectures: the misprediction is
/// only detectable at execute, so even Zen 4's fast decoder cannot
/// squash it early.
///
/// # Errors
///
/// Returns [`SpectreError`] on setup failure.
pub fn spectre_v2_leak(profile: UarchProfile, secret: u8) -> Result<SpectreLeak, SpectreError> {
    let mut m = Machine::new(profile, 1 << 24);
    let text = PageFlags::USER_TEXT | PageFlags::WRITE;
    let victim_branch = VirtAddr::new(0x40_0ac0);
    let gadget = VirtAddr::new(0x48_0000);
    let benign = VirtAddr::new(0x4c_0000);
    let secret_addr = VirtAddr::new(0x60_0000);
    let reload = VirtAddr::new(0x62_0000);

    m.map_range(victim_branch.page_base(), 0x1000, text)
        .map_err(err)?;
    m.map_range(benign, 0x1000, text).map_err(err)?;
    m.map_range(secret_addr, 64, PageFlags::USER_DATA)
        .map_err(err)?;
    m.map_range(reload, 256 * 64, PageFlags::USER_DATA)
        .map_err(err)?;
    m.poke_u64(secret_addr, u64::from(secret));

    // The two-load disclosure gadget.
    let mut g = Assembler::new(gadget.raw());
    g.push(Inst::Load {
        dst: Reg::R3,
        base: Reg::R6,
        disp: 0,
    }); // secret
    g.push(Inst::AndImm {
        dst: Reg::R3,
        imm: 0xff,
    });
    g.push(Inst::Shl {
        dst: Reg::R3,
        amount: 6,
    });
    g.push(Inst::Alu {
        op: AluOp::Add,
        dst: Reg::R3,
        src: Reg::R7,
    });
    g.push(Inst::Load {
        dst: Reg::R9,
        base: Reg::R3,
        disp: 0,
    }); // encode
    g.push(Inst::Halt);
    m.load_blob(&g.finish().map_err(err)?, text).map_err(err)?;
    m.poke(benign, encode(&Inst::Halt).map_err(err)?.as_bytes());

    // Victim: jmp* r11.
    let mut v = Assembler::new(victim_branch.raw());
    v.push(Inst::JmpInd { src: Reg::R11 });
    v.push(Inst::Halt);
    m.load_blob(&v.finish().map_err(err)?, text).map_err(err)?;

    m.set_reg(Reg::R6, secret_addr.raw());
    m.set_reg(Reg::R7, reload.raw());

    // Train: architecturally jump to the gadget once.
    m.set_reg(Reg::R11, gadget.raw());
    m.set_pc(victim_branch);
    m.run(10).map_err(err)?;

    // Arm the reload buffer.
    for b in 0..256u64 {
        phantom_sidechannel::flush(&mut m, reload + (b << 6));
    }

    // Victim run: architectural target is benign, prediction says gadget.
    m.set_reg(Reg::R11, benign.raw());
    m.set_pc(victim_branch);
    m.run(10).map_err(err)?;

    // Flush+Reload scan.
    let mut noise = NoiseModel::quiet(0);
    let threshold = {
        let c = m.caches().config();
        c.l1_latency + c.l2_latency
    };
    let mut leaked = None;
    for b in 0..256u64 {
        let latency = phantom_sidechannel::reload(&mut m, reload + (b << 6), &mut noise);
        if latency <= threshold && leaked.is_none() {
            leaked = Some(b as u8);
        }
    }
    Ok(SpectreLeak { leaked, secret })
}

/// Side-by-side window widths (in µops) for the two resteer classes on
/// one profile — the quantitative version of "PHANTOM speculation
/// windows are short".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowComparison {
    /// µop budget of a backend-resteered (conventional Spectre) window.
    pub spectre_uops: u32,
    /// µop budget of a frontend-resteered (PHANTOM) window.
    pub phantom_uops: u32,
}

impl WindowComparison {
    /// How many times wider the Spectre window is (∞ reported as the
    /// raw quotient against a 1-µop floor).
    #[cfg(test)]
    pub fn ratio(&self) -> u32 {
        self.spectre_uops / self.phantom_uops.max(1)
    }
}

/// Compare the two window classes on a profile.
pub fn window_comparison(profile: &UarchProfile) -> WindowComparison {
    let spectre = TransientWindow::for_resteer(profile, ResteerKind::Backend);
    let phantom = TransientWindow::for_resteer(profile, ResteerKind::Frontend);
    WindowComparison {
        spectre_uops: spectre.exec_uops,
        phantom_uops: phantom.exec_uops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phantom_kernel::{sysno, System};

    #[test]
    fn spectre_v2_leaks_on_every_microarchitecture() {
        // The baseline needs no phantom execution: backend windows are
        // universal. (On the blind Intel parts the victim jmp* is the
        // suppressed case, so test the non-blind ones.)
        for profile in [
            UarchProfile::zen1(),
            UarchProfile::zen2(),
            UarchProfile::zen3(),
            UarchProfile::zen4(),
            UarchProfile::intel12(),
        ] {
            let name = profile.name.clone();
            let r = spectre_v2_leak(profile, 0xA7).unwrap();
            assert!(r.correct(), "{name}: leaked {:?}", r.leaked);
        }
    }

    #[test]
    fn spectre_windows_dwarf_phantom_windows() {
        for profile in UarchProfile::all() {
            let w = window_comparison(&profile);
            assert!(
                w.spectre_uops >= 40,
                "{}: spectre window {}",
                profile.name,
                w.spectre_uops
            );
            if w.phantom_uops > 0 {
                assert!(w.ratio() >= 6, "{}: ratio {}", profile.name, w.ratio());
            }
        }
    }

    #[test]
    fn single_load_gadget_is_spectre_proof_but_phantom_leakable() {
        // §7.4's central comparison, run against the SAME kernel gadget:
        // conventional Spectre (bounds-check mistraining alone, no
        // injected call-site prediction) leaks nothing from the one-load
        // read_data gadget; adding the nested phantom steer leaks the
        // secret. Zen 2 throughout.
        let physmap_and_buffer = |sys: &mut System| {
            let reload_uva = VirtAddr::new(0x5a00_0000);
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
            (reload_uva, sys.layout().physmap_base() + pa.raw())
        };
        let scan = |sys: &mut System, reload_uva: VirtAddr| -> Option<u8> {
            let mut noise = NoiseModel::quiet(0);
            let c = *sys.machine().caches().config();
            let threshold = c.l1_latency + c.l2_latency;
            let mut hit = None;
            for b in 0..256u64 {
                let latency = phantom_sidechannel::reload(
                    sys.machine_mut(),
                    reload_uva + (b << 6),
                    &mut noise,
                );
                if latency <= threshold && hit.is_none() {
                    hit = Some(b as u8);
                }
            }
            hit
        };

        // --- Conventional Spectre only: train taken, go out of bounds. --
        let mut sys = System::new(UarchProfile::zen2(), 1 << 28, 77).unwrap();
        let (reload_uva, reload_kva) = physmap_and_buffer(&mut sys);
        let index = sys.module().secret - sys.module().array;
        for t in 0..4u64 {
            sys.syscall(sysno::MODULE_READ_DATA, &[t * 4 % 16, reload_kva.raw()])
                .unwrap();
        }
        for b in 0..256u64 {
            phantom_sidechannel::flush(sys.machine_mut(), reload_uva + (b << 6));
        }
        sys.syscall(sysno::MODULE_READ_DATA, &[index, reload_kva.raw()])
            .unwrap();
        assert_eq!(
            scan(&mut sys, reload_uva),
            None,
            "one load cannot encode anything for conventional Spectre"
        );

        // --- Same gadget + the phantom call-site steer: it leaks. -------
        let physmap = sys.layout().physmap_base();
        let r = crate::attacks::leak_kernel_memory(
            &mut sys,
            physmap,
            &crate::attacks::MdsLeakConfig {
                bytes: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(r.signal);
        assert_eq!(&r.leaked[..4], &sys.secret()[..4]);
    }
}
