//! The loadable kernel module: the MDS gadget of Listing 4, a
//! P3-style disclosure gadget, the reverse-engineering probe target, and
//! the planted secret the §7.4 attack leaks.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use phantom_isa::asm::{AsmError, Assembler, Blob};
use phantom_isa::inst::AluOp;
use phantom_isa::{Cond, Inst, Reg};
use phantom_mem::VirtAddr;

use crate::sysno;

/// Where the module is loaded (module space; not KASLR-randomized in
/// this model — the paper's §7.4 likewise assumes the gadget address is
/// known from the previous attack stages).
pub const MODULE_BASE: u64 = 0xffff_ffff_c000_0000;
/// Length of the in-bounds `array` (u64 entries).
pub const ARRAY_LEN: u64 = 16;
/// Number of secret bytes planted after the array.
pub const SECRET_LEN: usize = 4096;

/// The secret a boot with `seed` plants at [`KernelModule::secret`]:
/// [`SECRET_LEN`] bytes drawn from a generator seeded with `seed`. A
/// fresh boot and a boot-template instance both plant these bytes.
/// Drawing them is now the largest piece of an instance: the page-table
/// rebase moves a few extents, while this draws 4,096 bytes one by one
/// (changing how they are drawn would change every secret).
pub(crate) fn secret_for(seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ec7e7);
    (0..SECRET_LEN).map(|_| rng.gen()).collect()
}

/// Addresses inside a loaded module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelModule {
    /// Module base address.
    pub base: VirtAddr,
    /// Module syscall entry (dispatches `read_data` / `probe`).
    pub entry: VirtAddr,
    /// The `read_data` MDS gadget (Listing 4): a bounds check that can
    /// mispredict taken, followed by a single attacker-indexed load and
    /// a direct `call parse_data`.
    pub read_data: VirtAddr,
    /// The direct `call parse_data` instruction inside `read_data` — the
    /// inner injection point for the nested-phantom leak.
    pub parse_call: VirtAddr,
    /// A disclosure gadget that cache-encodes the loaded byte:
    /// `and r3, 0xff; shl r3, 6; add r3, r2; mov r9, [r3]; ret`.
    pub disclosure_gadget: VirtAddr,
    /// The P3 gadget: cache-encodes the low byte of the live `R12`.
    pub p3_gadget: VirtAddr,
    /// The nops-plus-return probe function (reverse-engineering target
    /// K from §6.2).
    pub probe_fn: VirtAddr,
    /// Base of the in-bounds `array`.
    pub array: VirtAddr,
    /// Address of the `array_length` variable.
    pub array_length: VirtAddr,
    /// Base of the planted secret (what the attack must leak).
    pub secret: VirtAddr,
}

impl KernelModule {
    /// Assemble the module text (data cells are part of the same blob and
    /// the system maps them writable).
    ///
    /// # Errors
    ///
    /// Returns [`AsmError`] on layout bugs.
    pub fn build(base: VirtAddr) -> Result<(Blob, KernelModule), AsmError> {
        let mut a = Assembler::new(base.raw());

        // --- Dispatcher: R0 selects the module function. --------------
        a.label("entry");
        a.push(Inst::MovImm {
            dst: Reg::R7,
            imm: sysno::MODULE_READ_DATA,
        });
        a.push(Inst::Cmp {
            a: Reg::R0,
            b: Reg::R7,
        });
        a.jcc_cond(Cond::Eq, "read_data");
        a.push(Inst::MovImm {
            dst: Reg::R7,
            imm: sysno::MODULE_PROBE,
        });
        a.push(Inst::Cmp {
            a: Reg::R0,
            b: Reg::R7,
        });
        a.jcc_cond(Cond::Eq, "probe_fn");
        a.push(Inst::Sysret);

        // --- Listing 4: read_data(user_index = R1). --------------------
        //   void read_data(uint64_t user_index) {
        //     if (user_index < *array_length) {
        //       uint8_t data = array[user_index];
        //       parse_data(data);
        //     }
        //   }
        a.label("read_data");
        a.push(Inst::MovImm {
            dst: Reg::R7,
            imm: 0,
        }); // patched: &array_length
        a.label("read_data_len_imm");
        a.push(Inst::Load {
            dst: Reg::R5,
            base: Reg::R7,
            disp: 0,
        }); // *array_length
        a.push(Inst::Cmp {
            a: Reg::R1,
            b: Reg::R5,
        });
        a.jcc_cond(Cond::Below, "in_bounds");
        a.push(Inst::Sysret);
        a.label("in_bounds");
        a.push(Inst::MovImm {
            dst: Reg::R4,
            imm: 0,
        }); // patched: &array
        a.label("read_data_array_imm");
        a.push(Inst::Alu {
            op: AluOp::Add,
            dst: Reg::R4,
            src: Reg::R1,
        });
        a.push(Inst::Load {
            dst: Reg::R3,
            base: Reg::R4,
            disp: 0,
        }); // the ONE load
        a.label("parse_call");
        a.call("parse_data"); // <- nested-phantom injection point
        a.push(Inst::Sysret);
        a.label("parse_data");
        a.push(Inst::NopN { len: 3 });
        a.push(Inst::Ret);

        // --- Disclosure gadget (cache-encodes R3 into [R2 + byte<<6]). -
        a.label("disclosure_gadget");
        a.push(Inst::AndImm {
            dst: Reg::R3,
            imm: 0xff,
        });
        a.push(Inst::Shl {
            dst: Reg::R3,
            amount: 6,
        });
        a.push(Inst::Alu {
            op: AluOp::Add,
            dst: Reg::R3,
            src: Reg::R2,
        });
        a.push(Inst::Load {
            dst: Reg::R9,
            base: Reg::R3,
            disp: 0,
        });
        a.push(Inst::Ret);

        // --- P3 gadget: cache-encode the low byte of the victim's live
        // R12 into [R1 + byte<<6] ("G filters out a single byte from the
        // register and arranges it to reside in bits [13:6]", §6.1). R1
        // holds the first syscall argument (the attacker's reload-buffer
        // pointer) throughout the readv path.
        a.label("p3_gadget");
        a.push(Inst::MovReg {
            dst: Reg::R3,
            src: Reg::R12,
        });
        a.push(Inst::AndImm {
            dst: Reg::R3,
            imm: 0xff,
        });
        a.push(Inst::Shl {
            dst: Reg::R3,
            amount: 6,
        });
        a.push(Inst::Alu {
            op: AluOp::Add,
            dst: Reg::R3,
            src: Reg::R1,
        });
        a.push(Inst::Load {
            dst: Reg::R9,
            base: Reg::R3,
            disp: 0,
        });
        a.push(Inst::Ret);

        // --- §6.2 probe target: nops followed by a return. -------------
        a.org(base.raw() + 0x1ac0); // a recognizable page offset
        a.label("probe_fn");
        a.nops(8);
        a.push(Inst::Sysret);

        // --- Data: array_length, array, secret. -------------------------
        a.org(base.raw() + 0x3000);
        a.label("array_length");
        a.bytes(ARRAY_LEN.to_le_bytes().to_vec());
        a.label("array");
        let mut array_bytes = Vec::new();
        for i in 0..ARRAY_LEN {
            array_bytes.extend_from_slice(&(i * 0x11).to_le_bytes());
        }
        a.bytes(array_bytes);
        a.label("secret");
        // Placeholder zeros; the system plants the real (random) secret.
        a.bytes(vec![0u8; SECRET_LEN]);

        let mut blob = a.finish()?;

        // Patch the two address immediates now that labels are resolved.
        let patch_imm = |blob: &mut Blob, imm_end_label: &str, value: u64| {
            // The MovImm ends at the label; its 8-byte immediate is the
            // last 8 bytes before it.
            let end = (blob.addr(imm_end_label) - blob.base) as usize;
            blob.bytes[end - 8..end].copy_from_slice(&value.to_le_bytes());
        };
        let array_length = blob.addr("array_length");
        let array = blob.addr("array");
        patch_imm(&mut blob, "read_data_len_imm", array_length);
        patch_imm(&mut blob, "read_data_array_imm", array);

        let module = KernelModule {
            base,
            entry: VirtAddr::new(blob.addr("entry")),
            read_data: VirtAddr::new(blob.addr("read_data")),
            parse_call: VirtAddr::new(blob.addr("parse_call")),
            disclosure_gadget: VirtAddr::new(blob.addr("disclosure_gadget")),
            p3_gadget: VirtAddr::new(blob.addr("p3_gadget")),
            probe_fn: VirtAddr::new(blob.addr("probe_fn")),
            array: VirtAddr::new(array),
            array_length: VirtAddr::new(array_length),
            secret: VirtAddr::new(blob.addr("secret")),
        };
        Ok((blob, module))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phantom_isa::decode::decode;

    fn build() -> (Blob, KernelModule) {
        KernelModule::build(VirtAddr::new(MODULE_BASE)).expect("module assembles")
    }

    #[test]
    fn layout_is_coherent() {
        let (blob, m) = build();
        assert!(m.read_data > m.entry);
        assert!(m.array_length.raw() - blob.base == 0x3000);
        assert_eq!(m.array - m.array_length, 8);
        assert_eq!(m.secret - m.array, ARRAY_LEN * 8);
        assert_eq!(m.probe_fn.raw() & 0xfff, 0xac0);
    }

    #[test]
    fn parse_call_is_a_direct_call_to_parse_data() {
        let (blob, m) = build();
        let off = (m.parse_call - m.base) as usize;
        let (inst, _) = decode(&blob.bytes[off..]).unwrap();
        assert!(matches!(inst, Inst::Call { .. }));
        assert_eq!(
            inst.direct_target(m.parse_call.raw()).unwrap(),
            blob.addr("parse_data")
        );
    }

    #[test]
    fn address_immediates_are_patched() {
        let (blob, m) = build();
        // Find the MovImm before read_data_len_imm and decode it.
        let end = (blob.addr("read_data_len_imm") - blob.base) as usize;
        let (inst, _) = decode(&blob.bytes[end - 10..]).unwrap();
        assert_eq!(
            inst,
            Inst::MovImm {
                dst: Reg::R7,
                imm: m.array_length.raw()
            }
        );
        let end = (blob.addr("read_data_array_imm") - blob.base) as usize;
        let (inst, _) = decode(&blob.bytes[end - 10..]).unwrap();
        assert_eq!(
            inst,
            Inst::MovImm {
                dst: Reg::R4,
                imm: m.array.raw()
            }
        );
    }

    #[test]
    fn array_contents_are_deterministic() {
        let (blob, m) = build();
        let off = (m.array - m.base) as usize;
        let first = u64::from_le_bytes(blob.bytes[off..off + 8].try_into().unwrap());
        let second = u64::from_le_bytes(blob.bytes[off + 8..off + 16].try_into().unwrap());
        assert_eq!(first, 0);
        assert_eq!(second, 0x11);
    }

    #[test]
    fn disclosure_gadget_shape() {
        let (blob, m) = build();
        let off = (m.disclosure_gadget - m.base) as usize;
        let insts = phantom_isa::decode::decode_all(&blob.bytes[off..off + 20]);
        assert_eq!(
            insts[0].1,
            Inst::AndImm {
                dst: Reg::R3,
                imm: 0xff
            }
        );
        assert_eq!(
            insts[1].1,
            Inst::Shl {
                dst: Reg::R3,
                amount: 6
            }
        );
    }
}
