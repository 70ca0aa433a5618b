//! A tiny two-pass assembler with labels.
//!
//! Experiments and the simulated kernel need precisely laid-out code:
//! branches at chosen page offsets, jmp-series separated by 4096 bytes,
//! gadgets at fixed image offsets. The assembler supports labels,
//! alignment/padding directives and fix-ups of direct displacements.

use std::collections::HashMap;

use crate::encode::{encode_into, EncodeError};
use crate::inst::{Cond, Inst};

/// An assembled code blob: raw bytes plus resolved label addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Blob {
    /// The virtual address the blob is assembled for.
    pub base: u64,
    /// The encoded bytes.
    pub bytes: Vec<u8>,
    /// Label name → absolute virtual address.
    pub labels: HashMap<String, u64>,
}

impl Blob {
    /// Absolute address of `label`.
    ///
    /// # Panics
    ///
    /// Panics if the label was never defined; hand-written experiment
    /// code treats a missing label as a programming error. Code that
    /// reads labels of a generated program should use
    /// [`Blob::try_addr`] instead.
    pub fn addr(&self, label: &str) -> u64 {
        self.try_addr(label).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Absolute address of `label`, as a structured error when the
    /// label was never defined.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::UndefinedLabel`] for an unknown label.
    pub fn try_addr(&self, label: &str) -> Result<u64, AsmError> {
        self.labels
            .get(label)
            .copied()
            .ok_or_else(|| AsmError::UndefinedLabel(label.to_string()))
    }
}

/// Error from [`Assembler::finish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A referenced label was never defined.
    UndefinedLabel(String),
    /// A label was defined twice.
    DuplicateLabel(String),
    /// A displacement did not fit in 32 bits.
    DispOverflow { from: u64, to: u64 },
    /// Underlying encoding failure.
    Encode(EncodeError),
    /// `org` directive tried to move backwards.
    OrgBackwards { at: u64, requested: u64 },
    /// `org` directive asked for more forward padding than
    /// [`Assembler::MAX_ORG_PAD`] allows. Without the cap a generated
    /// `org` near the top of the address space aborts the process
    /// trying to allocate the pad bytes.
    OrgTooFar { at: u64, requested: u64 },
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AsmError::UndefinedLabel(l) => write!(f, "undefined label {l:?}"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label {l:?}"),
            AsmError::DispOverflow { from, to } => {
                write!(f, "displacement from {from:#x} to {to:#x} overflows i32")
            }
            AsmError::Encode(e) => write!(f, "encode error: {e}"),
            AsmError::OrgBackwards { at, requested } => {
                write!(
                    f,
                    "org to {requested:#x} is before current position {at:#x}"
                )
            }
            AsmError::OrgTooFar { at, requested } => {
                write!(
                    f,
                    "org to {requested:#x} pads {} bytes past {at:#x} (max {})",
                    requested - at,
                    Assembler::MAX_ORG_PAD
                )
            }
        }
    }
}

impl std::error::Error for AsmError {}

impl From<EncodeError> for AsmError {
    fn from(e: EncodeError) -> Self {
        AsmError::Encode(e)
    }
}

#[derive(Debug, Clone)]
enum Item {
    Inst(Inst),
    /// A direct branch whose displacement is patched to reach a label.
    Fixup {
        label: String,
        inst: Inst,
    },
    Label(String),
    /// Pad with single-byte nops up to the given absolute address.
    Org(u64),
    /// Raw bytes.
    Bytes(Vec<u8>),
}

/// Two-pass assembler. See the [crate docs](crate) for an example.
#[derive(Debug, Clone)]
pub struct Assembler {
    base: u64,
    items: Vec<Item>,
}

impl Assembler {
    /// Maximum forward padding one `org` directive may insert (64 MiB —
    /// an order of magnitude above any experiment image, far below what
    /// would exhaust memory). A generated `org` to the top of the
    /// address space must come back as [`AsmError::OrgTooFar`], not as
    /// an allocation abort.
    pub const MAX_ORG_PAD: u64 = 64 << 20;

    /// Start assembling at virtual address `base`.
    pub fn new(base: u64) -> Assembler {
        Assembler {
            base,
            items: Vec::new(),
        }
    }

    /// Append an instruction.
    pub fn push(&mut self, inst: Inst) -> &mut Self {
        self.items.push(Item::Inst(inst));
        self
    }

    /// Define a label at the current position.
    pub fn label(&mut self, name: impl Into<String>) -> &mut Self {
        self.items.push(Item::Label(name.into()));
        self
    }

    /// `jmp` to a label (displacement patched in pass two).
    pub fn jmp(&mut self, label: impl Into<String>) -> &mut Self {
        self.fixup(label, Inst::Jmp { disp: 0 })
    }

    /// `call` to a label.
    pub fn call(&mut self, label: impl Into<String>) -> &mut Self {
        self.fixup(label, Inst::Call { disp: 0 })
    }

    /// `jcc` (condition `Below`) to a label. For other conditions use
    /// [`Assembler::jcc_cond`].
    pub fn jb(&mut self, label: impl Into<String>) -> &mut Self {
        self.jcc_cond(Cond::Below, label)
    }

    /// `jcc` with an arbitrary condition to a label.
    pub fn jcc_cond(&mut self, cond: Cond, label: impl Into<String>) -> &mut Self {
        self.fixup(label, Inst::Jcc { cond, disp: 0 })
    }

    /// The direct branch `inst`, aimed at `label` in pass two.
    fn fixup(&mut self, label: impl Into<String>, inst: Inst) -> &mut Self {
        self.items.push(Item::Fixup {
            label: label.into(),
            inst,
        });
        self
    }

    /// Pad with `nop` bytes until the absolute address `addr`.
    pub fn org(&mut self, addr: u64) -> &mut Self {
        self.items.push(Item::Org(addr));
        self
    }

    /// Append raw bytes (e.g. data a phantom target will "decode").
    pub fn bytes(&mut self, data: impl Into<Vec<u8>>) -> &mut Self {
        self.items.push(Item::Bytes(data.into()));
        self
    }

    /// Append `n` single-byte nops (a nop sled).
    pub fn nops(&mut self, n: usize) -> &mut Self {
        for _ in 0..n {
            self.push(Inst::Nop);
        }
        self
    }

    /// Resolve labels and produce the final [`Blob`].
    ///
    /// # Errors
    ///
    /// Returns [`AsmError`] on undefined/duplicate labels, displacement
    /// overflow, backwards `org`, or malformed instructions.
    pub fn finish(&self) -> Result<Blob, AsmError> {
        // Pass one: lay out addresses.
        let mut labels: HashMap<String, u64> = HashMap::new();
        let mut pc = self.base;
        for item in &self.items {
            match item {
                Item::Inst(inst) | Item::Fixup { inst, .. } => pc += inst.len() as u64,
                Item::Label(name) => {
                    if labels.insert(name.clone(), pc).is_some() {
                        return Err(AsmError::DuplicateLabel(name.clone()));
                    }
                }
                Item::Org(addr) => {
                    if *addr < pc {
                        return Err(AsmError::OrgBackwards {
                            at: pc,
                            requested: *addr,
                        });
                    }
                    if *addr - pc > Assembler::MAX_ORG_PAD {
                        return Err(AsmError::OrgTooFar {
                            at: pc,
                            requested: *addr,
                        });
                    }
                    pc = *addr;
                }
                Item::Bytes(data) => pc += data.len() as u64,
            }
        }

        // Pass two: emit bytes with displacements patched.
        let mut bytes = Vec::new();
        let mut pc = self.base;
        for item in &self.items {
            match item {
                Item::Inst(inst) => {
                    encode_into(inst, &mut bytes)?;
                    pc += inst.len() as u64;
                }
                Item::Fixup { label, inst } => {
                    let target = *labels
                        .get(label)
                        .ok_or_else(|| AsmError::UndefinedLabel(label.clone()))?;
                    encode_into(&inst.with_target(pc, target)?, &mut bytes)?;
                    pc += inst.len() as u64;
                }
                Item::Label(_) => {}
                Item::Org(addr) => {
                    // Pass one already rejected backwards and oversized
                    // orgs, and the pc evolves identically here; the
                    // checked form keeps a future divergence between the
                    // passes a structured error instead of a wrapping
                    // subtraction feeding a gigantic `resize`.
                    let pad = addr.checked_sub(pc).ok_or(AsmError::OrgBackwards {
                        at: pc,
                        requested: *addr,
                    })?;
                    if pad > Assembler::MAX_ORG_PAD {
                        return Err(AsmError::OrgTooFar {
                            at: pc,
                            requested: *addr,
                        });
                    }
                    bytes.resize(bytes.len() + pad as usize, 0x90);
                    pc = *addr;
                }
                Item::Bytes(data) => {
                    bytes.extend_from_slice(data);
                    pc += data.len() as u64;
                }
            }
        }

        Ok(Blob {
            base: self.base,
            bytes,
            labels,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode_all;
    use crate::reg::Reg;

    #[test]
    fn forward_and_backward_jumps_resolve() {
        let mut a = Assembler::new(0x4000);
        a.label("start");
        a.jmp("end");
        a.nops(3);
        a.label("end");
        a.jmp("start");
        let blob = a.finish().unwrap();
        assert_eq!(blob.addr("start"), 0x4000);
        assert_eq!(blob.addr("end"), 0x4000 + 5 + 3);
        let insts = decode_all(&blob.bytes);
        // First jmp: at 0x4000, ends at 0x4005, target 0x4008 => disp 3.
        assert_eq!(insts[0].1, Inst::Jmp { disp: 3 });
        // Last jmp: at 0x4008, ends 0x400d, target 0x4000 => disp -13.
        assert_eq!(insts[4].1, Inst::Jmp { disp: -13 });
    }

    #[test]
    fn org_pads_with_nops() {
        let mut a = Assembler::new(0x1000);
        a.push(Inst::Ret);
        a.org(0x1010);
        a.label("aligned");
        a.push(Inst::Halt);
        let blob = a.finish().unwrap();
        assert_eq!(blob.addr("aligned"), 0x1010);
        assert_eq!(blob.bytes.len(), 0x11);
        assert!(blob.bytes[1..0x10].iter().all(|&b| b == 0x90));
    }

    #[test]
    fn undefined_label_errors() {
        let mut a = Assembler::new(0);
        a.jmp("nowhere");
        assert_eq!(a.finish(), Err(AsmError::UndefinedLabel("nowhere".into())));
    }

    #[test]
    fn duplicate_label_errors() {
        let mut a = Assembler::new(0);
        a.label("x").label("x");
        assert_eq!(a.finish(), Err(AsmError::DuplicateLabel("x".into())));
    }

    #[test]
    fn org_backwards_errors() {
        let mut a = Assembler::new(0x100);
        a.nops(8);
        a.org(0x100);
        assert!(matches!(a.finish(), Err(AsmError::OrgBackwards { .. })));
    }

    #[test]
    fn blob_try_addr_returns_structured_error() {
        // Pre-fix, the only label accessor panicked on a missing label;
        // generated programs need the fallible path.
        let blob = Assembler::new(0x4000).label("here").finish().unwrap();
        assert_eq!(blob.try_addr("here"), Ok(0x4000));
        assert_eq!(
            blob.try_addr("gone"),
            Err(AsmError::UndefinedLabel("gone".into()))
        );
    }

    #[test]
    fn org_too_far_errors_instead_of_allocating() {
        // Pre-fix this aborted the process trying to resize the byte
        // vector to (u64::MAX - pc) bytes.
        let mut a = Assembler::new(0x100);
        a.push(Inst::Ret);
        a.org(u64::MAX);
        assert!(matches!(
            a.finish(),
            Err(AsmError::OrgTooFar {
                at: 0x101,
                requested: u64::MAX
            })
        ));
        // The boundary itself assembles.
        let mut a = Assembler::new(0);
        a.org(Assembler::MAX_ORG_PAD);
        assert!(a.finish().is_ok());
    }

    #[test]
    fn call_and_jcc_fixups() {
        let mut a = Assembler::new(0x2000);
        a.push(Inst::Cmp {
            a: Reg::R1,
            b: Reg::R2,
        });
        a.jb("taken");
        a.push(Inst::Ret);
        a.label("taken");
        a.call("fun");
        a.push(Inst::Halt);
        a.label("fun");
        a.push(Inst::Ret);
        let blob = a.finish().unwrap();
        let insts = decode_all(&blob.bytes);
        assert!(matches!(insts[1].1, Inst::Jcc { .. }));
        assert!(matches!(insts[3].1, Inst::Call { .. }));
        // The call targets "fun".
        let (call_off, call) = insts[3];
        assert_eq!(
            call.direct_target(blob.base + call_off as u64),
            Some(blob.addr("fun"))
        );
    }

    #[test]
    fn raw_bytes_are_emitted_verbatim() {
        let mut a = Assembler::new(0);
        a.bytes(vec![0xDE, 0xAD]);
        a.push(Inst::Ret);
        let blob = a.finish().unwrap();
        assert_eq!(blob.bytes, vec![0xDE, 0xAD, 0xC3]);
    }
}
