//! The instruction table: each instruction declared once, with its
//! encoding, branch kind and text.

use std::fmt;

use crate::asm::AsmError;
use crate::encode::{EncodeError, Encoded};
use crate::kind::BranchKind;
use crate::reg::Reg;
use crate::slot::{Reader, Stop};

/// Condition code for [`Inst::Jcc`].
///
/// Conditions are evaluated against the flags produced by [`Inst::Cmp`]
/// (zero, sign, carry — carry models the unsigned below relation).
///
/// # Examples
///
/// ```
/// use phantom_isa::Cond;
/// assert!(Cond::Below.eval(false, false, true));
/// assert!(!Cond::Below.eval(false, false, false));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Cond {
    /// ZF set (`je`).
    Eq = 0,
    /// ZF clear (`jne`).
    Ne = 1,
    /// CF set (`jb`, unsigned less-than).
    Below = 2,
    /// CF clear (`jae`).
    AboveEq = 3,
    /// SF set (`js`).
    Sign = 4,
    /// SF clear (`jns`).
    NotSign = 5,
}

impl Cond {
    /// All condition codes.
    pub const ALL: [Cond; 6] = [
        Cond::Eq,
        Cond::Ne,
        Cond::Below,
        Cond::AboveEq,
        Cond::Sign,
        Cond::NotSign,
    ];

    /// Decode a condition from its encoding byte.
    pub fn from_code(code: u8) -> Option<Cond> {
        Cond::ALL.get(usize::from(code)).copied()
    }

    /// The encoding byte for this condition.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Evaluate the condition against flag values `(zf, sf, cf)`.
    pub fn eval(self, zf: bool, sf: bool, cf: bool) -> bool {
        match self {
            Cond::Eq => zf,
            Cond::Ne => !zf,
            Cond::Below => cf,
            Cond::AboveEq => !cf,
            Cond::Sign => sf,
            Cond::NotSign => !sf,
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cond::Eq => "e",
            Cond::Ne => "ne",
            Cond::Below => "b",
            Cond::AboveEq => "ae",
            Cond::Sign => "s",
            Cond::NotSign => "ns",
        };
        f.write_str(s)
    }
}

/// ALU operation for [`Inst::Alu`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AluOp {
    /// `dst += src`.
    Add = 0,
    /// `dst -= src`.
    Sub = 1,
    /// `dst &= src`.
    And = 2,
    /// `dst |= src`.
    Or = 3,
    /// `dst ^= src`.
    Xor = 4,
}

impl AluOp {
    /// All ALU operations.
    pub const ALL: [AluOp; 5] = [AluOp::Add, AluOp::Sub, AluOp::And, AluOp::Or, AluOp::Xor];

    /// Decode from the encoding byte.
    pub fn from_code(code: u8) -> Option<AluOp> {
        AluOp::ALL.get(usize::from(code)).copied()
    }

    /// The encoding byte.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Apply the operation.
    pub fn apply(self, dst: u64, src: u64) -> u64 {
        match self {
            AluOp::Add => dst.wrapping_add(src),
            AluOp::Sub => dst.wrapping_sub(src),
            AluOp::And => dst & src,
            AluOp::Or => dst | src,
            AluOp::Xor => dst ^ src,
        }
    }
}

/// Declare the instruction set, one row per instruction:
///
/// ```text
/// /// Variant docs.
/// Variant { /// Field docs.
///           field: Type, … } = opcode [slot(field), …] BranchKind "text",
/// ```
///
/// The slots name the operand fields in encoding order after the opcode
/// byte: `reg`, `modrm(hi, lo)`, `cond`, `alu`, `shift`, `nop_len` and
/// `le` (see `slot.rs`). The rows generate [`Inst`], [`Inst::kind`],
/// [`Inst::len`], `Display`, and the per-instruction halves of
/// [`encode`](crate::encode::encode) and
/// [`decode`](crate::decode::decode); `Invalid` is added, unlisted. A
/// slot that names no field, or a field that no slot names, does not
/// compile, and neither does a repeated opcode.
macro_rules! instructions {
    (
        $(#[$meta:meta])*
        pub enum Inst {
            $(
                $(#[$doc:meta])*
                $name:ident $({ $($(#[$fdoc:meta])* $field:ident: $ty:ty,)* })?
                    = $op:literal [$($slot:ident($($arg:ident),+)),*] $kind:ident $text:literal,
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum Inst {
            $($(#[$doc])* $name $({ $($(#[$fdoc])* $field: $ty,)* })?,)*
            /// An undecodable byte; consumes exactly one byte, like a `#UD`-ing
            /// x86 sequence. Phantom targets pointing into data decode to these.
            Invalid {
                /// The offending byte.
                byte: u8,
            },
        }

        impl Inst {
            /// The control-flow classification the *decoder* derives for this
            /// instruction — what gets compared against the BTB's predicted kind.
            pub const fn kind(&self) -> BranchKind {
                match self {
                    $(Inst::$name { .. } => BranchKind::$kind,)*
                    Inst::Invalid { .. } => BranchKind::NotBranch,
                }
            }

            /// Encoded length in bytes.
            #[allow(unused_variables)]
            pub const fn len(&self) -> usize {
                match *self {
                    $(Inst::$name { $($($arg,)+)* } => {
                        let n = 1;
                        $(let n = slot!(len n, $slot($($arg),+));)*
                        n
                    })*
                    Inst::Invalid { .. } => 1,
                }
            }

            /// Append this instruction's bytes to `out`.
            pub(crate) fn write(&self, out: &mut Encoded) -> Result<(), EncodeError> {
                match *self {
                    $(Inst::$name { $($($arg,)+)* } => {
                        out.push($op);
                        $(slot!(put out, $slot($($arg),+));)*
                    })*
                    Inst::Invalid { byte } => out.push(byte),
                }
                Ok(())
            }

            /// Read the instruction with opcode `op` from `r`, which
            /// stands just past the opcode.
            pub(crate) fn read(op: u8, r: &mut Reader<'_>) -> Result<Inst, Stop> {
                match op {
                    $($op => {
                        $(slot!(get r, $slot($($arg),+));)*
                        Ok(Inst::$name { $($($arg,)+)* })
                    })*
                    _ => Err(Stop::Malformed),
                }
            }
        }

        impl fmt::Display for Inst {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self {
                    $(Inst::$name { $($($arg,)+)* } => write!(f, $text),)*
                    Inst::Invalid { byte } => write!(f, "(bad {byte:#04x})"),
                }
            }
        }
    };
}

/// One operand slot of a table row: `put` writes its fields, `get` reads
/// and binds them, `len` adds its width to the running length `n`. Each
/// slot is one byte wide except `le` (the field's own width) and
/// `nop_len`, whose field is the instruction's whole length.
macro_rules! slot {
    (put $out:ident, modrm($hi:ident, $lo:ident)) => {
        $out.modrm($hi, $lo)?
    };
    (put $out:ident, $slot:ident($field:ident)) => {
        $out.$slot($field)?
    };
    (get $r:ident, modrm($hi:ident, $lo:ident)) => {
        let ($hi, $lo) = $r.modrm()?;
    };
    (get $r:ident, $slot:ident($field:ident)) => {
        let $field = $r.$slot()?;
    };
    (len $n:ident, nop_len($len:ident)) => {
        $len as usize
    };
    (len $n:ident, le($field:ident)) => {
        $n + std::mem::size_of_val(&$field)
    };
    (len $n:ident, $slot:ident($($field:ident),+)) => {
        $n + 1
    };
}

instructions! {
    /// One decoded instruction.
    ///
    /// The encoding is variable length (1–15 bytes, like x86). Displacements
    /// for direct control flow are relative to the **end** of the instruction,
    /// matching x86 `rel32` semantics.
    ///
    /// # Examples
    ///
    /// ```
    /// use phantom_isa::{BranchKind, Inst, Reg};
    /// let i = Inst::Jmp { disp: -5 };
    /// assert_eq!(i.kind(), BranchKind::Direct);
    /// assert_eq!(i.len(), 5);
    /// // A jmp at 0x100 with disp -5 targets itself.
    /// assert_eq!(i.direct_target(0x100), Some(0x100));
    /// ```
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum Inst {
        /// Single-byte no-op.
        Nop = 0x90 [] NotBranch "nop",
        /// Multi-byte no-op occupying `len` bytes (3–15), like
        /// `nop DWORD PTR [rax+rax*1+0x0]` in the paper's Listing 1.
        NopN {
            /// Total encoded length in bytes.
            len: u8,
        } = 0x0F [nop_len(len)] NotBranch "nop{len}",
        /// Direct unconditional jump, `rel32` from instruction end.
        Jmp {
            /// Displacement from the end of this instruction.
            disp: i32,
        } = 0xE9 [le(disp)] Direct "jmp {disp:+}",
        /// Indirect jump through a register.
        JmpInd {
            /// Register holding the absolute target.
            src: Reg,
        } = 0xFF [reg(src)] Indirect "jmp *{src}",
        /// Conditional direct branch.
        Jcc {
            /// Branch condition.
            cond: Cond,
            /// Displacement from the end of this instruction.
            disp: i32,
        } = 0x71 [cond(cond), le(disp)] Cond "j{cond} {disp:+}",
        /// Direct call (pushes return address).
        Call {
            /// Displacement from the end of this instruction.
            disp: i32,
        } = 0xE8 [le(disp)] Call "call {disp:+}",
        /// Indirect call through a register.
        CallInd {
            /// Register holding the absolute target.
            src: Reg,
        } = 0xF1 [reg(src)] CallInd "call *{src}",
        /// Return (pops return address).
        Ret = 0xC3 [] Ret "ret",
        /// Load `dst = [base + disp]`.
        Load {
            /// Destination register.
            dst: Reg,
            /// Base address register.
            base: Reg,
            /// Byte displacement.
            disp: i32,
        } = 0x8B [modrm(dst, base), le(disp)] NotBranch "mov {dst}, [{base}{disp:+}]",
        /// Store `[base + disp] = src`.
        Store {
            /// Base address register.
            base: Reg,
            /// Byte displacement.
            disp: i32,
            /// Source register.
            src: Reg,
        } = 0x89 [modrm(base, src), le(disp)] NotBranch "mov [{base}{disp:+}], {src}",
        /// Load a 64-bit immediate.
        MovImm {
            /// Destination register.
            dst: Reg,
            /// Immediate value.
            imm: u64,
        } = 0xB8 [reg(dst), le(imm)] NotBranch "mov {dst}, {imm:#x}",
        /// Register-register move.
        MovReg {
            /// Destination register.
            dst: Reg,
            /// Source register.
            src: Reg,
        } = 0x8A [modrm(dst, src)] NotBranch "mov {dst}, {src}",
        /// Register-register ALU operation.
        Alu {
            /// Operation.
            op: AluOp,
            /// Destination (and left operand).
            dst: Reg,
            /// Right operand.
            src: Reg,
        } = 0x01 [alu(op), modrm(dst, src)] NotBranch "{op:?} {dst}, {src}",
        /// `dst >>= amount` (logical).
        Shr {
            /// Destination register.
            dst: Reg,
            /// Shift amount (0–63).
            amount: u8,
        } = 0xC1 [reg(dst), shift(amount)] NotBranch "shr {dst}, {amount}",
        /// `dst <<= amount`.
        Shl {
            /// Destination register.
            dst: Reg,
            /// Shift amount (0–63).
            amount: u8,
        } = 0xD1 [reg(dst), shift(amount)] NotBranch "shl {dst}, {amount}",
        /// `dst &= imm` (32-bit immediate, zero-extended).
        AndImm {
            /// Destination register.
            dst: Reg,
            /// Immediate mask.
            imm: u32,
        } = 0x81 [reg(dst), le(imm)] NotBranch "and {dst}, {imm:#x}",
        /// Compare two registers and set flags (like `cmp a, b`).
        Cmp {
            /// Left operand.
            a: Reg,
            /// Right operand.
            b: Reg,
        } = 0x39 [modrm(a, b)] NotBranch "cmp {a}, {b}",
        /// Load fence: stalls until earlier loads retire; the recommended
        /// Spectre speculation barrier (§2.4).
        Lfence = 0xFA [] NotBranch "lfence",
        /// Full memory fence.
        Mfence = 0xFB [] NotBranch "mfence",
        /// Flush the cache line containing `[addr]` from the data caches
        /// (`clflush`).
        Clflush {
            /// Register holding the address to flush.
            addr: Reg,
        } = 0xAE [reg(addr)] NotBranch "clflush [{addr}]",
        /// Enter the kernel (syscall number in `R0`, args in `R1`, `R2`, …).
        Syscall = 0x05 [] NotBranch "syscall",
        /// Return from kernel to user mode.
        Sysret = 0x07 [] NotBranch "sysret",
        /// Stop the machine (used to terminate simulated programs).
        Halt = 0xF4 [] NotBranch "hlt",
    }
}

impl Inst {
    /// `true` if the encoding is a single byte. Provided for
    /// `clippy::len_without_is_empty` symmetry; instructions are never
    /// zero-length.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// For direct control flow (`jmp`, `jcc`, `call`), the absolute target
    /// given the instruction's start address. `None` for other kinds.
    pub fn direct_target(&self, pc: u64) -> Option<u64> {
        let (Inst::Jmp { disp } | Inst::Jcc { disp, .. } | Inst::Call { disp }) = *self else {
            return None;
        };
        Some(
            pc.wrapping_add(self.len() as u64)
                .wrapping_add(disp as i64 as u64),
        )
    }

    /// This instruction placed at `pc`, with a direct branch's (`jmp`,
    /// `jcc`, `call`) displacement set so that it reaches `target`; any
    /// other instruction comes back unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::DispOverflow`] if `target` is out of `rel32`
    /// reach from the instruction's end.
    ///
    /// # Examples
    ///
    /// ```
    /// use phantom_isa::Inst;
    /// let j = Inst::Jmp { disp: 0 }.with_target(0x1000, 0x1015)?;
    /// assert_eq!(j, Inst::Jmp { disp: 0x10 });
    /// assert_eq!(j.direct_target(0x1000), Some(0x1015));
    /// # Ok::<(), phantom_isa::asm::AsmError>(())
    /// ```
    pub fn with_target(mut self, pc: u64, target: u64) -> Result<Inst, AsmError> {
        let end = pc.wrapping_add(self.len() as u64);
        if let Inst::Jmp { disp } | Inst::Jcc { disp, .. } | Inst::Call { disp } = &mut self {
            *disp = i32::try_from(target.wrapping_sub(end) as i64).map_err(|_| {
                AsmError::DispOverflow {
                    from: pc,
                    to: target,
                }
            })?;
        }
        Ok(self)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::collections::BTreeSet;

    use super::*;

    /// The opcode of every table row: each byte that opens a valid
    /// instruction when every field after it reads 3 or 0 (a register,
    /// condition, ALU operation, nop length and shift amount all in
    /// range).
    pub(crate) fn table_opcodes() -> BTreeSet<u8> {
        (0..=255u8)
            .filter(|&op| {
                let mut bytes = [0; 16];
                bytes[..2].copy_from_slice(&[op, 3]);
                !matches!(
                    crate::decode::decode(&bytes),
                    Some((Inst::Invalid { .. }, _))
                )
            })
            .collect()
    }

    #[test]
    fn kinds_cover_branch_taxonomy() {
        assert_eq!(Inst::Nop.kind(), BranchKind::NotBranch);
        assert_eq!(Inst::NopN { len: 4 }.kind(), BranchKind::NotBranch);
        assert_eq!(Inst::Jmp { disp: 0 }.kind(), BranchKind::Direct);
        assert_eq!(Inst::JmpInd { src: Reg::R1 }.kind(), BranchKind::Indirect);
        assert_eq!(
            Inst::Jcc {
                cond: Cond::Eq,
                disp: 8
            }
            .kind(),
            BranchKind::Cond
        );
        assert_eq!(Inst::Call { disp: 0 }.kind(), BranchKind::Call);
        assert_eq!(Inst::Ret.kind(), BranchKind::Ret);
        assert_eq!(
            Inst::Load {
                dst: Reg::R0,
                base: Reg::R1,
                disp: 0
            }
            .kind(),
            BranchKind::NotBranch
        );
    }

    #[test]
    fn direct_target_is_relative_to_instruction_end() {
        // jmp at 0x1000, 5 bytes, disp +0x10 -> 0x1015.
        let j = Inst::Jmp { disp: 0x10 };
        assert_eq!(j.direct_target(0x1000), Some(0x1015));
        // Backward displacement.
        let b = Inst::Jmp { disp: -0x20 };
        assert_eq!(b.direct_target(0x1000), Some(0x1000 + 5 - 0x20));
        // Indirect has no static target.
        assert_eq!(Inst::JmpInd { src: Reg::R0 }.direct_target(0x1000), None);
    }

    #[test]
    fn cond_eval_truth_table() {
        assert!(Cond::Eq.eval(true, false, false));
        assert!(!Cond::Eq.eval(false, false, false));
        assert!(Cond::Ne.eval(false, false, false));
        assert!(Cond::Below.eval(false, false, true));
        assert!(Cond::AboveEq.eval(false, false, false));
        assert!(Cond::Sign.eval(false, true, false));
        assert!(Cond::NotSign.eval(false, false, false));
    }

    #[test]
    fn alu_ops_apply() {
        assert_eq!(AluOp::Add.apply(2, 3), 5);
        assert_eq!(AluOp::Sub.apply(2, 3), u64::MAX);
        assert_eq!(AluOp::And.apply(0b1100, 0b1010), 0b1000);
        assert_eq!(AluOp::Or.apply(0b1100, 0b1010), 0b1110);
        assert_eq!(AluOp::Xor.apply(0b1100, 0b1010), 0b0110);
    }

    /// The text of one instance of every row, and of `Invalid`, as the
    /// hand-written `Display` printed it. `Alu` prints the operation's
    /// `Debug` name, which pipeline traces show.
    #[test]
    fn display_golden() {
        let golden = [
            (Inst::Nop, "nop"),
            (Inst::NopN { len: 7 }, "nop7"),
            (Inst::Jmp { disp: -5 }, "jmp -5"),
            (Inst::JmpInd { src: Reg::R11 }, "jmp *r11"),
            (
                Inst::Jcc {
                    cond: Cond::AboveEq,
                    disp: 0x40,
                },
                "jae +64",
            ),
            (Inst::Call { disp: 0 }, "call +0"),
            (Inst::CallInd { src: Reg::R3 }, "call *r3"),
            (Inst::Ret, "ret"),
            (
                Inst::Load {
                    dst: Reg::R9,
                    base: Reg::R8,
                    disp: -16,
                },
                "mov r9, [r8-16]",
            ),
            (
                Inst::Store {
                    base: Reg::R2,
                    disp: 8,
                    src: Reg::R1,
                },
                "mov [r2+8], r1",
            ),
            (
                Inst::MovImm {
                    dst: Reg::R0,
                    imm: 0xdead_beef,
                },
                "mov r0, 0xdeadbeef",
            ),
            (
                Inst::MovReg {
                    dst: Reg::R4,
                    src: Reg::R5,
                },
                "mov r4, r5",
            ),
            (
                Inst::Alu {
                    op: AluOp::Xor,
                    dst: Reg::R6,
                    src: Reg::R7,
                },
                "Xor r6, r7",
            ),
            (
                Inst::Shr {
                    dst: Reg::R3,
                    amount: 12,
                },
                "shr r3, 12",
            ),
            (
                Inst::Shl {
                    dst: Reg::R3,
                    amount: 6,
                },
                "shl r3, 6",
            ),
            (
                Inst::AndImm {
                    dst: Reg::R3,
                    imm: 0xff,
                },
                "and r3, 0xff",
            ),
            (
                Inst::Cmp {
                    a: Reg::R1,
                    b: Reg::R2,
                },
                "cmp r1, r2",
            ),
            (Inst::Lfence, "lfence"),
            (Inst::Mfence, "mfence"),
            (Inst::Clflush { addr: Reg::R8 }, "clflush [r8]"),
            (Inst::Syscall, "syscall"),
            (Inst::Sysret, "sysret"),
            (Inst::Halt, "hlt"),
            (Inst::Invalid { byte: 0x42 }, "(bad 0x42)"),
        ];
        for (inst, text) in golden {
            assert_eq!(inst.to_string(), text, "{inst:?}");
        }
        // One instance per row, then `Invalid`.
        let opcodes: BTreeSet<u8> = golden[..golden.len() - 1]
            .iter()
            .map(|(inst, _)| crate::encode::encode(inst).unwrap().as_bytes()[0])
            .collect();
        assert_eq!(opcodes, table_opcodes());
    }

    #[test]
    fn with_target_aims_direct_branches_from_their_end() {
        let jcc = Inst::Jcc {
            cond: Cond::Eq,
            disp: 0,
        };
        let aimed = jcc.with_target(0x1000, 0x2000).unwrap();
        assert_eq!(aimed.direct_target(0x1000), Some(0x2000));
        assert_eq!(
            aimed,
            Inst::Jcc {
                cond: Cond::Eq,
                disp: 0x1000 - 6
            }
        );
        assert_eq!(
            Inst::Call { disp: 0 }.with_target(0x1000, 0x1000),
            Ok(Inst::Call { disp: -5 })
        );
        // Non-branches come back unchanged; out-of-reach targets error.
        assert_eq!(Inst::Ret.with_target(0, u64::MAX), Ok(Inst::Ret));
        assert_eq!(
            Inst::Jmp { disp: 0 }.with_target(0, 1 << 40),
            Err(AsmError::DispOverflow {
                from: 0,
                to: 1 << 40
            })
        );
    }
}
