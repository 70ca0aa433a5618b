//! Byte-level instruction encoding.
//!
//! The encoding is variable length (1–15 bytes). Opcode map:
//!
//! | opcode | instruction | total length |
//! |---|---|---|
//! | `0x90` | `nop` | 1 |
//! | `0x0F len pad…` | `nopN` (multi-byte nop) | `len` (3–15) |
//! | `0xE9 rel32` | `jmp` | 5 |
//! | `0xFF reg` | `jmp*` | 2 |
//! | `0x71 cc rel32` | `jcc` | 6 |
//! | `0xE8 rel32` | `call` | 5 |
//! | `0xF1 reg` | `call*` | 2 |
//! | `0xC3` | `ret` | 1 |
//! | `0x8B modrm disp32` | load | 6 |
//! | `0x89 modrm disp32` | store | 6 |
//! | `0xB8 reg imm64` | mov imm | 10 |
//! | `0x8A modrm` | mov reg | 2 |
//! | `0x01 op modrm` | alu | 3 |
//! | `0xC1 reg amt` | shr | 3 |
//! | `0xD1 reg amt` | shl | 3 |
//! | `0x81 reg imm32` | and imm | 6 |
//! | `0x39 modrm` | cmp | 2 |
//! | `0xFA` / `0xFB` | lfence / mfence | 1 |
//! | `0xAE reg` | clflush | 2 |
//! | `0x05` / `0x07` | syscall / sysret | 1 |
//! | `0xF4` | hlt | 1 |
//! | anything else | invalid | 1 |
//!
//! `modrm` packs two register indices into one byte (high nibble first).

use crate::inst::Inst;
use crate::reg::Reg;

/// Error returned when an [`Inst`] value cannot be encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// `NopN` length outside 3–15.
    BadNopLen(u8),
    /// Shift amount outside 0–63.
    BadShiftAmount(u8),
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::BadNopLen(n) => write!(f, "multi-byte nop length {n} outside 3..=15"),
            EncodeError::BadShiftAmount(n) => write!(f, "shift amount {n} outside 0..=63"),
        }
    }
}

impl std::error::Error for EncodeError {}

fn modrm(hi: Reg, lo: Reg) -> u8 {
    (hi.index() << 4) | lo.index()
}

/// The encoded length of `inst` in bytes.
///
/// # Examples
///
/// ```
/// use phantom_isa::{encode::encoded_len, Inst};
/// assert_eq!(encoded_len(&Inst::Nop), 1);
/// assert_eq!(encoded_len(&Inst::Jmp { disp: 0 }), 5);
/// assert_eq!(encoded_len(&Inst::NopN { len: 9 }), 9);
/// ```
pub fn encoded_len(inst: &Inst) -> usize {
    match inst {
        Inst::Nop
        | Inst::Ret
        | Inst::Lfence
        | Inst::Mfence
        | Inst::Syscall
        | Inst::Sysret
        | Inst::Halt
        | Inst::Invalid { .. } => 1,
        Inst::NopN { len } => usize::from(*len),
        Inst::JmpInd { .. }
        | Inst::CallInd { .. }
        | Inst::MovReg { .. }
        | Inst::Cmp { .. }
        | Inst::Clflush { .. } => 2,
        Inst::Alu { .. } | Inst::Shr { .. } | Inst::Shl { .. } => 3,
        Inst::Jmp { .. } | Inst::Call { .. } => 5,
        Inst::Jcc { .. } | Inst::Load { .. } | Inst::Store { .. } | Inst::AndImm { .. } => 6,
        Inst::MovImm { .. } => 10,
    }
}

/// The longest encoding of any instruction: a 15-byte `nopN`.
pub const MAX_INST_LEN: usize = 15;

/// One instruction's bytes, held inline: encoding allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Encoded {
    bytes: [u8; MAX_INST_LEN],
    len: usize,
}

impl Encoded {
    fn push(&mut self, byte: u8) {
        self.bytes[self.len] = byte;
        self.len += 1;
    }

    fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.bytes[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    /// The encoding.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

/// Encode `inst`, appending its bytes to `out`.
///
/// # Errors
///
/// Returns [`EncodeError`] if the instruction carries an out-of-range
/// field (`NopN` length, shift amount).
///
/// # Examples
///
/// ```
/// use phantom_isa::{encode::encode_into, Inst};
/// let mut buf = Vec::new();
/// encode_into(&Inst::Ret, &mut buf)?;
/// assert_eq!(buf, [0xC3]);
/// # Ok::<(), phantom_isa::encode::EncodeError>(())
/// ```
pub fn encode_into(inst: &Inst, out: &mut Vec<u8>) -> Result<(), EncodeError> {
    out.extend_from_slice(encode(inst)?.as_bytes());
    Ok(())
}

/// Encode `inst` into an inline buffer (no allocation).
///
/// # Errors
///
/// As [`encode_into`].
///
/// # Examples
///
/// ```
/// use phantom_isa::{encode::encode, Inst};
/// assert_eq!(encode(&Inst::Jmp { disp: 1 })?.as_bytes(), [0xE9, 1, 0, 0, 0]);
/// # Ok::<(), phantom_isa::encode::EncodeError>(())
/// ```
pub fn encode(inst: &Inst) -> Result<Encoded, EncodeError> {
    let mut out = Encoded {
        bytes: [0; MAX_INST_LEN],
        len: 0,
    };
    match *inst {
        Inst::Nop => out.push(0x90),
        Inst::NopN { len } => {
            if !(3..=15).contains(&len) {
                return Err(EncodeError::BadNopLen(len));
            }
            out.push(0x0F);
            out.push(len);
            // The padding bytes are the buffer's zeros.
            out.len = usize::from(len);
        }
        Inst::Jmp { disp } => {
            out.push(0xE9);
            out.extend_from_slice(&disp.to_le_bytes());
        }
        Inst::JmpInd { src } => {
            out.push(0xFF);
            out.push(src.index());
        }
        Inst::Jcc { cond, disp } => {
            out.push(0x71);
            out.push(cond.code());
            out.extend_from_slice(&disp.to_le_bytes());
        }
        Inst::Call { disp } => {
            out.push(0xE8);
            out.extend_from_slice(&disp.to_le_bytes());
        }
        Inst::CallInd { src } => {
            out.push(0xF1);
            out.push(src.index());
        }
        Inst::Ret => out.push(0xC3),
        Inst::Load { dst, base, disp } => {
            out.push(0x8B);
            out.push(modrm(dst, base));
            out.extend_from_slice(&disp.to_le_bytes());
        }
        Inst::Store { base, disp, src } => {
            out.push(0x89);
            out.push(modrm(base, src));
            out.extend_from_slice(&disp.to_le_bytes());
        }
        Inst::MovImm { dst, imm } => {
            out.push(0xB8);
            out.push(dst.index());
            out.extend_from_slice(&imm.to_le_bytes());
        }
        Inst::MovReg { dst, src } => {
            out.push(0x8A);
            out.push(modrm(dst, src));
        }
        Inst::Alu { op, dst, src } => {
            out.push(0x01);
            out.push(op.code());
            out.push(modrm(dst, src));
        }
        Inst::Shr { dst, amount } => {
            if amount > 63 {
                return Err(EncodeError::BadShiftAmount(amount));
            }
            out.push(0xC1);
            out.push(dst.index());
            out.push(amount);
        }
        Inst::Shl { dst, amount } => {
            if amount > 63 {
                return Err(EncodeError::BadShiftAmount(amount));
            }
            out.push(0xD1);
            out.push(dst.index());
            out.push(amount);
        }
        Inst::AndImm { dst, imm } => {
            out.push(0x81);
            out.push(dst.index());
            out.extend_from_slice(&imm.to_le_bytes());
        }
        Inst::Cmp { a, b } => {
            out.push(0x39);
            out.push(modrm(a, b));
        }
        Inst::Lfence => out.push(0xFA),
        Inst::Mfence => out.push(0xFB),
        Inst::Clflush { addr } => {
            out.push(0xAE);
            out.push(addr.index());
        }
        Inst::Syscall => out.push(0x05),
        Inst::Sysret => out.push(0x07),
        Inst::Halt => out.push(0xF4),
        Inst::Invalid { byte } => out.push(byte),
    }
    Ok(out)
}

/// Encode a sequence of instructions into a fresh byte vector.
///
/// # Errors
///
/// Returns the first [`EncodeError`] encountered.
pub fn encode_all<'a, I>(insts: I) -> Result<Vec<u8>, EncodeError>
where
    I: IntoIterator<Item = &'a Inst>,
{
    let mut out = Vec::new();
    for inst in insts {
        encode_into(inst, &mut out)?;
    }
    Ok(out)
}

/// Returns `true` if `inst` survives an encode/decode round trip
/// unchanged. `Invalid` bytes that alias real opcodes do not round-trip;
/// everything else should.
pub fn round_trips(inst: &Inst) -> bool {
    let mut buf = Vec::new();
    if encode_into(inst, &mut buf).is_err() {
        return false;
    }
    matches!(crate::decode::decode(&buf), Some((d, n)) if d == *inst && n == buf.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AluOp, Cond};

    #[test]
    fn lengths_match_encoding() {
        let samples = [
            Inst::Nop,
            Inst::NopN { len: 4 },
            Inst::Jmp { disp: 1234 },
            Inst::JmpInd { src: Reg::R3 },
            Inst::Jcc {
                cond: Cond::Ne,
                disp: -4,
            },
            Inst::Call { disp: 0 },
            Inst::CallInd { src: Reg::R9 },
            Inst::Ret,
            Inst::Load {
                dst: Reg::R1,
                base: Reg::R2,
                disp: 16,
            },
            Inst::Store {
                base: Reg::R2,
                disp: -8,
                src: Reg::R1,
            },
            Inst::MovImm {
                dst: Reg::R0,
                imm: u64::MAX,
            },
            Inst::MovReg {
                dst: Reg::R4,
                src: Reg::R5,
            },
            Inst::Alu {
                op: AluOp::Xor,
                dst: Reg::R6,
                src: Reg::R7,
            },
            Inst::Shr {
                dst: Reg::R0,
                amount: 6,
            },
            Inst::Shl {
                dst: Reg::R0,
                amount: 12,
            },
            Inst::AndImm {
                dst: Reg::R0,
                imm: 0xFF,
            },
            Inst::Cmp {
                a: Reg::R1,
                b: Reg::R2,
            },
            Inst::Lfence,
            Inst::Mfence,
            Inst::Clflush { addr: Reg::R8 },
            Inst::Syscall,
            Inst::Sysret,
            Inst::Halt,
        ];
        for inst in &samples {
            let mut buf = Vec::new();
            encode_into(inst, &mut buf).unwrap();
            assert_eq!(buf.len(), encoded_len(inst), "{inst}");
            assert!(round_trips(inst), "{inst}");
        }
    }

    #[test]
    fn nopn_length_bounds_are_enforced() {
        let mut buf = Vec::new();
        assert_eq!(
            encode_into(&Inst::NopN { len: 2 }, &mut buf),
            Err(EncodeError::BadNopLen(2))
        );
        assert_eq!(
            encode_into(&Inst::NopN { len: 16 }, &mut buf),
            Err(EncodeError::BadNopLen(16))
        );
        assert!(encode_into(&Inst::NopN { len: 3 }, &mut buf).is_ok());
        assert!(encode_into(&Inst::NopN { len: 15 }, &mut buf).is_ok());
    }

    #[test]
    fn shift_amount_bounds_are_enforced() {
        let mut buf = Vec::new();
        assert_eq!(
            encode_into(
                &Inst::Shr {
                    dst: Reg::R0,
                    amount: 64
                },
                &mut buf
            ),
            Err(EncodeError::BadShiftAmount(64))
        );
        assert!(encode_into(
            &Inst::Shl {
                dst: Reg::R0,
                amount: 63
            },
            &mut buf
        )
        .is_ok());
    }

    #[test]
    fn encode_all_concatenates() {
        let insts = [Inst::Nop, Inst::Ret, Inst::Halt];
        let bytes = encode_all(&insts).unwrap();
        assert_eq!(bytes, vec![0x90, 0xC3, 0xF4]);
    }

    #[test]
    fn displacement_is_little_endian() {
        let mut buf = Vec::new();
        encode_into(&Inst::Jmp { disp: 0x0102_0304 }, &mut buf).unwrap();
        assert_eq!(buf, vec![0xE9, 0x04, 0x03, 0x02, 0x01]);
    }
}
