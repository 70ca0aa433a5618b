//! Byte-level instruction encoding.
//!
//! The encoding is variable length (1–15 bytes): an opcode byte, then
//! the operand slots in order. Each instruction's opcode and slots are
//! its row in the instruction table ([`Inst`]'s declaration in
//! `inst.rs`); how each slot is laid out is in `slot.rs`. A byte that
//! opens no row decodes as [`Inst::Invalid`].

use std::ops::RangeInclusive;

use crate::inst::Inst;

/// Error returned when an [`Inst`] value cannot be encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// `NopN` length outside [`NOP_LENS`].
    BadNopLen(u8),
    /// Shift amount outside [`SHIFT_AMOUNTS`].
    BadShiftAmount(u8),
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::BadNopLen(n) => {
                write!(f, "multi-byte nop length {n} outside {NOP_LENS:?}")
            }
            EncodeError::BadShiftAmount(n) => {
                write!(f, "shift amount {n} outside {SHIFT_AMOUNTS:?}")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// The lengths a multi-byte `nopN` may have.
pub const NOP_LENS: RangeInclusive<u8> = 3..=15;

/// The amounts `shr` and `shl` may shift by.
pub const SHIFT_AMOUNTS: RangeInclusive<u8> = 0..=63;

/// The longest encoding of any instruction: a 15-byte `nopN`.
pub const MAX_INST_LEN: usize = *NOP_LENS.end() as usize;

/// One instruction's bytes, held inline: encoding allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Encoded {
    bytes: [u8; MAX_INST_LEN],
    len: usize,
}

impl Encoded {
    pub(crate) fn push(&mut self, byte: u8) {
        self.bytes[self.len] = byte;
        self.len += 1;
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
    inst.write(&mut out)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AluOp, Cond};
    use crate::reg::Reg;

    /// Whether `inst` survives an encode/decode round trip unchanged.
    /// `Invalid` bytes that alias real opcodes do not round-trip;
    /// everything else should.
    fn round_trips(inst: &Inst) -> bool {
        let mut buf = Vec::new();
        if encode_into(inst, &mut buf).is_err() {
            return false;
        }
        matches!(crate::decode::decode(&buf), Some((d, n)) if d == *inst && n == buf.len())
    }

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
            assert_eq!(buf.len(), inst.len(), "{inst}");
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
