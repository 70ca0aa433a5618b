//! Operand slots: the field layouts a row of the instruction table lists
//! after its opcode byte. Each slot is written (onto [`Encoded`]) and
//! read (from a [`Reader`]) here, once.

use crate::encode::{EncodeError, Encoded, NOP_LENS, SHIFT_AMOUNTS};
use crate::inst::{AluOp, Cond};
use crate::reg::Reg;

/// Why a [`Reader`] stopped short of a whole instruction.
pub(crate) enum Stop {
    /// The input ends inside the instruction: the fetch unit must supply
    /// more bytes.
    Truncated,
    /// An unknown opcode or an out-of-range field.
    Malformed,
}

/// One instruction's bytes, read left to right.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// A reader that stands just past the opcode byte of `bytes`.
    pub(crate) fn after_opcode(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, at: 1 }
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], Stop> {
        let bytes = self.bytes.get(self.at..).and_then(<[u8]>::first_chunk);
        let bytes = *bytes.ok_or(Stop::Truncated)?;
        self.at += N;
        Ok(bytes)
    }

    /// One byte, which `parse` must accept.
    fn byte<T>(&mut self, parse: impl FnOnce(u8) -> Option<T>) -> Result<T, Stop> {
        let [byte] = self.take()?;
        parse(byte).ok_or(Stop::Malformed)
    }
}

impl Encoded {
    fn byte(&mut self, byte: u8) -> Result<(), EncodeError> {
        self.push(byte);
        Ok(())
    }

    /// A register index byte.
    pub(crate) fn reg(&mut self, r: Reg) -> Result<(), EncodeError> {
        self.byte(r.index())
    }

    /// Two register indices in one byte, high nibble first.
    pub(crate) fn modrm(&mut self, hi: Reg, lo: Reg) -> Result<(), EncodeError> {
        self.byte((hi.index() << 4) | lo.index())
    }

    /// A condition code byte.
    pub(crate) fn cond(&mut self, cond: Cond) -> Result<(), EncodeError> {
        self.byte(cond.code())
    }

    /// An ALU operation byte.
    pub(crate) fn alu(&mut self, op: AluOp) -> Result<(), EncodeError> {
        self.byte(op.code())
    }

    /// A shift amount byte, within [`SHIFT_AMOUNTS`].
    pub(crate) fn shift(&mut self, amount: u8) -> Result<(), EncodeError> {
        if !SHIFT_AMOUNTS.contains(&amount) {
            return Err(EncodeError::BadShiftAmount(amount));
        }
        self.byte(amount)
    }

    /// The total length byte, within [`NOP_LENS`], then zero padding up
    /// to that length. A reader reads only the length byte: the padding
    /// may hold anything.
    pub(crate) fn nop_len(&mut self, len: u8) -> Result<(), EncodeError> {
        if !NOP_LENS.contains(&len) {
            return Err(EncodeError::BadNopLen(len));
        }
        self.push(len);
        while self.as_bytes().len() < usize::from(len) {
            self.push(0);
        }
        Ok(())
    }

    /// An integer, little-endian, as wide as its type.
    pub(crate) fn le(&mut self, value: impl Le) -> Result<(), EncodeError> {
        value.write(self);
        Ok(())
    }
}

impl Reader<'_> {
    pub(crate) fn reg(&mut self) -> Result<Reg, Stop> {
        self.byte(Reg::from_index)
    }

    pub(crate) fn modrm(&mut self) -> Result<(Reg, Reg), Stop> {
        self.byte(|b| Some((Reg::from_index(b >> 4)?, Reg::from_index(b & 0xF)?)))
    }

    pub(crate) fn cond(&mut self) -> Result<Cond, Stop> {
        self.byte(Cond::from_code)
    }

    pub(crate) fn alu(&mut self) -> Result<AluOp, Stop> {
        self.byte(AluOp::from_code)
    }

    pub(crate) fn shift(&mut self) -> Result<u8, Stop> {
        self.byte(|b| SHIFT_AMOUNTS.contains(&b).then_some(b))
    }

    pub(crate) fn nop_len(&mut self) -> Result<u8, Stop> {
        self.byte(|b| NOP_LENS.contains(&b).then_some(b))
    }

    pub(crate) fn le<T: Le>(&mut self) -> Result<T, Stop> {
        T::read(self)
    }
}

/// An integer field stored little-endian.
pub(crate) trait Le: Sized {
    fn write(self, out: &mut Encoded);
    fn read(r: &mut Reader<'_>) -> Result<Self, Stop>;
}

macro_rules! le {
    ($($ty:ty)*) => {$(
        impl Le for $ty {
            fn write(self, out: &mut Encoded) {
                self.to_le_bytes().into_iter().for_each(|b| out.push(b));
            }

            fn read(r: &mut Reader<'_>) -> Result<$ty, Stop> {
                r.take().map(<$ty>::from_le_bytes)
            }
        }
    )*};
}

le!(i32 u32 u64);
