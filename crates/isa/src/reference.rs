//! The hand-written decoder and encoder that the instruction table
//! replaced, kept verbatim as the reference that the `table_*` tests in
//! `proptests.rs` hold the table to.

use crate::encode::{EncodeError, MAX_INST_LEN};
use crate::inst::{AluOp, Cond, Inst};
use crate::reg::Reg;

fn reg(byte: u8) -> Option<Reg> {
    Reg::from_index(byte)
}

fn split_modrm(byte: u8) -> Option<(Reg, Reg)> {
    Some((Reg::from_index(byte >> 4)?, Reg::from_index(byte & 0xF)?))
}

fn i32_at(bytes: &[u8], off: usize) -> Option<i32> {
    let b: [u8; 4] = bytes.get(off..off + 4)?.try_into().ok()?;
    Some(i32::from_le_bytes(b))
}

fn u32_at(bytes: &[u8], off: usize) -> Option<u32> {
    let b: [u8; 4] = bytes.get(off..off + 4)?.try_into().ok()?;
    Some(u32::from_le_bytes(b))
}

fn u64_at(bytes: &[u8], off: usize) -> Option<u64> {
    let b: [u8; 8] = bytes.get(off..off + 8)?.try_into().ok()?;
    Some(u64::from_le_bytes(b))
}

pub fn decode(bytes: &[u8]) -> Option<(Inst, usize)> {
    let op = *bytes.first()?;
    let invalid = Some((Inst::Invalid { byte: op }, 1));
    match op {
        0x90 => Some((Inst::Nop, 1)),
        0x0F => {
            let len = *bytes.get(1)?;
            if !(3..=15).contains(&len) {
                return invalid;
            }
            if bytes.len() < usize::from(len) {
                return None;
            }
            Some((Inst::NopN { len }, usize::from(len)))
        }
        0xE9 => Some((
            Inst::Jmp {
                disp: i32_at(bytes, 1)?,
            },
            5,
        )),
        0xFF => match reg(*bytes.get(1)?) {
            Some(src) => Some((Inst::JmpInd { src }, 2)),
            None => invalid,
        },
        0x71 => {
            let cond = match Cond::from_code(*bytes.get(1)?) {
                Some(c) => c,
                None => return invalid,
            };
            Some((
                Inst::Jcc {
                    cond,
                    disp: i32_at(bytes, 2)?,
                },
                6,
            ))
        }
        0xE8 => Some((
            Inst::Call {
                disp: i32_at(bytes, 1)?,
            },
            5,
        )),
        0xF1 => match reg(*bytes.get(1)?) {
            Some(src) => Some((Inst::CallInd { src }, 2)),
            None => invalid,
        },
        0xC3 => Some((Inst::Ret, 1)),
        0x8B => {
            let (dst, base) = match split_modrm(*bytes.get(1)?) {
                Some(p) => p,
                None => return invalid,
            };
            Some((
                Inst::Load {
                    dst,
                    base,
                    disp: i32_at(bytes, 2)?,
                },
                6,
            ))
        }
        0x89 => {
            let (base, src) = match split_modrm(*bytes.get(1)?) {
                Some(p) => p,
                None => return invalid,
            };
            Some((
                Inst::Store {
                    base,
                    disp: i32_at(bytes, 2)?,
                    src,
                },
                6,
            ))
        }
        0xB8 => {
            let dst = match reg(*bytes.get(1)?) {
                Some(r) => r,
                None => return invalid,
            };
            Some((
                Inst::MovImm {
                    dst,
                    imm: u64_at(bytes, 2)?,
                },
                10,
            ))
        }
        0x8A => match split_modrm(*bytes.get(1)?) {
            Some((dst, src)) => Some((Inst::MovReg { dst, src }, 2)),
            None => invalid,
        },
        0x01 => {
            let aop = match AluOp::from_code(*bytes.get(1)?) {
                Some(o) => o,
                None => return invalid,
            };
            match split_modrm(*bytes.get(2)?) {
                Some((dst, src)) => Some((Inst::Alu { op: aop, dst, src }, 3)),
                None => invalid,
            }
        }
        0xC1 | 0xD1 => {
            let dst = match reg(*bytes.get(1)?) {
                Some(r) => r,
                None => return invalid,
            };
            let amount = *bytes.get(2)?;
            if amount > 63 {
                return invalid;
            }
            if op == 0xC1 {
                Some((Inst::Shr { dst, amount }, 3))
            } else {
                Some((Inst::Shl { dst, amount }, 3))
            }
        }
        0x81 => {
            let dst = match reg(*bytes.get(1)?) {
                Some(r) => r,
                None => return invalid,
            };
            Some((
                Inst::AndImm {
                    dst,
                    imm: u32_at(bytes, 2)?,
                },
                6,
            ))
        }
        0x39 => match split_modrm(*bytes.get(1)?) {
            Some((a, b)) => Some((Inst::Cmp { a, b }, 2)),
            None => invalid,
        },
        0xFA => Some((Inst::Lfence, 1)),
        0xFB => Some((Inst::Mfence, 1)),
        0xAE => match reg(*bytes.get(1)?) {
            Some(addr) => Some((Inst::Clflush { addr }, 2)),
            None => invalid,
        },
        0x05 => Some((Inst::Syscall, 1)),
        0x07 => Some((Inst::Sysret, 1)),
        0xF4 => Some((Inst::Halt, 1)),
        other => Some((Inst::Invalid { byte: other }, 1)),
    }
}

fn modrm(hi: Reg, lo: Reg) -> u8 {
    (hi.index() << 4) | lo.index()
}

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
