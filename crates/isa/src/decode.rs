//! Byte-level instruction decoding.
//!
//! Decoding is *total* over non-empty inputs with enough bytes: any byte
//! decodes to something, falling back to [`Inst::Invalid`]. This mirrors
//! hardware, where the decoder always produces an outcome for fetched
//! bytes — crucial for Phantom, where the frontend fetches and decodes at
//! addresses that may hold data, not code.

use crate::inst::Inst;
use crate::slot::{Reader, Stop};

/// Decode one instruction from the front of `bytes`.
///
/// Returns the instruction and its encoded length, or `None` if `bytes`
/// is empty or holds a *truncated* multi-byte instruction (the caller —
/// the fetch unit — must supply more bytes).
///
/// The operand fields are read left to right: the first missing byte
/// gives `None`, and the first out-of-range field (bad register index,
/// condition code, nop length or shift amount) gives [`Inst::Invalid`]
/// consuming one byte, so decoding always makes progress on any
/// sufficiently long input.
///
/// # Examples
///
/// ```
/// use phantom_isa::{decode::decode, Inst};
/// assert_eq!(decode(&[0x90]), Some((Inst::Nop, 1)));
/// assert_eq!(decode(&[0xC3, 0x90]), Some((Inst::Ret, 1)));
/// // 0xE9 needs 4 displacement bytes: truncated input decodes to None.
/// assert_eq!(decode(&[0xE9, 0x01]), None);
/// // Unknown opcodes decode to Invalid.
/// assert_eq!(decode(&[0x42]), Some((Inst::Invalid { byte: 0x42 }, 1)));
/// ```
pub fn decode(bytes: &[u8]) -> Option<(Inst, usize)> {
    let op = *bytes.first()?;
    match Inst::read(op, &mut Reader::after_opcode(bytes)) {
        Ok(inst) => Some((inst, inst.len())).filter(|&(_, len)| len <= bytes.len()),
        Err(Stop::Truncated) => None,
        Err(Stop::Malformed) => Some((Inst::Invalid { byte: op }, 1)),
    }
}

/// Decode as many whole instructions as fit in `bytes`, stopping at a
/// truncated tail.
///
/// # Examples
///
/// ```
/// use phantom_isa::{decode::decode_all, Inst};
/// let insts = decode_all(&[0x90, 0xC3, 0xE9, 0x00]); // trailing truncated jmp
/// assert_eq!(insts, vec![(0, Inst::Nop), (1, Inst::Ret)]);
/// ```
pub fn decode_all(bytes: &[u8]) -> Vec<(usize, Inst)> {
    let mut out = Vec::new();
    let mut off = 0;
    while off < bytes.len() {
        match decode(&bytes[off..]) {
            Some((inst, len)) => {
                out.push((off, inst));
                off += len;
            }
            None => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_is_none() {
        assert_eq!(decode(&[]), None);
    }

    #[test]
    fn truncated_multibyte_is_none() {
        assert_eq!(decode(&[0xE9]), None);
        assert_eq!(decode(&[0xE9, 1, 2, 3]), None);
        assert_eq!(decode(&[0xB8, 0]), None);
        assert_eq!(decode(&[0x0F, 8, 0, 0]), None); // nop8 needs 8 bytes
    }

    #[test]
    fn bad_fields_decode_to_invalid_one_byte() {
        // NopN with out-of-range length byte.
        assert_eq!(
            decode(&[0x0F, 2, 0]),
            Some((Inst::Invalid { byte: 0x0F }, 1))
        );
        assert_eq!(decode(&[0x0F, 16]), Some((Inst::Invalid { byte: 0x0F }, 1)));
        // JmpInd with register index >= 16.
        assert_eq!(
            decode(&[0xFF, 0x20]),
            Some((Inst::Invalid { byte: 0xFF }, 1))
        );
        // Jcc with bad condition code.
        assert_eq!(
            decode(&[0x71, 9, 0, 0, 0, 0]),
            Some((Inst::Invalid { byte: 0x71 }, 1))
        );
        // Shift with amount > 63.
        assert_eq!(
            decode(&[0xC1, 0, 64]),
            Some((Inst::Invalid { byte: 0xC1 }, 1))
        );
    }

    #[test]
    fn unknown_opcodes_are_invalid() {
        for op in [0x00u8, 0x42, 0x66, 0xCC, 0xDE] {
            assert_eq!(decode(&[op]), Some((Inst::Invalid { byte: op }, 1)));
        }
    }

    #[test]
    fn decode_all_walks_a_blob() {
        // nop; ret; jmp -5; hlt
        let bytes = [0x90, 0xC3, 0xE9, 0xFB, 0xFF, 0xFF, 0xFF, 0xF4];
        let insts = decode_all(&bytes);
        assert_eq!(
            insts,
            vec![
                (0, Inst::Nop),
                (1, Inst::Ret),
                (2, Inst::Jmp { disp: -5 }),
                (7, Inst::Halt),
            ]
        );
    }

    #[test]
    fn data_bytes_decode_to_something() {
        // A phantom target pointing at "data" still decodes: totality.
        let data: Vec<u8> = (0u8..=255).collect();
        let mut off = 0;
        let mut count = 0;
        while off < data.len() {
            match decode(&data[off..]) {
                Some((_, len)) => {
                    assert!(len >= 1);
                    off += len;
                    count += 1;
                }
                None => break, // truncated tail only
            }
        }
        assert!(count > 100, "most of the byte space decodes, got {count}");
    }
}
