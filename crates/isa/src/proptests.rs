//! Property-based tests for the encoder/decoder pair, and the tests
//! that hold the instruction table to the hand-written reference codec.

use std::collections::BTreeSet;

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use crate::decode::{decode, decode_all};
use crate::encode::{encode, encode_all, encode_into, EncodeError};
use crate::inst::tests::table_opcodes;
use crate::inst::{AluOp, Cond, Inst};
use crate::reference;
use crate::reg::Reg;

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..16).prop_map(|i| Reg::from_index(i).unwrap())
}

fn arb_cond() -> impl Strategy<Value = Cond> {
    (0u8..6).prop_map(|c| Cond::from_code(c).unwrap())
}

fn arb_alu() -> impl Strategy<Value = AluOp> {
    (0u8..5).prop_map(|c| AluOp::from_code(c).unwrap())
}

/// Any encodable (non-`Invalid`) instruction.
fn arb_inst() -> impl Strategy<Value = Inst> {
    prop_oneof![
        Just(Inst::Nop),
        (3u8..=15).prop_map(|len| Inst::NopN { len }),
        any::<i32>().prop_map(|disp| Inst::Jmp { disp }),
        arb_reg().prop_map(|src| Inst::JmpInd { src }),
        (arb_cond(), any::<i32>()).prop_map(|(cond, disp)| Inst::Jcc { cond, disp }),
        any::<i32>().prop_map(|disp| Inst::Call { disp }),
        arb_reg().prop_map(|src| Inst::CallInd { src }),
        Just(Inst::Ret),
        (arb_reg(), arb_reg(), any::<i32>()).prop_map(|(dst, base, disp)| Inst::Load {
            dst,
            base,
            disp
        }),
        (arb_reg(), any::<i32>(), arb_reg()).prop_map(|(base, disp, src)| Inst::Store {
            base,
            disp,
            src
        }),
        (arb_reg(), any::<u64>()).prop_map(|(dst, imm)| Inst::MovImm { dst, imm }),
        (arb_reg(), arb_reg()).prop_map(|(dst, src)| Inst::MovReg { dst, src }),
        (arb_alu(), arb_reg(), arb_reg()).prop_map(|(op, dst, src)| Inst::Alu { op, dst, src }),
        (arb_reg(), 0u8..64).prop_map(|(dst, amount)| Inst::Shr { dst, amount }),
        (arb_reg(), 0u8..64).prop_map(|(dst, amount)| Inst::Shl { dst, amount }),
        (arb_reg(), any::<u32>()).prop_map(|(dst, imm)| Inst::AndImm { dst, imm }),
        (arb_reg(), arb_reg()).prop_map(|(a, b)| Inst::Cmp { a, b }),
        Just(Inst::Lfence),
        Just(Inst::Mfence),
        arb_reg().prop_map(|addr| Inst::Clflush { addr }),
        Just(Inst::Syscall),
        Just(Inst::Sysret),
        Just(Inst::Halt),
    ]
}

proptest! {
    /// encode → decode round-trips any instruction with its exact length.
    #[test]
    fn encode_decode_round_trip(inst in arb_inst()) {
        let mut buf = Vec::new();
        encode_into(&inst, &mut buf).unwrap();
        prop_assert_eq!(buf.len(), inst.len());
        let (decoded, len) = decode(&buf).expect("decodes");
        prop_assert_eq!(decoded, inst);
        prop_assert_eq!(len, buf.len());
    }

    /// A whole instruction sequence decodes back instruction by
    /// instruction at the right offsets.
    #[test]
    fn sequence_round_trip(insts in proptest::collection::vec(arb_inst(), 1..40)) {
        let bytes = encode_all(&insts).unwrap();
        let decoded = decode_all(&bytes);
        prop_assert_eq!(decoded.len(), insts.len());
        let mut off = 0;
        for ((doff, dinst), inst) in decoded.iter().zip(&insts) {
            prop_assert_eq!(*doff, off);
            prop_assert_eq!(dinst, inst);
            off += inst.len();
        }
        prop_assert_eq!(off, bytes.len());
    }

    /// Decoding arbitrary bytes never panics and always makes progress
    /// (totality over complete inputs).
    #[test]
    fn decode_is_total_and_progresses(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut off = 0;
        while off < bytes.len() {
            match decode(&bytes[off..]) {
                Some((_, len)) => {
                    prop_assert!(len >= 1, "zero-length decode");
                    off += len;
                }
                None => break, // truncated tail — allowed
            }
        }
        // When decode returns None the remaining input must be a strict
        // prefix of some multi-byte instruction, i.e. shorter than 15.
        prop_assert!(bytes.len() - off < 15);
    }

    /// `direct_target` is consistent with reassembling at a new address:
    /// displacement semantics are position-relative only.
    #[test]
    fn direct_target_translation_invariance(disp in any::<i32>(), pc in 0u64..u64::MAX / 2) {
        let j = Inst::Jmp { disp };
        let t0 = j.direct_target(pc).unwrap();
        let t1 = j.direct_target(pc + 0x1000).unwrap();
        prop_assert_eq!(t1.wrapping_sub(t0), 0x1000);
    }

    /// Assembler label programs round-trip: every emitted direct branch
    /// reaches exactly the address of its label.
    #[test]
    fn assembler_fixups_hit_their_labels(
        base in 0u64..1 << 30,
        pads in proptest::collection::vec(0u64..64, 1..12),
    ) {
        use crate::asm::Assembler;
        let mut a = Assembler::new(base & !0xfff);
        // A chain: jmp l0; pad; l0: jmp l1; pad; ... ln: hlt
        for (i, &pad) in pads.iter().enumerate() {
            a.jmp(format!("l{i}"));
            for _ in 0..pad {
                a.push(Inst::Nop);
            }
            a.label(format!("l{i}"));
        }
        a.push(Inst::Halt);
        let blob = a.finish().unwrap();
        let insts = decode_all(&blob.bytes);
        let mut jumps = 0;
        for (off, inst) in &insts {
            if let Inst::Jmp { .. } = inst {
                let target = inst.direct_target(blob.base + *off as u64).unwrap();
                prop_assert_eq!(target, blob.addr(&format!("l{jumps}")));
                jumps += 1;
            }
        }
        prop_assert_eq!(jumps, pads.len());
    }
}

/// The table's encoding of `inst`, as the reference encoder reports it.
fn table_encode(inst: &Inst) -> Result<Vec<u8>, EncodeError> {
    encode(inst).map(|e| e.as_bytes().to_vec())
}

fn reference_encode(inst: &Inst) -> Result<Vec<u8>, EncodeError> {
    reference::encode(inst).map(|e| e.as_bytes().to_vec())
}

/// Every opcode byte pair decodes as the reference decoder does at
/// every truncation, followed by a tail whose third byte is a valid
/// shift amount, by one whose third byte is the first invalid one, and
/// by one of `0xFF` bytes.
#[test]
fn table_decode_matches_the_reference_on_every_two_byte_prefix() {
    let tails: [[u8; 14]; 3] = [
        [
            0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE, 0xF0, 1, 2, 3, 4, 5, 6,
        ],
        [
            0x40, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE, 0xF0, 1, 2, 3, 4, 5, 6,
        ],
        [0xFF; 14],
    ];
    for tail in tails {
        let mut buf = [0u8; 16];
        buf[2..].copy_from_slice(&tail);
        for b0 in 0..=255u8 {
            for b1 in 0..=255u8 {
                buf[0] = b0;
                buf[1] = b1;
                for n in 0..=15 {
                    assert_eq!(
                        decode(&buf[..n]),
                        reference::decode(&buf[..n]),
                        "{:02x?}",
                        &buf[..n]
                    );
                }
            }
        }
    }
}

/// Sampling `arb_inst` reaches every row of the table: a row added
/// without an `arb_inst` arm fails here.
#[test]
fn arb_inst_covers_every_table_row() {
    let mut rng = TestRng::deterministic("arb_inst_covers_every_table_row", 0);
    let strategy = arb_inst();
    let seen: BTreeSet<u8> = (0..4096)
        .map(|_| table_encode(&strategy.generate(&mut rng)).unwrap()[0])
        .collect();
    assert_eq!(seen, table_opcodes());
}

proptest! {
    /// On any short input the table decodes as the reference decoder.
    #[test]
    fn table_decode_matches_the_reference(bytes in proptest::collection::vec(any::<u8>(), 0..=16)) {
        prop_assert_eq!(decode(&bytes), reference::decode(&bytes));
    }

    /// The table encodes every instruction, out-of-range `NopN` lengths
    /// and shift amounts included, to the reference's bytes or error.
    #[test]
    fn table_encode_matches_the_reference(
        insts in proptest::collection::vec(
            prop_oneof![
                arb_inst(),
                any::<u8>().prop_map(|len| Inst::NopN { len }),
                (arb_reg(), any::<u8>()).prop_map(|(dst, amount)| Inst::Shr { dst, amount }),
                (arb_reg(), any::<u8>()).prop_map(|(dst, amount)| Inst::Shl { dst, amount }),
                any::<u8>().prop_map(|byte| Inst::Invalid { byte }),
            ],
            1..64,
        ),
    ) {
        for inst in &insts {
            prop_assert_eq!(table_encode(inst), reference_encode(inst), "{:?}", inst);
        }
    }
}
