//! Classifying speculation outcomes: who detects a misprediction, and
//! how wide the squash window is.
//!
//! The decoder can finalize the next PC for anything whose target is in
//! the instruction bytes (direct jumps/calls, and the *existence* and
//! kind of any branch). It cannot finalize execute-dependent information:
//! indirect targets, conditional directions, return addresses (§2.2).
//! A misprediction therefore resolves at one of two places:
//!
//! * [`ResteerKind::Frontend`] — decode contradicts the prediction
//!   (kind mismatch, wrong direct displacement, taken branch fetched
//!   straight-line). Short window: **PHANTOM**.
//! * [`ResteerKind::Backend`] — only execute can contradict it (wrong
//!   indirect target, wrong direction, wrong return address). Long
//!   window: conventional **Spectre**.

use phantom_bpu::Prediction;
use phantom_isa::{BranchKind, Inst};
use phantom_mem::VirtAddr;

/// Where a misprediction is detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResteerKind {
    /// Detected by the decoder; squash after
    /// [`frontend_resteer_latency`](crate::UarchProfile::frontend_resteer_latency)
    /// cycles.
    Frontend,
    /// Detected at execute; squash after
    /// [`backend_resteer_latency`](crate::UarchProfile::backend_resteer_latency)
    /// cycles.
    Backend,
}

impl std::fmt::Display for ResteerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResteerKind::Frontend => f.write_str("frontend (decoder-detectable)"),
            ResteerKind::Backend => f.write_str("backend (execute-detectable)"),
        }
    }
}

/// The verdict on one prediction (or absence of one) against the decoded
/// and resolved reality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpeculationVerdict {
    /// The prediction matched reality; the steer was correct.
    Correct,
    /// Mispredicted: the transient path starts at `transient_target` and
    /// is squashed by a `resteer` of the given kind.
    Mispredicted {
        /// Who detects it.
        resteer: ResteerKind,
        /// Where the wrong-path fetch went (`None` if the prediction had
        /// no target to offer, e.g. RSB underflow — nothing is fetched).
        transient_target: Option<VirtAddr>,
    },
    /// No prediction and none was needed (sequential fetch was right).
    NoSpeculation,
}

impl SpeculationVerdict {}

/// Classify a *served* prediction against the decoded instruction and its
/// architectural resolution.
///
/// `actual_target` is the architecturally resolved target if the
/// instruction is a taken branch (`None` for non-branches and non-taken
/// conditionals); `taken` is the resolved direction (`true` for all
/// unconditional branches).
///
/// # Examples
///
/// ```
/// use phantom_bpu::Prediction;
/// use phantom_isa::{BranchKind, Inst};
/// use phantom_mem::{PrivilegeLevel, VirtAddr};
/// use phantom_pipeline::resteer::{classify_predicted, ResteerKind, SpeculationVerdict};
///
/// // A nop predicted as an indirect branch: decoder-detectable.
/// let pred = Prediction {
///     source: VirtAddr::new(0x1000),
///     kind: BranchKind::Indirect,
///     target: Some(VirtAddr::new(0x9000)),
///     trained_at: PrivilegeLevel::User,
///     restricted: false,
/// };
/// let v = classify_predicted(&pred, &Inst::Nop, None, false);
/// assert_eq!(
///     v,
///     SpeculationVerdict::Mispredicted {
///         resteer: ResteerKind::Frontend,
///         transient_target: Some(VirtAddr::new(0x9000)),
///     }
/// );
/// ```
pub fn classify_predicted(
    pred: &Prediction,
    inst: &Inst,
    actual_target: Option<VirtAddr>,
    taken: bool,
) -> SpeculationVerdict {
    let actual_kind = inst.kind();

    // Asymmetric combination: the decoder sees an instruction of a
    // different type than the BTB promised (including "no branch at
    // all"). This is PHANTOM speculation.
    if pred.kind != actual_kind {
        return SpeculationVerdict::Mispredicted {
            resteer: ResteerKind::Frontend,
            transient_target: pred.target,
        };
    }

    match actual_kind {
        // Direct control flow: the decoder recomputes the target from the
        // displacement bytes and can immediately contradict the BTB.
        BranchKind::Direct | BranchKind::Call => {
            if pred.target == actual_target {
                SpeculationVerdict::Correct
            } else {
                SpeculationVerdict::Mispredicted {
                    resteer: ResteerKind::Frontend,
                    transient_target: pred.target,
                }
            }
        }
        // Conditional: the displacement is decodable, so a *taken*
        // prediction with the right target is confirmed by a taken
        // outcome; a not-taken outcome is only discovered at execute.
        BranchKind::Cond => {
            if taken && pred.target == actual_target {
                SpeculationVerdict::Correct
            } else if taken {
                // Taken, but BTB steered somewhere else: decode catches it.
                SpeculationVerdict::Mispredicted {
                    resteer: ResteerKind::Frontend,
                    transient_target: pred.target,
                }
            } else {
                SpeculationVerdict::Mispredicted {
                    resteer: ResteerKind::Backend,
                    transient_target: pred.target,
                }
            }
        }
        // Execute-dependent targets: only the backend can disagree.
        BranchKind::Indirect | BranchKind::CallInd | BranchKind::Ret => {
            if pred.target == actual_target {
                SpeculationVerdict::Correct
            } else {
                SpeculationVerdict::Mispredicted {
                    resteer: ResteerKind::Backend,
                    transient_target: pred.target,
                }
            }
        }
        BranchKind::NotBranch => unreachable!("kind mismatch handled above"),
    }
}

/// Classify the *absence* of a prediction: the frontend fetched
/// sequentially past the instruction. Wrong whenever the instruction is
/// a taken branch; the transient path is the straight line after it.
///
/// For unconditional branches the decoder itself notices that sequential
/// fetch was wrong (it decoded a branch that is always taken) — a
/// frontend resteer, which is why straight-line speculation is short.
/// A taken conditional predicted not-taken resolves only at execute.
///
/// # Examples
///
/// ```
/// use phantom_isa::{Inst, Reg};
/// use phantom_mem::VirtAddr;
/// use phantom_pipeline::resteer::{classify_unpredicted, ResteerKind, SpeculationVerdict};
///
/// // Straight-line speculation past an unmispredicted jmp*.
/// let v = classify_unpredicted(&Inst::JmpInd { src: Reg::R0 }, VirtAddr::new(0x1000), true);
/// assert!(matches!(
///     v,
///     SpeculationVerdict::Mispredicted { resteer: ResteerKind::Frontend, .. }
/// ));
/// ```
pub fn classify_unpredicted(inst: &Inst, pc: VirtAddr, taken: bool) -> SpeculationVerdict {
    let sequential = pc + inst.len() as u64;
    match inst.kind() {
        BranchKind::NotBranch => SpeculationVerdict::NoSpeculation,
        // Always-taken branches: decode discovers the straight line was
        // wrong (SLS window).
        BranchKind::Direct
        | BranchKind::Call
        | BranchKind::Indirect
        | BranchKind::CallInd
        | BranchKind::Ret => SpeculationVerdict::Mispredicted {
            resteer: ResteerKind::Frontend,
            transient_target: Some(sequential),
        },
        BranchKind::Cond => {
            if taken {
                // Predicted (by default) not-taken, actually taken: the
                // classic Spectre-PHT window on the sequential path.
                SpeculationVerdict::Mispredicted {
                    resteer: ResteerKind::Backend,
                    transient_target: Some(sequential),
                }
            } else {
                SpeculationVerdict::NoSpeculation
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phantom_isa::{Cond, Reg};
    use phantom_mem::PrivilegeLevel;

    fn pred(kind: BranchKind, target: u64) -> Prediction {
        Prediction {
            source: VirtAddr::new(0x1000),
            kind,
            target: Some(VirtAddr::new(target)),
            trained_at: PrivilegeLevel::User,
            restricted: false,
        }
    }

    #[test]
    fn kind_mismatch_is_always_frontend() {
        // Every asymmetric pair resolves at the decoder.
        let victims: [(Inst, BranchKind); 5] = [
            (Inst::Nop, BranchKind::NotBranch),
            (Inst::Jmp { disp: 4 }, BranchKind::Direct),
            (Inst::JmpInd { src: Reg::R0 }, BranchKind::Indirect),
            (
                Inst::Jcc {
                    cond: Cond::Eq,
                    disp: 4,
                },
                BranchKind::Cond,
            ),
            (Inst::Ret, BranchKind::Ret),
        ];
        for (inst, actual_kind) in &victims {
            for trained in [
                BranchKind::Direct,
                BranchKind::Indirect,
                BranchKind::Cond,
                BranchKind::Ret,
            ] {
                if trained == *actual_kind {
                    continue;
                }
                let v = classify_predicted(&pred(trained, 0x9000), inst, None, false);
                assert!(
                    matches!(
                        v,
                        SpeculationVerdict::Mispredicted {
                            resteer: ResteerKind::Frontend,
                            ..
                        }
                    ),
                    "training {trained} on victim {inst} must be decoder-detectable"
                );
            }
        }
    }

    #[test]
    fn correct_direct_prediction() {
        let inst = Inst::Jmp { disp: 0x10 };
        let target = inst.direct_target(0x1000).unwrap();
        let v = classify_predicted(
            &pred(BranchKind::Direct, target),
            &inst,
            Some(VirtAddr::new(target)),
            true,
        );
        assert_eq!(v, SpeculationVerdict::Correct);
    }

    #[test]
    fn wrong_displacement_direct_is_frontend() {
        // Training jmp with a different displacement than the victim jmp:
        // the paper counts this as asymmetric too (§5.2).
        let inst = Inst::Jmp { disp: 0x10 };
        let actual = inst.direct_target(0x1000).unwrap();
        let v = classify_predicted(
            &pred(BranchKind::Direct, actual + 0x40),
            &inst,
            Some(VirtAddr::new(actual)),
            true,
        );
        assert!(matches!(
            v,
            SpeculationVerdict::Mispredicted {
                resteer: ResteerKind::Frontend,
                ..
            }
        ));
    }

    #[test]
    fn wrong_indirect_target_is_backend_spectre() {
        let inst = Inst::JmpInd { src: Reg::R0 };
        let v = classify_predicted(
            &pred(BranchKind::Indirect, 0x9000),
            &inst,
            Some(VirtAddr::new(0x5000)),
            true,
        );
        assert_eq!(
            v,
            SpeculationVerdict::Mispredicted {
                resteer: ResteerKind::Backend,
                transient_target: Some(VirtAddr::new(0x9000)),
            }
        );
        // Correct indirect prediction: no squash.
        let v2 = classify_predicted(
            &pred(BranchKind::Indirect, 0x5000),
            &inst,
            Some(VirtAddr::new(0x5000)),
            true,
        );
        assert_eq!(v2, SpeculationVerdict::Correct);
    }

    #[test]
    fn not_taken_conditional_predicted_taken_is_backend() {
        let inst = Inst::Jcc {
            cond: Cond::Eq,
            disp: 0x20,
        };
        let v = classify_predicted(&pred(BranchKind::Cond, 0x1026), &inst, None, false);
        assert!(matches!(
            v,
            SpeculationVerdict::Mispredicted {
                resteer: ResteerKind::Backend,
                ..
            }
        ));
    }

    #[test]
    fn ret_with_wrong_rsb_is_backend() {
        let v = classify_predicted(
            &pred(BranchKind::Ret, 0x7777),
            &Inst::Ret,
            Some(VirtAddr::new(0x1234)),
            true,
        );
        assert!(matches!(
            v,
            SpeculationVerdict::Mispredicted {
                resteer: ResteerKind::Backend,
                ..
            }
        ));
    }

    #[test]
    fn straight_line_speculation_classification() {
        // Non-branch: sequential fetch is architecture.
        assert_eq!(
            classify_unpredicted(&Inst::Nop, VirtAddr::new(0x1000), false),
            SpeculationVerdict::NoSpeculation
        );
        // Unpredicted ret: SLS, frontend window, sequential transient path.
        let v = classify_unpredicted(&Inst::Ret, VirtAddr::new(0x1000), true);
        assert_eq!(
            v,
            SpeculationVerdict::Mispredicted {
                resteer: ResteerKind::Frontend,
                transient_target: Some(VirtAddr::new(0x1001)),
            }
        );
        // Taken jcc predicted (by absence) not-taken: backend.
        let jcc = Inst::Jcc {
            cond: Cond::Eq,
            disp: 0x20,
        };
        let v2 = classify_unpredicted(&jcc, VirtAddr::new(0x1000), true);
        assert!(matches!(
            v2,
            SpeculationVerdict::Mispredicted {
                resteer: ResteerKind::Backend,
                ..
            }
        ));
        // Not-taken jcc: correct by default.
        assert_eq!(
            classify_unpredicted(&jcc, VirtAddr::new(0x1000), false),
            SpeculationVerdict::NoSpeculation
        );
    }
}
