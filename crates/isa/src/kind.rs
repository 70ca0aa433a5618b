//! Branch classification shared by the decoder and the branch predictor.

use std::fmt;

/// The control-flow class of an instruction, as seen by the decoder and as
/// *recorded in the BTB by training*.
///
/// Phantom's central observation is that the BTB stores a branch kind that
/// the frontend trusts **before decode**. The decoder later compares the
/// kind it actually decoded against the predicted kind; a mismatch is a
/// decoder-detectable misprediction and triggers a frontend resteer.
///
/// # Examples
///
/// ```
/// use phantom_isa::{BranchKind, Inst, Reg};
/// assert_eq!(Inst::Nop.kind(), BranchKind::NotBranch);
/// assert_eq!(Inst::JmpInd { src: Reg::R0 }.kind(), BranchKind::Indirect);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BranchKind {
    /// Not a control-flow edge (nop sleds, ALU, loads, stores, fences…).
    NotBranch,
    /// Direct unconditional jump (`jmp rel`). The BTB serves the target
    /// PC-relative for this kind (§5.2 of the paper).
    Direct,
    /// Indirect unconditional jump (`jmp*`).
    Indirect,
    /// Conditional branch (`jcc`), execute-dependent.
    Cond,
    /// Direct call; pushes a return address and feeds the RSB.
    Call,
    /// Indirect call.
    CallInd,
    /// Return; predicted via the RSB, execute-dependent.
    Ret,
}

impl BranchKind {
    /// All kinds, useful for exhaustive experiment sweeps.
    pub const ALL: [BranchKind; 7] = [
        BranchKind::NotBranch,
        BranchKind::Direct,
        BranchKind::Indirect,
        BranchKind::Cond,
        BranchKind::Call,
        BranchKind::CallInd,
        BranchKind::Ret,
    ];

    /// Whether the *architectural* next PC for this kind can only be
    /// finalized at the execute stage (conditional outcome, indirect
    /// target, or return address), as opposed to at decode.
    ///
    /// Decode can finalize `jmp rel` and `call rel`: the displacement is in
    /// the instruction bytes. It cannot finalize `jcc`/`jmp*`/`ret`, which
    /// is exactly the window conventional Spectre exploits.
    #[cfg(test)]
    pub fn is_execute_dependent(self) -> bool {
        matches!(
            self,
            BranchKind::Cond | BranchKind::Indirect | BranchKind::CallInd | BranchKind::Ret
        )
    }

    /// Whether the predicted target stored in the BTB is applied
    /// PC-relative (direct branches) rather than as an absolute address.
    pub fn target_is_relative(self) -> bool {
        matches!(self, BranchKind::Direct | BranchKind::Call)
    }
}

impl fmt::Display for BranchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BranchKind::NotBranch => "non branch",
            BranchKind::Direct => "jmp",
            BranchKind::Indirect => "jmp*",
            BranchKind::Cond => "jcc",
            BranchKind::Call => "call",
            BranchKind::CallInd => "call*",
            BranchKind::Ret => "ret",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execute_dependence_matches_paper() {
        // §2.2: "unless a branch source that is execute-dependent was
        // decoded (e.g., conditional, indirect, or return branch)".
        assert!(BranchKind::Cond.is_execute_dependent());
        assert!(BranchKind::Indirect.is_execute_dependent());
        assert!(BranchKind::CallInd.is_execute_dependent());
        assert!(BranchKind::Ret.is_execute_dependent());
        assert!(!BranchKind::Direct.is_execute_dependent());
        assert!(!BranchKind::Call.is_execute_dependent());
        assert!(!BranchKind::NotBranch.is_execute_dependent());
    }

    #[test]
    fn only_direct_kinds_are_relative() {
        for k in BranchKind::ALL {
            assert_eq!(
                k.target_is_relative(),
                matches!(k, BranchKind::Direct | BranchKind::Call),
                "{k}"
            );
        }
    }

    #[test]
    fn display_matches_paper_terms() {
        assert_eq!(BranchKind::Indirect.to_string(), "jmp*");
        assert_eq!(BranchKind::NotBranch.to_string(), "non branch");
        assert_eq!(BranchKind::Cond.to_string(), "jcc");
    }
}
