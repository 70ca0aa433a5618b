//! The combined branch prediction unit: BTB + RSB + CBP behind the
//! mitigation MSRs.
//!
//! [`Bpu::predict_window`] is the *pre-decode* query the fetch unit runs
//! for every fetch window. It returns at most one [`Prediction`] — where
//! the frontend should steer next and how trusted that steer is under
//! the active mitigations (a prediction can be `restricted`, meaning it
//! may fetch and decode but never execute, which is exactly the AutoIBRS
//! and `SuppressBPOnNonBr` behavior of observations O4/O5).

use phantom_isa::BranchKind;
use phantom_mem::{PrivilegeLevel, VirtAddr};

use crate::btb::{Btb, BtbScheme};
use crate::cbp::{Cbp, CbpScheme};
use crate::msr::MsrState;
use crate::rsb::Rsb;

/// Return-stack depth of every BPU.
const RSB_DEPTH: usize = 32;

/// A prediction served to the fetch unit before decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted branch-source address (where the BPU believes a branch
    /// sits — there may be *no* branch there in reality).
    pub source: VirtAddr,
    /// The branch kind, as trained.
    pub kind: BranchKind,
    /// Predicted target. `None` when an RSB underflow leaves a
    /// `ret`-kind prediction with nowhere to go.
    pub target: Option<VirtAddr>,
    /// Privilege mode that trained the underlying entry.
    pub trained_at: PrivilegeLevel,
    /// Whether a mitigation allows this prediction to steer fetch/decode
    /// but forbids executing µops from the target (AutoIBRS cross-mode
    /// case). `SuppressBPOnNonBr` restriction is applied later, at
    /// decode, because it depends on what the victim decodes as.
    pub restricted: bool,
}

/// The branch prediction unit.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct Bpu {
    btb: Btb,
    rsb: Rsb,
    cbp: Cbp,
    msr: MsrState,
}

impl Bpu {
    /// Create a BPU with the given BTB scheme, the legacy conditional
    /// predictor, and the given MSR state.
    #[cfg(test)]
    pub fn new(scheme: BtbScheme, msr: MsrState) -> Bpu {
        Bpu::with_schemes(scheme, CbpScheme::legacy(), msr)
    }

    /// Create a BPU with explicit BTB *and* CBP schemes — the spec-driven
    /// constructor the machine layer uses.
    pub fn with_schemes(btb: BtbScheme, cbp: CbpScheme, msr: MsrState) -> Bpu {
        Bpu {
            btb: Btb::new(btb),
            rsb: Rsb::new(RSB_DEPTH),
            cbp: Cbp::new(cbp),
            msr,
        }
    }

    /// Put the BPU in the state [`Bpu::with_schemes`] builds, in place:
    /// the BTB emptied through [`Btb::reset`], a new RSB, and
    /// the CBP reset through [`Cbp::reset`] (only the sets it wrote,
    /// when it can tell).
    pub fn reset(&mut self, btb: BtbScheme, cbp: CbpScheme, msr: MsrState) {
        self.btb.reset(btb);
        self.rsb = Rsb::new(RSB_DEPTH);
        self.cbp.reset(cbp);
        self.msr = msr;
    }

    /// Current MSR state.
    pub fn msr(&self) -> MsrState {
        self.msr
    }

    /// Reconfigure MSRs (the OS writing `wrmsr`).
    pub fn set_msr(&mut self, msr: MsrState) {
        self.msr = msr;
    }

    /// The underlying BTB (for experiments that inspect it).
    pub fn btb(&self) -> &Btb {
        &self.btb
    }

    /// The RSB.
    pub fn rsb(&self) -> &Rsb {
        &self.rsb
    }

    /// The RSB, mutably (call/ret bookkeeping from the pipeline).
    pub fn rsb_mut(&mut self) -> &mut Rsb {
        &mut self.rsb
    }

    /// The conditional-branch predictor (for experiments that inspect
    /// or calibrate against its counters).
    pub fn cbp(&self) -> &Cbp {
        &self.cbp
    }

    /// Train the BTB with a resolved branch (called when a branch
    /// resolves in the backend — or when a faulting user branch to a
    /// kernel address is squashed, which still deposits an entry; that
    /// is the §6.2 page-fault training trick).
    pub fn train(
        &mut self,
        source: VirtAddr,
        kind: BranchKind,
        target: VirtAddr,
        level: PrivilegeLevel,
    ) {
        self.train_smt(source, kind, target, level, 0);
    }

    /// [`Bpu::train`] with an explicit SMT thread id.
    pub fn train_smt(
        &mut self,
        source: VirtAddr,
        kind: BranchKind,
        target: VirtAddr,
        level: PrivilegeLevel,
        thread: u8,
    ) {
        self.btb.train(source, kind, target, level, thread);
    }

    /// Record a conditional branch outcome in the CBP.
    pub fn train_direction(&mut self, source: VirtAddr, taken: bool) {
        self.cbp.update(source, taken);
    }

    /// [`Bpu::predict_window`] over a 32-byte fetch block.
    #[cfg(test)]
    pub fn predict_block(
        &mut self,
        base: VirtAddr,
        level: PrivilegeLevel,
        thread: u8,
    ) -> Option<Prediction> {
        self.predict_window(base, 32, level, thread)
    }

    /// The pre-decode prediction query for the `window` bytes starting
    /// at `base` (the machine queries per-instruction spans so each
    /// prediction fires exactly once). `level` is the *current*
    /// privilege mode; `thread` the current SMT thread.
    ///
    /// Mitigation gating implemented here:
    /// * **eIBRS tagging** (Intel): entries trained in another mode are
    ///   invisible;
    /// * **STIBP**: entries trained by the sibling thread are invisible;
    /// * **AutoIBRS**: entries trained at user, predicted in supervisor,
    ///   are served but `restricted` (O5: fetch still happens).
    pub fn predict_window(
        &mut self,
        base: VirtAddr,
        window: u64,
        level: PrivilegeLevel,
        thread: u8,
    ) -> Option<Prediction> {
        let hit = self.first_visible_hit(base, window, level, thread)?;

        // Conditional predictions consult the CBP for direction; a
        // not-taken prediction serves no steer at all.
        if hit.kind == BranchKind::Cond && !self.cbp.predict(hit.source) {
            return None;
        }

        let target = match hit.kind {
            BranchKind::Ret => self.rsb.pop(),
            _ => hit.target,
        };

        let restricted = self.msr.auto_ibrs
            && level == PrivilegeLevel::Supervisor
            && hit.trained_at == PrivilegeLevel::User;

        Some(Prediction {
            source: hit.source,
            kind: hit.kind,
            target,
            trained_at: hit.trained_at,
            restricted,
        })
    }

    /// The first BTB hit in `[base, base+window)` that the active
    /// mitigations let this privilege mode and SMT thread *see*. Scans
    /// window positions in address order; entries hidden by tag-based
    /// mitigations (eIBRS tagging, STIBP) are skipped without shadowing
    /// later visible ones. Pure with respect to predictor state.
    fn first_visible_hit(
        &self,
        base: VirtAddr,
        window: u64,
        level: PrivilegeLevel,
        thread: u8,
    ) -> Option<crate::btb::BtbHit> {
        let scheme_tagged = self.btb.scheme().privilege_tagged;
        let stibp = self.msr.stibp;
        let eibrs = self.msr.eibrs_tagging;
        self.btb.window_hits(base, window).find(|h| {
            let hidden_priv = (scheme_tagged || eibrs) && h.trained_at != level;
            let hidden_smt = stibp && h.thread != thread;
            !(hidden_priv || hidden_smt)
        })
    }

    /// Open a rewind epoch on the journaled structure (the CBP); see
    /// [`Cbp::begin_epoch`].
    pub fn begin_epoch(&mut self) {
        self.cbp.begin_epoch();
    }

    /// Share every CBP set written so far, so clones taken from now on
    /// copy none until they write it; see [`Cbp::seal`].
    pub fn seal(&mut self) {
        self.cbp.seal();
    }

    /// Rewind to `snap` in place, identically to `*self = snap.clone()`:
    /// the CBP through [`Cbp::restore_from`], the BTB and RSB by
    /// `clone_from` (reusing their buffers), the MSRs by copy.
    pub fn restore_from(&mut self, snap: &Bpu) {
        self.btb.clone_from(&snap.btb);
        self.rsb.clone_from(&snap.rsb);
        self.cbp.restore_from(&snap.cbp);
        self.msr = snap.msr;
    }

    /// IBPB: flush every prediction structure. "Assuming that IBPB can
    /// flush all types of predictions, it mitigates all our exploitation
    /// primitives P1, P2, and P3" (§8.2).
    pub fn ibpb(&mut self) {
        self.btb.flush();
        self.rsb.flush();
        self.cbp.flush();
    }
}

#[cfg(test)]
impl Bpu {
    /// Test-only: whether every predictor's state equals `other`'s
    /// (the CBP's journal bookkeeping aside).
    pub(crate) fn same_state(&self, other: &Bpu) -> bool {
        self.btb.same_state(&other.btb)
            && self.rsb.same_state(&other.rsb)
            && self.cbp == other.cbp
            && self.msr == other.msr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bpu(scheme: BtbScheme, msr: MsrState) -> Bpu {
        Bpu::new(scheme, msr)
    }

    #[test]
    fn window_prediction_finds_trained_source() {
        let mut b = bpu(BtbScheme::zen34(), MsrState::none());
        let src = VirtAddr::new(0x40_1008);
        b.train(
            src,
            BranchKind::Indirect,
            VirtAddr::new(0x7000),
            PrivilegeLevel::User,
        );
        let p = b
            .predict_block(VirtAddr::new(0x40_1000), PrivilegeLevel::User, 0)
            .unwrap();
        assert_eq!(p.source, src);
        assert_eq!(p.target, Some(VirtAddr::new(0x7000)));
        assert!(!p.restricted);
    }

    #[test]
    fn no_training_no_prediction() {
        let mut b = bpu(BtbScheme::zen34(), MsrState::none());
        assert!(b
            .predict_block(VirtAddr::new(0x1000), PrivilegeLevel::User, 0)
            .is_none());
    }

    #[test]
    fn ret_prediction_pops_rsb() {
        let mut b = bpu(BtbScheme::zen12(), MsrState::none());
        let src = VirtAddr::new(0x2000);
        b.train(src, BranchKind::Ret, VirtAddr::new(0), PrivilegeLevel::User);
        b.rsb_mut().push(VirtAddr::new(0xcafe));
        let p = b.predict_block(src, PrivilegeLevel::User, 0).unwrap();
        assert_eq!(p.kind, BranchKind::Ret);
        assert_eq!(
            p.target,
            Some(VirtAddr::new(0xcafe)),
            "most recent call site"
        );
        // RSB consumed: next prediction underflows.
        let p2 = b.predict_block(src, PrivilegeLevel::User, 0).unwrap();
        assert_eq!(p2.target, None);
    }

    #[test]
    fn conditional_prediction_respects_direction() {
        let mut b = bpu(BtbScheme::zen12(), MsrState::none());
        let src = VirtAddr::new(0x3000);
        b.train(
            src,
            BranchKind::Cond,
            VirtAddr::new(0x4000),
            PrivilegeLevel::User,
        );
        // Default PHT state: weakly not taken -> no steer.
        assert!(b.predict_block(src, PrivilegeLevel::User, 0).is_none());
        b.train_direction(src, true);
        b.train_direction(src, true);
        b.train_direction(src, true);
        // PHT history shifts the index; retrain until the static query
        // predicts taken.
        for _ in 0..8 {
            b.train_direction(src, true);
        }
        assert!(b.cbp().predict(src) || b.predict_block(src, PrivilegeLevel::User, 0).is_some());
    }

    #[test]
    fn auto_ibrs_restricts_but_serves_cross_privilege() {
        let msr = MsrState {
            auto_ibrs: true,
            ..MsrState::none()
        };
        let mut b = bpu(BtbScheme::zen34(), msr);
        let k = VirtAddr::new(0xffff_ffff_8124_6ac0);
        let u = VirtAddr::new(k.raw() ^ 0xffff_bff8_0000_0000);
        b.train(
            u,
            BranchKind::Indirect,
            VirtAddr::new(0x9000),
            PrivilegeLevel::User,
        );
        // Kernel-mode prediction: served, restricted (O5).
        let p = b
            .predict_block(
                k.page_base() + (k.raw() & 0xfff) / 32 * 32,
                PrivilegeLevel::Supervisor,
                0,
            )
            .or_else(|| b.predict_block(k, PrivilegeLevel::Supervisor, 0))
            .unwrap();
        assert!(p.restricted);
        assert_eq!(p.target, Some(VirtAddr::new(0x9000)));
    }

    #[test]
    fn eibrs_tagging_hides_cross_privilege_entries() {
        let msr = MsrState {
            eibrs_tagging: true,
            ..MsrState::none()
        };
        let mut b = bpu(BtbScheme::intel(), msr);
        let k = VirtAddr::new(0xffff_ffff_8124_6ac0);
        let u = VirtAddr::new(k.raw() & 0x0000_7fff_ffff_ffff & !(1 << 47));
        b.train(
            u,
            BranchKind::Indirect,
            VirtAddr::new(0x9000),
            PrivilegeLevel::User,
        );
        assert!(
            b.predict_block(k, PrivilegeLevel::Supervisor, 0).is_none(),
            "Intel does not reuse user predictions in kernel mode"
        );
        // Same mode still works.
        assert!(b.predict_block(u, PrivilegeLevel::User, 0).is_some());
    }

    #[test]
    fn stibp_isolates_smt_threads() {
        let msr = MsrState {
            stibp: true,
            ..MsrState::none()
        };
        let mut b = bpu(BtbScheme::zen12(), msr);
        let src = VirtAddr::new(0x5000);
        b.train_smt(
            src,
            BranchKind::Indirect,
            VirtAddr::new(0x6000),
            PrivilegeLevel::User,
            1,
        );
        assert!(b.predict_block(src, PrivilegeLevel::User, 0).is_none());
        assert!(b.predict_block(src, PrivilegeLevel::User, 1).is_some());
    }

    #[test]
    fn ibpb_flushes_all_structures() {
        let mut b = bpu(BtbScheme::zen34(), MsrState::none());
        let src = VirtAddr::new(0x5000);
        b.train(
            src,
            BranchKind::Indirect,
            VirtAddr::new(0x6000),
            PrivilegeLevel::User,
        );
        b.rsb_mut().push(VirtAddr::new(0x1234));
        b.ibpb();
        assert!(b.predict_block(src, PrivilegeLevel::User, 0).is_none());
        assert!(b.rsb().is_empty());
    }
}
