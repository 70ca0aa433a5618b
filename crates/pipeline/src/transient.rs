//! Transient (wrong-path) window parameters and reports.

use phantom_mem::VirtAddr;

use crate::profile::UarchProfile;
use crate::resteer::ResteerKind;

/// What a squashed path is *allowed* to do before the resteer lands,
/// derived from the microarchitecture profile, the resteer kind, and the
/// active mitigations.
///
/// # Examples
///
/// ```
/// use phantom_pipeline::{ResteerKind, TransientWindow, UarchProfile};
///
/// // A phantom (frontend-resteered) window on Zen 2 can execute µops…
/// let w = TransientWindow::for_resteer(&UarchProfile::zen2(), ResteerKind::Frontend);
/// assert!(w.fetch && w.decode && w.exec_uops > 0);
/// // …but on Zen 4 it is squashed before execute.
/// let w4 = TransientWindow::for_resteer(&UarchProfile::zen4(), ResteerKind::Frontend);
/// assert!(w4.fetch && w4.decode && w4.exec_uops == 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransientWindow {
    /// The target's I-cache line may be fetched.
    pub fetch: bool,
    /// The target's bytes may be decoded (µop-cache fill).
    pub decode: bool,
    /// How many wrong-path µops may dispatch to execute (0 = squashed
    /// before execute).
    pub exec_uops: u32,
    /// The resteer that ends the window.
    pub resteer: ResteerKind,
}

impl TransientWindow {
    /// Derive the window a resteer of the given kind leaves open on
    /// `profile`, before mitigation gating.
    pub fn for_resteer(profile: &UarchProfile, resteer: ResteerKind) -> TransientWindow {
        match resteer {
            ResteerKind::Frontend => {
                let deadline = profile.frontend_resteer_latency;
                TransientWindow {
                    fetch: profile.fetch_latency < deadline,
                    decode: profile.fetch_latency + profile.decode_latency <= deadline,
                    exec_uops: profile.phantom_exec_uops,
                    resteer,
                }
            }
            ResteerKind::Backend => TransientWindow {
                fetch: true,
                decode: true,
                exec_uops: profile.spectre_exec_uops,
                resteer,
            },
        }
    }

    /// Apply an execute-stage gate (AutoIBRS restriction,
    /// `SuppressBPOnNonBr` on a non-branch victim): fetch and decode stay
    /// allowed, execute is blocked. This asymmetry is observations O4/O5.
    pub fn without_execute(self) -> TransientWindow {
        TransientWindow {
            exec_uops: 0,
            ..self
        }
    }

    /// A fully-suppressed window (e.g. the Intel jmp*-victim blind spot).
    pub fn suppressed(resteer: ResteerKind) -> TransientWindow {
        TransientWindow {
            fetch: false,
            decode: false,
            exec_uops: 0,
            resteer,
        }
    }
}

/// What a squashed path actually did — the ground truth the observation
/// channels (I-cache timing, µop-cache counters, D-cache probing) later
/// recover. Tests compare channel output against these reports.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TransientReport {
    /// Where the wrong-path fetch went (None when no target was served).
    pub target: Option<VirtAddr>,
    /// The window that was in force.
    pub window: Option<TransientWindow>,
    /// Whether the target line was fetched into the I-cache.
    pub fetched: bool,
    /// Whether target bytes were decoded into the µop cache.
    pub decoded: bool,
    /// Addresses of loads dispatched on the wrong path (these touched the
    /// D-cache and cannot be recalled).
    pub loads_dispatched: Vec<VirtAddr>,
    /// Wrong-path µops that dispatched before the squash.
    pub executed_uops: u32,
    /// Whether a *nested* phantom steer happened inside this transient
    /// path (the §7.4 phantom-inside-Spectre construction).
    pub nested_phantom: bool,
}

impl TransientReport {
    /// An empty report for a step with no misprediction.
    pub fn none() -> TransientReport {
        TransientReport::default()
    }

    /// The deepest pipeline stage the wrong path reached, as the strings
    /// used in Table 1 ("IF", "ID", "EX", or "-" for nothing).
    #[cfg(test)]
    pub fn deepest_stage(&self) -> &'static str {
        if !self.loads_dispatched.is_empty() || self.executed_uops > 0 {
            "EX"
        } else if self.decoded {
            "ID"
        } else if self.fetched {
            "IF"
        } else {
            "-"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontend_windows_match_table1_per_uarch() {
        for p in UarchProfile::all() {
            let w = TransientWindow::for_resteer(&p, ResteerKind::Frontend);
            assert!(w.fetch, "O1 on {p}");
            assert!(w.decode, "O2 on {p}");
            let expect_exec = matches!(p.name.as_str(), "Zen" | "Zen 2");
            assert_eq!(w.exec_uops > 0, expect_exec, "O3 on {p}");
        }
    }

    #[test]
    fn backend_windows_always_execute() {
        for p in UarchProfile::all() {
            let w = TransientWindow::for_resteer(&p, ResteerKind::Backend);
            assert!(w.exec_uops >= 40, "Spectre windows are wide on {p}");
            let phantom = TransientWindow::for_resteer(&p, ResteerKind::Frontend);
            assert!(
                w.exec_uops > phantom.exec_uops,
                "a backend resteer outlasts a frontend one on {p}"
            );
        }
    }

    #[test]
    fn execute_gate_preserves_fetch_and_decode() {
        let w = TransientWindow::for_resteer(&UarchProfile::zen2(), ResteerKind::Frontend)
            .without_execute();
        assert!(w.fetch && w.decode);
        assert_eq!(w.exec_uops, 0);
    }

    #[test]
    fn deepest_stage_ordering() {
        let mut r = TransientReport::none();
        assert_eq!(r.deepest_stage(), "-");
        r.fetched = true;
        assert_eq!(r.deepest_stage(), "IF");
        r.decoded = true;
        assert_eq!(r.deepest_stage(), "ID");
        r.loads_dispatched.push(VirtAddr::new(0x1000));
        assert_eq!(r.deepest_stage(), "EX");
    }
}
