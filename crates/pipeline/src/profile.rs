//! Per-microarchitecture profiles.
//!
//! Each profile bundles a BTB indexing scheme, cache geometry, stage
//! latencies, mitigation support and a clock frequency. Table 1 of the
//! paper emerges from these parameters: every tested part fetches and
//! decodes phantom targets (fetch/decode latencies beat the earliest
//! resteer), while only Zen 1/2 have a decoder-resteer latency slow
//! enough for target µops to dispatch a load (`phantom_exec_uops > 0`).
//!
//! A profile is *compiled* from a declarative [`UarchSpec`]
//! (see [`crate::spec`]): the builtin constructors here delegate to the
//! builtin specs, and [`UarchProfile::all`] is served by the
//! [`UarchRegistry`].

use phantom_bpu::{BtbScheme, CbpScheme, MixedFold};
use phantom_cache::{CacheGeometry, HierarchyConfig};

use crate::intern::IStr;
use crate::spec::{UarchRegistry, UarchSpec};

/// CPU vendor, for reporting and for behavior that splits by vendor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vendor {
    /// Advanced Micro Devices.
    Amd,
    /// Intel.
    Intel,
}

impl std::fmt::Display for Vendor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Vendor::Amd => f.write_str("AMD"),
            Vendor::Intel => f.write_str("Intel"),
        }
    }
}

/// A microarchitecture configuration for the [`Machine`](crate::Machine).
///
/// # Examples
///
/// ```
/// use phantom_pipeline::UarchProfile;
/// let zen2 = UarchProfile::zen2();
/// assert!(zen2.phantom_exec_uops > 0, "Zen 2 executes phantom targets");
/// let zen4 = UarchProfile::zen4();
/// assert_eq!(zen4.phantom_exec_uops, 0, "Zen 4 squashes before execute");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct UarchProfile {
    /// Human-readable name ("Zen 2", "Intel 12th gen (P core)").
    /// Interned so runtime-defined uarches cost one allocation
    /// process-wide, however many trials clone the profile.
    pub name: IStr,
    /// The representative retail part the paper tested.
    pub model: IStr,
    /// Vendor.
    pub vendor: Vendor,
    /// BTB alias scheme.
    pub btb_scheme: BtbScheme,
    /// Conditional-branch-predictor indexing scheme.
    pub cbp_scheme: CbpScheme,
    /// Cache-hierarchy geometry and latencies.
    pub cache: HierarchyConfig,
    /// µop-cache shape (64 sets × 8 ways × 64 B on every paper part).
    pub uop_geometry: CacheGeometry,
    /// Fetch window in bytes (typically 32).
    pub fetch_block: u64,
    /// Cycles for the fetch unit to request the predicted target
    /// (pipeline distance from prediction to I-cache access).
    pub fetch_latency: u64,
    /// Cycles from fetched bytes to decoded µops.
    pub decode_latency: u64,
    /// Cycles between the decoder spotting a mismatch and the squash
    /// taking effect at the frontend (the PHANTOM window ends here).
    pub frontend_resteer_latency: u64,
    /// Cycles for an execute-dependent branch to resolve in the backend
    /// (the conventional Spectre window ends here).
    pub backend_resteer_latency: u64,
    /// µop budget a *frontend-resteered* (phantom) target can dispatch
    /// before the squash: nonzero only where decode-resteer is slower
    /// than dispatch (Zen 1/2 — observation O3).
    pub phantom_exec_uops: u32,
    /// µop budget for a *backend-resteered* (Spectre) path.
    pub spectre_exec_uops: u32,
    /// Whether the `SuppressBPOnNonBr` MSR bit exists (Zen 2+; §8.1 notes
    /// it is absent on Zen 1).
    pub supports_suppress_bp_on_non_br: bool,
    /// Whether AutoIBRS exists (Zen 4).
    pub supports_auto_ibrs: bool,
    /// Intel blind spot from §6: with a `jmp*` *victim*, some Intel parts
    /// showed no ID (and sometimes no IF) signal. Modeled as the BPU
    /// declining to steer on these parts when the victim alias class was
    /// most recently a kernel-observed indirect site is beyond reach of
    /// the model, so we gate purely by victim decode kind at resteer
    /// bookkeeping time.
    pub indirect_victim_blind: bool,
    /// Nominal frequency (GHz) used to convert cycles to wall-clock
    /// seconds for leak-rate reporting.
    pub freq_ghz: f64,
}

impl UarchProfile {
    /// AMD Zen 1 (Ryzen 5 1600X in the paper).
    pub fn zen1() -> UarchProfile {
        UarchSpec::zen1().profile()
    }

    /// AMD Zen 2 (EPYC 7252 in the paper).
    pub fn zen2() -> UarchProfile {
        UarchSpec::zen2().profile()
    }

    /// AMD Zen 3 (Ryzen 5 5600G in the paper). First part with the
    /// `b47`-folded cross-privilege BTB functions of Figure 7.
    pub fn zen3() -> UarchProfile {
        UarchSpec::zen3().profile()
    }

    /// AMD Zen 4 (Ryzen 7 7700X in the paper). Adds AutoIBRS.
    pub fn zen4() -> UarchProfile {
        UarchSpec::zen4().profile()
    }

    /// Intel 9th generation (Coffee Lake Refresh).
    pub fn intel9() -> UarchProfile {
        UarchSpec::intel9().profile()
    }

    /// Intel 11th generation (Rocket Lake).
    pub fn intel11() -> UarchProfile {
        UarchSpec::intel11().profile()
    }

    /// Intel 12th generation P core (Golden Cove).
    pub fn intel12() -> UarchProfile {
        UarchSpec::intel12().profile()
    }

    /// Intel 13th generation P core (Raptor Cove).
    pub fn intel13() -> UarchProfile {
        UarchSpec::intel13().profile()
    }

    /// All eight profiles evaluated in Table 1, in the paper's order,
    /// compiled from the builtin spec registry.
    pub fn all() -> Vec<UarchProfile> {
        UarchRegistry::builtin().profiles()
    }

    /// The four AMD profiles (the exploitation targets).
    pub fn amd() -> Vec<UarchProfile> {
        vec![
            UarchProfile::zen1(),
            UarchProfile::zen2(),
            UarchProfile::zen3(),
            UarchProfile::zen4(),
        ]
    }

    /// Zen 2 shrunk to its smallest valid tables: one-set, one-way
    /// caches and µop cache and a two-set conditional predictor. It
    /// models no real part. A machine built from it costs next to
    /// nothing, which suits a caller that keeps one machine and
    /// [`reset`](crate::Machine::reset)s it to each real profile it
    /// evaluates: the first such reset allocates the full-size tables.
    pub fn minimal() -> UarchProfile {
        let one_set = CacheGeometry::new(1, 1, 64);
        let zen2 = UarchProfile::zen2();
        UarchProfile {
            cbp_scheme: CbpScheme {
                index: vec![MixedFold {
                    pc: 1 << 1,
                    hist: 0,
                }],
                tag: Vec::new(),
                ways: 1,
                counter_bits: 2,
                history_bits: 0,
            },
            cache: HierarchyConfig {
                l1i: one_set,
                l1d: one_set,
                l2: one_set,
                ..zen2.cache
            },
            uop_geometry: one_set,
            ..zen2
        }
    }

    /// Convert a cycle count to seconds at this profile's frequency.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.freq_ghz * 1e9)
    }
}

impl std::fmt::Display for UarchProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.name, self.model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_profiles_in_paper_order() {
        let all = UarchProfile::all();
        assert_eq!(all.len(), 8);
        assert_eq!(all[0].name, "Zen");
        assert_eq!(all[3].name, "Zen 4");
        assert_eq!(all[4].vendor, Vendor::Intel);
    }

    #[test]
    fn only_zen12_execute_phantom_targets() {
        for p in UarchProfile::all() {
            let should_exec = matches!(p.name.as_str(), "Zen" | "Zen 2");
            assert_eq!(p.phantom_exec_uops > 0, should_exec, "{p}");
        }
    }

    #[test]
    fn stage_latencies_order_correctly() {
        for p in UarchProfile::all() {
            // Fetch always completes before the frontend resteer lands:
            // transient fetch on every part (O1).
            assert!(p.fetch_latency < p.frontend_resteer_latency, "{p}");
            // Decode of the target also beats the resteer (O2).
            assert!(
                p.fetch_latency + p.decode_latency <= p.frontend_resteer_latency,
                "{p}"
            );
            // Backend windows dwarf frontend windows.
            assert!(
                p.backend_resteer_latency > 4 * p.frontend_resteer_latency,
                "{p}"
            );
        }
    }

    #[test]
    fn mitigation_support_matrix() {
        assert!(
            !UarchProfile::zen1().supports_suppress_bp_on_non_br,
            "§8.1: not on Zen 1"
        );
        assert!(UarchProfile::zen2().supports_suppress_bp_on_non_br);
        assert!(UarchProfile::zen4().supports_auto_ibrs);
        assert!(!UarchProfile::zen3().supports_auto_ibrs);
        for p in [UarchProfile::intel9(), UarchProfile::intel13()] {
            assert!(p.btb_scheme.privilege_tagged, "{p}");
        }
    }

    #[test]
    fn builtin_profiles_carry_the_legacy_cbp() {
        for p in UarchProfile::all() {
            assert_eq!(p.cbp_scheme, CbpScheme::legacy(), "{p}");
        }
    }

    #[test]
    fn profiles_carry_the_paper_cache_shape() {
        for p in UarchProfile::all() {
            assert_eq!(p.cache, HierarchyConfig::default(), "{p}");
            assert_eq!(p.uop_geometry, CacheGeometry::uop_cache(), "{p}");
        }
    }

    #[test]
    fn cycles_to_seconds_scales_by_frequency() {
        let p = UarchProfile::zen3(); // 3.9 GHz
        let s = p.cycles_to_seconds(3_900_000_000);
        assert!((s - 1.0).abs() < 1e-9);
    }
}
