//! Declarative, validated microarchitecture specs.
//!
//! A [`UarchSpec`] is the *data* behind a [`UarchProfile`]: BTB
//! geometry and GF(2) XOR-fold index functions, cache-hierarchy
//! shapes and latencies, resteer/decode timings, MSR feature bits and
//! the phantom-execution depth. Specs are validated at construction
//! ([`UarchSpec::validate`]) — power-of-two geometry, full-rank fold
//! families, the paper's latency orderings — and round-trip through a
//! hand-rolled line-based text format ([`UarchSpec::to_text`] /
//! [`parse_specs`]) in the same deterministic spirit as
//! `phantom::report::json`.
//!
//! The eight microarchitectures of Table 1 are builtin specs
//! ([`UarchSpec::builtins`], served by [`UarchRegistry::builtin`]);
//! `UarchProfile::zen2()` and friends compile them. User-authored
//! spec files open a new workload axis: what-if uarches ("Zen 2 with
//! Zen 4's fast decode resteer") sweep through every experiment
//! without touching Rust.
//!
//! # Examples
//!
//! ```
//! use phantom_pipeline::{UarchRegistry, UarchSpec};
//!
//! // Builtins compile to exactly the legacy constructor profiles.
//! let zen2 = UarchRegistry::builtin().get("zen2").unwrap();
//! assert_eq!(zen2.profile(), phantom_pipeline::UarchProfile::zen2());
//!
//! // Specs round-trip through the text format.
//! let text = zen2.to_text();
//! let parsed = phantom_pipeline::spec::parse_specs(&text).unwrap();
//! assert_eq!(parsed, vec![zen2.clone()]);
//!
//! // Validation rejects impossible machines.
//! let mut broken = zen2.clone();
//! broken.frontend_resteer_latency = 1; // resteer before fetch finishes
//! assert!(broken.validate().is_err());
//! ```

pub mod mutate;
mod parse;
mod registry;

pub use parse::parse_specs;
pub use registry::UarchRegistry;

use std::fmt;

use phantom_bpu::{BtbScheme, CbpScheme, FoldFamily, FoldFn, MixedFold};
use phantom_cache::{CacheGeometry, HierarchyConfig, Replacement};
use phantom_gf2::BitMatrix;

use crate::intern::IStr;
use crate::profile::{UarchProfile, Vendor};

/// Magic first line of a spec file (format version gate).
pub const SPEC_HEADER: &str = "phantom-uarch-spec v1";

/// A spec-layer error: parse failure, validation failure, or registry
/// key collision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// Text-format parse failure at a 1-based line number.
    Parse {
        /// Line the parser stopped at.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// A validation rule failed for `field`.
    Invalid {
        /// The offending spec field.
        field: &'static str,
        /// The violated constraint.
        msg: String,
    },
    /// Registering a spec whose key or display name is already taken.
    Duplicate(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse { line, msg } => write!(f, "spec parse error, line {line}: {msg}"),
            SpecError::Invalid { field, msg } => write!(f, "invalid spec field {field}: {msg}"),
            SpecError::Duplicate(name) => write!(f, "uarch {name:?} is already registered"),
        }
    }
}

impl std::error::Error for SpecError {}

// Bounds `UarchSpec::validate` enforces, so a spec that validates
// always builds a machine that runs: the tables are allocated whole by
// `Machine::new` and copied by every machine clone, and the timing
// fields feed cycle arithmetic and wrong-path loops. Each bound admits
// every builtin and committed spec with room to spare.

/// BTB ways: 32× the builtins' 2 (discover's mutator draws up to 8).
pub const MAX_BTB_WAYS: usize = 64;
/// CBP counters (sets × ways): 256× the builtins' 4,096 (M1 Firestorm's
/// 1,024 × 2 is smaller); 16 MiB of 16-byte counters.
pub const MAX_CBP_COUNTERS: usize = 1 << 20;
/// Lines per cache level (sets × ways): 32× the largest builtin level
/// (the 1,024 × 8 L2); 6 MiB of 24-byte line records.
pub const MAX_CACHE_LINES: usize = 1 << 18;
/// Bytes per cache level (sets × ways × line size): 2,048× the largest
/// builtin level (512 KiB), and far from overflowing the capacity
/// arithmetic.
pub const MAX_CACHE_BYTES: usize = 1 << 30;
/// Every latency field, in cycles: ~5,000× the largest builtin latency
/// (200-cycle memory), so latency sums and the cycle counter cannot
/// overflow.
pub const MAX_LATENCY: u64 = 1 << 20;
/// Fetch block bytes: one 4 KiB page (builtins fetch 32 or 64 bytes);
/// the wrong path walks the block line by line.
pub const MAX_FETCH_BLOCK: u64 = 4096;
/// Transient µop budgets: 23× the largest builtin (44); the wrong path
/// steps one µop at a time.
pub const MAX_EXEC_UOPS: u32 = 1024;

fn invalid(field: &'static str, msg: impl Into<String>) -> SpecError {
    SpecError::Invalid {
        field,
        msg: msg.into(),
    }
}

/// BTB geometry and indexing for a spec: the XOR-fold family as raw
/// GF(2) row masks plus associativity and privilege tagging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BtbSpec {
    /// One 64-bit mask per fold function (`FoldFn::mask`); parity of
    /// the selected address bits is one signature bit. Must be
    /// linearly independent over GF(2) and touch only translated bits
    /// (≥ 12).
    pub folds: Vec<u64>,
    /// Associativity per alias class.
    pub ways: usize,
    /// Whether entries are tagged with the training privilege mode.
    pub privilege_tagged: bool,
}

impl BtbSpec {
    fn from_scheme(scheme: &BtbScheme) -> BtbSpec {
        BtbSpec {
            folds: scheme.family.fns().iter().map(|f| f.mask).collect(),
            ways: scheme.ways,
            privilege_tagged: scheme.privilege_tagged,
        }
    }

    /// Compile to the runtime [`BtbScheme`].
    pub fn scheme(&self) -> BtbScheme {
        BtbScheme {
            family: FoldFamily::new(self.folds.iter().map(|&mask| FoldFn { mask }).collect()),
            ways: self.ways,
            privilege_tagged: self.privilege_tagged,
        }
    }
}

/// Conditional-branch-predictor geometry and indexing for a spec.
///
/// Every field has a legacy default ([`CbpSpec::default`] is the seed
/// gshare PHT), so v1 spec files written before the `cbp` block existed
/// parse — and behave — exactly as they always did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CbpSpec {
    /// One `(pc_mask, hist_mask)` pair per set-index bit: index bit `i`
    /// is the parity of the selected branch-PC bits XOR the parity of
    /// the selected history bits. The table has `2^len` sets.
    pub index_folds: Vec<(u64, u64)>,
    /// PC fold masks forming the per-entry tag; empty means untagged
    /// (classic gshare aliasing).
    pub tag_folds: Vec<u64>,
    /// Associativity (untagged schemes must be direct-mapped).
    pub ways: usize,
    /// Saturating-counter width in bits.
    pub counter_bits: u32,
    /// Global-history length in bits.
    pub history_bits: u32,
}

impl Default for CbpSpec {
    fn default() -> CbpSpec {
        CbpSpec::from_scheme(&CbpScheme::legacy())
    }
}

impl CbpSpec {
    fn from_scheme(scheme: &CbpScheme) -> CbpSpec {
        CbpSpec {
            index_folds: scheme.index.iter().map(|f| (f.pc, f.hist)).collect(),
            tag_folds: scheme.tag.iter().map(|f| f.mask).collect(),
            ways: scheme.ways,
            counter_bits: scheme.counter_bits,
            history_bits: scheme.history_bits,
        }
    }

    /// Compile to the runtime [`CbpScheme`].
    pub fn scheme(&self) -> CbpScheme {
        CbpScheme {
            index: self
                .index_folds
                .iter()
                .map(|&(pc, hist)| MixedFold { pc, hist })
                .collect(),
            tag: self.tag_folds.iter().map(|&mask| FoldFn { mask }).collect(),
            ways: self.ways,
            counter_bits: self.counter_bits,
            history_bits: self.history_bits,
        }
    }
}

/// Cache-hierarchy geometry and latencies for a spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheSpec {
    /// L1I shape.
    pub l1i: CacheGeometry,
    /// L1D shape.
    pub l1d: CacheGeometry,
    /// Unified, inclusive L2 shape.
    pub l2: CacheGeometry,
    /// µop-cache shape.
    pub uop: CacheGeometry,
    /// L1 hit latency in cycles.
    pub l1_latency: u64,
    /// Incremental L2 hit latency in cycles.
    pub l2_latency: u64,
    /// Incremental memory latency in cycles.
    pub memory_latency: u64,
    /// Replacement policy for every level.
    pub replacement: Replacement,
}

impl CacheSpec {
    /// The paper's shared cache shape (every tested part): 32 KiB 8-way
    /// L1s, 512 KiB 8-way L2, 64×8 µop cache, LRU.
    pub fn paper() -> CacheSpec {
        let h = HierarchyConfig::default();
        CacheSpec {
            l1i: h.l1i,
            l1d: h.l1d,
            l2: h.l2,
            uop: CacheGeometry::uop_cache(),
            l1_latency: h.l1_latency,
            l2_latency: h.l2_latency,
            memory_latency: h.memory_latency,
            replacement: h.replacement,
        }
    }

    /// Compile to the runtime [`HierarchyConfig`].
    pub fn hierarchy_config(&self) -> HierarchyConfig {
        HierarchyConfig {
            l1i: self.l1i,
            l1d: self.l1d,
            l2: self.l2,
            l1_latency: self.l1_latency,
            l2_latency: self.l2_latency,
            memory_latency: self.memory_latency,
            replacement: self.replacement,
        }
    }
}

/// A declarative microarchitecture description. See the [module
/// docs](self) for the format and validation rules.
#[derive(Debug, Clone, PartialEq)]
pub struct UarchSpec {
    /// Registry key (`zen2`, `intel12`, …): lowercase, no spaces.
    pub key: String,
    /// Human-readable name ("Zen 2").
    pub name: String,
    /// The representative retail part.
    pub model: String,
    /// Vendor.
    pub vendor: Vendor,
    /// Nominal frequency in GHz (cycle → wall-clock conversion).
    pub freq_ghz: f64,
    /// BTB geometry and fold functions.
    pub btb: BtbSpec,
    /// Conditional-branch-predictor geometry and fold functions.
    pub cbp: CbpSpec,
    /// Cache hierarchy geometry and latencies.
    pub cache: CacheSpec,
    /// Fetch window in bytes (power of two).
    pub fetch_block: u64,
    /// Cycles from prediction to I-cache access.
    pub fetch_latency: u64,
    /// Cycles from fetched bytes to decoded µops.
    pub decode_latency: u64,
    /// Cycles until a decoder-detected mismatch squashes the frontend.
    pub frontend_resteer_latency: u64,
    /// Cycles until an execute-detected mismatch squashes the backend.
    pub backend_resteer_latency: u64,
    /// µop budget of a frontend-resteered (phantom) path.
    pub phantom_exec_uops: u32,
    /// µop budget of a backend-resteered (Spectre) path.
    pub spectre_exec_uops: u32,
    /// Whether the `SuppressBPOnNonBr` MSR bit exists.
    pub suppress_bp_on_non_br: bool,
    /// Whether AutoIBRS exists.
    pub auto_ibrs: bool,
    /// §6 Intel blind spot for `jmp*` victims.
    pub indirect_victim_blind: bool,
}

impl UarchSpec {
    // ----- builtins ---------------------------------------------------

    /// AMD Zen 1 (Ryzen 5 1600X in the paper).
    pub fn zen1() -> UarchSpec {
        UarchSpec {
            key: "zen1".into(),
            name: "Zen".into(),
            model: "AMD Ryzen 5 1600X".into(),
            vendor: Vendor::Amd,
            freq_ghz: 3.6,
            btb: BtbSpec::from_scheme(&BtbScheme::zen12()),
            cbp: CbpSpec::default(),
            cache: CacheSpec::paper(),
            fetch_block: 32,
            fetch_latency: 1,
            decode_latency: 4,
            frontend_resteer_latency: 12,
            backend_resteer_latency: 60,
            phantom_exec_uops: 6,
            spectre_exec_uops: 40,
            suppress_bp_on_non_br: false,
            auto_ibrs: false,
            indirect_victim_blind: false,
        }
    }

    /// AMD Zen 2 (EPYC 7252 in the paper).
    pub fn zen2() -> UarchSpec {
        UarchSpec {
            key: "zen2".into(),
            name: "Zen 2".into(),
            model: "AMD EPYC 7252".into(),
            vendor: Vendor::Amd,
            freq_ghz: 3.1,
            btb: BtbSpec::from_scheme(&BtbScheme::zen12()),
            cbp: CbpSpec::default(),
            cache: CacheSpec::paper(),
            fetch_block: 32,
            fetch_latency: 1,
            decode_latency: 4,
            frontend_resteer_latency: 11,
            backend_resteer_latency: 60,
            phantom_exec_uops: 6,
            spectre_exec_uops: 44,
            suppress_bp_on_non_br: true,
            auto_ibrs: false,
            indirect_victim_blind: false,
        }
    }

    /// AMD Zen 3 (Ryzen 5 5600G in the paper). First part with the
    /// `b47`-folded cross-privilege BTB functions of Figure 7.
    pub fn zen3() -> UarchSpec {
        UarchSpec {
            key: "zen3".into(),
            name: "Zen 3".into(),
            model: "Ryzen 5 5600G".into(),
            vendor: Vendor::Amd,
            freq_ghz: 3.9,
            btb: BtbSpec::from_scheme(&BtbScheme::zen34()),
            cbp: CbpSpec::default(),
            cache: CacheSpec::paper(),
            fetch_block: 32,
            fetch_latency: 1,
            decode_latency: 3,
            frontend_resteer_latency: 6,
            backend_resteer_latency: 55,
            phantom_exec_uops: 0,
            spectre_exec_uops: 44,
            suppress_bp_on_non_br: true,
            auto_ibrs: false,
            indirect_victim_blind: false,
        }
    }

    /// AMD Zen 4 (Ryzen 7 7700X in the paper). Adds AutoIBRS.
    pub fn zen4() -> UarchSpec {
        UarchSpec {
            key: "zen4".into(),
            name: "Zen 4".into(),
            model: "Ryzen 7 7700X".into(),
            vendor: Vendor::Amd,
            freq_ghz: 4.5,
            btb: BtbSpec::from_scheme(&BtbScheme::zen34()),
            cbp: CbpSpec::default(),
            cache: CacheSpec::paper(),
            fetch_block: 32,
            fetch_latency: 1,
            decode_latency: 3,
            frontend_resteer_latency: 5,
            backend_resteer_latency: 50,
            phantom_exec_uops: 0,
            spectre_exec_uops: 48,
            suppress_bp_on_non_br: true,
            auto_ibrs: true,
            indirect_victim_blind: false,
        }
    }

    fn intel(key: &str, name: &str, model: &str, freq_ghz: f64, blind: bool) -> UarchSpec {
        UarchSpec {
            key: key.into(),
            name: name.into(),
            model: model.into(),
            vendor: Vendor::Intel,
            freq_ghz,
            btb: BtbSpec::from_scheme(&BtbScheme::intel()),
            cbp: CbpSpec::default(),
            cache: CacheSpec::paper(),
            fetch_block: 32,
            fetch_latency: 1,
            decode_latency: 3,
            frontend_resteer_latency: 6,
            backend_resteer_latency: 55,
            phantom_exec_uops: 0,
            spectre_exec_uops: 44,
            suppress_bp_on_non_br: false,
            auto_ibrs: false,
            indirect_victim_blind: blind,
        }
    }

    /// Intel 9th generation (Coffee Lake Refresh).
    pub fn intel9() -> UarchSpec {
        UarchSpec::intel("intel9", "Intel 9th gen", "Core i9-9900K", 3.6, true)
    }

    /// Intel 11th generation (Rocket Lake).
    pub fn intel11() -> UarchSpec {
        UarchSpec::intel("intel11", "Intel 11th gen", "Core i7-11700K", 3.6, true)
    }

    /// Intel 12th generation P core (Golden Cove).
    pub fn intel12() -> UarchSpec {
        UarchSpec::intel(
            "intel12",
            "Intel 12th gen (P core)",
            "Core i9-12900K",
            3.2,
            false,
        )
    }

    /// Intel 13th generation P core (Raptor Cove).
    pub fn intel13() -> UarchSpec {
        UarchSpec::intel(
            "intel13",
            "Intel 13th gen (P core)",
            "Core i9-13900K",
            3.0,
            false,
        )
    }

    /// The eight builtin specs of Table 1, in the paper's order.
    pub fn builtins() -> Vec<UarchSpec> {
        vec![
            UarchSpec::zen1(),
            UarchSpec::zen2(),
            UarchSpec::zen3(),
            UarchSpec::zen4(),
            UarchSpec::intel9(),
            UarchSpec::intel11(),
            UarchSpec::intel12(),
            UarchSpec::intel13(),
        ]
    }

    // ----- validation -------------------------------------------------

    /// Check every construction invariant. Parsed specs are validated
    /// automatically; call this after mutating a spec in code.
    ///
    /// # Errors
    ///
    /// Returns the first violated rule as [`SpecError::Invalid`].
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.key.is_empty() {
            return Err(invalid("key", "must be nonempty"));
        }
        if !self
            .key
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '-')
        {
            return Err(invalid(
                "key",
                format!("{:?} may only contain [a-z0-9_-]", self.key),
            ));
        }
        for (field, value) in [("name", &self.name), ("model", &self.model)] {
            if value.is_empty() {
                return Err(invalid(field, "must be nonempty"));
            }
            if value.chars().any(char::is_control) {
                return Err(invalid(field, "must not contain control characters"));
            }
        }
        if !(self.freq_ghz.is_finite() && self.freq_ghz > 0.0) {
            return Err(invalid(
                "freq_ghz",
                format!(
                    "must be a positive finite frequency (got {})",
                    self.freq_ghz
                ),
            ));
        }

        // BTB: nonempty, independent, translated-bits-only fold family.
        if self.btb.ways == 0 {
            return Err(invalid("btb.ways", "must be nonzero"));
        }
        if self.btb.ways > MAX_BTB_WAYS {
            return Err(invalid(
                "btb.ways",
                format!("at most {MAX_BTB_WAYS} supported (got {})", self.btb.ways),
            ));
        }
        if self.btb.folds.is_empty() {
            return Err(invalid(
                "btb.fold",
                "at least one fold function is required (an empty family aliases everything)",
            ));
        }
        if self.btb.folds.len() > 32 {
            return Err(invalid(
                "btb.fold",
                format!(
                    "at most 32 fold functions supported (got {})",
                    self.btb.folds.len()
                ),
            ));
        }
        for &mask in &self.btb.folds {
            if mask == 0 {
                return Err(invalid("btb.fold", "a fold function must select some bits"));
            }
            if mask & 0xfff != 0 {
                return Err(invalid(
                    "btb.fold",
                    format!(
                        "fold {} selects untranslated bits below b12 (the page \
                         offset indexes the BTB directly)",
                        FoldFn { mask }
                    ),
                ));
            }
        }
        let rank = BitMatrix::from_rows(64, &self.btb.folds).rank() as usize;
        if rank != self.btb.folds.len() {
            return Err(invalid(
                "btb.fold",
                format!(
                    "fold family is rank-deficient over GF(2): {} functions, rank {rank} \
                     (a dependent fold adds no signature bits)",
                    self.btb.folds.len()
                ),
            ));
        }

        // CBP: nonempty independent index folds over PC ⊕ history,
        // geometry the counter array can realize.
        if self.cbp.ways == 0 {
            return Err(invalid("cbp.ways", "must be nonzero"));
        }
        if self.cbp.tag_folds.is_empty() && self.cbp.ways != 1 {
            return Err(invalid(
                "cbp.ways",
                format!(
                    "an untagged cbp must be direct-mapped (got {} ways and no \
                     cbp.tag_fold lines)",
                    self.cbp.ways
                ),
            ));
        }
        if self.cbp.counter_bits == 0 || self.cbp.counter_bits > 8 {
            return Err(invalid(
                "cbp.counter_bits",
                format!("must be in 1..=8 (got {})", self.cbp.counter_bits),
            ));
        }
        if self.cbp.history_bits > 16 {
            return Err(invalid(
                "cbp.history_bits",
                format!(
                    "at most 16 history bits supported (got {})",
                    self.cbp.history_bits
                ),
            ));
        }
        if self.cbp.index_folds.is_empty() {
            return Err(invalid(
                "cbp.index_fold",
                "at least one index fold is required (a zero-set table predicts nothing)",
            ));
        }
        if self.cbp.index_folds.len() > 24 {
            return Err(invalid(
                "cbp.index_fold",
                format!(
                    "at most 24 index folds supported (got {})",
                    self.cbp.index_folds.len()
                ),
            ));
        }
        let hist_mask = (1u64 << self.cbp.history_bits) - 1;
        for &(pc, hist) in &self.cbp.index_folds {
            if pc == 0 && hist == 0 {
                return Err(invalid(
                    "cbp.index_fold",
                    "an index fold must select some bits",
                ));
            }
            if pc >> 48 != 0 {
                return Err(invalid(
                    "cbp.index_fold",
                    format!(
                        "fold {} selects PC bits at or above b48 (branch PCs are \
                         48-bit canonical)",
                        MixedFold { pc, hist }
                    ),
                ));
            }
            if hist & !hist_mask != 0 {
                return Err(invalid(
                    "cbp.index_fold",
                    format!(
                        "fold {} mixes history bits beyond the {}-bit register",
                        MixedFold { pc, hist },
                        self.cbp.history_bits
                    ),
                ));
            }
        }
        // Full rank over the joint (PC, history) space: pack each fold
        // into one 64-bit row — PC bits low, history bits shifted above
        // b48 (both ranges are validated to fit).
        let index_rows: Vec<u64> = self
            .cbp
            .index_folds
            .iter()
            .map(|&(pc, hist)| pc | (hist << 48))
            .collect();
        let rank = BitMatrix::from_rows(64, &index_rows).rank() as usize;
        if rank != index_rows.len() {
            return Err(invalid(
                "cbp.index_fold",
                format!(
                    "index fold family is rank-deficient over GF(2): {} folds, \
                     rank {rank} (a dependent fold halves the usable sets)",
                    index_rows.len()
                ),
            ));
        }
        if self.cbp.tag_folds.len() > 32 {
            return Err(invalid(
                "cbp.tag_fold",
                format!(
                    "at most 32 tag folds supported (got {})",
                    self.cbp.tag_folds.len()
                ),
            ));
        }
        for &mask in &self.cbp.tag_folds {
            if mask == 0 {
                return Err(invalid("cbp.tag_fold", "a tag fold must select some bits"));
            }
        }
        if !self.cbp.tag_folds.is_empty() {
            let rank = BitMatrix::from_rows(64, &self.cbp.tag_folds).rank() as usize;
            if rank != self.cbp.tag_folds.len() {
                return Err(invalid(
                    "cbp.tag_fold",
                    format!(
                        "tag fold family is rank-deficient over GF(2): {} folds, \
                         rank {rank}",
                        self.cbp.tag_folds.len()
                    ),
                ));
            }
        }
        let counters = (1usize << self.cbp.index_folds.len()).checked_mul(self.cbp.ways);
        if counters.is_none_or(|n| n > MAX_CBP_COUNTERS) {
            return Err(invalid(
                "cbp.ways",
                format!(
                    "at most {MAX_CBP_COUNTERS} counters (sets x ways) supported \
                     (got {} sets x {} ways)",
                    1usize << self.cbp.index_folds.len(),
                    self.cbp.ways
                ),
            ));
        }
        // The runtime structure enforces its own residual constraints;
        // surface them under the block name if any slip through.
        self.cbp
            .scheme()
            .validate()
            .map_err(|e| invalid("cbp", e))?;

        // Cache: power-of-two shapes, ordered latencies.
        for (field, g) in [
            ("cache.l1i", self.cache.l1i),
            ("cache.l1d", self.cache.l1d),
            ("cache.l2", self.cache.l2),
            ("cache.uop", self.cache.uop),
        ] {
            CacheGeometry::try_new(g.sets, g.ways, g.line_size).map_err(|e| invalid(field, e))?;
            let lines = g.sets.checked_mul(g.ways);
            if lines.is_none_or(|n| n > MAX_CACHE_LINES) {
                return Err(invalid(
                    field,
                    format!(
                        "at most {MAX_CACHE_LINES} lines (sets x ways) supported \
                         (got {} x {})",
                        g.sets, g.ways
                    ),
                ));
            }
            let bytes = lines.and_then(|n| n.checked_mul(g.line_size));
            if bytes.is_none_or(|n| n > MAX_CACHE_BYTES) {
                return Err(invalid(
                    field,
                    format!(
                        "at most {MAX_CACHE_BYTES} bytes (sets x ways x line size) \
                         supported (got {} x {} x {})",
                        g.sets, g.ways, g.line_size
                    ),
                ));
            }
        }
        for (field, cycles) in [
            ("cache.l1_latency", self.cache.l1_latency),
            ("cache.l2_latency", self.cache.l2_latency),
            ("cache.memory_latency", self.cache.memory_latency),
            ("fetch_latency", self.fetch_latency),
            ("decode_latency", self.decode_latency),
            ("frontend_resteer_latency", self.frontend_resteer_latency),
            ("backend_resteer_latency", self.backend_resteer_latency),
        ] {
            if cycles > MAX_LATENCY {
                return Err(invalid(
                    field,
                    format!("at most {MAX_LATENCY} cycles supported (got {cycles})"),
                ));
            }
        }
        for (field, uops) in [
            ("phantom_exec_uops", self.phantom_exec_uops),
            ("spectre_exec_uops", self.spectre_exec_uops),
        ] {
            if uops > MAX_EXEC_UOPS {
                return Err(invalid(
                    field,
                    format!("at most {MAX_EXEC_UOPS} supported (got {uops})"),
                ));
            }
        }
        if self.cache.l1_latency == 0 {
            return Err(invalid("cache.l1_latency", "must be nonzero"));
        }
        if self.cache.l2_latency < self.cache.l1_latency {
            return Err(invalid(
                "cache.l2_latency",
                format!(
                    "L2 must not be faster than L1 ({} < {})",
                    self.cache.l2_latency, self.cache.l1_latency
                ),
            ));
        }
        if self.cache.memory_latency <= self.cache.l2_latency {
            return Err(invalid(
                "cache.memory_latency",
                format!(
                    "memory must be slower than L2 ({} <= {})",
                    self.cache.memory_latency, self.cache.l2_latency
                ),
            ));
        }

        // Timing: the paper's observation orderings. Every tested part
        // fetches (O1) and decodes (O2) phantom targets before the
        // frontend resteer lands, and backend windows dwarf frontend
        // windows.
        if !self.fetch_block.is_power_of_two() || self.fetch_block > MAX_FETCH_BLOCK {
            return Err(invalid(
                "fetch_block",
                format!(
                    "must be a power of two up to {MAX_FETCH_BLOCK} (got {})",
                    self.fetch_block
                ),
            ));
        }
        if self.fetch_latency == 0 {
            return Err(invalid("fetch_latency", "must be nonzero"));
        }
        if self.fetch_latency >= self.frontend_resteer_latency {
            return Err(invalid(
                "frontend_resteer_latency",
                format!(
                    "fetch ({}) must complete before the frontend resteer ({}) — \
                     otherwise no part shows O1",
                    self.fetch_latency, self.frontend_resteer_latency
                ),
            ));
        }
        if self.fetch_latency + self.decode_latency > self.frontend_resteer_latency {
            return Err(invalid(
                "decode_latency",
                format!(
                    "fetch+decode ({}) must not exceed the frontend resteer ({}) — \
                     otherwise no part shows O2",
                    self.fetch_latency + self.decode_latency,
                    self.frontend_resteer_latency
                ),
            ));
        }
        if self.backend_resteer_latency <= self.frontend_resteer_latency {
            return Err(invalid(
                "backend_resteer_latency",
                format!(
                    "the backend (Spectre) window ({}) must exceed the frontend \
                     (phantom) window ({})",
                    self.backend_resteer_latency, self.frontend_resteer_latency
                ),
            ));
        }
        Ok(())
    }

    // ----- compilation ------------------------------------------------

    /// Compile to the runtime [`UarchProfile`] consumed by
    /// [`Machine`](crate::Machine) and every experiment.
    pub fn profile(&self) -> UarchProfile {
        UarchProfile {
            name: IStr::new(&self.name),
            model: IStr::new(&self.model),
            vendor: self.vendor,
            btb_scheme: self.btb.scheme(),
            cbp_scheme: self.cbp.scheme(),
            cache: self.cache.hierarchy_config(),
            uop_geometry: self.cache.uop,
            fetch_block: self.fetch_block,
            fetch_latency: self.fetch_latency,
            decode_latency: self.decode_latency,
            frontend_resteer_latency: self.frontend_resteer_latency,
            backend_resteer_latency: self.backend_resteer_latency,
            phantom_exec_uops: self.phantom_exec_uops,
            spectre_exec_uops: self.spectre_exec_uops,
            supports_suppress_bp_on_non_br: self.suppress_bp_on_non_br,
            supports_auto_ibrs: self.auto_ibrs,
            indirect_victim_blind: self.indirect_victim_blind,
            freq_ghz: self.freq_ghz,
        }
    }

    // ----- printing ---------------------------------------------------

    /// Render this spec as one block of the text format, *without* the
    /// file header. [`UarchSpec::to_text`] / [`specs_to_text`] add it.
    pub fn to_block(&self) -> String {
        fn quote(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        fn geom(g: CacheGeometry) -> String {
            format!("{} {} {}", g.sets, g.ways, g.line_size)
        }
        let mut out = String::new();
        out.push_str(&format!("uarch {} {{\n", self.key));
        out.push_str(&format!("  name {}\n", quote(&self.name)));
        out.push_str(&format!("  model {}\n", quote(&self.model)));
        out.push_str(&format!(
            "  vendor {}\n",
            match self.vendor {
                Vendor::Amd => "amd",
                Vendor::Intel => "intel",
            }
        ));
        out.push_str(&format!("  freq_ghz {}\n", self.freq_ghz));
        out.push_str(&format!("  btb.ways {}\n", self.btb.ways));
        out.push_str(&format!(
            "  btb.privilege_tagged {}\n",
            self.btb.privilege_tagged
        ));
        for &mask in &self.btb.folds {
            out.push_str(&format!("  btb.fold {}\n", FoldFn { mask }));
        }
        out.push_str(&format!("  cbp.ways {}\n", self.cbp.ways));
        out.push_str(&format!("  cbp.counter_bits {}\n", self.cbp.counter_bits));
        out.push_str(&format!("  cbp.history_bits {}\n", self.cbp.history_bits));
        for &(pc, hist) in &self.cbp.index_folds {
            out.push_str(&format!("  cbp.index_fold {}\n", MixedFold { pc, hist }));
        }
        for &mask in &self.cbp.tag_folds {
            out.push_str(&format!("  cbp.tag_fold {}\n", FoldFn { mask }));
        }
        out.push_str(&format!("  cache.l1i {}\n", geom(self.cache.l1i)));
        out.push_str(&format!("  cache.l1d {}\n", geom(self.cache.l1d)));
        out.push_str(&format!("  cache.l2 {}\n", geom(self.cache.l2)));
        out.push_str(&format!("  cache.uop {}\n", geom(self.cache.uop)));
        out.push_str(&format!("  cache.l1_latency {}\n", self.cache.l1_latency));
        out.push_str(&format!("  cache.l2_latency {}\n", self.cache.l2_latency));
        out.push_str(&format!(
            "  cache.memory_latency {}\n",
            self.cache.memory_latency
        ));
        out.push_str(&format!(
            "  cache.replacement {}\n",
            match self.cache.replacement {
                Replacement::Lru => "lru",
                Replacement::TreePlru => "tree-plru",
                Replacement::Fifo => "fifo",
            }
        ));
        out.push_str(&format!("  fetch_block {}\n", self.fetch_block));
        out.push_str(&format!("  fetch_latency {}\n", self.fetch_latency));
        out.push_str(&format!("  decode_latency {}\n", self.decode_latency));
        out.push_str(&format!(
            "  frontend_resteer_latency {}\n",
            self.frontend_resteer_latency
        ));
        out.push_str(&format!(
            "  backend_resteer_latency {}\n",
            self.backend_resteer_latency
        ));
        out.push_str(&format!("  phantom_exec_uops {}\n", self.phantom_exec_uops));
        out.push_str(&format!("  spectre_exec_uops {}\n", self.spectre_exec_uops));
        out.push_str(&format!(
            "  suppress_bp_on_non_br {}\n",
            self.suppress_bp_on_non_br
        ));
        out.push_str(&format!("  auto_ibrs {}\n", self.auto_ibrs));
        out.push_str(&format!(
            "  indirect_victim_blind {}\n",
            self.indirect_victim_blind
        ));
        out.push_str("}\n");
        out
    }

    /// Render this spec as a complete, reparsable spec file (header +
    /// one block). The output is canonical: `parse → print → parse` is
    /// the identity, pinned by a proptest.
    pub fn to_text(&self) -> String {
        specs_to_text(std::slice::from_ref(self))
    }
}

/// Render several specs as one spec file.
pub fn specs_to_text(specs: &[UarchSpec]) -> String {
    let mut out = String::from(SPEC_HEADER);
    out.push('\n');
    for spec in specs {
        out.push('\n');
        out.push_str(&spec.to_block());
    }
    out
}

#[cfg(test)]
mod tests;
