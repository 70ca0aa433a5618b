//! Machine-readable results: typed records for every shipped
//! experiment, a top-level [`BenchSnapshot`], and a tolerance-driven
//! [`diff`] for regression gating.
//!
//! Every record mirrors one experiment's output with owned fields, so
//! a snapshot parsed from disk is self-contained (no `&'static str`
//! interning against the running binary). Each record is declared once
//! with `record!`: the declaration is the struct, and its field list is
//! also the [`Json`] encoding — one member per field, keyed by the
//! field name, in field order. Together with the deterministic writer
//! that makes snapshot bytes a pure function of the results; the
//! determinism suite asserts byte-identity across thread counts on
//! exactly this property.
//!
//! A field is required unless marked. `[lenient]` reads an absent (or
//! `null`) member as the type's default, so baselines recorded before
//! the field existed keep loading; `[omit]` does the same and also
//! leaves the member out when the value is `None`. Keys a record does
//! not declare are ignored on read.
//!
//! The canonical snapshot contains **only deterministic data**
//! (simulated cycles, accuracies, counters). Host-volatile facts —
//! wall-clock, thread count — live in the optional `host` section,
//! which [`diff`] ignores.

use std::fmt;

use crate::ablation::NoiseSweepPoint;
use crate::attacks::{
    KaslrImageResult, MdsLeakResult, PhtChannelResult, PhysAddrResult, PhysmapResult,
};
use crate::collide::Figure7;
use crate::covert::CovertResult;
use crate::experiment::{ComboOutcome, Figure6Point, Table1Cell};
use crate::gadgets::GadgetCensus;
use crate::mitigations::OverheadResult;

use super::value::{parse, JsonValue, ParseError};

/// The snapshot schema identifier; bump on breaking shape changes.
pub const SCHEMA: &str = "phantom-bench/v1";

/// A shape error while decoding a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError(pub String);

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot schema error: {}", self.0)
    }
}

impl std::error::Error for SchemaError {}

impl From<ParseError> for SchemaError {
    fn from(e: ParseError) -> SchemaError {
        SchemaError(e.to_string())
    }
}

/// A type with one JSON shape. `record!` derives it for every record;
/// the leaf impls below give the shapes of the field types.
pub trait Json: Sized {
    /// Encode as a JSON value.
    fn to_json(&self) -> JsonValue;

    /// Decode from a JSON value.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] on a shape mismatch.
    fn from_json(v: &JsonValue) -> Result<Self, SchemaError>;
}

macro_rules! leaf {
    ($($ty:ty: $variant:ident, $read:ident, $what:literal;)*) => {$(
        impl Json for $ty {
            fn to_json(&self) -> JsonValue {
                JsonValue::$variant(self.to_owned())
            }

            fn from_json(v: &JsonValue) -> Result<$ty, SchemaError> {
                v.$read()
                    .map(<$ty>::from)
                    .ok_or_else(|| SchemaError(concat!("expected ", $what).to_string()))
            }
        }
    )*};
}

leaf! {
    u64: Uint, as_u64, "a u64";
    i64: Int, as_i64, "an i64";
    f64: Float, as_f64, "a number";
    bool: Bool, as_bool, "a bool";
    String: Str, as_str, "a string";
}

impl<T: Json> Json for Vec<T> {
    fn to_json(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(T::to_json).collect())
    }

    fn from_json(v: &JsonValue) -> Result<Vec<T>, SchemaError> {
        v.as_array()
            .ok_or_else(|| SchemaError("expected an array".to_string()))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

/// `None` is `null`.
impl<T: Json> Json for Option<T> {
    fn to_json(&self) -> JsonValue {
        self.as_ref().map_or(JsonValue::Null, T::to_json)
    }

    fn from_json(v: &JsonValue) -> Result<Option<T>, SchemaError> {
        if v.is_null() {
            Ok(None)
        } else {
            T::from_json(v).map(Some)
        }
    }
}

/// Decode `member` of a record, naming its key in any error.
fn member<T: Json>(key: &str, member: &JsonValue) -> Result<T, SchemaError> {
    T::from_json(member).map_err(|e| SchemaError(format!("{key}: {}", e.0)))
}

/// A required member: absent is an error.
fn required<T: Json>(v: &JsonValue, key: &str) -> Result<T, SchemaError> {
    match v.get(key) {
        Some(m) => member(key, m),
        None => Err(SchemaError(format!("missing field {key:?}"))),
    }
}

/// A `[lenient]` or `[omit]` member: absent or `null` reads as the
/// default.
fn lenient<T: Json + Default>(v: &JsonValue, key: &str) -> Result<T, SchemaError> {
    match v.get(key) {
        Some(m) if !m.is_null() => member(key, m),
        _ => Ok(T::default()),
    }
}

/// Declare a record: the struct (every field public, doc comments and
/// derives kept) and its [`Json`] impl. `record!(impl Type { a, b })`
/// gives an existing struct the same encoding.
macro_rules! record {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$doc:meta])* $([$rule:ident])? $field:ident: $ty:ty,)*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$doc])* pub $field: $ty,)*
        }

        record!(impl $name { $($([$rule])? $field,)* });
    };
    (impl $name:ident { $($([$rule:ident])? $field:ident),* $(,)? }) => {
        impl Json for $name {
            fn to_json(&self) -> JsonValue {
                let mut o = JsonValue::object();
                $(record!(@put o, stringify!($field), &self.$field $(, $rule)?);)*
                o
            }

            fn from_json(v: &JsonValue) -> Result<$name, SchemaError> {
                Ok($name {
                    $($field: record!(@get v, stringify!($field) $(, $rule)?),)*
                })
            }
        }
    };
    (@put $o:ident, $key:expr, $value:expr) => {
        $o.set($key, Json::to_json($value));
    };
    (@put $o:ident, $key:expr, $value:expr, lenient) => {
        $o.set($key, Json::to_json($value));
    };
    (@put $o:ident, $key:expr, $value:expr, omit) => {
        if let Some(value) = $value {
            $o.set($key, Json::to_json(value));
        }
    };
    (@get $v:ident, $key:expr) => {
        required($v, $key)?
    };
    // Both rules read leniently; a misspelt rule matches no `@put` arm.
    (@get $v:ident, $key:expr, $rule:ident) => {
        lenient($v, $key)?
    };
}

fn hex_encode(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn hex_decode(s: &str) -> Result<Vec<u8>, SchemaError> {
    if !s.len().is_multiple_of(2) {
        return Err(SchemaError("odd-length hex string".into()));
    }
    let nibble = |c: u8| (c as char).to_digit(16);
    s.as_bytes()
        .chunks(2)
        .map(|pair| match (nibble(pair[0]), nibble(pair[1])) {
            (Some(hi), Some(lo)) => Ok(((hi << 4) | lo) as u8),
            _ => Err(SchemaError(format!(
                "bad hex byte {:?}",
                String::from_utf8_lossy(pair)
            ))),
        })
        .collect()
}

record! {
    /// Run metadata that is part of the canonical (deterministic) output.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct RunMeta {
        /// Protocol size: `"quick"` or `"full"` (`PHANTOM_FULL=1`).
        profile: String,
        /// The base seed the experiment seeds derive from.
        seed: u64,
    }
}

record! {
    /// One Table 1 cell: deepest stage per microarchitecture for a
    /// training × victim combination.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Table1Record {
        /// Training instruction (display form, e.g. `"jmp*"`).
        train: String,
        /// Victim instruction (display form).
        victim: String,
        /// Per-uarch stages, in sweep order.
        stages: Vec<StageCell>,
    }
}

record! {
    /// The deepest stage one microarchitecture reached in a Table 1 cell.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StageCell {
        /// Microarchitecture name.
        uarch: String,
        /// `-`, `IF`, `ID` or `EX`.
        stage: String,
    }
}

impl From<&Table1Cell> for Table1Record {
    fn from(c: &Table1Cell) -> Table1Record {
        Table1Record {
            train: c.train.to_string(),
            victim: c.victim.to_string(),
            stages: c
                .stages
                .iter()
                .map(|(u, s)| StageCell {
                    uarch: u.to_string(),
                    stage: s.to_string(),
                })
                .collect(),
        }
    }
}

record! {
    /// One Figure 6 sweep on one microarchitecture.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Figure6Record {
        /// Microarchitecture name.
        uarch: String,
        /// Page-offset step of the sweep.
        step: u64,
        /// The swept points.
        points: Vec<Figure6Point>,
    }
}

record!(impl Figure6Point { offset, hits, misses });

record! {
    /// The Figure 7 recovery: BTB index/tag functions as bit masks.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Figure7Record {
        /// Collision samples used per kernel address.
        samples_per_address: u64,
        /// Recovered function masks (bit `i` set ⇔ address bit `i` is an
        /// input of the XOR).
        masks: Vec<u64>,
        /// Whether the paper's published XOR patterns hold.
        paper_patterns_hold: bool,
    }
}

impl From<&Figure7> for Figure7Record {
    fn from(f: &Figure7) -> Figure7Record {
        Figure7Record {
            samples_per_address: f.samples_per_address as u64,
            masks: f.functions.iter().map(|f| f.mask).collect(),
            paper_patterns_hold: f.paper_patterns_hold,
        }
    }
}

record! {
    /// One Table 2 covert-channel row. The decoder fields (`probes`,
    /// `abstentions`, `mean_confidence`) are lenient so baselines
    /// recorded before the adaptive decoder keep loading.
    #[derive(Debug, Clone, PartialEq)]
    pub struct CovertRecord {
        /// Microarchitecture name.
        uarch: String,
        /// Retail part tested in the paper.
        model: String,
        /// Channel kind (display form: `"fetch (P1)"` / `"execute (P2)"`).
        kind: String,
        /// Bits transferred.
        bits: u64,
        /// Fraction decoded correctly.
        accuracy: f64,
        /// Total probes the adaptive decoder spent.
        [lenient] probes: u64,
        /// Bits the decoder abstained on.
        [lenient] abstentions: u64,
        /// Mean decode confidence across the transfer.
        [lenient] mean_confidence: f64,
        /// Simulated seconds for the transfer.
        seconds: f64,
        /// Simulated channel rate.
        bits_per_sec: f64,
    }
}

impl From<&CovertResult> for CovertRecord {
    fn from(r: &CovertResult) -> CovertRecord {
        CovertRecord {
            uarch: r.uarch.to_string(),
            model: r.model.to_string(),
            kind: r.kind.to_string(),
            bits: r.bits as u64,
            accuracy: r.accuracy,
            probes: r.probes,
            abstentions: r.abstentions as u64,
            mean_confidence: r.mean_confidence,
            seconds: r.seconds,
            bits_per_sec: r.bits_per_sec,
        }
    }
}

record! {
    /// One PHT-channel (BranchSpectre-style) row: Table-2-shaped numbers
    /// for the conditional-branch-predictor channel, plus the
    /// out-of-place flip the scheme admitted.
    #[derive(Debug, Clone, PartialEq)]
    pub struct PhtChannelRecord {
        /// Microarchitecture name.
        uarch: String,
        /// Retail part tested in the paper.
        model: String,
        /// XOR distance between victim and probe PC.
        flip_mask: u64,
        /// Bits recovered.
        bits: u64,
        /// Fraction decoded correctly.
        accuracy: f64,
        /// Total probes the adaptive decoder spent.
        probes: u64,
        /// Bits the decoder abstained on.
        abstentions: u64,
        /// Mean decode confidence across the recovery.
        mean_confidence: f64,
        /// Simulated seconds for the recovery.
        seconds: f64,
        /// Simulated channel rate.
        bits_per_sec: f64,
    }
}

impl From<&PhtChannelResult> for PhtChannelRecord {
    fn from(r: &PhtChannelResult) -> PhtChannelRecord {
        PhtChannelRecord {
            uarch: r.uarch.to_string(),
            model: r.model.to_string(),
            flip_mask: r.flip_mask,
            bits: r.bits as u64,
            accuracy: r.accuracy,
            probes: r.probes,
            abstentions: r.abstentions as u64,
            mean_confidence: r.mean_confidence,
            seconds: r.seconds,
            bits_per_sec: r.bits_per_sec,
        }
    }
}

record! {
    /// One KASLR-style run: used for both Table 3 (kernel image) and
    /// Table 4 (physmap), whose result shapes are identical.
    /// `confidence` is lenient so baselines recorded before the field
    /// keep loading.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SlotRunRecord {
        /// The attacker's best guess.
        guessed_slot: u64,
        /// Ground truth.
        actual_slot: u64,
        /// Whether the guess was right.
        correct: bool,
        /// The winning score.
        best_score: i64,
        /// How decisively the winner beat the runner-up, in `[0, 1]`.
        [lenient] confidence: f64,
        /// Simulated cycles consumed.
        cycles: u64,
        /// Simulated seconds consumed.
        seconds: f64,
    }
}

impl From<&KaslrImageResult> for SlotRunRecord {
    fn from(r: &KaslrImageResult) -> SlotRunRecord {
        SlotRunRecord {
            guessed_slot: r.guessed_slot,
            actual_slot: r.actual_slot,
            correct: r.correct,
            best_score: r.best_score,
            confidence: r.confidence,
            cycles: r.cycles,
            seconds: r.seconds,
        }
    }
}

impl From<&PhysmapResult> for SlotRunRecord {
    fn from(r: &PhysmapResult) -> SlotRunRecord {
        SlotRunRecord {
            guessed_slot: r.guessed_slot,
            actual_slot: r.actual_slot,
            correct: r.correct,
            best_score: r.best_score,
            confidence: r.confidence,
            cycles: r.cycles,
            seconds: r.seconds,
        }
    }
}

/// Fraction of `runs` that pass `correct` (0 for no runs).
fn fraction_correct<T>(runs: &[T], correct: impl Fn(&T) -> bool) -> f64 {
    if runs.is_empty() {
        return 0.0;
    }
    runs.iter().filter(|r| correct(r)).count() as f64 / runs.len() as f64
}

record! {
    /// Table 3 / Table 4 rows for one microarchitecture.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SlotTableRecord {
        /// Microarchitecture name.
        uarch: String,
        /// Per-reboot runs.
        runs: Vec<SlotRunRecord>,
    }
}

impl SlotTableRecord {
    /// Fraction of correct runs.
    pub fn accuracy(&self) -> f64 {
        fraction_correct(&self.runs, |r| r.correct)
    }

    /// Total simulated cycles across runs.
    pub fn total_cycles(&self) -> u64 {
        self.runs.iter().map(|r| r.cycles).sum()
    }
}

record! {
    /// One Table 5 physical-address search run. `confidence` is lenient
    /// so baselines recorded before the field keep loading.
    #[derive(Debug, Clone, PartialEq)]
    pub struct PhysAddrRunRecord {
        /// The attacker's guess (`None`, written `null`, if the search
        /// came up empty).
        guessed_pa: Option<u64>,
        /// Ground truth.
        actual_pa: u64,
        /// Whether the guess was right.
        correct: bool,
        /// Huge-page candidates tested.
        guesses_tested: u64,
        /// Confidence of the hit reload (0 when the scan came up empty).
        [lenient] confidence: f64,
        /// Simulated cycles consumed.
        cycles: u64,
        /// Simulated seconds consumed.
        seconds: f64,
    }
}

impl From<&PhysAddrResult> for PhysAddrRunRecord {
    fn from(r: &PhysAddrResult) -> PhysAddrRunRecord {
        PhysAddrRunRecord {
            guessed_pa: r.guessed_pa,
            actual_pa: r.actual_pa,
            correct: r.correct,
            guesses_tested: r.guesses_tested,
            confidence: r.confidence,
            cycles: r.cycles,
            seconds: r.seconds,
        }
    }
}

record! {
    /// Table 5 rows for one (microarchitecture, memory size) pair.
    #[derive(Debug, Clone, PartialEq)]
    pub struct PhysAddrTableRecord {
        /// Microarchitecture name.
        uarch: String,
        /// Simulated physical memory, in GiB.
        memory_gib: u64,
        /// Per-run results.
        runs: Vec<PhysAddrRunRecord>,
    }
}

impl PhysAddrTableRecord {
    /// Fraction of correct runs.
    pub fn accuracy(&self) -> f64 {
        fraction_correct(&self.runs, |r| r.correct)
    }

    /// Total simulated cycles across runs.
    pub fn total_cycles(&self) -> u64 {
        self.runs.iter().map(|r| r.cycles).sum()
    }
}

record! {
    /// One §7.4 MDS leak run. `mean_confidence` is lenient so baselines
    /// recorded before the field keep loading.
    #[derive(Debug, Clone, PartialEq)]
    pub struct MdsRunRecord {
        /// The leaked bytes, hex-encoded.
        leaked_hex: String,
        /// Fraction recovered exactly.
        accuracy: f64,
        /// Whether any signal was observed.
        signal: bool,
        /// Mean confidence of the per-byte hit reloads.
        [lenient] mean_confidence: f64,
        /// Simulated cycles consumed.
        cycles: u64,
        /// Simulated seconds consumed.
        seconds: f64,
        /// Simulated leak rate.
        bytes_per_sec: f64,
    }
}

impl From<&MdsLeakResult> for MdsRunRecord {
    fn from(r: &MdsLeakResult) -> MdsRunRecord {
        MdsRunRecord {
            leaked_hex: hex_encode(&r.leaked),
            accuracy: r.accuracy,
            signal: r.signal,
            mean_confidence: r.mean_confidence,
            cycles: r.cycles,
            seconds: r.seconds,
            bytes_per_sec: r.bytes_per_sec,
        }
    }
}

impl MdsRunRecord {
    /// Decode the leaked bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] if the hex string is malformed.
    pub fn leaked(&self) -> Result<Vec<u8>, SchemaError> {
        hex_decode(&self.leaked_hex)
    }
}

record! {
    /// §7.4 MDS leak runs for one microarchitecture.
    #[derive(Debug, Clone, PartialEq)]
    pub struct MdsTableRecord {
        /// Microarchitecture name.
        uarch: String,
        /// Per-reboot runs.
        runs: Vec<MdsRunRecord>,
    }
}

impl MdsTableRecord {
    /// Mean per-run accuracy.
    pub fn mean_accuracy(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.runs.iter().map(|r| r.accuracy).sum::<f64>() / self.runs.len() as f64
    }

    /// Total simulated cycles across runs.
    pub fn total_cycles(&self) -> u64 {
        self.runs.iter().map(|r| r.cycles).sum()
    }
}

record! {
    /// Which pipeline stages an experiment's signal reached.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct StageFlags {
        /// IF channel fired.
        fetched: bool,
        /// ID channel fired.
        decoded: bool,
        /// EX channel fired.
        executed: bool,
    }
}

impl From<&ComboOutcome> for StageFlags {
    fn from(o: &ComboOutcome) -> StageFlags {
        StageFlags {
            fetched: o.fetched,
            decoded: o.decoded,
            executed: o.executed,
        }
    }
}

record! {
    /// One O4 (`SuppressBPOnNonBr`) outcome.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct O4Record {
        /// Microarchitecture name.
        uarch: String,
        /// Stages reached with the bit clear.
        baseline: StageFlags,
        /// Stages reached with the bit set.
        suppressed: StageFlags,
    }
}

record! {
    /// The O5 (AutoIBRS) outcome.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct O5Record {
        /// Whether cross-privilege transient fetch was still observed.
        transient_fetch_observed: bool,
    }
}

record! {
    /// One §8.2 software-mitigation placement check.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SoftwareRecord {
        /// Mitigation name (`"lfence"`, `"rsb_stuffing"`, `"sls_padding"`).
        name: String,
        /// Microarchitecture the check ran on.
        uarch: String,
        /// Signal observed without the mitigation.
        unprotected: bool,
        /// Signal observed with the mitigation in place.
        protected: bool,
    }
}

record! {
    /// The §6.3 mitigation-overhead suite.
    #[derive(Debug, Clone, PartialEq)]
    pub struct OverheadRecord {
        /// Per-workload cycle counts.
        per_workload: Vec<WorkloadCycles>,
        /// Geometric-mean overhead, percent.
        geomean_overhead_pct: f64,
    }
}

record! {
    /// One §6.3 workload's simulated cycles with and without the
    /// mitigation.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WorkloadCycles {
        /// Workload name.
        workload: String,
        /// Cycles with `SuppressBPOnNonBr` clear.
        baseline_cycles: u64,
        /// Cycles with `SuppressBPOnNonBr` set.
        suppressed_cycles: u64,
    }
}

impl From<&OverheadResult> for OverheadRecord {
    fn from(r: &OverheadResult) -> OverheadRecord {
        OverheadRecord {
            per_workload: r
                .per_workload
                .iter()
                .map(|(n, b, s)| WorkloadCycles {
                    workload: n.to_string(),
                    baseline_cycles: *b,
                    suppressed_cycles: *s,
                })
                .collect(),
            geomean_overhead_pct: r.geomean_overhead_pct,
        }
    }
}

record! {
    /// The §9.1 gadget census.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct GadgetRecord {
        /// Conventional Spectre gadgets.
        spectre_gadgets: u64,
        /// Phantom-only single-load gadgets.
        mds_gadgets: u64,
        /// Total exploitable with Phantom.
        total_with_phantom: u64,
    }
}

impl From<&GadgetCensus> for GadgetRecord {
    fn from(c: &GadgetCensus) -> GadgetRecord {
        GadgetRecord {
            spectre_gadgets: c.spectre_gadgets as u64,
            mds_gadgets: c.mds_gadgets as u64,
            total_with_phantom: c.total_with_phantom as u64,
        }
    }
}

record! {
    /// One point of the noise sweep: the adaptive fetch channel under a
    /// single [`NoiseModel`](phantom_sidechannel::NoiseModel) knob.
    #[derive(Debug, Clone, PartialEq)]
    pub struct NoiseSweepRecord {
        /// The swept knob: `"jitter_cycles"`, `"spurious_evict"` or
        /// `"missed_signal"`.
        axis: String,
        /// The knob value.
        value: f64,
        /// Channel accuracy at that point (abstentions count as wrong).
        accuracy: f64,
        /// Total probes the adaptive decoder spent.
        probes: u64,
        /// Bits the decoder abstained on.
        abstentions: u64,
        /// Mean decode confidence across the transfer.
        mean_confidence: f64,
    }
}

impl From<&NoiseSweepPoint> for NoiseSweepRecord {
    fn from(p: &NoiseSweepPoint) -> NoiseSweepRecord {
        NoiseSweepRecord {
            axis: p.axis.to_string(),
            value: p.value,
            accuracy: p.accuracy,
            probes: p.probes,
            abstentions: p.abstentions,
            mean_confidence: p.mean_confidence,
        }
    }
}

impl NoiseSweepRecord {
    /// Whether this is a quiet-end point (the knob at zero) — the
    /// points [`diff_noise_sweep`] gates on.
    pub fn is_quiet(&self) -> bool {
        self.value == 0.0
    }
}

record! {
    /// Deterministic hot-path counters: the measured decode-cache, TLB
    /// and copy-on-write snapshot wins.
    ///
    /// Every counter comes from a fixed reference workload, so they are
    /// part of the canonical snapshot and diffable against a baseline —
    /// a hit-rate drop is a perf regression the gate can catch without
    /// trusting wall clocks. Counters introduced after the first
    /// baseline are lenient, and keys of removed counters
    /// (`trace_hits`, `trace_bailouts`, `trace_invalidations`) are
    /// ignored, so old baselines keep loading.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct PerfRecord {
        /// Decode-cache hits on the reference workload.
        decode_cache_hits: u64,
        /// Decode-cache misses on the reference workload.
        decode_cache_misses: u64,
        /// Full decodes the cache eliminated (equals `hits`).
        decodes_avoided: u64,
        /// TLB hits on the reference workload (page walks skipped by the
        /// translation fast path).
        [lenient] tlb_hits: u64,
        /// TLB misses on the reference workload (page walks taken).
        [lenient] tlb_misses: u64,
        /// Frames unshared by a write after a checkpoint on the
        /// snapshot/restore reference workload.
        [lenient] cow_faults: u64,
        /// Frames still shared between the live memory and its snapshot at
        /// the end of the snapshot/restore reference workload.
        [lenient] cow_frames_shared: u64,
        /// Frames rewound by `restore` on the snapshot/restore reference
        /// workload (the O(dirty) restore cost).
        [lenient] restore_frames_copied: u64,
        /// Bounded probe retries the trial runner performed while
        /// collecting the snapshot (trials re-run on a fresh fork after a
        /// recoverable failure). Zero in a healthy run: a nonzero value
        /// means some scenario silently leaned on the retry path.
        [lenient] trial_retries: u64,
        /// Boots served from an existing template by the boot-cache
        /// reference workload (an isolated cache, so the counter never
        /// depends on what the process-global one has seen).
        [lenient] boot_cache_hits: u64,
        /// Dirty frames the journaled rewind visited on the
        /// snapshot/restore reference workload.
        [lenient] rewind_journal_frames: u64,
        /// Retired frame buffers the pool recycled into copy-on-write
        /// copies on the snapshot/restore reference workload.
        [lenient] frame_pool_reuses: u64,
        /// Probes re-armed over a standing arena mapping by the probe-arena
        /// reference workload.
        [lenient] probe_arena_rearms: u64,
    }
}

/// `hits / (hits + misses)`, 0 when both are 0.
fn hit_rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        return 0.0;
    }
    hits as f64 / (hits + misses) as f64
}

impl PerfRecord {
    /// Decode-cache hit fraction of the reference workload, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        hit_rate(self.decode_cache_hits, self.decode_cache_misses)
    }

    /// TLB hit fraction of the reference workload, in `[0, 1]`.
    pub fn tlb_hit_rate(&self) -> f64 {
        hit_rate(self.tlb_hits, self.tlb_misses)
    }
}

record! {
    /// Host-volatile metadata. **Not** part of the canonical snapshot:
    /// only emitted on request, and always ignored by [`diff`], because
    /// wall-clock and thread count vary run to run. Keys this version no
    /// longer writes (`snapshot_wall`, the removed deep-copy A/B) are
    /// ignored.
    #[derive(Debug, Clone, PartialEq)]
    pub struct HostMeta {
        /// Worker threads the trial runner used.
        threads: u64,
        /// Host wall-clock per experiment.
        wall_seconds: Vec<ExperimentWall>,
        /// Wall-clock A/B of the decode cache on the reference workload.
        [omit] decode_cache_wall: Option<DecodeCacheWall>,
    }
}

record! {
    /// Host wall-clock of one experiment.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ExperimentWall {
        /// Experiment name.
        experiment: String,
        /// Wall-clock seconds.
        seconds: f64,
    }
}

record! {
    /// Host wall-clock of the decode-cache reference workload, cache
    /// enabled vs disabled.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct DecodeCacheWall {
        /// Seconds with the decode cache enabled.
        enabled_seconds: f64,
        /// Seconds with the decode cache disabled.
        disabled_seconds: f64,
    }
}

record! {
    /// The complete machine-readable result of a `repro bench` run.
    #[derive(Debug, Clone, PartialEq)]
    pub struct BenchSnapshot {
        /// Canonical run metadata.
        meta: RunMeta,
        /// Table 1 cells.
        table1: Vec<Table1Record>,
        /// Figure 6 sweeps.
        figure6: Vec<Figure6Record>,
        /// Figure 7 recovery.
        figure7: Figure7Record,
        /// Table 2 covert-channel rows.
        table2: Vec<CovertRecord>,
        /// Table 3 (kernel image KASLR), one record per uarch.
        table3: Vec<SlotTableRecord>,
        /// Table 4 (physmap KASLR), one record per uarch.
        table4: Vec<SlotTableRecord>,
        /// Table 5 (physical address), one record per (uarch, memory).
        table5: Vec<PhysAddrTableRecord>,
        /// §7.4 MDS leak, one record per uarch.
        mds: Vec<MdsTableRecord>,
        /// O4 outcomes.
        o4: Vec<O4Record>,
        /// O5 outcome.
        o5: O5Record,
        /// §8.2 software mitigation checks.
        software: Vec<SoftwareRecord>,
        /// §6.3 overhead suite.
        overhead: OverheadRecord,
        /// §9.1 gadget census.
        gadgets: GadgetRecord,
        /// Deterministic hot-path counters.
        perf: PerfRecord,
        /// Noise sweep of the adaptive fetch channel. Optional so
        /// baselines recorded before the sweep existed keep loading.
        [omit] noise_sweep: Option<Vec<NoiseSweepRecord>>,
        /// PHT-channel (BranchSpectre-style) rows. Optional so baselines
        /// recorded before the channel existed keep loading.
        [omit] pht_channel: Option<Vec<PhtChannelRecord>>,
        /// Host-volatile metadata (ignored by [`diff`]).
        [omit] host: Option<HostMeta>,
    }
}

/// A schema-tagged document: `"schema"` first, then the members of
/// `body` in order. Every snapshot-schema file — the full snapshot and
/// the one-section `noise-sweep`/`pht-channel` files — has this shape.
pub fn document(body: JsonValue) -> JsonValue {
    let mut doc = JsonValue::object();
    doc.set("schema", JsonValue::Str(SCHEMA.to_string()));
    if let JsonValue::Object(members) = body {
        for (key, value) in members {
            doc.set(&key, value);
        }
    }
    doc
}

impl BenchSnapshot {
    /// Serialize to the canonical pretty-printed JSON document.
    pub fn to_json_string(&self) -> String {
        document(self.to_json()).to_pretty_string()
    }

    /// Parse a snapshot from its JSON text.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] on malformed JSON, an unknown schema or
    /// a shape mismatch.
    pub fn from_json_str(text: &str) -> Result<BenchSnapshot, SchemaError> {
        let v = parse(text)?;
        let schema: String = required(&v, "schema")?;
        if schema != SCHEMA {
            return Err(SchemaError(format!(
                "unknown schema {schema:?} (expected {SCHEMA:?})"
            )));
        }
        BenchSnapshot::from_json(&v)
    }
}

/// One detected regression, human-readable.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Which metric regressed (e.g. `"table3[Zen 3].accuracy"`).
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: baseline {} -> current {}",
            self.metric, self.baseline, self.current
        )
    }
}

/// Tolerances for [`diff`]. `accuracy_pp` is percentage *points* a
/// fraction-correct metric may drop; `cycles_pct` is the percent
/// simulated cycles may grow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Allowed accuracy drop, percentage points (e.g. `1.0` = one
    /// point, so 0.99 → 0.98 passes and 0.99 → 0.97 fails).
    pub accuracy_pp: f64,
    /// Allowed simulated-cycle growth, percent.
    pub cycles_pct: f64,
}

impl Default for Tolerance {
    fn default() -> Tolerance {
        Tolerance {
            accuracy_pp: 1.0,
            cycles_pct: 5.0,
        }
    }
}

impl Tolerance {
    /// A uniform tolerance: `pct` percentage points for accuracies and
    /// `pct` percent for cycles.
    pub fn uniform(pct: f64) -> Tolerance {
        Tolerance {
            accuracy_pp: pct,
            cycles_pct: pct,
        }
    }

    /// Push a regression onto `out` if accuracy fell beyond tolerance.
    fn check_accuracy(&self, out: &mut Vec<Regression>, metric: String, base: f64, cur: f64) {
        if (base - cur) * 100.0 > self.accuracy_pp {
            out.push(Regression {
                metric,
                baseline: base,
                current: cur,
            });
        }
    }
}

/// The row gate: match every baseline row to the current row with the
/// same label and compare their gauges — accuracy may drop
/// `accuracy_pp` points and, where a row counts them, total simulated
/// cycles may grow `cycles_pct` percent. A baseline row with no
/// current counterpart flags as `"{section}[{label}] missing"`.
fn gate_rows<'a, T: 'a>(
    out: &mut Vec<Regression>,
    tol: &Tolerance,
    section: &str,
    base: impl IntoIterator<Item = &'a T>,
    cur: impl Iterator<Item = &'a T> + Clone,
    label: impl Fn(&T) -> String,
    gauge: impl Fn(&T) -> (f64, Option<u64>),
) {
    for b in base {
        let row = format!("{section}[{}]", label(b));
        let Some(c) = cur.clone().find(|c| label(c) == label(b)) else {
            out.push(Regression {
                metric: format!("{row} missing"),
                baseline: 1.0,
                current: 0.0,
            });
            continue;
        };
        let ((b_acc, b_cycles), (c_acc, c_cycles)) = (gauge(b), gauge(c));
        tol.check_accuracy(out, format!("{row}.accuracy"), b_acc, c_acc);
        if let (Some(b_cycles), Some(c_cycles)) = (b_cycles, c_cycles) {
            if c_cycles as f64 > b_cycles as f64 * (1.0 + tol.cycles_pct / 100.0) {
                out.push(Regression {
                    metric: format!("{row}.cycles"),
                    baseline: b_cycles as f64,
                    current: c_cycles as f64,
                });
            }
        }
    }
}

/// Compare `current` against `baseline` and return every regression
/// beyond `tol`.
///
/// Checked: Table 2 per-row accuracy, Table 3/4/5 per-uarch accuracy
/// and total simulated cycles, MDS per-uarch mean accuracy and cycles,
/// the decode-cache and TLB hit rates, and — when the baseline has the
/// section — [`diff_noise_sweep`] and [`diff_pht_channel`].
/// Improvements never flag; the `host` section is ignored entirely. A
/// baseline record with no counterpart in `current` (missing uarch,
/// fewer experiments) flags as a coverage regression.
pub fn diff(baseline: &BenchSnapshot, current: &BenchSnapshot, tol: &Tolerance) -> Vec<Regression> {
    let mut out = Vec::new();
    let (b, c) = (baseline, current);
    gate_rows(
        &mut out,
        tol,
        "table2",
        &b.table2,
        c.table2.iter(),
        |r| format!("{} | {}", r.uarch, r.kind),
        |r| (r.accuracy, None),
    );
    for (name, base, cur) in [
        ("table3", &b.table3, &c.table3),
        ("table4", &b.table4, &c.table4),
    ] {
        gate_rows(
            &mut out,
            tol,
            name,
            base,
            cur.iter(),
            |t| t.uarch.clone(),
            |t| (t.accuracy(), Some(t.total_cycles())),
        );
    }
    gate_rows(
        &mut out,
        tol,
        "table5",
        &b.table5,
        c.table5.iter(),
        |t| format!("{} | {} GiB", t.uarch, t.memory_gib),
        |t| (t.accuracy(), Some(t.total_cycles())),
    );
    gate_rows(
        &mut out,
        tol,
        "mds",
        &b.mds,
        c.mds.iter(),
        |t| t.uarch.clone(),
        |t| (t.mean_accuracy(), Some(t.total_cycles())),
    );
    let perf = "perf.decode_cache.hit_rate".to_string();
    tol.check_accuracy(&mut out, perf, b.perf.hit_rate(), c.perf.hit_rate());
    // Only gate the TLB hit rate when the baseline has one — older
    // baselines predate the counter and parse it as 0/0.
    if b.perf.tlb_hits + b.perf.tlb_misses > 0 {
        let perf = "perf.tlb.hit_rate".to_string();
        tol.check_accuracy(&mut out, perf, b.perf.tlb_hit_rate(), c.perf.tlb_hit_rate());
    }
    if let Some(base) = &b.noise_sweep {
        out.extend(diff_noise_sweep(
            base,
            c.noise_sweep.as_deref().unwrap_or(&[]),
            tol,
        ));
    }
    if let Some(base) = &b.pht_channel {
        out.extend(diff_pht_channel(
            base,
            c.pht_channel.as_deref().unwrap_or(&[]),
            tol,
        ));
    }
    out
}

/// Gate the noise sweep's quiet-end (`value == 0`) points on accuracy.
/// The noisy points degrade by design; the quiet baseline of each axis
/// must not.
pub fn diff_noise_sweep(
    baseline: &[NoiseSweepRecord],
    current: &[NoiseSweepRecord],
    tol: &Tolerance,
) -> Vec<Regression> {
    let mut out = Vec::new();
    gate_rows(
        &mut out,
        tol,
        "noise_sweep",
        baseline.iter().filter(|p| p.is_quiet()),
        current.iter().filter(|p| p.is_quiet()),
        |p| format!("{} = 0", p.axis),
        |p| (p.accuracy, None),
    );
    out
}

/// Gate PHT-channel rows on per-uarch accuracy, as Table 2 is gated.
pub fn diff_pht_channel(
    baseline: &[PhtChannelRecord],
    current: &[PhtChannelRecord],
    tol: &Tolerance,
) -> Vec<Regression> {
    let mut out = Vec::new();
    gate_rows(
        &mut out,
        tol,
        "pht_channel",
        baseline,
        current.iter(),
        |r| r.uarch.clone(),
        |r| (r.accuracy, None),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> BenchSnapshot {
        BenchSnapshot {
            meta: RunMeta {
                profile: "quick".into(),
                seed: 0,
            },
            table1: vec![Table1Record {
                train: "jmp*".into(),
                victim: "non branch".into(),
                stages: vec![
                    StageCell {
                        uarch: "Zen".into(),
                        stage: "EX".into(),
                    },
                    StageCell {
                        uarch: "Zen 4".into(),
                        stage: "ID".into(),
                    },
                ],
            }],
            figure6: vec![Figure6Record {
                uarch: "Zen 2".into(),
                step: 0x100,
                points: vec![Figure6Point {
                    offset: 0xac0,
                    hits: 0,
                    misses: 8,
                }],
            }],
            figure7: Figure7Record {
                samples_per_address: 24,
                masks: vec![(1 << 47) | (1 << 35), 1 << 23],
                paper_patterns_hold: true,
            },
            table2: vec![CovertRecord {
                uarch: "Zen 2".into(),
                model: "R5 3600".into(),
                kind: "fetch (P1)".into(),
                bits: 256,
                accuracy: 0.9921875,
                probes: 520,
                abstentions: 1,
                mean_confidence: 0.91,
                seconds: 0.0125,
                bits_per_sec: 20480.0,
            }],
            table3: vec![SlotTableRecord {
                uarch: "Zen 3".into(),
                runs: vec![SlotRunRecord {
                    guessed_slot: 5,
                    actual_slot: 5,
                    correct: true,
                    best_score: -3,
                    confidence: 0.4,
                    cycles: 123_456,
                    seconds: 0.5,
                }],
            }],
            table4: vec![SlotTableRecord {
                uarch: "Zen".into(),
                runs: vec![],
            }],
            table5: vec![PhysAddrTableRecord {
                uarch: "Zen".into(),
                memory_gib: 1,
                runs: vec![PhysAddrRunRecord {
                    guessed_pa: None,
                    actual_pa: 0x4000_0000,
                    correct: false,
                    guesses_tested: 512,
                    confidence: 0.0,
                    cycles: 999,
                    seconds: 0.001,
                }],
            }],
            mds: vec![MdsTableRecord {
                uarch: "Zen 2".into(),
                runs: vec![MdsRunRecord {
                    leaked_hex: hex_encode(b"secret"),
                    accuracy: 1.0,
                    signal: true,
                    mean_confidence: 0.85,
                    cycles: 777,
                    seconds: 0.0003,
                    bytes_per_sec: 20000.0,
                }],
            }],
            o4: vec![O4Record {
                uarch: "Zen 2".into(),
                baseline: StageFlags {
                    fetched: true,
                    decoded: true,
                    executed: true,
                },
                suppressed: StageFlags {
                    fetched: true,
                    decoded: true,
                    executed: false,
                },
            }],
            o5: O5Record {
                transient_fetch_observed: true,
            },
            software: vec![SoftwareRecord {
                name: "lfence".into(),
                uarch: "Zen 2".into(),
                unprotected: true,
                protected: false,
            }],
            overhead: OverheadRecord {
                per_workload: vec![WorkloadCycles {
                    workload: "arith".into(),
                    baseline_cycles: 1000,
                    suppressed_cycles: 1010,
                }],
                geomean_overhead_pct: 0.69,
            },
            gadgets: GadgetRecord {
                spectre_gadgets: 183,
                mds_gadgets: 539,
                total_with_phantom: 722,
            },
            perf: PerfRecord {
                decode_cache_hits: 997,
                decode_cache_misses: 3,
                decodes_avoided: 997,
                tlb_hits: 4000,
                tlb_misses: 12,
                cow_faults: 9,
                cow_frames_shared: 700,
                restore_frames_copied: 27,
                trial_retries: 0,
                boot_cache_hits: 2,
                rewind_journal_frames: 32,
                frame_pool_reuses: 24,
                probe_arena_rearms: 6,
            },
            noise_sweep: Some(vec![
                NoiseSweepRecord {
                    axis: "spurious_evict".into(),
                    value: 0.0,
                    accuracy: 1.0,
                    probes: 128,
                    abstentions: 0,
                    mean_confidence: 0.97,
                },
                NoiseSweepRecord {
                    axis: "spurious_evict".into(),
                    value: 0.05,
                    accuracy: 0.9,
                    probes: 210,
                    abstentions: 2,
                    mean_confidence: 0.6,
                },
            ]),
            pht_channel: Some(vec![PhtChannelRecord {
                uarch: "Zen 2".into(),
                model: "EPYC 7252".into(),
                flip_mask: 1 << 13,
                bits: 128,
                accuracy: 0.984375,
                probes: 260,
                abstentions: 0,
                mean_confidence: 0.93,
                seconds: 0.004,
                bits_per_sec: 32000.0,
            }]),
            host: None,
        }
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let snap = sample_snapshot();
        let text = snap.to_json_string();
        let back = BenchSnapshot::from_json_str(&text).expect("parses");
        assert_eq!(back, snap);
        // Serialization is a pure function of the value.
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn every_record_type_round_trips() {
        let snap = sample_snapshot();
        macro_rules! rt {
            ($rec:expr, $ty:ident) => {{
                let v = $rec.to_json();
                assert_eq!($ty::from_json(&v).expect("round trip"), $rec);
            }};
        }
        rt!(snap.meta.clone(), RunMeta);
        rt!(snap.table1[0].clone(), Table1Record);
        rt!(snap.table1[0].stages[0].clone(), StageCell);
        rt!(snap.figure6[0].points[0], Figure6Point);
        rt!(snap.figure6[0].clone(), Figure6Record);
        rt!(snap.figure7.clone(), Figure7Record);
        rt!(snap.table2[0].clone(), CovertRecord);
        rt!(snap.table3[0].clone(), SlotTableRecord);
        rt!(snap.table3[0].runs[0].clone(), SlotRunRecord);
        rt!(snap.table5[0].clone(), PhysAddrTableRecord);
        rt!(snap.table5[0].runs[0].clone(), PhysAddrRunRecord);
        rt!(snap.mds[0].clone(), MdsTableRecord);
        rt!(snap.mds[0].runs[0].clone(), MdsRunRecord);
        rt!(snap.o4[0].clone(), O4Record);
        rt!(snap.o4[0].baseline, StageFlags);
        rt!(snap.o5.clone(), O5Record);
        rt!(snap.software[0].clone(), SoftwareRecord);
        rt!(snap.overhead.clone(), OverheadRecord);
        rt!(snap.overhead.per_workload[0].clone(), WorkloadCycles);
        rt!(snap.gadgets.clone(), GadgetRecord);
        rt!(snap.perf.clone(), PerfRecord);
        rt!(
            snap.noise_sweep.as_ref().expect("sample has sweep")[0].clone(),
            NoiseSweepRecord
        );
        rt!(
            snap.pht_channel.as_ref().expect("sample has pht rows")[0].clone(),
            PhtChannelRecord
        );
    }

    #[test]
    fn host_section_round_trips_when_present() {
        let mut snap = sample_snapshot();
        snap.host = Some(HostMeta {
            threads: 8,
            wall_seconds: vec![ExperimentWall {
                experiment: "table1".into(),
                seconds: 1.25,
            }],
            decode_cache_wall: Some(DecodeCacheWall {
                enabled_seconds: 0.8,
                disabled_seconds: 1.3,
            }),
        });
        let back = BenchSnapshot::from_json_str(&snap.to_json_string()).expect("parses");
        assert_eq!(back, snap);

        // Host sections written before the deep-copy A/B was removed
        // still carry `snapshot_wall`: they parse, and the key is
        // ignored.
        let host = snap.host.take().expect("host set above");
        let mut legacy_host = host.to_json();
        let mut wall = JsonValue::object();
        wall.set("cow_seconds", JsonValue::Float(0.02))
            .set("deep_seconds", JsonValue::Float(0.41));
        legacy_host.set("snapshot_wall", wall);
        let mut legacy = snap.to_json();
        legacy.set("host", legacy_host);
        let back = BenchSnapshot::from_json_str(&document(legacy).to_pretty_string())
            .expect("legacy host parses");
        assert_eq!(back.host, Some(host));
    }

    #[test]
    fn hex_round_trips() {
        for bytes in [&b""[..], &b"\x00\xff\x10"[..], &b"secret"[..]] {
            assert_eq!(hex_decode(&hex_encode(bytes)).unwrap(), bytes);
        }
        // Malformed hex is a schema error, never a panic: odd length,
        // non-hex digits, a sign `from_str_radix` would accept, and a
        // multi-byte character straddling a digit pair.
        for bad in ["abc", "zz", "+f", "a\u{e9}b"] {
            assert!(hex_decode(bad).is_err(), "{bad:?}");
        }
        let run = MdsRunRecord {
            leaked_hex: "a\u{e9}b".into(),
            ..sample_snapshot().mds[0].runs[0].clone()
        };
        assert!(run.leaked().is_err());
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let text = sample_snapshot()
            .to_json_string()
            .replace("phantom-bench/v1", "phantom-bench/v9");
        assert!(BenchSnapshot::from_json_str(&text).is_err());
    }

    #[test]
    fn identical_snapshots_show_no_regressions() {
        let snap = sample_snapshot();
        assert!(diff(&snap, &snap, &Tolerance::default()).is_empty());
    }

    #[test]
    fn accuracy_drop_beyond_tolerance_flags() {
        let base = sample_snapshot();
        let mut cur = base.clone();
        cur.table2[0].accuracy = base.table2[0].accuracy - 0.05; // 5 pp
        let regs = diff(&base, &cur, &Tolerance::default());
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].metric.contains("table2"), "{}", regs[0]);
        // Within tolerance: no flag.
        cur.table2[0].accuracy = base.table2[0].accuracy - 0.005; // 0.5 pp
        assert!(diff(&base, &cur, &Tolerance::default()).is_empty());
    }

    #[test]
    fn cycle_growth_beyond_tolerance_flags() {
        let base = sample_snapshot();
        let mut cur = base.clone();
        cur.table3[0].runs[0].cycles = base.table3[0].runs[0].cycles * 2;
        let regs = diff(&base, &cur, &Tolerance::default());
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].metric.contains("table3"));
        assert!(regs[0].metric.contains("cycles"));
    }

    #[test]
    fn improvements_do_not_flag() {
        let base = sample_snapshot();
        let mut cur = base.clone();
        cur.table3[0].runs[0].cycles /= 2;
        cur.table2[0].accuracy = 1.0;
        assert!(diff(&base, &cur, &Tolerance::default()).is_empty());
    }

    #[test]
    fn missing_experiment_flags_as_coverage_regression() {
        let base = sample_snapshot();
        let mut cur = base.clone();
        cur.mds.clear();
        let regs = diff(&base, &cur, &Tolerance::default());
        assert!(
            regs.iter()
                .any(|r| r.metric.contains("mds") && r.metric.contains("missing")),
            "{regs:?}"
        );
    }

    #[test]
    fn decode_cache_hit_rate_regression_flags() {
        let base = sample_snapshot();
        let mut cur = base.clone();
        cur.perf.decode_cache_hits = 500;
        cur.perf.decode_cache_misses = 500;
        let regs = diff(&base, &cur, &Tolerance::default());
        assert!(
            regs.iter().any(|r| r.metric.contains("decode_cache")),
            "{regs:?}"
        );
    }

    #[test]
    fn tlb_hit_rate_regression_flags() {
        let base = sample_snapshot();
        let mut cur = base.clone();
        cur.perf.tlb_hits = 2000;
        cur.perf.tlb_misses = 2012;
        let regs = diff(&base, &cur, &Tolerance::default());
        assert!(regs.iter().any(|r| r.metric.contains("tlb")), "{regs:?}");
    }

    #[test]
    fn quiet_end_noise_sweep_regression_flags() {
        let base = sample_snapshot();
        let mut cur = base.clone();
        // The quiet (value == 0.0) point is the determinism anchor: an
        // accuracy drop there means the measurement layer broke, not
        // that the noise got worse.
        cur.noise_sweep.as_mut().unwrap()[0].accuracy = 0.9;
        let regs = diff(&base, &cur, &Tolerance::default());
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].metric.contains("noise_sweep"), "{}", regs[0]);
        assert!(regs[0].metric.contains("= 0"), "{}", regs[0]);
    }

    #[test]
    fn noisy_sweep_points_are_not_gated() {
        let base = sample_snapshot();
        let mut cur = base.clone();
        // Nonzero-noise points may drift with decoder tuning; only the
        // quiet end is load-bearing.
        cur.noise_sweep.as_mut().unwrap()[1].accuracy = 0.5;
        assert!(diff(&base, &cur, &Tolerance::default()).is_empty());
    }

    #[test]
    fn missing_quiet_sweep_point_flags_as_coverage_regression() {
        let base = sample_snapshot();
        let mut cur = base.clone();
        cur.noise_sweep = None;
        let regs = diff(&base, &cur, &Tolerance::default());
        assert_eq!(regs.len(), 1, "only the quiet point is gated: {regs:?}");
        assert!(regs[0].metric.contains("missing"), "{}", regs[0]);
    }

    #[test]
    fn baseline_without_noise_sweep_does_not_gate_it() {
        let mut base = sample_snapshot();
        base.noise_sweep = None;
        let text = base.to_json_string();
        assert!(!text.contains("noise_sweep"), "section omitted when None");
        let back = BenchSnapshot::from_json_str(&text).expect("parses");
        assert_eq!(back.noise_sweep, None);
        let cur = sample_snapshot();
        assert!(diff(&back, &cur, &Tolerance::default()).is_empty());
    }

    #[test]
    fn pht_channel_accuracy_regression_flags() {
        let base = sample_snapshot();
        let mut cur = base.clone();
        cur.pht_channel.as_mut().unwrap()[0].accuracy -= 0.05; // 5 pp
        let regs = diff(&base, &cur, &Tolerance::default());
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].metric.contains("pht_channel"), "{}", regs[0]);
        // A current run that dropped the section is a coverage loss.
        cur.pht_channel = None;
        let regs = diff(&base, &cur, &Tolerance::default());
        assert!(
            regs.iter()
                .any(|r| r.metric.contains("pht_channel") && r.metric.contains("missing")),
            "{regs:?}"
        );
    }

    #[test]
    fn baseline_without_pht_channel_does_not_gate_it() {
        let mut base = sample_snapshot();
        base.pht_channel = None;
        let text = base.to_json_string();
        assert!(!text.contains("pht_channel"), "section omitted when None");
        let back = BenchSnapshot::from_json_str(&text).expect("parses");
        assert_eq!(back.pht_channel, None);
        let cur = sample_snapshot();
        assert!(diff(&back, &cur, &Tolerance::default()).is_empty());
    }

    /// Drop keys from an object, emulating a record written before
    /// those fields existed.
    fn without(mut v: JsonValue, keys: &[&str]) -> JsonValue {
        if let JsonValue::Object(members) = &mut v {
            members.retain(|(k, _)| !keys.contains(&k.as_str()));
        }
        v
    }

    #[test]
    fn confidence_fields_added_after_a_baseline_parse_as_zero() {
        // Covert/slot/mds records written before the confidence-scored
        // decoder exist without the new keys; they must load with
        // zeroed metrics rather than fail.
        let snap = sample_snapshot();
        let old = without(
            snap.table2[0].to_json(),
            &["probes", "abstentions", "mean_confidence"],
        );
        let covert = CovertRecord::from_json(&old).expect("old-shape covert parses");
        assert_eq!(covert.probes, 0);
        assert_eq!(covert.abstentions, 0);
        assert_eq!(covert.mean_confidence, 0.0);

        let old = without(snap.table3[0].runs[0].to_json(), &["confidence"]);
        let slot = SlotRunRecord::from_json(&old).expect("old-shape slot parses");
        assert_eq!(slot.confidence, 0.0);

        let old = without(snap.mds[0].runs[0].to_json(), &["mean_confidence"]);
        let mds = MdsRunRecord::from_json(&old).expect("old-shape mds parses");
        assert_eq!(mds.mean_confidence, 0.0);
    }

    #[test]
    fn perf_counters_added_after_a_baseline_parse_as_zero() {
        // A baseline recorded before the TLB/CoW counters existed must
        // still load, with the absent counters defaulting to zero…
        let mut old = JsonValue::object();
        old.set("decode_cache_hits", JsonValue::Uint(997))
            .set("decode_cache_misses", JsonValue::Uint(3))
            .set("decodes_avoided", JsonValue::Uint(997));
        let perf = PerfRecord::from_json(&old).expect("old-shape perf parses");
        assert_eq!(perf.tlb_hits, 0);
        assert_eq!(perf.tlb_misses, 0);
        assert_eq!(perf.restore_frames_copied, 0);
        assert_eq!(perf.trial_retries, 0);
        assert_eq!(perf.boot_cache_hits, 0);
        assert_eq!(perf.rewind_journal_frames, 0);
        assert_eq!(perf.frame_pool_reuses, 0);
        assert_eq!(perf.probe_arena_rearms, 0);
        // A baseline that still carries the removed trace-engine
        // counters loads too: the keys are ignored, every other
        // counter reads as written.
        let mut carried = sample_snapshot().perf.to_json();
        carried
            .set("trace_hits", JsonValue::Uint(4990))
            .set("trace_bailouts", JsonValue::Uint(2))
            .set("trace_invalidations", JsonValue::Uint(1));
        assert_eq!(
            PerfRecord::from_json(&carried).expect("perf with trace keys parses"),
            sample_snapshot().perf
        );
        // …and such a baseline must not gate the TLB hit rate at all.
        let mut base = sample_snapshot();
        base.perf = perf;
        let mut cur = sample_snapshot();
        cur.perf.tlb_hits = 0;
        cur.perf.tlb_misses = 4012;
        assert!(
            diff(&base, &cur, &Tolerance::default())
                .iter()
                .all(|r| !r.metric.contains("tlb")),
            "old baseline must not flag tlb"
        );
    }

    #[test]
    fn committed_snapshot_round_trips_byte_for_byte() {
        // The wire format is the field lists above: parsing the
        // committed baseline and writing it back must reproduce it.
        let text = include_str!("../../../../BENCH_phantom.json");
        let snap = BenchSnapshot::from_json_str(text).expect("committed baseline parses");
        assert_eq!(snap.to_json_string(), text);
        assert!(diff(&snap, &snap, &Tolerance::default()).is_empty());
    }

    #[test]
    fn field_rules_shape_the_members() {
        let mut snap = sample_snapshot();
        // `[omit]` leaves a `None` out; a required `Option` writes null.
        snap.host = None;
        let v = snap.to_json();
        assert_eq!(v.get("host"), None);
        let run = &snap.table5[0].runs[0];
        assert_eq!(run.to_json().get("guessed_pa"), Some(&JsonValue::Null));
        // Members follow field order, keyed by field name.
        let keys: Vec<String> = match snap.gadgets.to_json() {
            JsonValue::Object(members) => members.into_iter().map(|(k, _)| k).collect(),
            other => panic!("record encoded as {other:?}"),
        };
        assert_eq!(
            keys,
            ["spectre_gadgets", "mds_gadgets", "total_with_phantom"]
        );
        // `[lenient]` reads null as the default; a required member
        // does not, and the error names the key.
        let mut old = without(snap.table2[0].to_json(), &["probes", "abstentions"]);
        old.set("probes", JsonValue::Null);
        let covert = CovertRecord::from_json(&old).unwrap();
        assert_eq!((covert.probes, covert.abstentions), (0, 0));
        let err = CovertRecord::from_json(&without(snap.table2[0].to_json(), &["bits"]));
        assert_eq!(err, Err(SchemaError("missing field \"bits\"".into())));
        let mut bad = without(snap.table2[0].to_json(), &["accuracy"]);
        bad.set("accuracy", JsonValue::Str("high".into()));
        let err = CovertRecord::from_json(&bad).unwrap_err();
        assert!(err.0.starts_with("accuracy: "), "{err}");
    }

    #[test]
    fn section_gates_match_the_snapshot_diff() {
        let base = sample_snapshot();
        let mut cur = base.clone();
        cur.noise_sweep.as_mut().unwrap()[0].accuracy = 0.5;
        cur.pht_channel.as_mut().unwrap()[0].accuracy = 0.5;
        let sweep = diff_noise_sweep(
            base.noise_sweep.as_ref().unwrap(),
            cur.noise_sweep.as_ref().unwrap(),
            &Tolerance::default(),
        );
        let pht = diff_pht_channel(
            base.pht_channel.as_ref().unwrap(),
            cur.pht_channel.as_ref().unwrap(),
            &Tolerance::default(),
        );
        let all: Vec<Regression> = sweep.into_iter().chain(pht).collect();
        assert_eq!(all, diff(&base, &cur, &Tolerance::default()));
        assert_eq!(all.len(), 2, "{all:?}");
        assert_eq!(all[0].metric, "noise_sweep[spurious_evict = 0].accuracy");
        assert_eq!(all[1].metric, "pht_channel[Zen 2].accuracy");
    }
}
