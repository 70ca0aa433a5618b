//! Machine-readable results: typed records for every shipped
//! experiment, a top-level [`BenchSnapshot`], and a tolerance-driven
//! [`diff`] for regression gating.
//!
//! Every record mirrors one experiment's output with owned fields, so
//! a snapshot parsed from disk is self-contained (no `&'static str`
//! interning against the running binary). Serialization is built on
//! [`JsonValue`]; object member order is
//! fixed by the `to_json` implementations, which together with the
//! deterministic writer makes snapshot bytes a pure function of the
//! results — the determinism suite asserts byte-identity across
//! thread counts on exactly this property.
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

fn field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, SchemaError> {
    v.get(key)
        .ok_or_else(|| SchemaError(format!("missing field {key:?}")))
}

fn str_field(v: &JsonValue, key: &str) -> Result<String, SchemaError> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| SchemaError(format!("field {key:?} is not a string")))
}

fn u64_field(v: &JsonValue, key: &str) -> Result<u64, SchemaError> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| SchemaError(format!("field {key:?} is not a u64")))
}

fn i64_field(v: &JsonValue, key: &str) -> Result<i64, SchemaError> {
    field(v, key)?
        .as_i64()
        .ok_or_else(|| SchemaError(format!("field {key:?} is not an i64")))
}

fn f64_field(v: &JsonValue, key: &str) -> Result<f64, SchemaError> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| SchemaError(format!("field {key:?} is not a number")))
}

fn bool_field(v: &JsonValue, key: &str) -> Result<bool, SchemaError> {
    field(v, key)?
        .as_bool()
        .ok_or_else(|| SchemaError(format!("field {key:?} is not a bool")))
}

fn array_field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], SchemaError> {
    field(v, key)?
        .as_array()
        .ok_or_else(|| SchemaError(format!("field {key:?} is not an array")))
}

fn vec_from<T>(
    v: &JsonValue,
    key: &str,
    decode: impl Fn(&JsonValue) -> Result<T, SchemaError>,
) -> Result<Vec<T>, SchemaError> {
    array_field(v, key)?.iter().map(decode).collect()
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn hex_decode(s: &str) -> Result<Vec<u8>, SchemaError> {
    if !s.len().is_multiple_of(2) {
        return Err(SchemaError("odd-length hex string".into()));
    }
    (0..s.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(&s[i..i + 2], 16)
                .map_err(|_| SchemaError(format!("bad hex byte {:?}", &s[i..i + 2])))
        })
        .collect()
}

/// Run metadata that is part of the canonical (deterministic) output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// Protocol size: `"quick"` or `"full"` (`PHANTOM_FULL=1`).
    pub profile: String,
    /// The base seed the experiment seeds derive from.
    pub seed: u64,
}

impl RunMeta {
    /// Encode as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::object();
        o.set("profile", JsonValue::Str(self.profile.clone()))
            .set("seed", JsonValue::Uint(self.seed));
        o
    }

    /// Decode from a JSON object.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] on a shape mismatch.
    pub fn from_json(v: &JsonValue) -> Result<RunMeta, SchemaError> {
        Ok(RunMeta {
            profile: str_field(v, "profile")?,
            seed: u64_field(v, "seed")?,
        })
    }
}

/// One Table 1 cell: deepest stage per microarchitecture for a
/// training × victim combination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Record {
    /// Training instruction (display form, e.g. `"jmp*"`).
    pub train: String,
    /// Victim instruction (display form).
    pub victim: String,
    /// `(uarch, stage)` pairs in sweep order; stages are `-`, `IF`,
    /// `ID` or `EX`.
    pub stages: Vec<(String, String)>,
}

impl From<&Table1Cell> for Table1Record {
    fn from(c: &Table1Cell) -> Table1Record {
        Table1Record {
            train: c.train.to_string(),
            victim: c.victim.to_string(),
            stages: c
                .stages
                .iter()
                .map(|(u, s)| (u.to_string(), s.to_string()))
                .collect(),
        }
    }
}

impl Table1Record {
    /// Encode as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::object();
        o.set("train", JsonValue::Str(self.train.clone()))
            .set("victim", JsonValue::Str(self.victim.clone()))
            .set(
                "stages",
                JsonValue::Array(
                    self.stages
                        .iter()
                        .map(|(u, s)| {
                            let mut cell = JsonValue::object();
                            cell.set("uarch", JsonValue::Str(u.clone()))
                                .set("stage", JsonValue::Str(s.clone()));
                            cell
                        })
                        .collect(),
                ),
            );
        o
    }

    /// Decode from a JSON object.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] on a shape mismatch.
    pub fn from_json(v: &JsonValue) -> Result<Table1Record, SchemaError> {
        Ok(Table1Record {
            train: str_field(v, "train")?,
            victim: str_field(v, "victim")?,
            stages: vec_from(v, "stages", |cell| {
                Ok((str_field(cell, "uarch")?, str_field(cell, "stage")?))
            })?,
        })
    }
}

/// One Figure 6 sweep on one microarchitecture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Figure6Record {
    /// Microarchitecture name.
    pub uarch: String,
    /// Page-offset step of the sweep.
    pub step: u64,
    /// The swept points.
    pub points: Vec<Figure6Point>,
}

impl Figure6Record {
    /// Encode as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::object();
        o.set("uarch", JsonValue::Str(self.uarch.clone()))
            .set("step", JsonValue::Uint(self.step))
            .set(
                "points",
                JsonValue::Array(
                    self.points
                        .iter()
                        .map(|p| {
                            let mut point = JsonValue::object();
                            point
                                .set("offset", JsonValue::Uint(p.offset))
                                .set("hits", JsonValue::Uint(p.hits))
                                .set("misses", JsonValue::Uint(p.misses));
                            point
                        })
                        .collect(),
                ),
            );
        o
    }

    /// Decode from a JSON object.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] on a shape mismatch.
    pub fn from_json(v: &JsonValue) -> Result<Figure6Record, SchemaError> {
        Ok(Figure6Record {
            uarch: str_field(v, "uarch")?,
            step: u64_field(v, "step")?,
            points: vec_from(v, "points", |p| {
                Ok(Figure6Point {
                    offset: u64_field(p, "offset")?,
                    hits: u64_field(p, "hits")?,
                    misses: u64_field(p, "misses")?,
                })
            })?,
        })
    }
}

/// The Figure 7 recovery: BTB index/tag functions as bit masks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Figure7Record {
    /// Collision samples used per kernel address.
    pub samples_per_address: u64,
    /// Recovered function masks (bit `i` set ⇔ address bit `i` is an
    /// input of the XOR).
    pub masks: Vec<u64>,
    /// Whether the paper's published XOR patterns hold.
    pub paper_patterns_hold: bool,
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

impl Figure7Record {
    /// Encode as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::object();
        o.set(
            "samples_per_address",
            JsonValue::Uint(self.samples_per_address),
        )
        .set(
            "masks",
            JsonValue::Array(self.masks.iter().map(|&m| JsonValue::Uint(m)).collect()),
        )
        .set(
            "paper_patterns_hold",
            JsonValue::Bool(self.paper_patterns_hold),
        );
        o
    }

    /// Decode from a JSON object.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] on a shape mismatch.
    pub fn from_json(v: &JsonValue) -> Result<Figure7Record, SchemaError> {
        Ok(Figure7Record {
            samples_per_address: u64_field(v, "samples_per_address")?,
            masks: array_field(v, "masks")?
                .iter()
                .map(|m| {
                    m.as_u64()
                        .ok_or_else(|| SchemaError("mask is not a u64".into()))
                })
                .collect::<Result<_, _>>()?,
            paper_patterns_hold: bool_field(v, "paper_patterns_hold")?,
        })
    }
}

/// One Table 2 covert-channel row.
#[derive(Debug, Clone, PartialEq)]
pub struct CovertRecord {
    /// Microarchitecture name.
    pub uarch: String,
    /// Retail part tested in the paper.
    pub model: String,
    /// Channel kind (display form: `"fetch (P1)"` / `"execute (P2)"`).
    pub kind: String,
    /// Bits transferred.
    pub bits: u64,
    /// Fraction decoded correctly.
    pub accuracy: f64,
    /// Total probes the adaptive decoder spent.
    pub probes: u64,
    /// Bits the decoder abstained on.
    pub abstentions: u64,
    /// Mean decode confidence across the transfer.
    pub mean_confidence: f64,
    /// Simulated seconds for the transfer.
    pub seconds: f64,
    /// Simulated channel rate.
    pub bits_per_sec: f64,
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

impl CovertRecord {
    /// Encode as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::object();
        o.set("uarch", JsonValue::Str(self.uarch.clone()))
            .set("model", JsonValue::Str(self.model.clone()))
            .set("kind", JsonValue::Str(self.kind.clone()))
            .set("bits", JsonValue::Uint(self.bits))
            .set("accuracy", JsonValue::Float(self.accuracy))
            .set("probes", JsonValue::Uint(self.probes))
            .set("abstentions", JsonValue::Uint(self.abstentions))
            .set("mean_confidence", JsonValue::Float(self.mean_confidence))
            .set("seconds", JsonValue::Float(self.seconds))
            .set("bits_per_sec", JsonValue::Float(self.bits_per_sec));
        o
    }

    /// Decode from a JSON object. The decoder fields (`probes`,
    /// `abstentions`, `mean_confidence`) parse leniently so baselines
    /// recorded before the adaptive decoder keep loading.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] on a shape mismatch.
    pub fn from_json(v: &JsonValue) -> Result<CovertRecord, SchemaError> {
        Ok(CovertRecord {
            uarch: str_field(v, "uarch")?,
            model: str_field(v, "model")?,
            kind: str_field(v, "kind")?,
            bits: u64_field(v, "bits")?,
            accuracy: f64_field(v, "accuracy")?,
            probes: v.get("probes").and_then(JsonValue::as_u64).unwrap_or(0),
            abstentions: v
                .get("abstentions")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0),
            mean_confidence: v
                .get("mean_confidence")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0),
            seconds: f64_field(v, "seconds")?,
            bits_per_sec: f64_field(v, "bits_per_sec")?,
        })
    }
}

/// One PHT-channel (BranchSpectre-style) row: Table-2-shaped numbers
/// for the conditional-branch-predictor channel, plus the
/// out-of-place flip the scheme admitted.
#[derive(Debug, Clone, PartialEq)]
pub struct PhtChannelRecord {
    /// Microarchitecture name.
    pub uarch: String,
    /// Retail part tested in the paper.
    pub model: String,
    /// XOR distance between victim and probe PC.
    pub flip_mask: u64,
    /// Bits recovered.
    pub bits: u64,
    /// Fraction decoded correctly.
    pub accuracy: f64,
    /// Total probes the adaptive decoder spent.
    pub probes: u64,
    /// Bits the decoder abstained on.
    pub abstentions: u64,
    /// Mean decode confidence across the recovery.
    pub mean_confidence: f64,
    /// Simulated seconds for the recovery.
    pub seconds: f64,
    /// Simulated channel rate.
    pub bits_per_sec: f64,
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

impl PhtChannelRecord {
    /// Encode as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::object();
        o.set("uarch", JsonValue::Str(self.uarch.clone()))
            .set("model", JsonValue::Str(self.model.clone()))
            .set("flip_mask", JsonValue::Uint(self.flip_mask))
            .set("bits", JsonValue::Uint(self.bits))
            .set("accuracy", JsonValue::Float(self.accuracy))
            .set("probes", JsonValue::Uint(self.probes))
            .set("abstentions", JsonValue::Uint(self.abstentions))
            .set("mean_confidence", JsonValue::Float(self.mean_confidence))
            .set("seconds", JsonValue::Float(self.seconds))
            .set("bits_per_sec", JsonValue::Float(self.bits_per_sec));
        o
    }

    /// Decode from a JSON object.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] on a shape mismatch.
    pub fn from_json(v: &JsonValue) -> Result<PhtChannelRecord, SchemaError> {
        Ok(PhtChannelRecord {
            uarch: str_field(v, "uarch")?,
            model: str_field(v, "model")?,
            flip_mask: u64_field(v, "flip_mask")?,
            bits: u64_field(v, "bits")?,
            accuracy: f64_field(v, "accuracy")?,
            probes: u64_field(v, "probes")?,
            abstentions: u64_field(v, "abstentions")?,
            mean_confidence: f64_field(v, "mean_confidence")?,
            seconds: f64_field(v, "seconds")?,
            bits_per_sec: f64_field(v, "bits_per_sec")?,
        })
    }
}

/// One KASLR-style run: used for both Table 3 (kernel image) and
/// Table 4 (physmap), whose result shapes are identical.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotRunRecord {
    /// The attacker's best guess.
    pub guessed_slot: u64,
    /// Ground truth.
    pub actual_slot: u64,
    /// Whether the guess was right.
    pub correct: bool,
    /// The winning score.
    pub best_score: i64,
    /// How decisively the winner beat the runner-up, in `[0, 1]`.
    pub confidence: f64,
    /// Simulated cycles consumed.
    pub cycles: u64,
    /// Simulated seconds consumed.
    pub seconds: f64,
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

impl SlotRunRecord {
    /// Encode as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::object();
        o.set("guessed_slot", JsonValue::Uint(self.guessed_slot))
            .set("actual_slot", JsonValue::Uint(self.actual_slot))
            .set("correct", JsonValue::Bool(self.correct))
            .set("best_score", JsonValue::Int(self.best_score))
            .set("confidence", JsonValue::Float(self.confidence))
            .set("cycles", JsonValue::Uint(self.cycles))
            .set("seconds", JsonValue::Float(self.seconds));
        o
    }

    /// Decode from a JSON object. `confidence` parses leniently (absent
    /// ⇒ 0) so baselines recorded before the field keep loading.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] on a shape mismatch.
    pub fn from_json(v: &JsonValue) -> Result<SlotRunRecord, SchemaError> {
        Ok(SlotRunRecord {
            guessed_slot: u64_field(v, "guessed_slot")?,
            actual_slot: u64_field(v, "actual_slot")?,
            correct: bool_field(v, "correct")?,
            best_score: i64_field(v, "best_score")?,
            confidence: v
                .get("confidence")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0),
            cycles: u64_field(v, "cycles")?,
            seconds: f64_field(v, "seconds")?,
        })
    }
}

/// Table 3 / Table 4 rows for one microarchitecture.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotTableRecord {
    /// Microarchitecture name.
    pub uarch: String,
    /// Per-reboot runs.
    pub runs: Vec<SlotRunRecord>,
}

impl SlotTableRecord {
    /// Fraction of correct runs.
    pub fn accuracy(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.runs.iter().filter(|r| r.correct).count() as f64 / self.runs.len() as f64
    }

    /// Total simulated cycles across runs.
    pub fn total_cycles(&self) -> u64 {
        self.runs.iter().map(|r| r.cycles).sum()
    }

    /// Encode as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::object();
        o.set("uarch", JsonValue::Str(self.uarch.clone())).set(
            "runs",
            JsonValue::Array(self.runs.iter().map(SlotRunRecord::to_json).collect()),
        );
        o
    }

    /// Decode from a JSON object.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] on a shape mismatch.
    pub fn from_json(v: &JsonValue) -> Result<SlotTableRecord, SchemaError> {
        Ok(SlotTableRecord {
            uarch: str_field(v, "uarch")?,
            runs: vec_from(v, "runs", SlotRunRecord::from_json)?,
        })
    }
}

/// One Table 5 physical-address search run.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysAddrRunRecord {
    /// The attacker's guess (`None` if the search came up empty).
    pub guessed_pa: Option<u64>,
    /// Ground truth.
    pub actual_pa: u64,
    /// Whether the guess was right.
    pub correct: bool,
    /// Huge-page candidates tested.
    pub guesses_tested: u64,
    /// Confidence of the hit reload (0 when the scan came up empty).
    pub confidence: f64,
    /// Simulated cycles consumed.
    pub cycles: u64,
    /// Simulated seconds consumed.
    pub seconds: f64,
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

impl PhysAddrRunRecord {
    /// Encode as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::object();
        o.set(
            "guessed_pa",
            match self.guessed_pa {
                Some(pa) => JsonValue::Uint(pa),
                None => JsonValue::Null,
            },
        )
        .set("actual_pa", JsonValue::Uint(self.actual_pa))
        .set("correct", JsonValue::Bool(self.correct))
        .set("guesses_tested", JsonValue::Uint(self.guesses_tested))
        .set("confidence", JsonValue::Float(self.confidence))
        .set("cycles", JsonValue::Uint(self.cycles))
        .set("seconds", JsonValue::Float(self.seconds));
        o
    }

    /// Decode from a JSON object. `confidence` parses leniently (absent
    /// ⇒ 0) so baselines recorded before the field keep loading.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] on a shape mismatch.
    pub fn from_json(v: &JsonValue) -> Result<PhysAddrRunRecord, SchemaError> {
        let guessed = field(v, "guessed_pa")?;
        Ok(PhysAddrRunRecord {
            guessed_pa: if guessed.is_null() {
                None
            } else {
                Some(
                    guessed
                        .as_u64()
                        .ok_or_else(|| SchemaError("guessed_pa is not a u64".into()))?,
                )
            },
            actual_pa: u64_field(v, "actual_pa")?,
            correct: bool_field(v, "correct")?,
            guesses_tested: u64_field(v, "guesses_tested")?,
            confidence: v
                .get("confidence")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0),
            cycles: u64_field(v, "cycles")?,
            seconds: f64_field(v, "seconds")?,
        })
    }
}

/// Table 5 rows for one (microarchitecture, memory size) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysAddrTableRecord {
    /// Microarchitecture name.
    pub uarch: String,
    /// Simulated physical memory, in GiB.
    pub memory_gib: u64,
    /// Per-run results.
    pub runs: Vec<PhysAddrRunRecord>,
}

impl PhysAddrTableRecord {
    /// Fraction of correct runs.
    pub fn accuracy(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.runs.iter().filter(|r| r.correct).count() as f64 / self.runs.len() as f64
    }

    /// Total simulated cycles across runs.
    pub fn total_cycles(&self) -> u64 {
        self.runs.iter().map(|r| r.cycles).sum()
    }

    /// Encode as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::object();
        o.set("uarch", JsonValue::Str(self.uarch.clone()))
            .set("memory_gib", JsonValue::Uint(self.memory_gib))
            .set(
                "runs",
                JsonValue::Array(self.runs.iter().map(PhysAddrRunRecord::to_json).collect()),
            );
        o
    }

    /// Decode from a JSON object.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] on a shape mismatch.
    pub fn from_json(v: &JsonValue) -> Result<PhysAddrTableRecord, SchemaError> {
        Ok(PhysAddrTableRecord {
            uarch: str_field(v, "uarch")?,
            memory_gib: u64_field(v, "memory_gib")?,
            runs: vec_from(v, "runs", PhysAddrRunRecord::from_json)?,
        })
    }
}

/// One §7.4 MDS leak run.
#[derive(Debug, Clone, PartialEq)]
pub struct MdsRunRecord {
    /// The leaked bytes, hex-encoded.
    pub leaked_hex: String,
    /// Fraction recovered exactly.
    pub accuracy: f64,
    /// Whether any signal was observed.
    pub signal: bool,
    /// Mean confidence of the per-byte hit reloads.
    pub mean_confidence: f64,
    /// Simulated cycles consumed.
    pub cycles: u64,
    /// Simulated seconds consumed.
    pub seconds: f64,
    /// Simulated leak rate.
    pub bytes_per_sec: f64,
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

    /// Encode as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::object();
        o.set("leaked_hex", JsonValue::Str(self.leaked_hex.clone()))
            .set("accuracy", JsonValue::Float(self.accuracy))
            .set("signal", JsonValue::Bool(self.signal))
            .set("mean_confidence", JsonValue::Float(self.mean_confidence))
            .set("cycles", JsonValue::Uint(self.cycles))
            .set("seconds", JsonValue::Float(self.seconds))
            .set("bytes_per_sec", JsonValue::Float(self.bytes_per_sec));
        o
    }

    /// Decode from a JSON object. `mean_confidence` parses leniently
    /// (absent ⇒ 0) so baselines recorded before the field keep loading.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] on a shape mismatch.
    pub fn from_json(v: &JsonValue) -> Result<MdsRunRecord, SchemaError> {
        Ok(MdsRunRecord {
            leaked_hex: str_field(v, "leaked_hex")?,
            accuracy: f64_field(v, "accuracy")?,
            signal: bool_field(v, "signal")?,
            mean_confidence: v
                .get("mean_confidence")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0),
            cycles: u64_field(v, "cycles")?,
            seconds: f64_field(v, "seconds")?,
            bytes_per_sec: f64_field(v, "bytes_per_sec")?,
        })
    }
}

/// §7.4 MDS leak runs for one microarchitecture.
#[derive(Debug, Clone, PartialEq)]
pub struct MdsTableRecord {
    /// Microarchitecture name.
    pub uarch: String,
    /// Per-reboot runs.
    pub runs: Vec<MdsRunRecord>,
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

    /// Encode as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::object();
        o.set("uarch", JsonValue::Str(self.uarch.clone())).set(
            "runs",
            JsonValue::Array(self.runs.iter().map(MdsRunRecord::to_json).collect()),
        );
        o
    }

    /// Decode from a JSON object.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] on a shape mismatch.
    pub fn from_json(v: &JsonValue) -> Result<MdsTableRecord, SchemaError> {
        Ok(MdsTableRecord {
            uarch: str_field(v, "uarch")?,
            runs: vec_from(v, "runs", MdsRunRecord::from_json)?,
        })
    }
}

/// Which pipeline stages an experiment's signal reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageFlags {
    /// IF channel fired.
    pub fetched: bool,
    /// ID channel fired.
    pub decoded: bool,
    /// EX channel fired.
    pub executed: bool,
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

impl StageFlags {
    fn to_json(self) -> JsonValue {
        let mut o = JsonValue::object();
        o.set("fetched", JsonValue::Bool(self.fetched))
            .set("decoded", JsonValue::Bool(self.decoded))
            .set("executed", JsonValue::Bool(self.executed));
        o
    }

    fn from_json(v: &JsonValue) -> Result<StageFlags, SchemaError> {
        Ok(StageFlags {
            fetched: bool_field(v, "fetched")?,
            decoded: bool_field(v, "decoded")?,
            executed: bool_field(v, "executed")?,
        })
    }
}

/// One O4 (`SuppressBPOnNonBr`) outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct O4Record {
    /// Microarchitecture name.
    pub uarch: String,
    /// Stages reached with the bit clear.
    pub baseline: StageFlags,
    /// Stages reached with the bit set.
    pub suppressed: StageFlags,
}

impl O4Record {
    /// Encode as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::object();
        o.set("uarch", JsonValue::Str(self.uarch.clone()))
            .set("baseline", self.baseline.to_json())
            .set("suppressed", self.suppressed.to_json());
        o
    }

    /// Decode from a JSON object.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] on a shape mismatch.
    pub fn from_json(v: &JsonValue) -> Result<O4Record, SchemaError> {
        Ok(O4Record {
            uarch: str_field(v, "uarch")?,
            baseline: StageFlags::from_json(field(v, "baseline")?)?,
            suppressed: StageFlags::from_json(field(v, "suppressed")?)?,
        })
    }
}

/// The O5 (AutoIBRS) outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct O5Record {
    /// Whether cross-privilege transient fetch was still observed.
    pub transient_fetch_observed: bool,
}

impl O5Record {
    /// Encode as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::object();
        o.set(
            "transient_fetch_observed",
            JsonValue::Bool(self.transient_fetch_observed),
        );
        o
    }

    /// Decode from a JSON object.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] on a shape mismatch.
    pub fn from_json(v: &JsonValue) -> Result<O5Record, SchemaError> {
        Ok(O5Record {
            transient_fetch_observed: bool_field(v, "transient_fetch_observed")?,
        })
    }
}

/// One §8.2 software-mitigation placement check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoftwareRecord {
    /// Mitigation name (`"lfence"`, `"rsb_stuffing"`, `"sls_padding"`).
    pub name: String,
    /// Microarchitecture the check ran on.
    pub uarch: String,
    /// Signal observed without the mitigation.
    pub unprotected: bool,
    /// Signal observed with the mitigation in place.
    pub protected: bool,
}

impl SoftwareRecord {
    /// Encode as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::object();
        o.set("name", JsonValue::Str(self.name.clone()))
            .set("uarch", JsonValue::Str(self.uarch.clone()))
            .set("unprotected", JsonValue::Bool(self.unprotected))
            .set("protected", JsonValue::Bool(self.protected));
        o
    }

    /// Decode from a JSON object.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] on a shape mismatch.
    pub fn from_json(v: &JsonValue) -> Result<SoftwareRecord, SchemaError> {
        Ok(SoftwareRecord {
            name: str_field(v, "name")?,
            uarch: str_field(v, "uarch")?,
            unprotected: bool_field(v, "unprotected")?,
            protected: bool_field(v, "protected")?,
        })
    }
}

/// The §6.3 mitigation-overhead suite.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadRecord {
    /// Per-workload `(name, baseline cycles, suppressed cycles)`.
    pub per_workload: Vec<(String, u64, u64)>,
    /// Geometric-mean overhead, percent.
    pub geomean_overhead_pct: f64,
}

impl From<&OverheadResult> for OverheadRecord {
    fn from(r: &OverheadResult) -> OverheadRecord {
        OverheadRecord {
            per_workload: r
                .per_workload
                .iter()
                .map(|(n, b, s)| (n.to_string(), *b, *s))
                .collect(),
            geomean_overhead_pct: r.geomean_overhead_pct,
        }
    }
}

impl OverheadRecord {
    /// Encode as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::object();
        o.set(
            "per_workload",
            JsonValue::Array(
                self.per_workload
                    .iter()
                    .map(|(name, base, supp)| {
                        let mut w = JsonValue::object();
                        w.set("workload", JsonValue::Str(name.clone()))
                            .set("baseline_cycles", JsonValue::Uint(*base))
                            .set("suppressed_cycles", JsonValue::Uint(*supp));
                        w
                    })
                    .collect(),
            ),
        )
        .set(
            "geomean_overhead_pct",
            JsonValue::Float(self.geomean_overhead_pct),
        );
        o
    }

    /// Decode from a JSON object.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] on a shape mismatch.
    pub fn from_json(v: &JsonValue) -> Result<OverheadRecord, SchemaError> {
        Ok(OverheadRecord {
            per_workload: vec_from(v, "per_workload", |w| {
                Ok((
                    str_field(w, "workload")?,
                    u64_field(w, "baseline_cycles")?,
                    u64_field(w, "suppressed_cycles")?,
                ))
            })?,
            geomean_overhead_pct: f64_field(v, "geomean_overhead_pct")?,
        })
    }
}

/// The §9.1 gadget census.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GadgetRecord {
    /// Conventional Spectre gadgets.
    pub spectre_gadgets: u64,
    /// Phantom-only single-load gadgets.
    pub mds_gadgets: u64,
    /// Total exploitable with Phantom.
    pub total_with_phantom: u64,
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

impl GadgetRecord {
    /// Encode as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::object();
        o.set("spectre_gadgets", JsonValue::Uint(self.spectre_gadgets))
            .set("mds_gadgets", JsonValue::Uint(self.mds_gadgets))
            .set(
                "total_with_phantom",
                JsonValue::Uint(self.total_with_phantom),
            );
        o
    }

    /// Decode from a JSON object.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] on a shape mismatch.
    pub fn from_json(v: &JsonValue) -> Result<GadgetRecord, SchemaError> {
        Ok(GadgetRecord {
            spectre_gadgets: u64_field(v, "spectre_gadgets")?,
            mds_gadgets: u64_field(v, "mds_gadgets")?,
            total_with_phantom: u64_field(v, "total_with_phantom")?,
        })
    }
}

/// One point of the noise sweep: the adaptive fetch channel under a
/// single [`NoiseModel`](phantom_sidechannel::NoiseModel) knob.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseSweepRecord {
    /// The swept knob: `"jitter_cycles"`, `"spurious_evict"` or
    /// `"missed_signal"`.
    pub axis: String,
    /// The knob value.
    pub value: f64,
    /// Channel accuracy at that point (abstentions count as wrong).
    pub accuracy: f64,
    /// Total probes the adaptive decoder spent.
    pub probes: u64,
    /// Bits the decoder abstained on.
    pub abstentions: u64,
    /// Mean decode confidence across the transfer.
    pub mean_confidence: f64,
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
    /// points [`diff`] gates on.
    pub fn is_quiet(&self) -> bool {
        self.value == 0.0
    }

    /// Encode as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::object();
        o.set("axis", JsonValue::Str(self.axis.clone()))
            .set("value", JsonValue::Float(self.value))
            .set("accuracy", JsonValue::Float(self.accuracy))
            .set("probes", JsonValue::Uint(self.probes))
            .set("abstentions", JsonValue::Uint(self.abstentions))
            .set("mean_confidence", JsonValue::Float(self.mean_confidence));
        o
    }

    /// Decode from a JSON object.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] on a shape mismatch.
    pub fn from_json(v: &JsonValue) -> Result<NoiseSweepRecord, SchemaError> {
        Ok(NoiseSweepRecord {
            axis: str_field(v, "axis")?,
            value: f64_field(v, "value")?,
            accuracy: f64_field(v, "accuracy")?,
            probes: u64_field(v, "probes")?,
            abstentions: u64_field(v, "abstentions")?,
            mean_confidence: f64_field(v, "mean_confidence")?,
        })
    }
}

/// Deterministic hot-path counters: the measured decode-cache, TLB
/// and copy-on-write snapshot wins.
///
/// Every counter comes from a fixed reference workload, so they are
/// part of the canonical snapshot and diffable against a baseline —
/// a hit-rate drop is a perf regression the gate can catch without
/// trusting wall clocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfRecord {
    /// Decode-cache hits on the reference workload.
    pub decode_cache_hits: u64,
    /// Decode-cache misses on the reference workload.
    pub decode_cache_misses: u64,
    /// Full decodes the cache eliminated (equals `hits`).
    pub decodes_avoided: u64,
    /// TLB hits on the reference workload (page walks skipped by the
    /// translation fast path).
    pub tlb_hits: u64,
    /// TLB misses on the reference workload (page walks taken).
    pub tlb_misses: u64,
    /// Frames unshared by a write after a checkpoint on the
    /// snapshot/restore reference workload.
    pub cow_faults: u64,
    /// Frames still shared between the live memory and its snapshot at
    /// the end of the snapshot/restore reference workload.
    pub cow_frames_shared: u64,
    /// Frames rewound by `restore` on the snapshot/restore reference
    /// workload (the O(dirty) restore cost).
    pub restore_frames_copied: u64,
    /// Bounded probe retries the trial runner performed while
    /// collecting the snapshot (trials re-run on a fresh fork after a
    /// recoverable failure). Zero in a healthy run: a nonzero value
    /// means some scenario silently leaned on the retry path.
    pub trial_retries: u64,
    /// Boots served from an existing template by the boot-cache
    /// reference workload (an isolated cache, so the counter never
    /// depends on what the process-global one has seen).
    pub boot_cache_hits: u64,
    /// Dirty frames the journaled rewind visited on the
    /// snapshot/restore reference workload.
    pub rewind_journal_frames: u64,
    /// Retired frame buffers the pool recycled into copy-on-write
    /// copies on the snapshot/restore reference workload.
    pub frame_pool_reuses: u64,
    /// Probes re-armed over a standing arena mapping by the probe-arena
    /// reference workload.
    pub probe_arena_rearms: u64,
}

impl PerfRecord {
    /// Decode-cache hit fraction of the reference workload, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.decode_cache_hits + self.decode_cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.decode_cache_hits as f64 / total as f64
    }

    /// TLB hit fraction of the reference workload, in `[0, 1]`.
    pub fn tlb_hit_rate(&self) -> f64 {
        let total = self.tlb_hits + self.tlb_misses;
        if total == 0 {
            return 0.0;
        }
        self.tlb_hits as f64 / total as f64
    }

    /// Encode as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::object();
        o.set("decode_cache_hits", JsonValue::Uint(self.decode_cache_hits))
            .set(
                "decode_cache_misses",
                JsonValue::Uint(self.decode_cache_misses),
            )
            .set("decodes_avoided", JsonValue::Uint(self.decodes_avoided))
            .set("tlb_hits", JsonValue::Uint(self.tlb_hits))
            .set("tlb_misses", JsonValue::Uint(self.tlb_misses))
            .set("cow_faults", JsonValue::Uint(self.cow_faults))
            .set("cow_frames_shared", JsonValue::Uint(self.cow_frames_shared))
            .set(
                "restore_frames_copied",
                JsonValue::Uint(self.restore_frames_copied),
            )
            .set("trial_retries", JsonValue::Uint(self.trial_retries))
            .set("boot_cache_hits", JsonValue::Uint(self.boot_cache_hits))
            .set(
                "rewind_journal_frames",
                JsonValue::Uint(self.rewind_journal_frames),
            )
            .set("frame_pool_reuses", JsonValue::Uint(self.frame_pool_reuses))
            .set(
                "probe_arena_rearms",
                JsonValue::Uint(self.probe_arena_rearms),
            );
        o
    }

    /// Decode from a JSON object. Counters introduced after a baseline
    /// was recorded parse leniently (absent ⇒ 0), and keys of removed
    /// counters (`trace_hits`, `trace_bailouts`, `trace_invalidations`)
    /// are ignored, so old baselines keep loading.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] on a shape mismatch.
    pub fn from_json(v: &JsonValue) -> Result<PerfRecord, SchemaError> {
        let lenient = |key: &str| v.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        Ok(PerfRecord {
            decode_cache_hits: u64_field(v, "decode_cache_hits")?,
            decode_cache_misses: u64_field(v, "decode_cache_misses")?,
            decodes_avoided: u64_field(v, "decodes_avoided")?,
            tlb_hits: lenient("tlb_hits"),
            tlb_misses: lenient("tlb_misses"),
            cow_faults: lenient("cow_faults"),
            cow_frames_shared: lenient("cow_frames_shared"),
            restore_frames_copied: lenient("restore_frames_copied"),
            trial_retries: lenient("trial_retries"),
            boot_cache_hits: lenient("boot_cache_hits"),
            rewind_journal_frames: lenient("rewind_journal_frames"),
            frame_pool_reuses: lenient("frame_pool_reuses"),
            probe_arena_rearms: lenient("probe_arena_rearms"),
        })
    }
}

/// Host-volatile metadata. **Not** part of the canonical snapshot:
/// only emitted on request, and always ignored by [`diff`], because
/// wall-clock and thread count vary run to run.
#[derive(Debug, Clone, PartialEq)]
pub struct HostMeta {
    /// Worker threads the trial runner used.
    pub threads: u64,
    /// Host wall-clock per experiment, `(name, seconds)`.
    pub wall_seconds: Vec<(String, f64)>,
    /// Wall-clock A/B of the decode cache on the reference workload:
    /// `(enabled seconds, disabled seconds)`.
    pub decode_cache_wall: Option<(f64, f64)>,
}

impl HostMeta {
    /// Encode as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::object();
        o.set("threads", JsonValue::Uint(self.threads)).set(
            "wall_seconds",
            JsonValue::Array(
                self.wall_seconds
                    .iter()
                    .map(|(name, secs)| {
                        let mut w = JsonValue::object();
                        w.set("experiment", JsonValue::Str(name.clone()))
                            .set("seconds", JsonValue::Float(*secs));
                        w
                    })
                    .collect(),
            ),
        );
        if let Some((on, off)) = self.decode_cache_wall {
            let mut w = JsonValue::object();
            w.set("enabled_seconds", JsonValue::Float(on))
                .set("disabled_seconds", JsonValue::Float(off));
            o.set("decode_cache_wall", w);
        }
        o
    }

    /// Decode from a JSON object. Keys this version no longer writes
    /// (`snapshot_wall`, the removed deep-copy A/B) are ignored.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] on a shape mismatch.
    pub fn from_json(v: &JsonValue) -> Result<HostMeta, SchemaError> {
        Ok(HostMeta {
            threads: u64_field(v, "threads")?,
            wall_seconds: vec_from(v, "wall_seconds", |w| {
                Ok((str_field(w, "experiment")?, f64_field(w, "seconds")?))
            })?,
            decode_cache_wall: match v.get("decode_cache_wall") {
                Some(w) if !w.is_null() => Some((
                    f64_field(w, "enabled_seconds")?,
                    f64_field(w, "disabled_seconds")?,
                )),
                _ => None,
            },
        })
    }
}

/// The complete machine-readable result of a `repro bench` run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSnapshot {
    /// Canonical run metadata.
    pub meta: RunMeta,
    /// Table 1 cells.
    pub table1: Vec<Table1Record>,
    /// Figure 6 sweeps.
    pub figure6: Vec<Figure6Record>,
    /// Figure 7 recovery.
    pub figure7: Figure7Record,
    /// Table 2 covert-channel rows.
    pub table2: Vec<CovertRecord>,
    /// Table 3 (kernel image KASLR), one record per uarch.
    pub table3: Vec<SlotTableRecord>,
    /// Table 4 (physmap KASLR), one record per uarch.
    pub table4: Vec<SlotTableRecord>,
    /// Table 5 (physical address), one record per (uarch, memory).
    pub table5: Vec<PhysAddrTableRecord>,
    /// §7.4 MDS leak, one record per uarch.
    pub mds: Vec<MdsTableRecord>,
    /// O4 outcomes.
    pub o4: Vec<O4Record>,
    /// O5 outcome.
    pub o5: O5Record,
    /// §8.2 software mitigation checks.
    pub software: Vec<SoftwareRecord>,
    /// §6.3 overhead suite.
    pub overhead: OverheadRecord,
    /// §9.1 gadget census.
    pub gadgets: GadgetRecord,
    /// Deterministic hot-path counters.
    pub perf: PerfRecord,
    /// Noise sweep of the adaptive fetch channel. Optional so
    /// baselines recorded before the sweep existed keep loading.
    pub noise_sweep: Option<Vec<NoiseSweepRecord>>,
    /// PHT-channel (BranchSpectre-style) rows. Optional so baselines
    /// recorded before the channel existed keep loading.
    pub pht_channel: Option<Vec<PhtChannelRecord>>,
    /// Host-volatile metadata (ignored by [`diff`]).
    pub host: Option<HostMeta>,
}

impl BenchSnapshot {
    /// Encode the snapshot as a JSON value.
    pub fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::object();
        o.set("schema", JsonValue::Str(SCHEMA.to_string()))
            .set("meta", self.meta.to_json())
            .set(
                "table1",
                JsonValue::Array(self.table1.iter().map(Table1Record::to_json).collect()),
            )
            .set(
                "figure6",
                JsonValue::Array(self.figure6.iter().map(Figure6Record::to_json).collect()),
            )
            .set("figure7", self.figure7.to_json())
            .set(
                "table2",
                JsonValue::Array(self.table2.iter().map(CovertRecord::to_json).collect()),
            )
            .set(
                "table3",
                JsonValue::Array(self.table3.iter().map(SlotTableRecord::to_json).collect()),
            )
            .set(
                "table4",
                JsonValue::Array(self.table4.iter().map(SlotTableRecord::to_json).collect()),
            )
            .set(
                "table5",
                JsonValue::Array(
                    self.table5
                        .iter()
                        .map(PhysAddrTableRecord::to_json)
                        .collect(),
                ),
            )
            .set(
                "mds",
                JsonValue::Array(self.mds.iter().map(MdsTableRecord::to_json).collect()),
            )
            .set(
                "o4",
                JsonValue::Array(self.o4.iter().map(O4Record::to_json).collect()),
            )
            .set("o5", self.o5.to_json())
            .set(
                "software",
                JsonValue::Array(self.software.iter().map(SoftwareRecord::to_json).collect()),
            )
            .set("overhead", self.overhead.to_json())
            .set("gadgets", self.gadgets.to_json())
            .set("perf", self.perf.to_json());
        if let Some(sweep) = &self.noise_sweep {
            o.set(
                "noise_sweep",
                JsonValue::Array(sweep.iter().map(NoiseSweepRecord::to_json).collect()),
            );
        }
        if let Some(rows) = &self.pht_channel {
            o.set(
                "pht_channel",
                JsonValue::Array(rows.iter().map(PhtChannelRecord::to_json).collect()),
            );
        }
        if let Some(host) = &self.host {
            o.set("host", host.to_json());
        }
        o
    }

    /// Serialize to the canonical pretty-printed JSON document.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty_string()
    }

    /// Decode a snapshot from a JSON value.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] on an unknown schema or shape
    /// mismatch.
    pub fn from_json(v: &JsonValue) -> Result<BenchSnapshot, SchemaError> {
        let schema = str_field(v, "schema")?;
        if schema != SCHEMA {
            return Err(SchemaError(format!(
                "unknown schema {schema:?} (expected {SCHEMA:?})"
            )));
        }
        Ok(BenchSnapshot {
            meta: RunMeta::from_json(field(v, "meta")?)?,
            table1: vec_from(v, "table1", Table1Record::from_json)?,
            figure6: vec_from(v, "figure6", Figure6Record::from_json)?,
            figure7: Figure7Record::from_json(field(v, "figure7")?)?,
            table2: vec_from(v, "table2", CovertRecord::from_json)?,
            table3: vec_from(v, "table3", SlotTableRecord::from_json)?,
            table4: vec_from(v, "table4", SlotTableRecord::from_json)?,
            table5: vec_from(v, "table5", PhysAddrTableRecord::from_json)?,
            mds: vec_from(v, "mds", MdsTableRecord::from_json)?,
            o4: vec_from(v, "o4", O4Record::from_json)?,
            o5: O5Record::from_json(field(v, "o5")?)?,
            software: vec_from(v, "software", SoftwareRecord::from_json)?,
            overhead: OverheadRecord::from_json(field(v, "overhead")?)?,
            gadgets: GadgetRecord::from_json(field(v, "gadgets")?)?,
            perf: PerfRecord::from_json(field(v, "perf")?)?,
            noise_sweep: match v.get("noise_sweep") {
                Some(s) if !s.is_null() => Some(vec_from(v, "noise_sweep", |p| {
                    NoiseSweepRecord::from_json(p)
                })?),
                _ => None,
            },
            pht_channel: match v.get("pht_channel") {
                Some(s) if !s.is_null() => Some(vec_from(v, "pht_channel", |p| {
                    PhtChannelRecord::from_json(p)
                })?),
                _ => None,
            },
            host: match v.get("host") {
                Some(h) if !h.is_null() => Some(HostMeta::from_json(h)?),
                _ => None,
            },
        })
    }

    /// Parse a snapshot from its JSON text.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] on malformed JSON or shape mismatch.
    pub fn from_json_str(text: &str) -> Result<BenchSnapshot, SchemaError> {
        BenchSnapshot::from_json(&parse(text)?)
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

    fn accuracy_regressed(&self, base: f64, cur: f64) -> bool {
        (base - cur) * 100.0 > self.accuracy_pp
    }

    fn cycles_regressed(&self, base: u64, cur: u64) -> bool {
        cur as f64 > base as f64 * (1.0 + self.cycles_pct / 100.0)
    }
}

fn check_accuracy(out: &mut Vec<Regression>, tol: &Tolerance, metric: String, base: f64, cur: f64) {
    if tol.accuracy_regressed(base, cur) {
        out.push(Regression {
            metric,
            baseline: base,
            current: cur,
        });
    }
}

fn check_cycles(out: &mut Vec<Regression>, tol: &Tolerance, metric: String, base: u64, cur: u64) {
    if tol.cycles_regressed(base, cur) {
        out.push(Regression {
            metric,
            baseline: base as f64,
            current: cur as f64,
        });
    }
}

/// Compare `current` against `baseline` and return every regression
/// beyond `tol`.
///
/// Checked: Table 2 per-row accuracy, Table 3/4/5 per-uarch accuracy
/// and total simulated cycles, MDS per-uarch mean accuracy and cycles,
/// the decode-cache hit rate, and the quiet-end (knob = 0) noise-sweep
/// points' accuracy — the noisy points degrade by design, so only the
/// quiet baseline is gated. Improvements never flag; the `host`
/// section is ignored entirely. A baseline record with no counterpart
/// in `current` (missing uarch, fewer experiments) flags as a
/// coverage regression.
pub fn diff(baseline: &BenchSnapshot, current: &BenchSnapshot, tol: &Tolerance) -> Vec<Regression> {
    let mut out = Vec::new();

    for base_row in &baseline.table2 {
        let key = (&base_row.uarch, &base_row.kind);
        match current.table2.iter().find(|r| (&r.uarch, &r.kind) == key) {
            Some(cur_row) => check_accuracy(
                &mut out,
                tol,
                format!("table2[{} | {}].accuracy", base_row.uarch, base_row.kind),
                base_row.accuracy,
                cur_row.accuracy,
            ),
            None => out.push(Regression {
                metric: format!("table2[{} | {}] missing", base_row.uarch, base_row.kind),
                baseline: 1.0,
                current: 0.0,
            }),
        }
    }

    for (name, base_tables, cur_tables) in [
        ("table3", &baseline.table3, &current.table3),
        ("table4", &baseline.table4, &current.table4),
    ] {
        for base_t in base_tables.iter() {
            match cur_tables.iter().find(|t| t.uarch == base_t.uarch) {
                Some(cur_t) => {
                    check_accuracy(
                        &mut out,
                        tol,
                        format!("{name}[{}].accuracy", base_t.uarch),
                        base_t.accuracy(),
                        cur_t.accuracy(),
                    );
                    check_cycles(
                        &mut out,
                        tol,
                        format!("{name}[{}].cycles", base_t.uarch),
                        base_t.total_cycles(),
                        cur_t.total_cycles(),
                    );
                }
                None => out.push(Regression {
                    metric: format!("{name}[{}] missing", base_t.uarch),
                    baseline: 1.0,
                    current: 0.0,
                }),
            }
        }
    }

    for base_t in &baseline.table5 {
        match current
            .table5
            .iter()
            .find(|t| t.uarch == base_t.uarch && t.memory_gib == base_t.memory_gib)
        {
            Some(cur_t) => {
                check_accuracy(
                    &mut out,
                    tol,
                    format!(
                        "table5[{} | {} GiB].accuracy",
                        base_t.uarch, base_t.memory_gib
                    ),
                    base_t.accuracy(),
                    cur_t.accuracy(),
                );
                check_cycles(
                    &mut out,
                    tol,
                    format!(
                        "table5[{} | {} GiB].cycles",
                        base_t.uarch, base_t.memory_gib
                    ),
                    base_t.total_cycles(),
                    cur_t.total_cycles(),
                );
            }
            None => out.push(Regression {
                metric: format!(
                    "table5[{} | {} GiB] missing",
                    base_t.uarch, base_t.memory_gib
                ),
                baseline: 1.0,
                current: 0.0,
            }),
        }
    }

    for base_t in &baseline.mds {
        match current.mds.iter().find(|t| t.uarch == base_t.uarch) {
            Some(cur_t) => {
                check_accuracy(
                    &mut out,
                    tol,
                    format!("mds[{}].accuracy", base_t.uarch),
                    base_t.mean_accuracy(),
                    cur_t.mean_accuracy(),
                );
                check_cycles(
                    &mut out,
                    tol,
                    format!("mds[{}].cycles", base_t.uarch),
                    base_t.total_cycles(),
                    cur_t.total_cycles(),
                );
            }
            None => out.push(Regression {
                metric: format!("mds[{}] missing", base_t.uarch),
                baseline: 1.0,
                current: 0.0,
            }),
        }
    }

    check_accuracy(
        &mut out,
        tol,
        "perf.decode_cache.hit_rate".to_string(),
        baseline.perf.hit_rate(),
        current.perf.hit_rate(),
    );

    // Only gate the TLB hit rate when the baseline has one — older
    // baselines predate the counter and parse it as 0/0.
    if baseline.perf.tlb_hits + baseline.perf.tlb_misses > 0 {
        check_accuracy(
            &mut out,
            tol,
            "perf.tlb.hit_rate".to_string(),
            baseline.perf.tlb_hit_rate(),
            current.perf.tlb_hit_rate(),
        );
    }

    // Gate the noise sweep's quiet-end points when the baseline has the
    // section. The noisy points degrade by design; the quiet baseline
    // of each axis must not.
    if let Some(base_sweep) = &baseline.noise_sweep {
        let cur_sweep = current.noise_sweep.as_deref().unwrap_or(&[]);
        for base_p in base_sweep.iter().filter(|p| p.is_quiet()) {
            match cur_sweep
                .iter()
                .find(|p| p.axis == base_p.axis && p.value == base_p.value)
            {
                Some(cur_p) => check_accuracy(
                    &mut out,
                    tol,
                    format!("noise_sweep[{} = 0].accuracy", base_p.axis),
                    base_p.accuracy,
                    cur_p.accuracy,
                ),
                None => out.push(Regression {
                    metric: format!("noise_sweep[{} = 0] missing", base_p.axis),
                    baseline: 1.0,
                    current: 0.0,
                }),
            }
        }
    }

    // Gate PHT-channel rows the same way as Table 2, but only when the
    // baseline already has the section (older baselines predate it).
    if let Some(base_rows) = &baseline.pht_channel {
        let cur_rows = current.pht_channel.as_deref().unwrap_or(&[]);
        for base_row in base_rows {
            match cur_rows.iter().find(|r| r.uarch == base_row.uarch) {
                Some(cur_row) => check_accuracy(
                    &mut out,
                    tol,
                    format!("pht_channel[{}].accuracy", base_row.uarch),
                    base_row.accuracy,
                    cur_row.accuracy,
                ),
                None => out.push(Regression {
                    metric: format!("pht_channel[{}] missing", base_row.uarch),
                    baseline: 1.0,
                    current: 0.0,
                }),
            }
        }
    }

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
                stages: vec![("Zen".into(), "EX".into()), ("Zen 4".into(), "ID".into())],
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
                per_workload: vec![("arith".into(), 1000, 1010)],
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
        rt!(snap.o5.clone(), O5Record);
        rt!(snap.software[0].clone(), SoftwareRecord);
        rt!(snap.overhead.clone(), OverheadRecord);
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
            wall_seconds: vec![("table1".into(), 1.25)],
            decode_cache_wall: Some((0.8, 1.3)),
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
        let back =
            BenchSnapshot::from_json_str(&legacy.to_pretty_string()).expect("legacy host parses");
        assert_eq!(back.host, Some(host));
    }

    #[test]
    fn hex_round_trips() {
        for bytes in [&b""[..], &b"\x00\xff\x10"[..], &b"secret"[..]] {
            assert_eq!(hex_decode(&hex_encode(bytes)).unwrap(), bytes);
        }
        assert!(hex_decode("abc").is_err());
        assert!(hex_decode("zz").is_err());
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
}
