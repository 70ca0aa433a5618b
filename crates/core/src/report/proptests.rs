//! No-panic and round-trip properties of the JSON reader behind
//! baselines and `serve --resume`.
//!
//! Every reader entry point — [`parse`] and
//! [`BenchSnapshot::from_json_str`] — must return `Ok` or `Err` on any
//! input, never panic or overflow the stack. The inputs are arbitrary
//! bytes and structure-aware mutations of the committed snapshot:
//! truncation, dropped, duplicated and swapped tokens, boundary numbers
//! and deep nesting. Generated records must also survive
//! `from_json(to_json(x)) == x` with byte-stable re-encoding.

use std::sync::OnceLock;

use proptest::collection::vec;
use proptest::prelude::*;

use super::json::{
    document, BenchSnapshot, CovertRecord, DecodeCacheWall, ExperimentWall, HostMeta, Json,
    PerfRecord, PhysAddrRunRecord, SlotRunRecord, StageCell,
};
use super::value::{parse, JsonValue};

/// The committed baseline.
fn committed() -> &'static BenchSnapshot {
    static SNAP: OnceLock<BenchSnapshot> = OnceLock::new();
    SNAP.get_or_init(|| {
        BenchSnapshot::from_json_str(include_str!("../../../../BENCH_phantom.json"))
            .expect("committed baseline parses")
    })
}

/// The committed baseline, compact and tokenized: the mutation seed.
fn seed_tokens() -> Vec<String> {
    static SEED: OnceLock<Vec<String>> = OnceLock::new();
    SEED.get_or_init(|| tokens(&document(committed().to_json()).to_compact_string()))
        .clone()
}

/// Split compact JSON into structural characters, whole strings and
/// runs of literal/number characters.
fn tokens(text: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        let mut token = c.to_string();
        if c == '"' {
            while let Some(d) = chars.next() {
                token.push(d);
                match d {
                    '\\' => token.extend(chars.next()),
                    '"' => break,
                    _ => {}
                }
            }
        } else if !"{}[]:,".contains(c) {
            while let Some(&d) = chars.peek() {
                if "{}[]:,\"".contains(d) {
                    break;
                }
                token.push(d);
                chars.next();
            }
        }
        out.push(token);
    }
    out
}

/// Numbers at the edges of every numeric type the reader knows.
const BOUNDARY_NUMBERS: &[&str] = &[
    "18446744073709551615",
    "18446744073709551616",
    "-9223372036854775808",
    "-9223372036854775809",
    "-0",
    "0.0",
    "1e400",
    "-1e400",
    "1e-400",
    "-",
    "1.",
    "00",
];

/// Apply one mutation, chosen by `op`, at token `at` (scaled into range).
fn mutate(tokens: &mut Vec<String>, op: u8, at: usize, arg: usize) {
    if tokens.is_empty() {
        return;
    }
    let i = at % tokens.len();
    match op % 6 {
        0 => {
            let keep: String = tokens[i].chars().take(arg % 4).collect();
            tokens.truncate(i);
            tokens.push(keep);
        }
        1 => {
            tokens.remove(i);
        }
        2 => {
            let dup = tokens[i].clone();
            tokens.insert(i, dup);
        }
        3 => tokens[i] = BOUNDARY_NUMBERS[arg % BOUNDARY_NUMBERS.len()].to_string(),
        4 => {
            let open = if arg.is_multiple_of(2) {
                "["
            } else {
                "{\"k\":"
            };
            tokens.insert(i, open.repeat(arg % 400));
        }
        _ => {
            let j = arg % tokens.len();
            tokens.swap(i, j);
        }
    }
}

/// Run both reader entry points; a panic fails the property.
fn read_both(text: &str) {
    let _ = parse(text);
    let _ = BenchSnapshot::from_json_str(text);
}

/// A finite float (the writer prints non-finite values as `null`).
/// `-0.0` is folded to `0.0`: it prints as `-0`, which reads back as
/// the integer 0.
fn arb_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|bits| {
        let f = f64::from_bits(bits);
        if f.is_finite() && f != 0.0 {
            f
        } else {
            0.0
        }
    })
}

/// Strings over an alphabet that exercises every escape the writer
/// emits and multi-byte characters.
fn arb_string() -> impl Strategy<Value = String> {
    const ALPHABET: &[&str] = &[
        "a", "Z", " ", "\"", "\\", "\n", "\t", "\u{1}", "§", "µ", "/",
    ];
    vec(any::<usize>(), 0..10)
        .prop_map(|picks| picks.iter().map(|p| ALPHABET[p % ALPHABET.len()]).collect())
}

fn arb_slot_run() -> impl Strategy<Value = SlotRunRecord> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<bool>(),
        any::<i64>(),
        arb_f64(),
        (any::<u64>(), arb_f64()),
    )
        .prop_map(
            |(guessed_slot, actual_slot, correct, best_score, confidence, (cycles, seconds))| {
                SlotRunRecord {
                    guessed_slot,
                    actual_slot,
                    correct,
                    best_score,
                    confidence,
                    cycles,
                    seconds,
                }
            },
        )
}

fn arb_phys_run() -> impl Strategy<Value = PhysAddrRunRecord> {
    (
        (any::<bool>(), any::<u64>()),
        any::<u64>(),
        any::<bool>(),
        any::<u64>(),
        arb_f64(),
        (any::<u64>(), arb_f64()),
    )
        .prop_map(
            |((found, pa), actual_pa, correct, guesses_tested, confidence, (cycles, seconds))| {
                PhysAddrRunRecord {
                    guessed_pa: found.then_some(pa),
                    actual_pa,
                    correct,
                    guesses_tested,
                    confidence,
                    cycles,
                    seconds,
                }
            },
        )
}

fn arb_covert() -> impl Strategy<Value = CovertRecord> {
    (
        (arb_string(), arb_string(), arb_string()),
        any::<u64>(),
        arb_f64(),
        (any::<u64>(), any::<u64>()),
        arb_f64(),
        (arb_f64(), arb_f64()),
    )
        .prop_map(
            |(
                (uarch, model, kind),
                bits,
                accuracy,
                (probes, abstentions),
                mean_confidence,
                (seconds, bits_per_sec),
            )| {
                CovertRecord {
                    uarch,
                    model,
                    kind,
                    bits,
                    accuracy,
                    probes,
                    abstentions,
                    mean_confidence,
                    seconds,
                    bits_per_sec,
                }
            },
        )
}

fn arb_perf() -> impl Strategy<Value = PerfRecord> {
    vec(any::<u64>(), 13..14).prop_map(|c| PerfRecord {
        decode_cache_hits: c[0],
        decode_cache_misses: c[1],
        decodes_avoided: c[2],
        tlb_hits: c[3],
        tlb_misses: c[4],
        cow_faults: c[5],
        cow_frames_shared: c[6],
        restore_frames_copied: c[7],
        trial_retries: c[8],
        boot_cache_hits: c[9],
        rewind_journal_frames: c[10],
        frame_pool_reuses: c[11],
        probe_arena_rearms: c[12],
    })
}

fn arb_host() -> impl Strategy<Value = Option<HostMeta>> {
    (
        any::<u8>(),
        any::<u64>(),
        vec((arb_string(), arb_f64()), 0..4),
        (arb_f64(), arb_f64()),
    )
        .prop_map(|(shape, threads, walls, (on, off))| {
            (shape % 3 != 0).then(|| HostMeta {
                threads,
                wall_seconds: walls
                    .into_iter()
                    .map(|(experiment, seconds)| ExperimentWall {
                        experiment,
                        seconds,
                    })
                    .collect(),
                decode_cache_wall: (shape % 3 == 2).then_some(DecodeCacheWall {
                    enabled_seconds: on,
                    disabled_seconds: off,
                }),
            })
        })
}

/// `from_json(to_json(x)) == x`, and re-encoding the decoded value
/// reproduces the bytes, in both the pretty and the compact form.
fn round_trips<T: Json + PartialEq + std::fmt::Debug>(x: &T) -> Result<(), TestCaseError> {
    let v = x.to_json();
    for text in [v.to_pretty_string(), v.to_compact_string()] {
        let parsed = parse(&text).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let back = T::from_json(&parsed).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&back, x);
        prop_assert_eq!(back.to_json().to_pretty_string(), v.to_pretty_string());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Arbitrary bytes (lossily decoded) never panic the reader.
    #[test]
    fn reader_never_panics_on_arbitrary_bytes(bytes in vec(any::<u8>(), 0..256)) {
        read_both(&String::from_utf8_lossy(&bytes));
    }

    /// JSON-alphabet soup — far likelier than raw bytes to open deep
    /// structures and reach the number and escape paths.
    #[test]
    fn reader_never_panics_on_json_alphabet_soup(picks in vec(any::<u8>(), 0..512)) {
        const ALPHABET: &[u8] = b"{}[]:,\"\\u0123456789-+.eEtrufalsn x";
        let text: String = picks.iter().map(|p| ALPHABET[*p as usize % ALPHABET.len()] as char).collect();
        read_both(&text);
    }

    /// Mutated snapshots — truncated, with tokens dropped, duplicated
    /// or swapped, numbers pushed to their boundaries, or deep nesting
    /// spliced in — return `Ok` or `Err`, never panic.
    #[test]
    fn snapshot_reader_never_panics_on_mutated_snapshots(
        ops in vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..4),
    ) {
        let mut toks = seed_tokens();
        for (op, at, arg) in ops {
            mutate(&mut toks, op, at, arg);
        }
        read_both(&toks.concat());
    }

    /// Generated records, and a snapshot carrying them, round-trip
    /// exactly with stable bytes.
    #[test]
    fn generated_records_round_trip_with_stable_bytes(
        slot in arb_slot_run(),
        phys in arb_phys_run(),
        covert in arb_covert(),
        perf in arb_perf(),
        host in arb_host(),
        stage in (arb_string(), arb_string()),
    ) {
        round_trips(&slot)?;
        round_trips(&phys)?;
        round_trips(&covert)?;
        round_trips(&perf)?;
        round_trips(&host)?;
        round_trips(&StageCell { uarch: stage.0, stage: stage.1 })?;

        let mut snap = committed().clone();
        snap.table2[0] = covert;
        snap.table3[0].runs[0] = slot;
        snap.table5[0].runs[0] = phys;
        snap.perf = perf;
        snap.host = host;
        let text = snap.to_json_string();
        let back = BenchSnapshot::from_json_str(&text).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&back, &snap);
        prop_assert_eq!(back.to_json_string(), text);
    }
}

#[test]
fn seed_tokens_rebuild_the_snapshot() {
    // The tokenizer is lossless, so unmutated tokens are the snapshot.
    let toks = seed_tokens();
    assert!(toks.len() > 1000, "{} tokens", toks.len());
    let text = toks.concat();
    let snap = BenchSnapshot::from_json_str(&text).expect("rebuilt snapshot parses");
    assert_eq!(
        parse(&snap.to_json_string()).unwrap().to_compact_string(),
        text
    );
}

#[test]
fn deep_nesting_inside_a_snapshot_is_an_error() {
    let text = format!("{}{}", "[".repeat(100_000), seed_tokens().concat());
    assert!(parse(&text).is_err());
    assert!(BenchSnapshot::from_json_str(&text).is_err());
}

#[test]
fn rejected_records_never_reach_a_panic() {
    // Wrong-typed members are schema errors naming the member.
    let mut v = JsonValue::object();
    v.set("decode_cache_hits", JsonValue::Str("many".into()));
    let err = PerfRecord::from_json(&v).unwrap_err();
    assert!(err.0.contains("decode_cache_hits"), "{err}");
}
