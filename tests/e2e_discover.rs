//! End-to-end checks for the discover fuzzer: the committed regression
//! corpus replays green, the JSONL report is byte-identical at any
//! worker count and to a committed golden run, and the minimizer's
//! invariants hold under proptest.

use std::path::PathBuf;

use phantom::runner::{trial_seed, TrialRunner};
use phantom_bench::discover::{
    beyond_table1, case_to_text, discover_jsonl, generate_case, minimize_case, parse_case,
    replay_case, run_case, run_discover_on, CaseOutcome, DiscoverConfig,
};
use proptest::prelude::*;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "case"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "committed corpus must not be empty");
    files
}

#[test]
fn committed_corpus_replays_green() {
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path).expect("corpus file reads");
        let entry =
            parse_case(&text).unwrap_or_else(|e| panic!("{}: parse failed: {e}", path.display()));
        replay_case(&entry).unwrap_or_else(|e| panic!("{}: replay failed: {e}", path.display()));
    }
}

#[test]
fn corpus_includes_a_pair_beyond_the_table1_grid() {
    // The fuzzer's reason to exist: at least one committed leak is not
    // reachable from the hand-written Table 1 sweep — an out-of-place
    // (aliased) training site or a mutated spec.
    let mut beyond = 0;
    let mut aliased = 0;
    let mut mutated = 0;
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path).expect("corpus file reads");
        let entry = parse_case(&text).expect("corpus parses");
        if beyond_table1(&entry.case) {
            beyond += 1;
        }
        if entry.case.delta != 0 {
            aliased += 1;
        }
        if entry.case.mutated {
            mutated += 1;
        }
    }
    assert!(beyond >= 1, "no corpus entry goes beyond the Table 1 grid");
    assert!(
        aliased >= 1,
        "no corpus entry uses an aliased training site"
    );
    assert!(mutated >= 1, "no corpus entry carries a mutated spec");
}

#[test]
fn corpus_entries_are_minimizer_fixpoints() {
    // Committed cases are already minimized; re-minimizing must be the
    // identity (the minimizer is deterministic and idempotent).
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path).expect("corpus file reads");
        let entry = parse_case(&text).expect("corpus parses");
        let again = minimize_case(&entry.case);
        assert_eq!(
            again,
            entry.case,
            "{}: minimizer moved an already-minimal case",
            path.display()
        );
    }
}

#[test]
fn discover_jsonl_identical_at_one_and_two_workers() {
    let cfg = DiscoverConfig { budget: 8, seed: 5 };
    let one = run_discover_on(&TrialRunner::with_threads(1), cfg).expect("runs");
    let two = run_discover_on(&TrialRunner::with_threads(2), cfg).expect("runs");
    let jsonl = discover_jsonl(&one);
    assert_eq!(jsonl, discover_jsonl(&two));
    // The report carries the full budget's disposition accounting.
    assert_eq!(
        one.findings.len() + one.quiet + one.rejected_total() + one.faulted,
        cfg.budget
    );
    assert!(jsonl
        .lines()
        .last()
        .expect("summary line")
        .contains("discover-summary"));
}

#[test]
fn discover_jsonl_matches_the_committed_golden_bytes() {
    // Every verdict of a 256-case run, pinned byte for byte: a change to
    // the generator, the case runner, the minimizer or the alias oracle
    // that moves any finding fails here.
    let golden =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/discover_256_seed5.jsonl");
    let expected = std::fs::read_to_string(&golden).expect("golden file reads");
    let cfg = DiscoverConfig {
        budget: 256,
        seed: 5,
    };
    let report = run_discover_on(&TrialRunner::with_threads(1), cfg).expect("runs");
    let actual = discover_jsonl(&report);
    if actual != expected {
        let first = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or(actual.lines().count().min(expected.lines().count()));
        panic!(
            "discover 256 --seed 5 drifted from {} at line {}:\n  got      {:?}\n  expected {:?}",
            golden.display(),
            first + 1,
            actual.lines().nth(first),
            expected.lines().nth(first)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Minimization is a pure function of the case and preserves the
    /// leak property: for any trial seed whose case leaks, the
    /// minimized case still leaks, two minimizations agree, and the
    /// minimizer is idempotent.
    #[test]
    fn minimizer_preserves_the_leak_and_is_deterministic(index in 0usize..4096) {
        let case = generate_case(trial_seed(9, index));
        if matches!(run_case(&case), CaseOutcome::Leak(_)) {
            let min = minimize_case(&case);
            prop_assert!(
                matches!(run_case(&min), CaseOutcome::Leak(_)),
                "minimized case stopped leaking: {min:?}"
            );
            prop_assert_eq!(&min, &minimize_case(&case));
            prop_assert_eq!(&min, &minimize_case(&min));
            prop_assert!(min.ops.len() <= case.ops.len());
        }
    }

    /// Case generation is a pure function of the seed.
    #[test]
    fn case_generation_is_pure(seed in any::<u64>()) {
        prop_assert_eq!(generate_case(seed), generate_case(seed));
    }
}

/// Tokens a corpus edit swaps in: number boundaries (both radixes, at
/// and past `u64::MAX`, around the 48-bit VA limit and page edges)
/// and malformed numbers.
const BOUNDARY_TOKENS: &[&str] = &[
    "0",
    "0x0",
    "1",
    "0xfff",
    "0x1000",
    "0x7fffffffffff",
    "0x800000000000",
    "0xffffffffffff",
    "0xfffffffffffff000",
    "0xffffffffffffffff",
    "18446744073709551615",
    "18446744073709551616",
    "0x10000000000000000",
    "-1",
    "0x",
    "1e9",
];

/// Lines an edit may insert: every op with boundary arguments, field
/// lines and block delimiters.
const INSERTED_LINES: &[&str] = &[
    "nop",
    "nopn 15",
    "nopn 2",
    "ret",
    "load",
    "jmp_ind",
    "label 0",
    "label 65535",
    "jmp 0",
    "jcc 65535",
    "call 0",
    "org 0xfff",
    "org 0x0",
    "org 0xffffffffffffffff",
    "prog {",
    "}",
    "delta 0xfffffffffffff000",
    "seed 0xffffffffffffffff",
    "expect EX",
    "train ret",
    "base zen2",
];

/// The corpus files plus generated (unminimized, so op-rich) cases:
/// the inputs the edits start from.
static CORPUS_TEXTS: std::sync::LazyLock<Vec<String>> = std::sync::LazyLock::new(|| {
    let mut texts: Vec<String> = corpus_files()
        .iter()
        .map(|p| std::fs::read_to_string(p).expect("corpus file reads"))
        .collect();
    texts
        .extend((0..8).map(|k| case_to_text(&generate_case(trial_seed(3, k)), phantom::Stage::If)));
    texts
});

/// One structure-aware edit of a corpus file. Line and token indices
/// wrap modulo the current count.
#[derive(Debug, Clone)]
enum CaseEdit {
    DropLine(usize),
    DuplicateLine(usize),
    /// Replace token `.1` of line `.0` with `BOUNDARY_TOKENS[.2]`.
    SwapToken(usize, usize, usize),
    /// Give the `seed` (`false`) or `delta` (`true`) field
    /// `BOUNDARY_TOKENS[.1]`.
    SetNumber(bool, usize),
    /// Insert `INSERTED_LINES[.1]` before line `.0`.
    InsertLine(usize, usize),
    /// Cut the text at the char boundary at or below byte `.0`.
    Truncate(usize),
}

fn arb_case_edit() -> impl Strategy<Value = CaseEdit> {
    prop_oneof![
        any::<usize>().prop_map(CaseEdit::DropLine),
        any::<usize>().prop_map(CaseEdit::DuplicateLine),
        (any::<usize>(), any::<usize>(), 0..BOUNDARY_TOKENS.len())
            .prop_map(|(l, t, b)| CaseEdit::SwapToken(l, t, b)),
        (any::<bool>(), 0..BOUNDARY_TOKENS.len()).prop_map(|(d, b)| CaseEdit::SetNumber(d, b)),
        (any::<usize>(), 0..INSERTED_LINES.len()).prop_map(|(l, i)| CaseEdit::InsertLine(l, i)),
        any::<usize>().prop_map(CaseEdit::Truncate),
    ]
}

fn apply_case_edit(text: &str, edit: &CaseEdit) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let n = lines.len().max(1);
    match *edit {
        CaseEdit::DropLine(i) if !lines.is_empty() => {
            lines.remove(i % n);
        }
        CaseEdit::DuplicateLine(i) if !lines.is_empty() => {
            let line = lines[i % n].clone();
            lines.insert(i % n, line);
        }
        CaseEdit::SwapToken(i, t, b) if !lines.is_empty() => {
            let mut tokens: Vec<&str> = lines[i % n].split_whitespace().collect();
            if !tokens.is_empty() {
                let k = t % tokens.len();
                tokens[k] = BOUNDARY_TOKENS[b];
                lines[i % n] = tokens.join(" ");
            }
        }
        CaseEdit::SetNumber(delta, b) => {
            let field = if delta { "delta" } else { "seed" };
            for line in &mut lines {
                if line.split_whitespace().next() == Some(field) {
                    *line = format!("{field} {}", BOUNDARY_TOKENS[b]);
                }
            }
        }
        CaseEdit::InsertLine(i, l) => lines.insert(i % (lines.len() + 1), INSERTED_LINES[l].into()),
        CaseEdit::Truncate(at) => {
            let mut cut = at % (text.len() + 1);
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            return text[..cut].to_owned();
        }
        _ => {}
    }
    lines.join("\n") + "\n"
}

/// Corpus-file text for the no-panic property: arbitrary bytes
/// (lossily decoded), or a corpus file under one edit (which often
/// still parses, so the case runs) or up to four.
fn arb_case_text() -> impl Strategy<Value = String> {
    let edited = |edits| {
        (
            0..CORPUS_TEXTS.len(),
            proptest::collection::vec(arb_case_edit(), edits),
        )
            .prop_map(|(which, edits)| {
                edits
                    .iter()
                    .fold(CORPUS_TEXTS[which].clone(), |text, edit| {
                        apply_case_edit(&text, edit)
                    })
            })
    };
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..300)
            .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned()),
        edited(1..2),
        edited(1..5),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Corpus-file text never panics: `parse_case` returns `Ok` or a
    /// structured `Err`, and every case that parses runs through
    /// `run_case` (an `Ok` or a rejection slug, never a panic; in the
    /// debug test profile overflow checks are on).
    #[test]
    fn corpus_case_text_never_panics(text in arb_case_text()) {
        let outcome = std::panic::catch_unwind(|| {
            if let Ok(entry) = parse_case(&text) {
                let _ = run_case(&entry.case);
            }
        });
        prop_assert!(outcome.is_ok(), "panicked on corpus text:\n{}", text);
    }
}
