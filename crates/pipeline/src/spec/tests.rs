//! Tests for the spec layer: builtin validity, canonical round-trips,
//! parse/validation failure modes, and registry semantics.

use proptest::prelude::*;

use phantom_cache::{CacheGeometry, Replacement};
use phantom_mem::VirtAddr;

use super::*;
use crate::profile::{UarchProfile, Vendor};

// ----- builtins -------------------------------------------------------

#[test]
fn builtins_are_valid_and_ordered() {
    let builtins = UarchSpec::builtins();
    let keys: Vec<&str> = builtins.iter().map(|s| s.key.as_str()).collect();
    assert_eq!(
        keys,
        ["zen1", "zen2", "zen3", "zen4", "intel9", "intel11", "intel12", "intel13"]
    );
    for spec in &builtins {
        spec.validate()
            .unwrap_or_else(|e| panic!("builtin {} invalid: {e}", spec.key));
    }
}

#[test]
fn builtins_compile_to_the_legacy_profiles() {
    let pairs: [(UarchSpec, UarchProfile); 8] = [
        (UarchSpec::zen1(), UarchProfile::zen1()),
        (UarchSpec::zen2(), UarchProfile::zen2()),
        (UarchSpec::zen3(), UarchProfile::zen3()),
        (UarchSpec::zen4(), UarchProfile::zen4()),
        (UarchSpec::intel9(), UarchProfile::intel9()),
        (UarchSpec::intel11(), UarchProfile::intel11()),
        (UarchSpec::intel12(), UarchProfile::intel12()),
        (UarchSpec::intel13(), UarchProfile::intel13()),
    ];
    for (spec, profile) in pairs {
        assert_eq!(spec.profile(), profile, "spec {} drifted", spec.key);
    }
}

#[test]
fn zen2_parameters_are_pinned() {
    // The exact Table 1 numbers the benchmarks were calibrated against;
    // a drift here breaks BENCH_phantom.json byte-identity.
    let z = UarchSpec::zen2();
    assert_eq!(z.name, "Zen 2");
    assert_eq!(z.model, "AMD EPYC 7252");
    assert_eq!(z.vendor, Vendor::Amd);
    assert_eq!(z.freq_ghz, 3.1);
    assert_eq!(z.btb.ways, 2);
    assert!(!z.btb.privilege_tagged);
    assert_eq!(z.btb.folds.len(), 12);
    assert_eq!(z.cache.l1i, CacheGeometry::l1());
    assert_eq!(z.cache.uop, CacheGeometry::uop_cache());
    assert_eq!(
        (
            z.cache.l1_latency,
            z.cache.l2_latency,
            z.cache.memory_latency
        ),
        (4, 14, 200)
    );
    assert_eq!(
        (
            z.fetch_latency,
            z.decode_latency,
            z.frontend_resteer_latency
        ),
        (1, 4, 11)
    );
    assert_eq!(z.backend_resteer_latency, 60);
    assert_eq!((z.phantom_exec_uops, z.spectre_exec_uops), (6, 44));
    assert!(z.suppress_bp_on_non_br && !z.auto_ibrs && !z.indirect_victim_blind);
}

#[test]
fn builtins_round_trip_canonically() {
    let builtins = UarchSpec::builtins();
    let text = specs_to_text(&builtins);
    let parsed = parse_specs(&text).expect("builtin text parses");
    assert_eq!(parsed, builtins);
    // And re-printing is a fixed point.
    assert_eq!(specs_to_text(&parsed), text);
}

#[test]
fn single_spec_to_text_round_trips() {
    let zen4 = UarchSpec::zen4();
    let parsed = parse_specs(&zen4.to_text()).expect("zen4 text parses");
    assert_eq!(parsed, vec![zen4]);
}

// ----- parser ---------------------------------------------------------

fn parse_err(text: &str) -> SpecError {
    parse_specs(text).expect_err("parse should fail")
}

#[test]
fn header_is_required() {
    match parse_err("uarch x {\n}\n") {
        SpecError::Parse { line: 1, msg } => assert!(msg.contains("expected header"), "{msg}"),
        other => panic!("wrong error: {other}"),
    }
    match parse_err("") {
        SpecError::Parse { line: 1, msg } => assert!(msg.contains("empty input"), "{msg}"),
        other => panic!("wrong error: {other}"),
    }
    // Comment-only input is still empty.
    assert!(matches!(
        parse_err("# nothing here\n"),
        SpecError::Parse { line: 1, .. }
    ));
}

#[test]
fn header_alone_parses_to_no_specs() {
    assert_eq!(parse_specs("phantom-uarch-spec v1\n"), Ok(vec![]));
}

#[test]
fn comments_and_blank_lines_are_ignored() {
    let text = format!(
        "# leading comment\n\n{}\n# trailing comment\n",
        UarchSpec::zen3().to_text()
    );
    assert_eq!(parse_specs(&text), Ok(vec![UarchSpec::zen3()]));
}

#[test]
fn inline_comments_respect_quotes() {
    let mut spec = UarchSpec::zen1();
    spec.name = "Zen #1".into();
    let text = spec
        .to_text()
        .replace("fetch_block 32", "fetch_block 32 # bytes");
    // `#` inside the quoted name survives; the trailing comment is cut.
    let hash_err = parse_specs(&text.replace("fetch_block 32 # bytes", "fetch_block 32 zzz"));
    assert!(hash_err.is_err(), "sanity: trailing junk does fail");
    assert_eq!(parse_specs(&text), Ok(vec![spec]));
}

#[test]
fn garbage_at_top_level_is_rejected() {
    let err = parse_err("phantom-uarch-spec v1\nnot a block\n");
    match err {
        SpecError::Parse { line: 2, msg } => assert!(msg.contains("expected `uarch"), "{msg}"),
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn unterminated_block_points_at_the_open_line() {
    let err = parse_err("phantom-uarch-spec v1\n\nuarch x {\n  fetch_block 32\n");
    match err {
        SpecError::Parse { line: 3, msg } => assert!(msg.contains("unterminated"), "{msg}"),
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn stray_close_brace_at_top_level_is_rejected() {
    // Regression: a `}` with no open block used to be unrepresentable in
    // the old `block.take().expect("block is open")` structure; mutated
    // spec files reach it trivially.
    let err = parse_err("phantom-uarch-spec v1\n}\n");
    match err {
        SpecError::Parse { line: 2, msg } => assert!(msg.contains("unexpected `}`"), "{msg}"),
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn nested_uarch_block_is_rejected() {
    let err = parse_err("phantom-uarch-spec v1\nuarch outer {\nuarch inner {\n");
    match err {
        SpecError::Parse { line: 3, msg } => {
            assert!(msg.contains("nested `uarch` block"), "{msg}");
            assert!(msg.contains("outer"), "{msg}");
        }
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn close_brace_with_trailing_content_is_rejected() {
    let err = parse_err("phantom-uarch-spec v1\nuarch x {\n} uarch y {\n");
    match err {
        SpecError::Parse { line: 3, msg } => {
            assert!(msg.contains("alone on its line"), "{msg}")
        }
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn unknown_duplicate_and_missing_fields_are_rejected() {
    let base = UarchSpec::zen2().to_text();

    let unknown = base.replace("fetch_block", "fetch_blocc");
    assert!(matches!(parse_err(&unknown), SpecError::Parse { .. }));

    let duplicate = base.replace("fetch_block 32\n", "fetch_block 32\n  fetch_block 32\n");
    match parse_err(&duplicate) {
        SpecError::Parse { msg, .. } => assert!(msg.contains("duplicate field"), "{msg}"),
        other => panic!("wrong error: {other}"),
    }

    let missing = base.replace("  vendor amd\n", "");
    match parse_err(&missing) {
        // Reported against the `uarch … {` line (line 3: header, blank, open).
        SpecError::Parse { line: 3, msg } => {
            assert!(msg.contains("missing field vendor"), "{msg}")
        }
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn bad_scalar_values_are_rejected() {
    let base = UarchSpec::zen2().to_text();
    for (good, bad) in [
        ("vendor amd", "vendor arm"),
        ("freq_ghz 3.1", "freq_ghz fast"),
        ("freq_ghz 3.1", "freq_ghz inf"),
        ("btb.privilege_tagged false", "btb.privilege_tagged no"),
        ("cache.replacement lru", "cache.replacement random"),
        ("cache.l1i 64 8 64", "cache.l1i 64 8"),
        ("fetch_block 32", "fetch_block -32"),
    ] {
        let text = base.replace(good, bad);
        assert!(
            matches!(parse_specs(&text), Err(SpecError::Parse { .. })),
            "{bad:?} should fail to parse"
        );
    }
}

#[test]
fn fold_notation_is_strict() {
    for (value, needle) in [
        ("x47", "b<bit>"),
        ("b64", "out of range"),
        ("b12 ^ b12", "duplicate term"),
        ("b12 ^ c13", "b<bit>"),
        ("", "b<bit>"),
    ] {
        let text = UarchSpec::zen2()
            .to_text()
            .replace("btb.privilege_tagged false", &format!("btb.fold {value}"));
        match parse_specs(&text) {
            Err(SpecError::Parse { msg, .. }) => assert!(msg.contains(needle), "{msg}"),
            other => panic!("fold {value:?}: expected parse error, got {other:?}"),
        }
    }
}

#[test]
fn mixed_fold_notation_is_strict() {
    for (value, needle) in [
        ("x3", "`b<bit>` or `h<bit>`"),
        ("b64", "out of range"),
        ("h64", "out of range"),
        ("b3 ^ b3", "duplicate term b3"),
        ("h2 ^ h2", "duplicate term h2"),
        ("b12 ^ c13", "`b<bit>` or `h<bit>`"),
        ("", "`b<bit>` or `h<bit>`"),
    ] {
        let text = UarchSpec::zen2().to_text().replace(
            "btb.privilege_tagged false",
            &format!("cbp.index_fold {value}"),
        );
        match parse_specs(&text) {
            Err(SpecError::Parse { msg, .. }) => assert!(msg.contains(needle), "{msg}"),
            other => panic!("fold {value:?}: expected parse error, got {other:?}"),
        }
    }
    // The same term in pc and history space is NOT a duplicate: b3 ^ h3
    // mixes two different registers.
    let text = UarchSpec::zen2()
        .to_text()
        .replace("cbp.index_fold b1 ^ h0", "cbp.index_fold b13 ^ b1 ^ h3");
    let parsed = parse_specs(&text).expect("mixed terms parse");
    assert_eq!(parsed[0].cbp.index_folds[0], ((1 << 13) | (1 << 1), 1 << 3));
}

#[test]
fn specs_without_a_cbp_block_parse_to_the_legacy_pht() {
    // A v1 file written before the cbp block existed must still parse —
    // and land on exactly the seed gshare PHT.
    let text: String = UarchSpec::zen2()
        .to_text()
        .lines()
        .filter(|l| !l.trim_start().starts_with("cbp."))
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(!text.contains("cbp."), "sanity: all cbp lines stripped");
    let parsed = parse_specs(&text).expect("legacy text parses");
    assert_eq!(parsed, vec![UarchSpec::zen2()]);
    assert_eq!(parsed[0].cbp, CbpSpec::default());
}

#[test]
fn string_escapes_are_strict() {
    let ok = "phantom-uarch-spec v1\nuarch x {\n  name \"a \\\"b\\\\ c\"\n";
    // Truncated on purpose: we only check the name line parses by
    // erroring later (missing fields), not at the string.
    match parse_err(&format!("{ok}}}\n")) {
        SpecError::Parse { msg, .. } => assert!(msg.contains("missing field"), "{msg}"),
        other => panic!("wrong error: {other}"),
    }
    for (value, needle) in [
        ("name Zen", "quoted string"),
        ("name \"Zen", "unterminated string"),
        ("name \"Zen\\q\"", "unsupported escape"),
        ("name \"Zen\" 2", "trailing content"),
    ] {
        let text = format!("phantom-uarch-spec v1\nuarch x {{\n  {value}\n}}\n");
        match parse_specs(&text) {
            Err(SpecError::Parse { line: 3, msg }) => assert!(msg.contains(needle), "{msg}"),
            other => panic!("{value:?}: expected parse error, got {other:?}"),
        }
    }
}

#[test]
fn parsed_specs_are_validated() {
    // Syntactically fine, semantically impossible: resteer before fetch.
    let text = UarchSpec::zen2()
        .to_text()
        .replace("frontend_resteer_latency 11", "frontend_resteer_latency 1");
    match parse_specs(&text) {
        Err(SpecError::Invalid { field, .. }) => {
            assert_eq!(field, "frontend_resteer_latency")
        }
        other => panic!("expected validation error, got {other:?}"),
    }
}

// ----- validation -----------------------------------------------------

/// Assert that mutating zen2 with `mutate` trips validation on `field`.
fn rejects(field: &str, mutate: impl FnOnce(&mut UarchSpec)) {
    let mut spec = UarchSpec::zen2();
    mutate(&mut spec);
    match spec.validate() {
        Err(SpecError::Invalid { field: got, msg }) => {
            assert_eq!(got, field, "wrong field ({msg})")
        }
        Ok(()) => panic!("expected {field} violation, spec validated"),
        Err(other) => panic!("expected Invalid({field}), got {other}"),
    }
}

#[test]
fn validation_rejects_bad_identity() {
    rejects("key", |s| s.key.clear());
    rejects("key", |s| s.key = "Zen 2".into());
    rejects("name", |s| s.name.clear());
    rejects("name", |s| s.name = "Zen\t2".into());
    rejects("model", |s| s.model.push('\n'));
    rejects("freq_ghz", |s| s.freq_ghz = 0.0);
    rejects("freq_ghz", |s| s.freq_ghz = f64::NAN);
    rejects("freq_ghz", |s| s.freq_ghz = -3.0);
}

#[test]
fn validation_rejects_bad_btb() {
    rejects("btb.ways", |s| s.btb.ways = 0);
    rejects("btb.fold", |s| s.btb.folds.clear());
    rejects("btb.fold", |s| s.btb.folds = vec![1 << 13; 2]); // rank 1
    rejects("btb.fold", |s| s.btb.folds.push(0));
    rejects("btb.fold", |s| s.btb.folds.push(1 << 5)); // page-offset bit
    rejects("btb.fold", |s| {
        s.btb.folds = (12..48).map(|b| 1u64 << b).collect(); // 36 > 32
    });
    // A dependent combination (xor of two existing rows) is caught too.
    rejects("btb.fold", |s| {
        let dep = s.btb.folds[0] ^ s.btb.folds[1];
        s.btb.folds.push(dep);
    });
}

#[test]
fn validation_rejects_bad_cbp() {
    rejects("cbp.ways", |s| s.cbp.ways = 0);
    // An untagged table has no way to tell ways apart.
    rejects("cbp.ways", |s| s.cbp.ways = 2);
    rejects("cbp.counter_bits", |s| s.cbp.counter_bits = 0);
    rejects("cbp.counter_bits", |s| s.cbp.counter_bits = 9);
    rejects("cbp.history_bits", |s| s.cbp.history_bits = 17);
    rejects("cbp.index_fold", |s| s.cbp.index_folds.clear());
    rejects("cbp.index_fold", |s| s.cbp.index_folds.push((0, 0)));
    // Branch PCs are 48-bit canonical.
    rejects("cbp.index_fold", |s| s.cbp.index_folds.push((1 << 50, 0)));
    // History term beyond the (legacy 8-bit) register.
    rejects("cbp.index_fold", |s| s.cbp.index_folds.push((0, 1 << 8)));
    rejects("cbp.index_fold", |s| {
        s.cbp.index_folds = (0..25).map(|b| (1u64 << b, 0)).collect(); // 25 > 24
    });
    // A dependent combination (xor of two existing rows) is caught.
    rejects("cbp.index_fold", |s| {
        let (pa, ha) = s.cbp.index_folds[0];
        let (pb, hb) = s.cbp.index_folds[1];
        s.cbp.index_folds.push((pa ^ pb, ha ^ hb));
    });
    rejects("cbp.tag_fold", |s| s.cbp.tag_folds = vec![0]);
    rejects("cbp.tag_fold", |s| s.cbp.tag_folds = vec![1 << 20; 2]); // rank 1
    rejects("cbp.tag_fold", |s| {
        s.cbp.tag_folds = (0..33).map(|b| 1u64 << b).collect(); // 33 > 32
    });
}

#[test]
fn validation_rejects_bad_caches() {
    rejects("cache.l1i", |s| s.cache.l1i.sets = 3);
    rejects("cache.l1d", |s| s.cache.l1d.ways = 0);
    rejects("cache.l2", |s| s.cache.l2.line_size = 48);
    rejects("cache.uop", |s| s.cache.uop.sets = 0);
    rejects("cache.l1_latency", |s| s.cache.l1_latency = 0);
    rejects("cache.l2_latency", |s| s.cache.l2_latency = 2);
    rejects("cache.memory_latency", |s| {
        s.cache.memory_latency = s.cache.l2_latency
    });
}

#[test]
fn validation_bounds_table_sizes_and_timing() {
    // Each of these once validated and then aborted `Machine::new` on
    // an allocation of terabytes (or overflowed its size arithmetic).
    rejects("cache.l1i", |s| s.cache.l1i.ways = u32::MAX as usize);
    rejects("cache.l2", |s| s.cache.l2.sets = 1 << 40);
    rejects("cache.uop", |s| s.cache.uop.ways = usize::MAX);
    rejects("cache.l1d", |s| s.cache.l1d.line_size = 1 << 62);
    rejects("btb.ways", |s| s.btb.ways = u32::MAX as usize);
    rejects("cbp.ways", |s| {
        s.cbp.tag_folds = vec![1 << 20];
        s.cbp.ways = u32::MAX as usize;
    });
    rejects("cbp.ways", |s| {
        s.cbp.tag_folds = vec![1 << 20];
        s.cbp.ways = usize::MAX;
    });
    // Direct-mapped, but 2^24 sets.
    rejects("cbp.ways", |s| {
        s.cbp.index_folds = (0..24).map(|b| (1u64 << b, 0)).collect();
    });
    // Timing fields that overflowed cycle sums or looped for ages.
    rejects("cache.memory_latency", |s| {
        s.cache.memory_latency = u64::MAX
    });
    rejects("decode_latency", |s| s.decode_latency = u64::MAX);
    rejects("backend_resteer_latency", |s| {
        s.backend_resteer_latency = MAX_LATENCY + 1
    });
    rejects("fetch_block", |s| s.fetch_block = 1 << 63);
    rejects("spectre_exec_uops", |s| s.spectre_exec_uops = u32::MAX);
    // The bounds themselves are admitted, and build.
    let mut edge = UarchSpec::zen2();
    edge.key = "edge".into();
    edge.btb.ways = MAX_BTB_WAYS;
    edge.cache.l1i = CacheGeometry::new(MAX_CACHE_LINES / 8, 8, 64);
    edge.cache.l2 = CacheGeometry::new(64, 8, MAX_CACHE_BYTES / 512);
    edge.cbp.index_folds = (0..20).map(|b| (1u64 << b, 0)).collect();
    edge.backend_resteer_latency = MAX_LATENCY;
    edge.spectre_exec_uops = MAX_EXEC_UOPS;
    assert_eq!(edge.validate(), Ok(()));
    crate::Machine::new(edge.profile(), 1 << 20);
}

#[test]
fn validation_rejects_bad_timing() {
    rejects("fetch_block", |s| s.fetch_block = 48);
    rejects("fetch_latency", |s| s.fetch_latency = 0);
    rejects("frontend_resteer_latency", |s| {
        s.frontend_resteer_latency = s.fetch_latency
    });
    rejects("decode_latency", |s| {
        s.decode_latency = s.frontend_resteer_latency
    });
    rejects("backend_resteer_latency", |s| {
        s.backend_resteer_latency = s.frontend_resteer_latency
    });
}

// ----- registry -------------------------------------------------------

#[test]
fn builtin_registry_serves_table1() {
    let reg = UarchRegistry::builtin();
    assert_eq!(reg.len(), 8);
    assert!(!reg.is_empty());
    assert_eq!(reg.specs().to_vec(), UarchSpec::builtins());
    assert_eq!(reg.profiles(), UarchProfile::all());
}

#[test]
fn lookup_is_case_insensitive_over_keys_and_names() {
    let reg = UarchRegistry::builtin();
    assert_eq!(reg.get("ZEN2").unwrap().key, "zen2");
    assert_eq!(reg.get("zen 2").unwrap().key, "zen2");
    assert_eq!(reg.get("Intel 12th gen (P core)").unwrap().key, "intel12");
    assert!(reg.get("zen5").is_none());
    assert!(UarchRegistry::empty().get("zen2").is_none());
}

#[test]
fn register_rejects_collisions_and_invalid_specs() {
    let mut reg = UarchRegistry::with_builtins();
    assert_eq!(
        reg.register(UarchSpec::zen2()),
        Err(SpecError::Duplicate("zen2".into()))
    );
    // Same display name under a fresh key still collides.
    let mut alias = UarchSpec::zen2();
    alias.key = "zen2b".into();
    assert_eq!(
        reg.register(alias),
        Err(SpecError::Duplicate("Zen 2".into()))
    );
    let mut broken = UarchSpec::zen2();
    broken.key = "zen2c".into();
    broken.name = "Zen 2c".into();
    broken.btb.ways = 0;
    assert!(matches!(
        reg.register(broken),
        Err(SpecError::Invalid {
            field: "btb.ways",
            ..
        })
    ));
    assert_eq!(reg.len(), 8, "failed registrations must not land");
}

#[test]
fn register_text_adds_file_order_keys() {
    let mut reg = UarchRegistry::empty();
    let mut what_if = UarchSpec::zen2();
    what_if.key = "whatif".into();
    what_if.name = "What-if".into();
    let text = specs_to_text(&[UarchSpec::zen4(), what_if.clone()]);
    assert_eq!(
        reg.register_text(&text).unwrap(),
        vec!["zen4".to_string(), "whatif".to_string()]
    );
    assert_eq!(reg.get("whatif"), Some(&what_if));

    // A duplicate later in the file errors but keeps earlier blocks.
    let mut reg2 = UarchRegistry::empty();
    let dup = specs_to_text(&[UarchSpec::zen1(), UarchSpec::zen1()]);
    assert!(matches!(
        reg2.register_text(&dup),
        Err(SpecError::Duplicate(_))
    ));
    assert_eq!(reg2.len(), 1);
}

// ----- property: parse ∘ print is the identity ------------------------

const KEY_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_-";
// Includes `"`, `\` and `#` to exercise escaping and quote-aware
// comment stripping. No leading/trailing-whitespace hazards: spaces
// live inside the quotes either way.
const NAME_CHARS: &[u8] = b"ABCZabcz0123456789 -()#\"\\";

fn arb_key() -> BoxedStrategy<String> {
    proptest::collection::vec(0usize..KEY_CHARS.len(), 1..12)
        .prop_map(|ids| ids.into_iter().map(|i| KEY_CHARS[i] as char).collect())
        .boxed()
}

fn arb_name() -> BoxedStrategy<String> {
    proptest::collection::vec(0usize..NAME_CHARS.len(), 1..16)
        .prop_map(|ids| ids.into_iter().map(|i| NAME_CHARS[i] as char).collect())
        .boxed()
}

/// Fold families in GF(2) echelon form: distinct leading bits make the
/// rows linearly independent by construction, and clearing bits below
/// b12 keeps every mask on translated address bits.
fn arb_folds() -> BoxedStrategy<Vec<u64>> {
    proptest::collection::vec((12u32..48, any::<u64>()), 1..8)
        .prop_map(|rows| {
            let mut taken = [false; 64];
            let mut folds = Vec::new();
            for (lead, low) in rows {
                if taken[lead as usize] {
                    continue;
                }
                taken[lead as usize] = true;
                folds.push(((1u64 << lead) | (low & ((1u64 << lead) - 1))) & !0xfff);
            }
            folds
        })
        .boxed()
}

/// CBP specs with echelon-form index folds: each fold owns a distinct
/// leading PC bit, so the family is full-rank over the joint
/// (PC, history) space whatever history bits ride along. Tag families
/// (when present) get the same treatment.
fn arb_cbp() -> BoxedStrategy<CbpSpec> {
    let index = proptest::collection::vec((1u32..48, any::<u64>(), any::<u64>()), 1..8);
    let tags = proptest::collection::vec((20u32..44, any::<u64>()), 0..4);
    (1u32..17, index, tags, 1usize..4, 1u32..9)
        .prop_map(|(history_bits, index_rows, tag_rows, ways, counter_bits)| {
            let hist_mask = (1u64 << history_bits) - 1;
            let mut taken = [false; 64];
            let mut index_folds = Vec::new();
            for (lead, low, hist) in index_rows {
                if taken[lead as usize] {
                    continue;
                }
                taken[lead as usize] = true;
                index_folds.push((
                    (1u64 << lead) | (low & ((1u64 << lead) - 1)),
                    hist & hist_mask,
                ));
            }
            let mut taken = [false; 64];
            let mut tag_folds = Vec::new();
            for (lead, low) in tag_rows {
                if taken[lead as usize] {
                    continue;
                }
                taken[lead as usize] = true;
                tag_folds.push((1u64 << lead) | (low & ((1u64 << lead) - 1)));
            }
            CbpSpec {
                index_folds,
                // Untagged tables must be direct-mapped.
                ways: if tag_folds.is_empty() { 1 } else { ways },
                tag_folds,
                counter_bits,
                history_bits,
            }
        })
        .boxed()
}

fn arb_geom() -> BoxedStrategy<CacheGeometry> {
    (0u32..8, 1usize..9, 4u32..9)
        .prop_map(|(sets, ways, line)| CacheGeometry {
            sets: 1usize << sets,
            ways,
            line_size: 1usize << line,
        })
        .boxed()
}

fn arb_spec() -> BoxedStrategy<UarchSpec> {
    let identity = (arb_key(), arb_name(), arb_name(), 0u8..2, 1u64..4_000_000);
    let btb = (arb_folds(), 1usize..9, 0u8..2);
    let caches = (
        arb_geom(),
        arb_geom(),
        arb_geom(),
        arb_geom(),
        (1u64..10, 0u64..20, 1u64..200),
        0u8..3,
    );
    let timing = ((3u32..8), 1u64..4, 0u64..6, 1u64..10, 1u64..60);
    let features = (0u8..2, 0u8..2, 0u8..2, 0u32..64, 0u32..64);
    (identity, btb, arb_cbp(), caches, timing, features)
        .prop_map(
            |(
                (key, name, model, vendor, freq_millis),
                (folds, ways, tagged),
                cbp,
                (l1i, l1d, l2, uop, (l1_lat, l2_extra, mem_extra), repl),
                (block_log2, fetch, decode, slack, backend_extra),
                (suppress, ibrs, blind, phantom_uops, spectre_uops),
            )| {
                let frontend = fetch + decode + slack;
                UarchSpec {
                    key,
                    name,
                    model,
                    vendor: if vendor == 0 {
                        Vendor::Amd
                    } else {
                        Vendor::Intel
                    },
                    freq_ghz: freq_millis as f64 / 1000.0,
                    btb: BtbSpec {
                        folds,
                        ways,
                        privilege_tagged: tagged == 1,
                    },
                    cbp,
                    cache: CacheSpec {
                        l1i,
                        l1d,
                        l2,
                        uop,
                        l1_latency: l1_lat,
                        l2_latency: l1_lat + l2_extra,
                        memory_latency: l1_lat + l2_extra + mem_extra,
                        replacement: match repl {
                            0 => Replacement::Lru,
                            1 => Replacement::TreePlru,
                            _ => Replacement::Fifo,
                        },
                    },
                    fetch_block: 1u64 << block_log2,
                    fetch_latency: fetch,
                    decode_latency: decode,
                    frontend_resteer_latency: frontend,
                    backend_resteer_latency: frontend + backend_extra,
                    phantom_exec_uops: phantom_uops,
                    spectre_exec_uops: spectre_uops,
                    suppress_bp_on_non_br: suppress == 1,
                    auto_ibrs: ibrs == 1,
                    indirect_victim_blind: blind == 1,
                }
            },
        )
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn generated_specs_validate(spec in arb_spec()) {
        prop_assert_eq!(spec.validate(), Ok(()));
    }

    #[test]
    fn parse_print_parse_is_identity(spec in arb_spec()) {
        let text = spec.to_text();
        let parsed = parse_specs(&text);
        prop_assert_eq!(parsed, Ok(vec![spec]));
    }

    #[test]
    fn multi_spec_files_round_trip(a in arb_spec(), b in arb_spec()) {
        let text = specs_to_text(&[a.clone(), b.clone()]);
        let parsed = parse_specs(&text);
        prop_assert_eq!(parsed, Ok(vec![a, b]));
    }

    #[test]
    fn compiled_profiles_preserve_the_spec(spec in arb_spec()) {
        let p = spec.profile();
        prop_assert_eq!(p.name.as_str(), spec.name.as_str());
        prop_assert_eq!(p.cache, spec.cache.hierarchy_config());
        prop_assert_eq!(p.uop_geometry, spec.cache.uop);
        prop_assert_eq!(p.btb_scheme.family.fns().len(), spec.btb.folds.len());
        prop_assert_eq!(p.cbp_scheme, spec.cbp.scheme());
        prop_assert_eq!(p.freq_ghz, spec.freq_ghz);
    }

    /// Every generated CBP index family is full-rank over the joint
    /// (PC, history) space, and so is every tag family — checked here
    /// against the GF(2) rank directly rather than through `validate`.
    #[test]
    fn cbp_fold_families_are_full_rank(spec in arb_spec()) {
        let rows: Vec<u64> = spec
            .cbp
            .index_folds
            .iter()
            .map(|&(pc, hist)| pc | (hist << 48))
            .collect();
        let rank = phantom_gf2::BitMatrix::from_rows(64, &rows).rank() as usize;
        prop_assert_eq!(rank, rows.len());
        if !spec.cbp.tag_folds.is_empty() {
            let trank =
                phantom_gf2::BitMatrix::from_rows(64, &spec.cbp.tag_folds).rank() as usize;
            prop_assert_eq!(trank, spec.cbp.tag_folds.len());
        }
    }
}

// ----- property: CBP aliasing is spec-dependent -----------------------

/// The M1-Firestorm-style CBP from `examples/uarch/m1_firestorm.spec`,
/// reconstructed in code: 10 index bits, each folding PC bit `i+2` with
/// PC bit `i+12` and XORing history bit `i`; 2 ways tagged by PC bits
/// 22..=27; 16 outcomes of history.
fn m1_cbp_scheme() -> CbpScheme {
    CbpScheme {
        index: (0..10)
            .map(|i| MixedFold {
                pc: (1u64 << (i + 2)) | (1u64 << (i + 12)),
                hist: 1u64 << i,
            })
            .collect(),
        tag: (22..28).map(|b| FoldFn { mask: 1u64 << b }).collect(),
        ways: 2,
        counter_bits: 2,
        history_bits: 16,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Aliasing lives in the spec, not the code: a pair of PCs that
    /// collide under the legacy gshare PHT are told apart by the M1
    /// scheme, and the M1 out-of-place pair is told apart by legacy.
    #[test]
    fn cbp_aliasing_is_spec_dependent(
        pc in any::<u64>(),
        ghr in any::<u64>(),
        far_bit in 13u32..22,
        m1_fold in 1u32..10,
    ) {
        let legacy = CbpScheme::legacy();
        let m1 = m1_cbp_scheme();
        let a = VirtAddr::new(pc & 0x0000_7fff_ffff_ffff);

        // Legacy indexes on PC bits 1..=12 only and carries no tag, so
        // flipping a bit in 13..22 aliases — but that same bit feeds an
        // M1 index fold, which separates the pair.
        let b = VirtAddr::new(a.raw() ^ (1u64 << far_bit));
        prop_assert!(legacy.aliases(a, b, ghr & 0xff));
        prop_assert!(!m1.aliases(a, b, ghr & 0xffff));

        // The M1 out-of-place pair flips both PC bits of one index fold
        // (parity unchanged, tags untouched) — collides on M1, yet the
        // low bit alone shifts the legacy index.
        let c = VirtAddr::new(
            a.raw() ^ (1u64 << (m1_fold + 2)) ^ (1u64 << (m1_fold + 12)),
        );
        prop_assert!(m1.aliases(a, c, ghr & 0xffff));
        prop_assert!(!legacy.aliases(a, c, ghr & 0xff));
    }
}

// ----- no-panic property over spec text --------------------------------

/// The committed example specs, the seeds of the structure-aware
/// mutations below.
const COMMITTED_SPECS: [&str; 2] = [
    include_str!("../../../../examples/uarch/whatif.spec"),
    include_str!("../../../../examples/uarch/m1_firestorm.spec"),
];

/// Numbers at the edges of every numeric parser the spec text reaches.
const BOUNDARY_TOKENS: [&str; 6] = [
    "0",
    "4294967295",
    "18446744073709551615",
    "-1",
    "1e400",
    "NaN",
];

/// One structure-aware edit of a spec's text (indices wrap).
#[derive(Debug, Clone)]
enum SpecEdit {
    DropLine(usize),
    DuplicateLine(usize),
    /// Replace token `.1` of line `.0` with `BOUNDARY_TOKENS[.2]`.
    SwapToken(usize, usize, usize),
    /// Cut the text at the char boundary at or below byte `.0`.
    Truncate(usize),
}

fn arb_spec_edit() -> impl Strategy<Value = SpecEdit> {
    prop_oneof![
        any::<usize>().prop_map(SpecEdit::DropLine),
        any::<usize>().prop_map(SpecEdit::DuplicateLine),
        (any::<usize>(), any::<usize>(), 0..BOUNDARY_TOKENS.len())
            .prop_map(|(l, t, b)| SpecEdit::SwapToken(l, t, b)),
        (any::<usize>(), any::<usize>(), 0..BOUNDARY_TOKENS.len())
            .prop_map(|(l, t, b)| SpecEdit::SwapToken(l, t, b)),
        any::<usize>().prop_map(SpecEdit::Truncate),
    ]
}

fn apply_spec_edit(text: &str, edit: &SpecEdit) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    if lines.is_empty() {
        return String::new();
    }
    let n = lines.len();
    match *edit {
        SpecEdit::DropLine(i) => {
            lines.remove(i % n);
        }
        SpecEdit::DuplicateLine(i) => {
            let line = lines[i % n].clone();
            lines.insert(i % n, line);
        }
        SpecEdit::SwapToken(i, t, b) => {
            let mut tokens: Vec<&str> = lines[i % n].split_whitespace().collect();
            if !tokens.is_empty() {
                let k = t % tokens.len();
                tokens[k] = BOUNDARY_TOKENS[b];
                lines[i % n] = format!("  {}", tokens.join(" "));
            }
        }
        SpecEdit::Truncate(at) => {
            let mut cut = at % (text.len() + 1);
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            return text[..cut].to_owned();
        }
    }
    lines.join("\n") + "\n"
}

/// A committed spec under `edits` structure-aware edits.
fn arb_edited_spec(edits: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    (
        0..COMMITTED_SPECS.len(),
        proptest::collection::vec(arb_spec_edit(), edits),
    )
        .prop_map(|(which, edits)| {
            edits
                .iter()
                .fold(COMMITTED_SPECS[which].to_owned(), |text, edit| {
                    apply_spec_edit(&text, edit)
                })
        })
}

/// Spec text for the no-panic property: arbitrary bytes (lossily
/// decoded), or a committed spec under one edit (which often still
/// registers, so the machine gets built) or up to four.
fn arb_spec_text() -> impl Strategy<Value = String> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..400)
            .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned()),
        arb_edited_spec(1..2),
        arb_edited_spec(1..5),
    ]
}

/// Register `text`; build and run a two-instruction program on every
/// spec it registered.
fn register_and_run(text: &str) {
    let mut registry = UarchRegistry::with_builtins();
    let Ok(keys) = registry.register_text(text) else {
        return;
    };
    for key in keys {
        let spec = registry.get(&key).expect("registered key resolves");
        assert_eq!(spec.validate(), Ok(()), "a registered spec validates");
        let mut m = crate::Machine::new(spec.profile(), 1 << 20);
        let mut a = phantom_isa::asm::Assembler::new(0x40_0000);
        a.push(phantom_isa::Inst::MovImm {
            dst: phantom_isa::Reg::R0,
            imm: 1,
        });
        a.push(phantom_isa::Inst::Halt);
        let blob = a.finish().expect("assemble");
        m.load_blob(&blob, phantom_mem::PageFlags::USER_TEXT)
            .expect("load");
        m.set_pc(VirtAddr::new(blob.base));
        assert_eq!(m.run(8).expect("run"), crate::machine::RunExit::Halted);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Spec text never panics (or aborts) the process: registration
    /// returns `Ok` or a structured `Err`, and every spec that
    /// registers builds a machine that runs a two-instruction program.
    #[test]
    fn spec_text_never_panics(text in arb_spec_text()) {
        let outcome = std::panic::catch_unwind(|| register_and_run(&text));
        prop_assert!(outcome.is_ok(), "panicked on spec text:\n{}", text);
    }
}

#[test]
fn spec_edits_reach_the_oversized_table_reproducers() {
    // One boundary-token swap turns each committed spec into a
    // reproducer of the unbounded table sizes: both once registered
    // and then aborted `Machine::new` on a multi-terabyte allocation
    // (or a capacity overflow). Both are now spec errors.
    for (spec, line, token, boundary, edited) in [
        (
            0,
            "cache.l1i 64 8 64",
            2,
            1,
            "  cache.l1i 64 4294967295 64\n",
        ),
        (1, "cbp.ways 2", 1, 1, "  cbp.ways 4294967295\n"),
        (1, "cbp.ways 2", 1, 2, "  cbp.ways 18446744073709551615\n"),
    ] {
        let text = COMMITTED_SPECS[spec];
        let at = text.lines().position(|l| l.trim() == line).unwrap();
        let text = apply_spec_edit(text, &SpecEdit::SwapToken(at, token, boundary));
        assert!(text.contains(edited), "{edited:?}");
        let err = UarchRegistry::with_builtins()
            .register_text(&text)
            .expect_err("an oversized table must not register");
        assert!(
            err.to_string().starts_with("invalid spec field"),
            "{edited:?}: {err}"
        );
    }
}
