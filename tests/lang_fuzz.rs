//! Differential no-panic fuzz of the textual front end.
//!
//! A seeded mutator (the workspace's own [`StdRng`]) derives [`CASES`]
//! texts from a seed corpus — every query text of `tests/query_language.rs`,
//! of `plan::lang`'s unit tests and of the benchmark workloads' templates —
//! by inserting, deleting and replacing characters, splicing in multi-byte
//! characters and digit / `_` runs, and truncating. `tests/fixtures/
//! lang_fuzz.txt` records each text with the outcome of `parse_query` on
//! it: the `Debug` of the spec or the `Display` of the error. The test
//! checks that the generator still produces exactly those texts, that no
//! text panics, that every outcome is byte-identical to the recorded one,
//! and that every error span lies within its text on char boundaries.
//!
//! Fixture format: `#` comment lines, then per case a `text <n>` line, `n`
//! bytes of text and a newline, and an `<kind> <n>` line, `n` bytes of
//! outcome and a newline. `kind` is `spec` or `error`; `error-was-panic`
//! marks a text on which an earlier parser panicked and whose recorded
//! outcome is the error the fixed parser reports.

use std::panic::{catch_unwind, AssertUnwindSafe};

use two_knn::core::plan::lang::parse_query;
use two_knn::datagen::rng::StdRng;

/// Number of mutated texts in the fixture.
const CASES: usize = 500;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/lang_fuzz.txt");

/// The texts the mutator starts from.
const SEED_CORPUS: &[&str] = &[
    // tests/query_language.rs
    "FIND (Objects WHERE INSIDE(RECT(10, 10, 80, 80))) WHERE KNN(7, 45, 45)",
    "FIND Objects WHERE KNN(9, 45, 45) AND ID <= 250",
    "FIND (Objects WHERE INSIDE(RECT(10, 10, 80, 80))) WHERE KNN(7, 45, 45) AND ID >= 50",
    "FIND (Objects WHERE ID IN (1, 2, 4, 5, 7, 8, 10)) WHERE KNN(40, 30, 30) AND KNN(60, 70, 70)",
    "FIND (Objects WHERE FALSE) WHERE KNN(5, 45, 45)",
    "FIND Objects WHERE KNN(5, 45, 45) AND FALSE",
    "FIND (Objects WHERE NOT INSIDE(CIRCLE(45, 45, 30))) WHERE KNN(6, 45, 45)",
    "FIND (Objects WHERE INSIDE(RECT(5, 5, 90, 90))) WHERE KNN(8, 40, 40) AND ID <= 10020",
    "FIND (Objects WHERE INSIDE(RECT(0, 0, 70, 70))) WHERE KNN(5, 35, 35) AND ID BETWEEN 0 AND 60000",
    "FIND Objects WHERE KNN(0, 1, 2)",
    "FIND Ghost WHERE KNN(2, 1, 1)",
    // plan::lang unit tests
    "FIND (Sites WHERE INSIDE(RECT(0, 0, 50, 50))) WHERE KNN(4, 10, 10) AND ID <= 100",
    "FIND Hotels WHERE KNN(5, 0, 0) AND KNN(9, 30, 40)",
    "find Sites where knn(2, 1, 1) and id in (18446744073709551615)",
    "FIND Sites WHERE KNN(5, 10 20)",
    "FIND WHERE KNN(1, 0, 0)",
    "FIND Sites WHERE ID ! 3",
    "FIND Sites WHERE KNN(3, 0, 0) OR TRUE",
    "FIND Sites WHERE NOT KNN(3, 0, 0)",
    "FIND (Sites WHERE KNN(2, 1, 1)) WHERE KNN(3, 0, 0)",
    "FIND Sites WHERE TRUE",
    "FIND Sites WHERE KNN(1, 0, 0) AND KNN(1, 1, 1) AND KNN(1, 2, 2)",
    "FIND (Sites WHERE ID <= 10) WHERE KNN(3, 1, 2) AND ID >= 4",
    "FIND (R_2 WHERE (ID = 7 OR NOT ID BETWEEN 3 AND 9)) WHERE KNN(12, -250.75, 1_000.5)",
    // benchmark templates: mixed_stream, select_large, ingest_durable
    "FIND Vehicles WHERE KNN(8, 41233.7, 18790.2)",
    "FIND (Vehicles WHERE INSIDE(RECT(39233.7, 16790.2, 43233.7, 20790.2))) WHERE KNN(12, 41233.7, 18790.2)",
    "FIND G WHERE KNN(16, 512.25, 88.5)",
    "FIND (Q WHERE INSIDE(RECT(100.5, 200.5, 180.5, 260.5))) WHERE KNN(8, 140.5, 230.5)",
    "FIND R WHERE KNN(64, 731.1, 402.9) AND ID BETWEEN 120000 AND 520000",
    "FIND G WHERE KNN(8, 10.5, 20.5) AND KNN(64, 11.5, 21.5)",
    "FIND P WHERE KNN(64, 4999.9, 1234.5)",
];

/// ASCII pieces the mutator inserts or substitutes: delimiters, operators,
/// number characters and fragments of keywords.
const ASCII: &[&str] = &[
    "(", ")", ",", "=", "<", ">", "<=", ">=", "!", "-", ".", "_", " ", "\t", "\n", "0", "7", "e",
    "x", "K", "KNN(", "ID", "IN", "AND", "OR", "NOT", "WHERE", "FIND", "RECT(", "CIRCLE(",
];

/// Multi-byte characters, inserted or replacing one character: Latin-1, symbols, CJK, an astral-plane letter, a
/// combining accent, a no-break and a zero-width space.
const MULTI_BYTE: &[&str] = &[
    "é", "ß", "€", "中", "𝔸", "\u{301}", "\u{a0}", "\u{200b}", "ﬁ", "Ω",
];

/// Digit and `_` runs: long integers, grouped digits and the number
/// lexer's corner cases.
const DIGIT_RUNS: &[&str] = &[
    "1_000",
    "___",
    "_1",
    "1__2",
    "99999999999999999999999",
    "18446744073709551616",
    "0.000_1",
    "1.2.3",
    "-",
    "--1",
    ".",
    "1e5",
    "00",
];

fn below(rng: &mut StdRng, n: usize) -> usize {
    rng.gen_range(0..n)
}

/// A char boundary of `text`, uniformly among `0..=text.len()`'s boundaries.
fn boundary(rng: &mut StdRng, text: &str) -> usize {
    let bounds: Vec<usize> = text
        .char_indices()
        .map(|(i, _)| i)
        .chain([text.len()])
        .collect();
    bounds[below(rng, bounds.len())]
}

/// The byte range of the `len` characters starting at boundary `at`.
fn chars_from(text: &str, at: usize, len: usize) -> std::ops::Range<usize> {
    let end = text[at..]
        .char_indices()
        .nth(len)
        .map_or(text.len(), |(i, _)| at + i);
    at..end
}

fn pick<'a>(rng: &mut StdRng, pool: &[&'a str]) -> &'a str {
    pool[below(rng, pool.len())]
}

/// The first char boundary at or after `at` that starts an ASCII digit.
fn next_digit(text: &str, at: usize) -> Option<usize> {
    text[at..]
        .find(|c: char| c.is_ascii_digit())
        .map(|i| at + i)
}

/// One or two random edits of `text`. Most keep the query's shape (digit
/// edits, whitespace), so a good share of the texts still parse.
fn mutate(rng: &mut StdRng, text: &str) -> String {
    let mut out = text.to_string();
    for _ in 0..1 + below(rng, 2) {
        let at = boundary(rng, &out);
        match below(rng, 12) {
            0 | 1 => out.insert_str(at, pick(rng, ASCII)),
            2 | 3 => {
                let range = chars_from(&out, at, 1 + below(rng, 3));
                out.replace_range(range, "");
            }
            4 => {
                let range = chars_from(&out, at, 1);
                out.replace_range(range, pick(rng, ASCII));
            }
            5 => {
                let len = below(rng, 2);
                let range = chars_from(&out, at, len);
                out.replace_range(range, pick(rng, MULTI_BYTE));
            }
            6 | 7 => {
                let at = next_digit(&out, at).map_or(at, |d| d + 1);
                out.insert_str(at, pick(rng, DIGIT_RUNS));
            }
            8 | 9 => {
                if let Some(d) = next_digit(&out, at) {
                    let digit = char::from(b'0' + below(rng, 10) as u8);
                    out.replace_range(d..d + 1, digit.encode_utf8(&mut [0; 4]));
                }
            }
            10 => out.insert_str(at, pick(rng, &[" ", "  ", "\t", "\n"])),
            _ => out.truncate(at),
        }
    }
    out
}

/// The mutated texts, in fixture order.
fn corpus() -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(0x1A2B_3C4D);
    (0..CASES)
        .map(|_| {
            let seed = SEED_CORPUS[below(&mut rng, SEED_CORPUS.len())];
            mutate(&mut rng, seed)
        })
        .collect()
}

/// What `parse_query` did with a text: `(kind, rendering)`, or `None` when
/// it (or rendering its error) panicked.
fn outcome(text: &str) -> Option<(&'static str, String)> {
    catch_unwind(AssertUnwindSafe(|| match parse_query(text) {
        Ok(spec) => ("spec", format!("{spec:?}")),
        Err(err) => ("error", err.to_string()),
    }))
    .ok()
}

/// One recorded case: the text, the outcome kind and its rendering.
struct Case {
    text: String,
    kind: String,
    rendering: String,
}

/// Reads the fixture's cases.
fn read_fixture(bytes: &str) -> Vec<Case> {
    fn field(rest: &mut &str) -> (String, String) {
        let (header, tail) = rest.split_once('\n').expect("a header line");
        let (kind, len) = header.rsplit_once(' ').expect("`<kind> <len>`");
        let len: usize = len.parse().expect("a byte length");
        let (body, tail) = tail.split_at(len);
        *rest = tail.strip_prefix('\n').expect("a newline after the body");
        (kind.to_string(), body.to_string())
    }
    let mut rest = bytes;
    let mut cases = Vec::new();
    loop {
        while rest.starts_with('#') {
            rest = rest.split_once('\n').map_or("", |(_, tail)| tail);
        }
        if rest.is_empty() {
            return cases;
        }
        let (tag, text) = field(&mut rest);
        assert_eq!(tag, "text", "a case starts with its text");
        let (kind, rendering) = field(&mut rest);
        cases.push(Case {
            text,
            kind,
            rendering,
        });
    }
}

#[test]
fn mutated_texts_keep_their_recorded_outcomes() {
    let fixture = std::fs::read_to_string(FIXTURE).expect("the fuzz fixture");
    let cases = read_fixture(&fixture);
    let texts = corpus();
    assert_eq!(cases.len(), texts.len(), "one recorded case per text");
    // Silence the default hook's report of any caught panic; the assert
    // below names the text instead.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcomes: Vec<_> = texts.iter().map(|text| outcome(text)).collect();
    std::panic::set_hook(hook);
    for (i, ((case, text), got)) in cases.iter().zip(&texts).zip(outcomes).enumerate() {
        assert_eq!(&case.text, text, "case {i}: the generator drifted");
        let Some((kind, rendering)) = got else {
            panic!("case {i}: parse_query panicked on {text:?}");
        };
        let want = if case.kind == "error-was-panic" {
            "error"
        } else {
            case.kind.as_str()
        };
        assert_eq!(
            (kind, &rendering),
            (want, &case.rendering),
            "case {i}: {text:?}"
        );
        if let Err(err) = parse_query(text) {
            assert_eq!(err.query, *text, "case {i}");
            assert!(
                err.start <= err.end
                    && err.end <= text.len()
                    && text.is_char_boundary(err.start)
                    && text.is_char_boundary(err.end),
                "case {i}: span {}..{} of {text:?}",
                err.start,
                err.end
            );
        }
    }
}
