//! Property-based tests for the trace substrate.

use smash_support::check::{check, Gen};
use smash_support::json::{self, FromJson, Json};
use smash_trace::io::{decode_record_line, LineError};
use smash_trace::uri::charset_cosine;
use smash_trace::{
    parameter_pattern, second_level_domain, uri_file, uri_path, HttpRecord, IngestOptions,
    Interner, ServerKey, TraceDataset,
};

const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
const LOWER_DIGIT: &str = "abcdefghijklmnopqrstuvwxyz0123456789";
const ALNUM: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
const URI_CHARS: &str = "abcdefghijklmnopqrstuvwxyz0123456789/._?=&-";

/// Error budget 0: the readers' strict setting.
fn strict() -> IngestOptions {
    IngestOptions::default().with_error_budget(0.0)
}

fn hostname(g: &mut Gen) -> String {
    g.vec(1..4, |g| g.string(1..=8, LOWER_DIGIT)).join(".")
}

/// A URI drawn from `/[a-z0-9/._?=&-]{0,30}`.
fn uri(g: &mut Gen) -> String {
    format!("/{}", g.string(0..=30, URI_CHARS))
}

#[test]
fn sld_is_idempotent() {
    check(hostname, |h| {
        let once = second_level_domain(h);
        let twice = second_level_domain(&once);
        assert_eq!(once, twice);
    });
}

#[test]
fn sld_is_suffix_of_host() {
    check(hostname, |h| {
        let sld = second_level_domain(h);
        assert!(h.to_ascii_lowercase().ends_with(&sld));
    });
}

#[test]
fn sld_has_at_most_three_labels() {
    check(hostname, |h| {
        let sld = second_level_domain(h);
        assert!(sld.split('.').count() <= 3);
    });
}

#[test]
fn server_key_display_round_trips() {
    check(hostname, |h| {
        let k = ServerKey::from_host(h);
        let k2 = ServerKey::from_host(&k.to_string());
        assert_eq!(k, k2);
    });
}

#[test]
fn uri_file_never_contains_slash_or_query() {
    check(uri, |u| {
        let f = uri_file(u);
        // The bare root is the one URI whose "file" is "/" (paper's
        // Sality case); every other file is slash-free.
        if f != "/" {
            assert!(!f.contains('/'));
        }
        assert!(!f.contains('?'));
    });
}

#[test]
fn uri_path_is_prefix() {
    check(uri, |u| {
        assert!(u.starts_with(uri_path(u)));
    });
}

#[test]
fn parameter_pattern_is_value_free() {
    // URIs of the shape `/x?k1=12&k2=345…`, optionally with a trailing `&`.
    check(
        |g| {
            let parts = g.vec(1..=4, |g| {
                format!(
                    "{}={}",
                    g.string(1..=4, LOWER),
                    g.string(1..=6, "0123456789")
                )
            });
            let trailing = if g.bool(0.5) { "&" } else { "" };
            format!("/x?{}{}", parts.join("&"), trailing)
        },
        |u| {
            let p = parameter_pattern(u);
            assert!(!p.is_empty());
            for part in p.split('&') {
                assert!(part.ends_with("=[]"), "part {} in {}", part, p);
            }
        },
    );
}

#[test]
fn charset_cosine_symmetric_and_bounded() {
    check(
        |g| (g.string(0..=20, ALNUM), g.string(0..=20, ALNUM)),
        |(a, b)| {
            let c1 = charset_cosine(a, b);
            let c2 = charset_cosine(b, a);
            assert!((c1 - c2).abs() < 1e-12);
            assert!((0.0..=1.0 + 1e-9).contains(&c1));
        },
    );
}

#[test]
fn charset_cosine_self_is_one() {
    check(
        |g| g.string(1..=20, ALNUM),
        |a| {
            assert!((charset_cosine(a, a) - 1.0).abs() < 1e-9);
        },
    );
}

#[test]
fn interner_round_trips() {
    check(
        |g| g.vec(0..20, |g| g.string(1..=6, LOWER)),
        |strings| {
            let mut i = Interner::new();
            let ids: Vec<u32> = strings.iter().map(|s| i.intern(s)).collect();
            for (s, id) in strings.iter().zip(&ids) {
                assert_eq!(i.resolve(*id), s.as_str());
            }
            let distinct: std::collections::HashSet<&String> = strings.iter().collect();
            assert_eq!(i.len(), distinct.len());
        },
    );
}

#[test]
fn dataset_index_invariants() {
    check(
        |g| {
            g.vec(1..40, |g| {
                (
                    hostname(g),
                    g.string(1..=1, "abc"),
                    format!("/{}.php", g.string(1..=5, LOWER)),
                    g.range(0u8..4),
                )
            })
        },
        |recs| {
            let records: Vec<HttpRecord> = recs
                .iter()
                .enumerate()
                .map(|(t, (host, client, uri, ip))| {
                    HttpRecord::new(t as u64, client, host, &format!("10.0.0.{ip}"), uri)
                })
                .collect();
            let ds = TraceDataset::from_records(records);
            // Every record's server/client/file ids resolve, and inverted
            // indexes are consistent with the records.
            for r in ds.records() {
                assert!(ds.clients_of(r.server).binary_search(&r.client).is_ok());
                assert!(ds.ips_of(r.server).binary_search(&r.ip).is_ok());
                assert!(ds.files_of(r.server).binary_search(&r.file).is_ok());
            }
            // Total clients across servers >= distinct clients (each client
            // appears in at least one server's list).
            let union: std::collections::HashSet<u32> = ds
                .server_ids()
                .flat_map(|s| ds.clients_of(s).to_vec())
                .collect();
            assert_eq!(union.len(), ds.client_count());
        },
    );
}

#[test]
fn binary_round_trip() {
    check(
        |g| {
            g.vec(0..15, |g| {
                (
                    hostname(g),
                    g.string(1..=2, "abc"),
                    format!("/{}", g.string(1..=6, LOWER)),
                    g.range(0u64..1000),
                    g.range(0u16..600),
                )
            })
        },
        |recs| {
            let records: Vec<HttpRecord> = recs
                .iter()
                .map(|(h, c, u, ts, st)| HttpRecord::new(*ts, c, h, "1.2.3.4", u).with_status(*st))
                .collect();
            let mut buf = Vec::new();
            smash_trace::binary::write_binary(&mut buf, &records).unwrap();
            let (back, _) = smash_trace::binary::read_binary_lenient(&buf[..], &strict()).unwrap();
            assert_eq!(records, back);
        },
    );
}

/// A blob of fully arbitrary bytes (including newlines, NULs, and
/// invalid UTF-8) — the adversarial ingest input.
fn raw_bytes(g: &mut Gen) -> Vec<u8> {
    g.vec(0..200, |g| g.range(0u8..=255))
}

#[test]
fn arbitrary_bytes_never_panic_strict_jsonl_reader() {
    check(raw_bytes, |bytes| {
        // Errors are fine; unwinding is not.
        let _ = smash_trace::io::read_jsonl_lenient(&bytes[..], &strict());
    });
}

#[test]
fn arbitrary_bytes_never_panic_lenient_jsonl_reader() {
    // Budget 1.0 forces the lenient path to classify every line instead
    // of bailing early, walking the full error-counting surface.
    let opts = IngestOptions::default().with_error_budget(1.0);
    check(raw_bytes, move |bytes| {
        if let Ok((recs, report)) = smash_trace::io::read_jsonl_lenient(&bytes[..], &opts) {
            assert_eq!(recs.len(), report.records);
            assert!(report.records + report.bad_lines() <= report.lines + 1);
        }
    });
}

#[test]
fn arbitrary_bytes_never_panic_binary_readers() {
    let opts = IngestOptions::default().with_error_budget(1.0);
    check(raw_bytes, move |bytes| {
        let _ = smash_trace::binary::read_binary_lenient(&bytes[..], &strict());
        let _ = smash_trace::binary::read_binary_lenient(&bytes[..], &opts);
    });
}

#[test]
fn corrupted_valid_archives_never_panic() {
    // Start from a well-formed archive, then truncate at an arbitrary
    // offset and flip one arbitrary byte: the readers must error or
    // salvage, never unwind.
    check(
        |g| {
            let records: Vec<HttpRecord> = (0..g.range(1usize..10))
                .map(|i| HttpRecord::new(i as u64, "c", &format!("s{i}.com"), "1.2.3.4", "/x"))
                .collect();
            let mut buf = Vec::new();
            smash_trace::binary::write_binary(&mut buf, &records).unwrap();
            let cut = g.range(0..=buf.len());
            let flip = g.range(0..buf.len().max(1));
            let bit = g.range(0u8..8);
            (buf, cut, flip, bit)
        },
        |(buf, cut, flip, bit)| {
            let mut bytes = buf[..*cut].to_vec();
            if *flip < bytes.len() {
                bytes[*flip] ^= 1 << bit;
            }
            let opts = IngestOptions::default().with_error_budget(1.0);
            let _ = smash_trace::binary::read_binary_lenient(&bytes[..], &strict());
            let _ = smash_trace::binary::read_binary_lenient(&bytes[..], &opts);
        },
    );
}

#[test]
fn jsonl_round_trip() {
    check(
        |g| {
            g.vec(0..10, |g| {
                (
                    hostname(g),
                    g.string(1..=2, "abc"),
                    format!("/{}", g.string(1..=6, LOWER)),
                )
            })
        },
        |recs| {
            let records: Vec<HttpRecord> = recs
                .iter()
                .map(|(h, c, u)| HttpRecord::new(0, c, h, "1.2.3.4", u))
                .collect();
            let mut buf = Vec::new();
            smash_trace::io::write_jsonl(&mut buf, &records).unwrap();
            let (back, _) = smash_trace::io::read_jsonl_lenient(&buf[..], &strict()).unwrap();
            assert_eq!(records, back);
        },
    );
}

/// The reference decoder `decode_record_line` must match: `json::parse`,
/// then `HttpRecord::from_json`, with a failed record classified by its
/// first `server_ip` member alone.
fn oracle(raw: &[u8]) -> Result<HttpRecord, LineError> {
    let value = std::str::from_utf8(raw)
        .ok()
        .and_then(|line| json::parse(line).ok())
        .ok_or(LineError::BadJson)?;
    HttpRecord::from_json(&value).map_err(|_| match value.get("server_ip") {
        Some(Json::Str(s)) if s.parse::<std::net::Ipv4Addr>().is_err() => LineError::BadIp,
        Some(Json::Str(_)) | None => LineError::BadField,
        Some(_) => LineError::BadIp,
    })
}

fn assert_decodes_like_oracle(raw: &[u8]) {
    assert_eq!(
        decode_record_line(raw),
        oracle(raw),
        "line: {}",
        String::from_utf8_lossy(raw)
    );
}

/// A valid record line with every optional field drawn both ways.
fn record_line(g: &mut Gen) -> String {
    let mut r = HttpRecord::new(
        g.range(0u64..100_000),
        &g.string(1..=6, ALNUM),
        &hostname(g),
        &format!(
            "{}.{}.0.{}",
            g.range(1u8..=255),
            g.range(0u8..=255),
            g.range(0u8..=255)
        ),
        &uri(g),
    )
    .with_user_agent(&g.string(0..=8, ALNUM))
    .with_status(g.range(0u16..600))
    .with_resp_bytes(g.range(0u32..5000));
    if g.bool(0.3) {
        r = r.with_referrer(&hostname(g));
    }
    if g.bool(0.3) {
        r = r.with_redirect_to(&hostname(g));
    }
    let line = json::to_string(&r);
    if g.bool(0.2) {
        // Old traces carry no `resp_bytes` member.
        line.replace(&format!(",\"resp_bytes\":{}", r.resp_bytes), "")
    } else {
        line
    }
}

/// Whole members that stress the decoder's field rules when spliced
/// into a record object: duplicates, mistyped and out-of-range values,
/// number spellings, unknown keys with nested values.
const MEMBERS: &[&str] = &[
    r#""timestamp":-0,"#,
    r#""timestamp":1e2,"#,
    r#""status":200.0,"#,
    r#""status":70000,"#,
    r#""status":"200","#,
    r#""resp_bytes":null,"#,
    r#""resp_bytes":-1,"#,
    r#""server_ip":"1.2.3","#,
    r#""server_ip":7,"#,
    r#""server_ip":"9.9.9.9","#,
    r#""referrer":null,"#,
    r#""referrer":["x"],"#,
    r#""host":"A\ud83e\udd80","#,
    r#""extra":{"a":[1,{"b":null}],"c":"\n"},"#,
    r#""client":"c","client":5,"#,
];

/// Fragments that are not members: broken escapes, stray brackets,
/// control bytes.
const FRAGMENTS: &[&str] = &["\\ud800", "\\u00e9", "[[[[", "]}", "null", " \t", "\u{1}"];

/// A valid record line with one to four random edits: members spliced
/// in after a `{` or `,` (still valid JSON, so the field rules are
/// exercised), fragments spliced anywhere, byte overwrites, deletions,
/// truncation.
fn mutated_line(g: &mut Gen) -> Vec<u8> {
    let mut bytes = record_line(g).into_bytes();
    for _ in 0..g.range(1usize..=4) {
        let at = g.range(0..=bytes.len());
        match g.range(0u8..8) {
            0 if at < bytes.len() => {
                bytes[at] = *g.pick(b"{}[]\",:\\ -.eE0123456789nu\xff");
            }
            1 if at < bytes.len() => {
                let end = g.range(at..=bytes.len().min(at + 8));
                bytes.drain(at..end);
            }
            2 => bytes.truncate(at),
            3 => {
                let fragment = g.pick(FRAGMENTS).as_bytes();
                bytes.splice(at..at, fragment.iter().copied());
            }
            _ => {
                let boundaries: Vec<usize> = (0..bytes.len())
                    .filter(|&i| bytes[i] == b'{' || bytes[i] == b',')
                    .map(|i| i + 1)
                    .collect();
                let at = boundaries.get(g.range(0..boundaries.len().max(1)));
                let at = at.copied().unwrap_or(0);
                let member = g.pick(MEMBERS).as_bytes();
                bytes.splice(at..at, member.iter().copied());
            }
        }
    }
    bytes
}

#[test]
fn record_decoder_matches_the_tree_oracle_on_arbitrary_bytes() {
    check(raw_bytes, |bytes| assert_decodes_like_oracle(bytes));
}

#[test]
fn record_decoder_matches_the_tree_oracle_on_mutated_lines() {
    check(mutated_line, |bytes| assert_decodes_like_oracle(bytes));
}

#[test]
fn record_decoder_matches_the_tree_oracle_on_valid_lines() {
    check(record_line, |line| {
        assert!(decode_record_line(line.as_bytes()).is_ok(), "line: {line}");
        assert_decodes_like_oracle(line.as_bytes());
    });
}

#[test]
fn record_decoder_matches_the_tree_oracle_on_edge_cases() {
    const BASE: &str = r#""timestamp":5,"client":"c","host":"h.com","server_ip":"1.2.3.4","method":"GET","uri":"/","user_agent":"","referrer":null,"status":200"#;
    let with = |extra: &str| format!("{{{BASE},{extra}}}");
    let sub = |from: &str, to: &str| format!("{{{},\"redirect_to\":null}}", BASE.replace(from, to));
    let cases = [
        // Absent optionals: resp_bytes defaults, the nullable two do not.
        with(r#""redirect_to":null"#),
        format!("{{{BASE}}}"),
        sub(r#","referrer":null"#, ""),
        // Duplicate keys: the first occurrence wins, mistyped or not.
        with(r#""redirect_to":null,"status":404"#),
        with(r#""redirect_to":null,"host":"second.com""#),
        format!(r#"{{"status":"x",{BASE},"redirect_to":null}}"#),
        format!(r#"{{"server_ip":"9.9.9.9",{BASE},"redirect_to":null}}"#),
        format!(r#"{{"server_ip":"999.1.1.1",{BASE},"redirect_to":null}}"#),
        format!(r#"{{"server_ip":[1],{BASE},"redirect_to":null}}"#),
        // Unknown keys with nested values, valid and not.
        with(r#""redirect_to":null,"x":{"y":[1,{"z":"é"}],"w":[]}"#),
        with(r#""redirect_to":null,"x":{"y":[1,}"#),
        with(r#""redirect_to":null,"x":"\q""#),
        with(&format!(
            r#""redirect_to":null,"x":{}1{}"#,
            "[".repeat(200),
            "]".repeat(200)
        )),
        // Escapes and surrogate pairs, in values and in keys.
        with(r#""redirect_to":"\ud83e\udd80A\/\n""#),
        with(r#""redirect_to":"\ud83e""#),
        with(r#""redirect_to":"\udd80""#),
        with(r#""redirect_to":"\ud83eA""#),
        with(r#""redirect\u005fto":"x.com""#),
        // Numbers: integral floats, negative zero, exponents, overflow.
        with(r#""redirect_to":null,"resp_bytes":200.0"#),
        with(r#""redirect_to":null,"resp_bytes":-0"#),
        with(r#""redirect_to":null,"resp_bytes":1e2"#),
        with(r#""redirect_to":null,"resp_bytes":1.5"#),
        with(r#""redirect_to":null,"resp_bytes":-1"#),
        with(r#""redirect_to":null,"resp_bytes":4294967296"#),
        with(r#""redirect_to":null,"resp_bytes":1e999"#),
        with(r#""redirect_to":null,"resp_bytes":null"#),
        sub(r#""status":200"#, r#""status":65536"#),
        sub(r#""timestamp":5"#, r#""timestamp":18446744073709551616"#),
        sub(r#""timestamp":5"#, r#""timestamp":99999999999999999999"#),
        sub(r#""timestamp":5"#, r#""timestamp":-9223372036854775809"#),
        // Surrounding whitespace and trailing garbage.
        format!(" \t\r\n{{ {BASE} , \"redirect_to\" : null }}\r\n "),
        format!("{{{BASE},\"redirect_to\":null}} x"),
        format!("{{{BASE},\"redirect_to\":null}}{{}}"),
        // Valid JSON that is not a record object.
        "[1,2]".to_owned(),
        "\"s\"".to_owned(),
        "null".to_owned(),
        "{}".to_owned(),
        r#"{"server_ip":"999.0.0.1"}"#.to_owned(),
        String::new(),
        "   ".to_owned(),
    ];
    for line in &cases {
        assert_decodes_like_oracle(line.as_bytes());
    }
    // The edge cases cover every outcome.
    let outcomes: std::collections::HashSet<String> = cases
        .iter()
        .map(|l| match decode_record_line(l.as_bytes()) {
            Ok(_) => "ok".to_owned(),
            Err(e) => e.class().to_owned(),
        })
        .collect();
    assert_eq!(outcomes.len(), 4, "outcomes: {outcomes:?}");
}
