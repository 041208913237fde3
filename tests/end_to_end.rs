//! End-to-end integration: the full pipeline over generated scenarios.

use smash::core::{Smash, SmashConfig};
use smash::support::json::{self, FromJson};
use smash::synth::Scenario;
use smash::trace::IngestReport;
use std::path::{Path, PathBuf};
use std::process::Command;

#[test]
fn small_day_recovers_planted_cnc_campaigns() {
    let data = Scenario::small_day(42).generate();
    let report = Smash::new(SmashConfig::default()).run(&data.dataset, &data.whois);
    // The two C&C herds (flux + DGA) have three correlating dimensions
    // each and must be recovered at the default threshold.
    for name in ["flux-small", "dga-small"] {
        let camp = data
            .truth
            .campaigns()
            .iter()
            .find(|c| c.name == name)
            .unwrap();
        let servers = data.truth.servers_of_campaign(camp.id);
        let recovered = servers
            .iter()
            .filter(|s| report.campaigns.iter().any(|c| c.contains_server(s)))
            .count();
        assert_eq!(recovered, servers.len(), "campaign {name}");
    }
}

#[test]
fn no_benign_servers_are_inferred() {
    let data = Scenario::small_day(9).generate();
    let report = Smash::new(SmashConfig::default()).run(&data.dataset, &data.whois);
    for c in &report.campaigns {
        for s in &c.servers {
            assert!(
                data.truth.server(s).is_some(),
                "benign server {s} inferred as malicious"
            );
        }
    }
}

#[test]
fn runs_are_deterministic() {
    let data = Scenario::small_day(3).generate();
    let a = Smash::new(SmashConfig::default()).run(&data.dataset, &data.whois);
    let b = Smash::new(SmashConfig::default()).run(&data.dataset, &data.whois);
    assert_eq!(a.campaign_server_names(), b.campaign_server_names());
    // And the generator itself is a pure function of the seed.
    let data2 = Scenario::small_day(3).generate();
    let c = Smash::new(SmashConfig::default()).run(&data2.dataset, &data2.whois);
    assert_eq!(a.campaign_server_names(), c.campaign_server_names());
}

#[test]
fn threshold_sweep_is_monotone() {
    let data = Scenario::small_day(5).generate();
    let mut prev = usize::MAX;
    for t in [0.5, 0.8, 1.0, 1.5] {
        let report = Smash::new(
            SmashConfig::default()
                .with_threshold(t)
                .with_single_client_threshold(t),
        )
        .run(&data.dataset, &data.whois);
        let n = report.inferred_server_count();
        assert!(n <= prev, "servers grew from {prev} to {n} at thresh {t}");
        prev = n;
    }
}

#[test]
fn popular_servers_are_filtered_before_mining() {
    let data = Scenario::small_day(6).generate();
    // An aggressive IDF threshold removes almost everything…
    let strict =
        Smash::new(SmashConfig::default().with_idf_threshold(0)).run(&data.dataset, &data.whois);
    assert_eq!(strict.kept_servers, 0);
    assert!(strict.campaigns.is_empty());
    // …while the default keeps nearly all servers at this scale.
    let default = Smash::new(SmashConfig::default()).run(&data.dataset, &data.whois);
    assert!(default.kept_servers > data.dataset.server_count() * 9 / 10);
}

#[test]
fn single_client_campaigns_are_flagged() {
    let data = smash::synth::Scenario::data2011_day(11).generate();
    let report = Smash::new(SmashConfig::default()).run(&data.dataset, &data.whois);
    // The presets plant several bots:1 campaigns (Appendix C regime).
    assert!(
        report.campaigns.iter().any(|c| c.single_client),
        "no single-client campaigns inferred"
    );
    for c in report.campaigns.iter().filter(|c| c.single_client) {
        assert!(c.client_count <= 1);
    }
}

#[test]
fn cli_help_exits_zero_and_mentions_lint() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_smash"))
        .arg("--help")
        .output()
        .expect("smash binary runs");
    assert!(out.status.success(), "--help must exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("smash-lint"),
        "--help must point at the lint subcommand"
    );
    assert!(out.stderr.is_empty(), "--help writes to stdout only");
}

#[test]
fn cli_unknown_flag_exits_two_on_stderr() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_smash"))
        .arg("--no-such-flag")
        .output()
        .expect("smash binary runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag"),
        "usage error goes to stderr, got: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "usage errors must not pollute stdout"
    );
}

#[test]
fn cli_no_args_prints_usage_to_stderr() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_smash"))
        .output()
        .expect("smash binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "bare invocation is a usage error"
    );
    assert!(!out.stderr.is_empty(), "usage text goes to stderr");
}

#[test]
fn facade_reexports_compose() {
    // The facade's modules interoperate without importing sub-crates.
    let records = vec![
        smash::trace::HttpRecord::new(0, "c1", "a.evil.biz", "185.0.0.1", "/gate.php?x=1"),
        smash::trace::HttpRecord::new(1, "c1", "b.evil.biz", "185.0.0.1", "/gate.php?x=2"),
    ];
    let ds = smash::trace::TraceDataset::from_records(records);
    let whois = smash::whois::WhoisRegistry::new();
    let report = Smash::new(SmashConfig::default().with_threshold(0.0)).run(&ds, &whois);
    // a.evil.biz and b.evil.biz aggregate to the single second-level
    // domain evil.biz during preprocessing.
    assert_eq!(report.kept_servers, 1);
}

/// A generated clean trace and a dirty copy with three malformed lines
/// appended (bad JSON, a bad IP, invalid UTF-8). Returns the directory,
/// both paths, and the clean trace's line count.
fn dirty_trace_fixture(tag: &str) -> (PathBuf, PathBuf, PathBuf, usize) {
    let dir = std::env::temp_dir().join(format!("smash-e2e-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let clean = dir.join("clean.jsonl");
    let dirty = dir.join("dirty.jsonl");
    let gen = smash_cli()
        .args(["generate", "small", clean.to_str().unwrap(), "--seed", "42"])
        .output()
        .unwrap();
    assert!(gen.status.success(), "generate failed: {gen:?}");
    let mut bytes = std::fs::read(&clean).unwrap();
    let lines = bytes.iter().filter(|&&b| b == b'\n').count();
    bytes.extend_from_slice(b"{broken\n");
    bytes.extend_from_slice(
        br#"{"timestamp":0,"client":"c","host":"h","server_ip":"999.1.2.3","method":"GET","uri":"/","user_agent":"","referrer":null,"status":200,"redirect_to":null}"#,
    );
    bytes.extend_from_slice(b"\n\xff\xfe\n");
    std::fs::write(&dirty, bytes).unwrap();
    (dir, clean, dirty, lines)
}

fn smash_cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_smash"))
}

fn sidecar(trace: &Path) -> PathBuf {
    PathBuf::from(format!("{}.quarantine", trace.display()))
}

#[test]
fn cli_default_budget_rejects_a_dirty_trace_at_its_first_bad_line() {
    let (dir, _, dirty, lines) = dirty_trace_fixture("strict");
    let out = smash_cli()
        .args(["analyze", dirty.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let want = format!("jsonl line {}: bad-json", lines + 1);
    assert!(stderr.contains(&want), "want `{want}`, got: {stderr}");
    assert!(out.stdout.is_empty());
    assert!(!sidecar(&dirty).exists(), "a strict run writes no sidecar");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_error_budget_ingests_a_dirty_trace_like_the_clean_one() {
    let (dir, clean, dirty, lines) = dirty_trace_fixture("budget");
    let report = dir.join("report.json");
    let analyze = |trace: &Path, extra: &[&str]| {
        let out = smash_cli()
            .args(["analyze", trace.to_str().unwrap()])
            .args(["--json", report.to_str().unwrap()])
            .args(extra)
            .output()
            .unwrap();
        assert!(out.status.success(), "analyze failed: {out:?}");
        out.stdout
    };
    let clean_stdout = analyze(&clean, &[]);
    let dirty_stdout = analyze(&dirty, &["--error-budget", "0.05"]);
    assert_eq!(clean_stdout, dirty_stdout);

    let spilled = std::fs::read(sidecar(&dirty)).unwrap();
    assert_eq!(spilled.iter().filter(|&&b| b == b'\n').count(), 3);
    assert!(spilled.starts_with(b"{broken\n"));

    let doc = json::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
    let ingest = doc.get("health").and_then(|h| h.get("ingest")).unwrap();
    let expected = IngestReport {
        lines: lines + 3,
        records: lines,
        bad_json: 2,
        bad_ip: 1,
        quarantined: 3,
        ..IngestReport::default()
    };
    assert_eq!(IngestReport::from_json(ingest).unwrap(), expected);

    // `--quarantine` names the sidecar under any positive budget.
    let named = dir.join("named.quarantine");
    let out = smash_cli()
        .args(["stats", dirty.to_str().unwrap(), "--error-budget", "0.5"])
        .args(["--quarantine", named.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "stats failed: {out:?}");
    assert_eq!(std::fs::read(&named).unwrap(), spilled);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_ingest_usage_errors_exit_two() {
    for (args, want) in [
        (vec!["--lenient"], "unknown flag `--lenient`"),
        (vec!["--error-budget", "NaN"], "must be within [0, 1]"),
        (vec!["--error-budget", "1.5"], "must be within [0, 1]"),
    ] {
        let out = smash_cli()
            .args(["stats", "trace.jsonl"])
            .args(&args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(want), "{args:?}: {stderr}");
    }
}
