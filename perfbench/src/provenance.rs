//! Provenance stated beside every result: code revision, toolchain,
//! cores and threads, configuration fingerprint, workload seed, and the
//! size and digest of the inputs.

use smash_core::SmashConfig;
use smash_support::json::Json;
use smash_support::par;
use std::process::Command;

/// Runs `cmd args…` and returns its trimmed standard output, or `None`
/// when it cannot run or fails.
fn capture(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// The fields known before any input is generated.
pub fn base(workload: &str, seed: u64, seconds: u64, trace: bool) -> Vec<(String, Json)> {
    let rev = capture("git", &["rev-parse", "HEAD"]);
    let dirty = rev
        .as_ref()
        .and_then(|_| capture("git", &["status", "--porcelain"]))
        .map(|s| Json::Bool(!s.is_empty()))
        .unwrap_or(Json::Null);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("workload".to_owned(), Json::Str(workload.to_owned())),
        ("seed".to_owned(), Json::UInt(seed)),
        ("seconds".to_owned(), Json::UInt(seconds)),
        ("trace".to_owned(), Json::Bool(trace)),
        ("git_rev".to_owned(), rev.map_or(Json::Null, Json::Str)),
        ("git_dirty".to_owned(), dirty),
        (
            "rustc".to_owned(),
            capture("rustc", &["-V"]).map_or(Json::Null, Json::Str),
        ),
        ("nproc".to_owned(), Json::UInt(nproc as u64)),
        (
            "par_threads".to_owned(),
            Json::UInt(par::current_num_threads() as u64),
        ),
        (
            "config_fingerprint".to_owned(),
            Json::Str(SmashConfig::default().fingerprint()),
        ),
    ]
}

/// One input's description: a label, record count, byte count and
/// digest.
pub fn input(label: &str, records: usize, bytes: usize, digest: u64) -> Json {
    Json::Obj(vec![
        ("input".to_owned(), Json::Str(label.to_owned())),
        ("records".to_owned(), Json::UInt(records as u64)),
        ("bytes".to_owned(), Json::UInt(bytes as u64)),
        ("digest".to_owned(), Json::Str(format!("{digest:016x}"))),
    ])
}
