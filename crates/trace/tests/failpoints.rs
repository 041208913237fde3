//! Ingest failpoints (DESIGN.md §6): the JSONL reader's `ingest/jsonl`
//! site and the quarantine spill's `ingest/quarantine` retry budget.
//!
//! The failpoint registry is process-global, so an armed site would
//! fail any other read running in the same test binary. These tests
//! live in a binary of their own and take one lock each, as
//! `tests/governor.rs` does at the workspace root.

use smash_support::failpoint::{self, Action};
use smash_trace::io::{read_jsonl_lenient, write_jsonl};
use smash_trace::{HttpRecord, IngestError, IngestOptions};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

fn locked() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A fresh directory per call: the process id plus a counter keep
/// parallel test processes from racing on a shared path.
fn unique_test_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "smash-trace-failpoints-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// 97 good lines followed by three malformed ones.
fn dirty_buffer() -> Vec<u8> {
    let good: Vec<HttpRecord> = (0..97)
        .map(|i| HttpRecord::new(i, "c", "ok.com", "1.1.1.1", "/"))
        .collect();
    let mut buf = Vec::new();
    write_jsonl(&mut buf, &good).unwrap();
    buf.extend_from_slice(b"{not json at all\n{still not json\n\xff\xfe garbage bytes\n");
    buf
}

#[test]
fn quarantine_spill_retries_transient_write_errors() {
    let _g = locked();
    let dir = unique_test_dir("quarantine-retry");
    let sidecar = dir.join("trace.quarantine");
    let opts = IngestOptions::default().with_quarantine(&sidecar);
    // Two transient failures: the first spill succeeds on attempt 3.
    failpoint::arm("ingest/quarantine", Action::ErrorTimes(2));
    let res = read_jsonl_lenient(&dirty_buffer()[..], &opts);
    failpoint::disarm("ingest/quarantine");
    let (_, report) = res.unwrap();
    assert_eq!(report.quarantined, 3);
    let spilled = std::fs::read(&sidecar).unwrap();
    assert_eq!(spilled.iter().filter(|&&b| b == b'\n').count(), 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quarantine_spill_gives_up_after_bounded_retries() {
    let _g = locked();
    let dir = unique_test_dir("quarantine-persistent");
    let sidecar = dir.join("trace.quarantine");
    let opts = IngestOptions::default().with_quarantine(&sidecar);
    // More consecutive failures than the retry budget: a persistent
    // error must surface, not loop forever.
    failpoint::arm("ingest/quarantine", Action::ErrorTimes(99));
    let res = read_jsonl_lenient(&dirty_buffer()[..], &opts);
    failpoint::disarm("ingest/quarantine");
    assert!(matches!(res, Err(IngestError::Io(_))));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ingest_failpoint_surfaces_as_error() {
    let _g = locked();
    failpoint::arm("ingest/jsonl", Action::Error);
    let res = read_jsonl_lenient(&b"{}\n"[..], &IngestOptions::default());
    failpoint::disarm("ingest/jsonl");
    assert!(matches!(res, Err(IngestError::Io(_))));
}
