//! JSONL import/export of raw HTTP records.
//!
//! The paper's input is PCAP; our portable interchange format is one JSON
//! object per line, which is trivially produced from any flow log.
//!
//! Every line goes through one decoder, [`decode_record_line`]. It scans
//! the line's object members straight into an [`HttpRecord`] in one
//! linear pass — no `Json` tree — and classifies a line it cannot decode
//! as a [`LineError`]. There is one reader, [`read_jsonl_lenient`], and
//! its [`IngestOptions::error_budget`] decides what a bad line does.
//! Dirty edge-of-ISP flow logs, where malformed lines are the norm, get
//! a budget above 0: bad lines are counted per error class in an
//! [`IngestReport`] (and optionally spilled to a quarantine sidecar),
//! and the budget distinguishes a dirty trace (ingest what you can) from
//! the wrong file entirely (fail fast with
//! [`IngestError::BudgetExceeded`]). A budget of 0 is strict — right for
//! files we wrote ourselves: the first bad line fails the read with an
//! error naming its line number and class. `smash serve` decodes each
//! `INGEST` payload with the same function.

use crate::record::HttpRecord;
use smash_support::ckpt;
use smash_support::failpoint;
use smash_support::governor::CancelToken;
use smash_support::impl_json_struct;
use smash_support::json::{FromJson, JsonError, Scanner};
use smash_support::retry;
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};

/// Per-error-class counts from one ingest.
///
/// `lines` counts every non-blank input line (or declared record, for
/// the binary format); `records` counts the ones that decoded. The
/// difference is broken down by error class, so an operator can tell
/// "5% of lines had a mangled IP field" from "this is not JSONL at all".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Non-blank lines seen (binary: records the header declared, plus
    /// one for any bytes after them).
    pub lines: usize,
    /// Records successfully decoded.
    pub records: usize,
    /// Lines longer than [`IngestOptions::max_line_bytes`].
    pub oversized: usize,
    /// Lines that were not valid UTF-8 JSON.
    pub bad_json: usize,
    /// Well-formed JSON whose `server_ip` was not an IPv4 literal.
    pub bad_ip: usize,
    /// Well-formed JSON with another missing or mistyped field
    /// (binary: records lost to a corrupt region, or trailing bytes).
    pub bad_field: usize,
    /// Bad lines spilled to the quarantine sidecar.
    pub quarantined: usize,
    /// Binary only: decoding stopped early at a corrupt tail.
    pub truncated_tail: bool,
}

impl_json_struct!(IngestReport {
    lines,
    records,
    oversized,
    bad_json,
    bad_ip,
    bad_field,
    quarantined,
    truncated_tail,
});

impl IngestReport {
    /// Total rejected lines across all error classes.
    pub fn bad_lines(&self) -> usize {
        self.oversized + self.bad_json + self.bad_ip + self.bad_field
    }

    /// Fraction of input lines rejected (0 for an empty input).
    pub fn bad_fraction(&self) -> f64 {
        if self.lines == 0 {
            0.0
        } else {
            self.bad_lines() as f64 / self.lines as f64
        }
    }
}

/// Tuning knobs for ingest.
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// Lines longer than this are rejected unread (guards against
    /// pathological inputs blowing up memory). Default 1 MiB.
    pub max_line_bytes: usize,
    /// Maximum tolerated [`IngestReport::bad_fraction`]; exceeding it
    /// fails the whole ingest with [`IngestError::BudgetExceeded`].
    /// Default 0.05 — the "dirty trace vs. wrong file" line. At 0 the
    /// readers are strict and stop at the first bad line.
    pub error_budget: f64,
    /// When set, raw rejected lines are appended to this sidecar file
    /// for offline inspection.
    pub quarantine: Option<PathBuf>,
    /// When set, the readers poll this token every
    /// [`CANCEL_POLL_LINES`] lines and abort with
    /// [`IngestError::Cancelled`] once it fires (governor deadlines and
    /// run-level cancellation reach ingest through here).
    pub cancel: Option<CancelToken>,
}

impl Default for IngestOptions {
    fn default() -> Self {
        Self {
            max_line_bytes: 1 << 20,
            error_budget: 0.05,
            quarantine: None,
            cancel: None,
        }
    }
}

impl IngestOptions {
    /// Sets the error budget (fraction of bad lines tolerated).
    pub fn with_error_budget(mut self, budget: f64) -> Self {
        self.error_budget = budget;
        self
    }

    /// Sets the quarantine sidecar path.
    pub fn with_quarantine<P: Into<PathBuf>>(mut self, path: P) -> Self {
        self.quarantine = Some(path.into());
        self
    }

    /// Sets the per-line size cap.
    pub fn with_max_line_bytes(mut self, n: usize) -> Self {
        self.max_line_bytes = n;
        self
    }

    /// Sets the cooperative cancellation token polled during ingest.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

/// Lines (or binary records) between cancellation-token polls: frequent
/// enough that a cancelled ingest stops within milliseconds, rare enough
/// that the poll never shows up in a profile.
pub const CANCEL_POLL_LINES: usize = 4096;

/// Returns [`IngestError::Cancelled`] if the optional token has fired.
pub(crate) fn check_cancel(cancel: Option<&CancelToken>) -> Result<(), IngestError> {
    match cancel {
        Some(t) if t.is_cancelled() => Err(IngestError::Cancelled(
            t.reason()
                .unwrap_or_else(|| "governor: cancelled".to_owned()),
        )),
        _ => Ok(()),
    }
}

/// An ingest that could not produce a usable dataset.
#[derive(Debug)]
pub enum IngestError {
    /// Underlying I/O failure (including quarantine-sidecar writes), a
    /// structurally unreadable binary file (bad magic / corrupt string
    /// table) — the "wrong file" signal — or, at error budget 0, the
    /// first bad JSONL line (`jsonl line N: <class>`).
    Io(io::Error),
    /// More lines were bad than the error budget allows.
    BudgetExceeded {
        /// Rejected lines, by class.
        report: IngestReport,
        /// The budget that was exceeded.
        budget: f64,
    },
    /// The [`IngestOptions::cancel`] token fired (deadline or explicit
    /// cancellation); the payload is the cancellation reason.
    Cancelled(String),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "ingest failed: {e}"),
            IngestError::BudgetExceeded { report, budget } => write!(
                f,
                "ingest error budget exceeded: {}/{} lines bad ({:.1}% > {:.1}% budget; \
                 {} oversized, {} bad json, {} bad ip, {} bad field) — is this the right file?",
                report.bad_lines(),
                report.lines,
                report.bad_fraction() * 100.0,
                budget * 100.0,
                report.oversized,
                report.bad_json,
                report.bad_ip,
                report.bad_field,
            ),
            IngestError::Cancelled(reason) => write!(f, "ingest cancelled: {reason}"),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<io::Error> for IngestError {
    fn from(e: io::Error) -> Self {
        IngestError::Io(e)
    }
}

/// Lazily-opened quarantine sidecar: bad lines only, created on first
/// spill so a clean ingest leaves no empty sidecar behind.
struct Quarantine<'a> {
    path: Option<&'a Path>,
    file: Option<BufWriter<File>>,
}

impl<'a> Quarantine<'a> {
    fn new(path: Option<&'a Path>) -> Self {
        Self { path, file: None }
    }

    /// Appends one bad line, retrying transient I/O errors with the
    /// same bounded deterministic backoff the checkpoint layer uses
    /// (the jitter seed is a function of the sidecar path). A flaky
    /// filesystem costs a retry, not the quarantined evidence.
    fn spill(&mut self, raw: &[u8], report: &mut IngestReport) -> io::Result<()> {
        let Some(path) = self.path else {
            return Ok(());
        };
        let file = &mut self.file;
        let (res, _retries) = retry::retry_transient(
            ckpt::fnv1a(path.as_os_str().as_encoded_bytes()),
            || -> io::Result<()> {
                failpoint::check("ingest/quarantine").map_err(io::Error::other)?;
                if file.is_none() {
                    *file = Some(BufWriter::new(File::create(path)?));
                }
                let f = file.as_mut().expect("just created");
                f.write_all(raw)?;
                f.write_all(b"\n")?;
                Ok(())
            },
        );
        res?;
        report.quarantined += 1;
        Ok(())
    }

    fn finish(self) -> io::Result<()> {
        match self.file {
            Some(mut f) => f.flush(),
            None => Ok(()),
        }
    }
}

/// Why one record line failed to decode, mirroring the
/// [`IngestReport`] error classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineError {
    /// Not valid UTF-8 JSON.
    BadJson,
    /// Well-formed JSON whose `server_ip` was not an IPv4 literal.
    BadIp,
    /// Well-formed JSON with another missing or mistyped field.
    BadField,
}

impl LineError {
    /// The error-class slug used in protocol `ERR` replies and reports.
    pub fn class(self) -> &'static str {
        match self {
            LineError::BadJson => "bad-json",
            LineError::BadIp => "bad-ip",
            LineError::BadField => "bad-field",
        }
    }
}

/// Decodes one JSONL record line: the per-line core of every reader,
/// shared with the serve layer's wire protocol so a hostile `INGEST`
/// line is classified exactly like a hostile trace line.
///
/// The line must be one JSON value. Members are read in one pass: the
/// first occurrence of a key wins, unknown keys are skipped (their
/// values must still be valid JSON), integers follow the
/// [`FromJson`] rules, and an absent `resp_bytes` is 0. A line that is
/// valid JSON but not a record is `BadIp` when its first `server_ip` is
/// not an IPv4 string, and `BadField` otherwise.
///
/// # Errors
///
/// A [`LineError`] naming the failing class; never panics, whatever the
/// bytes.
pub fn decode_record_line(raw: &[u8]) -> Result<HttpRecord, LineError> {
    let line = std::str::from_utf8(raw).map_err(|_| LineError::BadJson)?;
    let mut s = Scanner::new(line);
    let mut fields = RecordFields::default();
    let scanned = if s.peek_token() == Some(b'{') {
        s.object(|s, key| fields.member(s, &key))
    } else {
        s.skip_value()
    };
    scanned
        .and_then(|()| s.finish())
        .map_err(|_| LineError::BadJson)?;
    let class = match fields.server_ip {
        Some(Err(Mistyped)) => LineError::BadIp,
        _ => LineError::BadField,
    };
    fields.into_record().ok_or(class)
}

/// A member value of the wrong JSON type or out of range for its field.
struct Mistyped;

/// One record field as the decoder found it: `None` before the key's
/// first occurrence, then that occurrence's value or [`Mistyped`].
type Slot<T> = Option<Result<T, Mistyped>>;

/// A reader of one member value: the outer error is a JSON syntax error
/// (the line is `bad-json`), the inner one a type mismatch.
type ReadValue<T> = fn(&mut Scanner<'_>) -> Result<Result<T, Mistyped>, JsonError>;

/// The [`HttpRecord`] fields of one line, filled member by member.
#[derive(Default)]
struct RecordFields {
    timestamp: Slot<u64>,
    client: Slot<String>,
    host: Slot<String>,
    server_ip: Slot<Ipv4Addr>,
    method: Slot<String>,
    uri: Slot<String>,
    user_agent: Slot<String>,
    referrer: Slot<Option<String>>,
    status: Slot<u16>,
    resp_bytes: Slot<u32>,
    redirect_to: Slot<Option<String>>,
}

impl RecordFields {
    /// Consumes the value of the member `key`.
    fn member(&mut self, s: &mut Scanner<'_>, key: &str) -> Result<(), JsonError> {
        match key {
            "timestamp" => fill(&mut self.timestamp, s, read_uint),
            "client" => fill(&mut self.client, s, read_string),
            "host" => fill(&mut self.host, s, read_string),
            "server_ip" => fill(&mut self.server_ip, s, read_ipv4),
            "method" => fill(&mut self.method, s, read_string),
            "uri" => fill(&mut self.uri, s, read_string),
            "user_agent" => fill(&mut self.user_agent, s, read_string),
            "referrer" => fill(&mut self.referrer, s, read_opt_string),
            "status" => fill(&mut self.status, s, read_uint),
            "resp_bytes" => fill(&mut self.resp_bytes, s, read_uint),
            "redirect_to" => fill(&mut self.redirect_to, s, read_opt_string),
            _ => s.skip_value(),
        }
    }

    /// The record, or `None` when a required field is missing or any
    /// field is mistyped.
    fn into_record(self) -> Option<HttpRecord> {
        fn get<T>(slot: Slot<T>) -> Option<T> {
            slot?.ok()
        }
        Some(HttpRecord {
            timestamp: get(self.timestamp)?,
            client: get(self.client)?,
            host: get(self.host)?,
            server_ip: get(self.server_ip)?,
            method: get(self.method)?,
            uri: get(self.uri)?,
            user_agent: get(self.user_agent)?,
            referrer: get(self.referrer)?,
            status: get(self.status)?,
            resp_bytes: get(self.resp_bytes.or(Some(Ok(0))))?,
            redirect_to: get(self.redirect_to)?,
        })
    }
}

/// Reads a member into `slot` on its key's first occurrence; a later
/// duplicate is validated and dropped.
fn fill<T>(slot: &mut Slot<T>, s: &mut Scanner<'_>, read: ReadValue<T>) -> Result<(), JsonError> {
    if slot.is_some() {
        return s.skip_value();
    }
    *slot = Some(read(s)?);
    Ok(())
}

fn mistyped<T>(s: &mut Scanner<'_>) -> Result<Result<T, Mistyped>, JsonError> {
    s.skip_value().map(|()| Err(Mistyped))
}

fn read_string(s: &mut Scanner<'_>) -> Result<Result<String, Mistyped>, JsonError> {
    match s.peek_token() {
        Some(b'"') => Ok(Ok(s.string()?.into_owned())),
        _ => mistyped(s),
    }
}

fn read_opt_string(s: &mut Scanner<'_>) -> Result<Result<Option<String>, Mistyped>, JsonError> {
    match s.peek_token() {
        Some(b'"') => Ok(Ok(Some(s.string()?.into_owned()))),
        Some(b'n') => s.value().map(|_| Ok(None)),
        _ => mistyped(s),
    }
}

fn read_ipv4(s: &mut Scanner<'_>) -> Result<Result<Ipv4Addr, Mistyped>, JsonError> {
    match s.peek_token() {
        Some(b'"') => Ok(s.string()?.parse().map_err(|_| Mistyped)),
        _ => mistyped(s),
    }
}

/// Integers go through the same [`FromJson`] conversion as the tree
/// path: a `UInt`, a non-negative `Int` or an integral `Float`,
/// range-checked for `T`.
fn read_uint<T: FromJson>(s: &mut Scanner<'_>) -> Result<Result<T, Mistyped>, JsonError> {
    match s.peek_token() {
        Some(b) if b == b'-' || b.is_ascii_digit() => {
            Ok(T::from_json(&s.number()?).map_err(|_| Mistyped))
        }
        _ => mistyped(s),
    }
}

/// Reads JSONL records from `r`: malformed lines are counted and
/// optionally quarantined, within [`IngestOptions::error_budget`].
/// Lines of ASCII whitespace only are skipped.
///
/// A `&mut` reader may be passed since `Read` is implemented for mutable
/// references.
///
/// # Errors
///
/// Returns [`IngestError::Io`] on I/O failure or, at budget 0, at the
/// first bad line (the message names its 1-based line number and
/// class), and [`IngestError::BudgetExceeded`] when more than
/// [`IngestOptions::error_budget`] of the lines were bad.
pub fn read_jsonl_lenient<R: Read>(
    r: R,
    opts: &IngestOptions,
) -> Result<(Vec<HttpRecord>, IngestReport), IngestError> {
    failpoint::check("ingest/jsonl").map_err(io::Error::other)?;
    check_cancel(opts.cancel.as_ref())?;
    let mut report = IngestReport::default();
    let mut out = Vec::new();
    let mut quarantine = Quarantine::new(opts.quarantine.as_deref());
    let mut reader = BufReader::new(r);
    let mut raw: Vec<u8> = Vec::new();
    for line_no in 1usize.. {
        raw.clear();
        // Byte-oriented reading: invalid UTF-8 must be a counted error
        // class, not an abort (BufRead::lines would error out).
        if reader.read_until(b'\n', &mut raw)? == 0 {
            break;
        }
        while raw.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
            raw.pop();
        }
        if raw.iter().all(|b| b.is_ascii_whitespace()) {
            continue;
        }
        report.lines += 1;
        if report.lines % CANCEL_POLL_LINES == 0 {
            check_cancel(opts.cancel.as_ref())?;
        }
        let class = if raw.len() > opts.max_line_bytes {
            report.oversized += 1;
            "oversized"
        } else {
            match decode_record_line(&raw) {
                Ok(rec) => {
                    report.records += 1;
                    out.push(rec);
                    continue;
                }
                Err(e) => {
                    match e {
                        LineError::BadJson => report.bad_json += 1,
                        LineError::BadIp => report.bad_ip += 1,
                        LineError::BadField => report.bad_field += 1,
                    }
                    e.class()
                }
            }
        };
        quarantine.spill(&raw, &mut report)?;
        if opts.error_budget <= 0.0 {
            // Any bad line exceeds a zero budget: stop here and say where.
            quarantine.finish()?;
            return Err(IngestError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("jsonl line {line_no}: {class}"),
            )));
        }
    }
    quarantine.finish()?;
    if report.bad_fraction() > opts.error_budget {
        return Err(IngestError::BudgetExceeded {
            report,
            budget: opts.error_budget,
        });
    }
    Ok((out, report))
}

/// Writes records as JSONL to `w`.
///
/// A `&mut` writer may be passed since `Write` is implemented for mutable
/// references.
///
/// # Errors
///
/// Returns any underlying I/O or serialization error.
pub fn write_jsonl<W: Write>(mut w: W, records: &[HttpRecord]) -> io::Result<()> {
    for r in records {
        let line = smash_support::json::to_string(r);
        w.write_all(line.as_bytes())?;
        w.write_all(b"\n")?;
    }
    Ok(())
}

/// Writes records to the file at `path`, creating or truncating it.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_jsonl_file<P: AsRef<Path>>(path: P, records: &[HttpRecord]) -> io::Result<()> {
    write_jsonl(BufWriter::new(File::create(path)?), records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// A fresh directory per call: the process id plus a counter keep
    /// parallel test invocations (and parallel `cargo test` processes)
    /// from racing on a shared fixed path.
    fn unique_test_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "smash-trace-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Error budget 0: the first bad line fails the read.
    fn strict() -> IngestOptions {
        IngestOptions::default().with_error_budget(0.0)
    }

    fn read(bytes: &[u8]) -> Result<Vec<HttpRecord>, IngestError> {
        read_jsonl_lenient(bytes, &strict()).map(|(recs, _)| recs)
    }

    fn sample() -> Vec<HttpRecord> {
        vec![
            HttpRecord::new(0, "c1", "x.com", "1.1.1.1", "/a.php?k=1").with_user_agent("UA"),
            HttpRecord::new(9, "c2", "1.2.3.4", "1.2.3.4", "/b").with_status(404),
        ]
    }

    #[test]
    fn round_trip_via_buffer() {
        let recs = sample();
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &recs).unwrap();
        assert_eq!(read(&buf[..]).unwrap(), recs);
    }

    #[test]
    fn blank_lines_skipped() {
        let recs = sample();
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &recs).unwrap();
        buf.extend_from_slice(b"\n\n  \t\r\n\x0c\n");
        let (back, report) = read_jsonl_lenient(&buf[..], &strict()).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(report.lines, 2);
    }

    #[test]
    fn malformed_json_is_an_error() {
        // The error names the first bad line by its 1-based physical
        // number (blank lines count) and its class, and reading stops
        // there: the later bad line is never reached.
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &sample()).unwrap();
        buf.extend_from_slice(b"\n{not json}\n\xff\n");
        match read(&buf[..]) {
            Err(IngestError::Io(e)) => {
                assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                assert_eq!(e.to_string(), "jsonl line 4: bad-json");
            }
            other => panic!("expected the first bad line, got {other:?}"),
        }
        // `dirty_buffer(1, 2)`: a good line, `{not json`, a bad IP.
        let dirty = dirty_buffer(1, 2);
        let err = read(&dirty[..]).unwrap_err().to_string();
        assert!(err.ends_with("jsonl line 2: bad-json"), "got: {err}");
        let bad_ip = dirty.split(|&b| b == b'\n').nth(2).unwrap();
        let err = read(bad_ip).unwrap_err().to_string();
        assert!(err.ends_with("jsonl line 1: bad-ip"), "got: {err}");
    }

    #[test]
    fn whitespace_beyond_ascii_is_a_bad_line() {
        // Only ASCII whitespace makes a line blank: a vertical-tab-only
        // and an NBSP-only line are lines, and not JSON.
        let mut buf = Vec::new();
        let good: Vec<HttpRecord> = (0..40)
            .map(|i| HttpRecord::new(i, "c", "ok.com", "1.1.1.1", "/"))
            .collect();
        write_jsonl(&mut buf, &good[..20]).unwrap();
        buf.extend_from_slice(b"\x0b\n\xc2\xa0\n");
        write_jsonl(&mut buf, &good[20..]).unwrap();
        let err = read(&buf[..]).unwrap_err().to_string();
        assert!(err.ends_with("jsonl line 21: bad-json"), "got: {err}");
        let opts = IngestOptions::default().with_error_budget(0.05);
        let (recs, report) = read_jsonl_lenient(&buf[..], &opts).unwrap();
        assert_eq!(recs, good);
        assert_eq!((report.lines, report.bad_json), (42, 2));
    }

    #[test]
    fn file_round_trip() {
        let dir = unique_test_dir("io");
        let path = dir.join("trace.jsonl");
        let recs = sample();
        write_jsonl_file(&path, &recs).unwrap();
        let (back, _) = read_jsonl_lenient(File::open(&path).unwrap(), &strict()).unwrap();
        assert_eq!(recs, back);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A buffer of `good` valid lines with `bad` malformed ones mixed in.
    fn dirty_buffer(good: usize, bad: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &sample()[..1.min(good)]).unwrap();
        for i in 1..good {
            write_jsonl(
                &mut buf,
                &[HttpRecord::new(i as u64, "c", "ok.com", "1.1.1.1", "/")],
            )
            .unwrap();
        }
        for i in 0..bad {
            match i % 3 {
                0 => buf.extend_from_slice(b"{not json at all\n"),
                1 => buf.extend_from_slice(
                    br#"{"timestamp":0,"client":"c","host":"h","server_ip":"999.1.2.3","method":"GET","uri":"/","user_agent":"","referrer":null,"status":200,"redirect_to":null}
"#,
                ),
                _ => buf.extend_from_slice(b"\xff\xfe garbage bytes\n"),
            }
        }
        buf
    }

    #[test]
    fn lenient_within_budget_counts_error_classes() {
        let buf = dirty_buffer(97, 3);
        let (recs, report) = read_jsonl_lenient(&buf[..], &IngestOptions::default()).unwrap();
        assert_eq!(recs.len(), 97);
        assert_eq!(report.records, 97);
        assert_eq!(report.lines, 100);
        assert_eq!(report.bad_lines(), 3);
        assert_eq!(report.bad_json, 2); // `{not json` + invalid UTF-8
        assert_eq!(report.bad_ip, 1);
        assert_eq!(report.quarantined, 0); // no sidecar requested
    }

    #[test]
    fn lenient_over_budget_fails_fast_with_structured_error() {
        let buf = dirty_buffer(90, 10);
        let err = read_jsonl_lenient(&buf[..], &IngestOptions::default()).unwrap_err();
        match &err {
            IngestError::BudgetExceeded { report, budget } => {
                assert_eq!(report.bad_lines(), 10);
                assert_eq!(report.lines, 100);
                assert_eq!(*budget, 0.05);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        assert!(err.to_string().contains("right file"), "got: {err}");
        // A budget of 1.0 accepts anything.
        let (recs, _) =
            read_jsonl_lenient(&buf[..], &IngestOptions::default().with_error_budget(1.0)).unwrap();
        assert_eq!(recs.len(), 90);
    }

    #[test]
    fn lenient_quarantines_bad_lines_to_sidecar() {
        let dir = unique_test_dir("quarantine");
        let sidecar = dir.join("trace.quarantine");
        let buf = dirty_buffer(97, 3);
        let opts = IngestOptions::default().with_quarantine(&sidecar);
        let (_, report) = read_jsonl_lenient(&buf[..], &opts).unwrap();
        assert_eq!(report.quarantined, 3);
        let spilled = std::fs::read(&sidecar).unwrap();
        assert_eq!(spilled.iter().filter(|&&b| b == b'\n').count(), 3);
        assert!(spilled.windows(8).any(|w| w == b"not json"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lenient_clean_ingest_leaves_no_sidecar() {
        let dir = unique_test_dir("no-sidecar");
        let sidecar = dir.join("clean.quarantine");
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &sample()).unwrap();
        let opts = IngestOptions::default().with_quarantine(&sidecar);
        let (recs, report) = read_jsonl_lenient(&buf[..], &opts).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(report.bad_lines(), 0);
        assert!(!sidecar.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lenient_oversized_lines_rejected_unread() {
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &sample()).unwrap();
        buf.extend_from_slice(&vec![b'x'; 600]);
        buf.push(b'\n');
        let opts = IngestOptions::default()
            .with_max_line_bytes(512)
            .with_error_budget(1.0);
        let (recs, report) = read_jsonl_lenient(&buf[..], &opts).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(report.oversized, 1);
    }

    #[test]
    fn lenient_empty_input_is_clean() {
        let (recs, report) = read_jsonl_lenient(&b""[..], &IngestOptions::default()).unwrap();
        assert!(recs.is_empty());
        assert_eq!(report.bad_fraction(), 0.0);
    }

    #[test]
    fn cancelled_token_aborts_lenient_ingest() {
        let token = CancelToken::new();
        token.cancel("governor: run deadline exceeded: elapsed 9 ms > budget 1 ms");
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &sample()).unwrap();
        let opts = IngestOptions::default().with_cancel(token);
        match read_jsonl_lenient(&buf[..], &opts) {
            Err(IngestError::Cancelled(reason)) => assert!(reason.contains("run deadline")),
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn uncancelled_token_changes_nothing() {
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &sample()).unwrap();
        let opts = IngestOptions::default().with_cancel(CancelToken::new());
        let (recs, report) = read_jsonl_lenient(&buf[..], &opts).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(report.bad_lines(), 0);
    }
}
