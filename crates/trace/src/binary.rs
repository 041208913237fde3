//! A compact binary trace format (`.smsh`).
//!
//! JSONL is the interchange format; for week-scale archives the binary
//! format stores every string once in a leading string table and each
//! record as fixed-width references — typically 5–10× smaller and much
//! faster to parse. The layout (all integers little-endian, written and
//! read with the shared [`smash_support::wire`] codec):
//!
//! ```text
//! magic    b"SMSHTRC1"
//! u32      string-table length N
//! N ×      (u32 byte-length, UTF-8 bytes)
//! u32      record count M
//! M ×      u64 timestamp, u32 client, u32 host, u32 ip (raw IPv4),
//!          u32 method, u32 uri, u32 user_agent,
//!          u32 referrer+1 (0 = none), u32 redirect_to+1 (0 = none),
//!          u32 resp_bytes, u16 status
//! ```
//!
//! There is one reader, [`read_binary_lenient`]; its
//! [`IngestOptions::error_budget`] decides how much damage it accepts,
//! and a budget of 0 makes it strict.

use crate::io::{IngestError, IngestOptions, IngestReport};
use crate::record::HttpRecord;
use smash_support::failpoint;
use smash_support::wire::{FromWire, Reader, ToWire, WireError};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::Ipv4Addr;

const MAGIC: &[u8; 8] = b"SMSHTRC1";

/// Serializes records to the binary format.
///
/// A `&mut` writer may be passed since `Write` is implemented for mutable
/// references.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_binary<W: Write>(mut w: W, records: &[HttpRecord]) -> io::Result<()> {
    // Records are packed while the string table grows; the table is
    // written first.
    let mut index: HashMap<String, u32> = HashMap::new();
    let mut table: Vec<String> = Vec::new();
    let mut intern = |s: &str| -> u32 {
        if let Some(&i) = index.get(s) {
            return i;
        }
        let i = table.len() as u32;
        index.insert(s.to_owned(), i);
        table.push(s.to_owned());
        i
    };
    let mut body: Vec<u8> = Vec::with_capacity(records.len() * (8 + 9 * 4 + 2));
    for r in records {
        r.timestamp.wire(&mut body);
        let fields: [u32; 9] = [
            intern(&r.client),
            intern(&r.host),
            u32::from(r.server_ip),
            intern(&r.method),
            intern(&r.uri),
            intern(&r.user_agent),
            r.referrer.as_deref().map_or(0, |s| intern(s) + 1),
            r.redirect_to.as_deref().map_or(0, |s| intern(s) + 1),
            r.resp_bytes,
        ];
        for field in fields {
            field.wire(&mut body);
        }
        r.status.wire(&mut body);
    }

    let mut head: Vec<u8> = MAGIC.to_vec();
    (table.len() as u32).wire(&mut head);
    for s in &table {
        (s.len() as u32).wire(&mut head);
        head.extend_from_slice(s.as_bytes());
    }
    (records.len() as u32).wire(&mut head);
    w.write_all(&head)?;
    w.write_all(&body)
}

/// Reads the magic, string table, and declared record count.
fn read_header(buf: &mut Reader<'_>) -> Result<(Vec<String>, usize), WireError> {
    if buf.array::<8>().ok().as_ref() != Some(MAGIC) {
        return Err(WireError("bad magic".to_owned()));
    }
    let n_strings = u32::from_wire(buf)? as usize;
    let mut table: Vec<String> = Vec::with_capacity(n_strings.min(1 << 20));
    for _ in 0..n_strings {
        let len = u32::from_wire(buf)? as usize;
        let s = std::str::from_utf8(buf.take(len)?)
            .map_err(|_| WireError("invalid utf-8".to_owned()))?;
        table.push(s.to_owned());
    }
    let n_records = u32::from_wire(buf)? as usize;
    Ok((table, n_records))
}

/// Reads one fixed-width record against the string table.
fn read_record(buf: &mut Reader<'_>, table: &[String]) -> Result<HttpRecord, WireError> {
    let resolve = |i: u32| -> Result<&String, WireError> {
        table
            .get(i as usize)
            .ok_or_else(|| WireError("string index out of range".to_owned()))
    };
    let ts = u64::from_wire(buf)?;
    let client = u32::from_wire(buf)?;
    let host = u32::from_wire(buf)?;
    let ip = Ipv4Addr::from(u32::from_wire(buf)?);
    let method = u32::from_wire(buf)?;
    let uri = u32::from_wire(buf)?;
    let ua = u32::from_wire(buf)?;
    let referrer = u32::from_wire(buf)?;
    let redirect = u32::from_wire(buf)?;
    let resp_bytes = u32::from_wire(buf)?;
    let status = u16::from_wire(buf)?;
    let mut rec = HttpRecord::new_with_ip(ts, resolve(client)?, resolve(host)?, ip, resolve(uri)?)
        .with_method(resolve(method)?)
        .with_user_agent(resolve(ua)?)
        .with_status(status)
        .with_resp_bytes(resp_bytes);
    if referrer != 0 {
        rec = rec.with_referrer(resolve(referrer - 1)?);
    }
    if redirect != 0 {
        rec.redirect_to = Some(resolve(redirect - 1)?.clone());
    }
    Ok(rec)
}

/// Reads the binary format: every record up to the first corrupt one,
/// judged against [`IngestOptions::error_budget`].
///
/// The magic and string table must be intact — without them no record
/// is decodable, so structural damage there is reported as the "wrong
/// file" error, not a dirty trace. Records lost to a corrupt tail count
/// as [`IngestReport::bad_field`] (with `truncated_tail` set), exactly
/// like bad JSONL lines do; bytes after the declared records count as
/// one more bad record. At budget 0 any of these fails the read.
///
/// # Errors
///
/// Returns [`IngestError::Io`] on I/O failure or a structurally
/// unreadable header, and [`IngestError::BudgetExceeded`] when the
/// corrupt tail cost more than the error budget.
pub fn read_binary_lenient<R: Read>(
    mut r: R,
    opts: &IngestOptions,
) -> Result<(Vec<HttpRecord>, IngestReport), IngestError> {
    failpoint::check("ingest/binary").map_err(io::Error::other)?;
    crate::io::check_cancel(opts.cancel.as_ref())?;
    let mut raw = Vec::new();
    r.read_to_end(&mut raw)?;
    let mut buf = Reader::new(&raw);
    let (table, n_records) = read_header(&mut buf).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("malformed smsh trace: {}", e.0),
        )
    })?;
    let mut report = IngestReport {
        lines: n_records,
        ..IngestReport::default()
    };
    let mut out = Vec::with_capacity(n_records.min(1 << 22));
    for i in 0..n_records {
        if i % crate::io::CANCEL_POLL_LINES == crate::io::CANCEL_POLL_LINES - 1 {
            crate::io::check_cancel(opts.cancel.as_ref())?;
        }
        match read_record(&mut buf, &table) {
            Ok(rec) => {
                report.records += 1;
                out.push(rec);
            }
            Err(_) => {
                // Fixed-width records have no resync point: everything
                // from the first corrupt record on is lost.
                report.bad_field = n_records - report.records;
                report.truncated_tail = true;
                break;
            }
        }
    }
    if !report.truncated_tail && !buf.is_empty() {
        report.lines += 1;
        report.bad_field += 1;
        report.truncated_tail = true;
    }
    if report.bad_fraction() > opts.error_budget {
        return Err(IngestError::BudgetExceeded {
            report,
            budget: opts.error_budget,
        });
    }
    Ok((out, report))
}

/// Writes records to a `.smsh` file.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_binary_file<P: AsRef<std::path::Path>>(
    path: P,
    records: &[HttpRecord],
) -> io::Result<()> {
    write_binary(
        std::io::BufWriter::new(std::fs::File::create(path)?),
        records,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Error budget 0: the first damage of any kind fails the read.
    fn strict() -> IngestOptions {
        IngestOptions::default().with_error_budget(0.0)
    }

    fn read(bytes: &[u8]) -> Result<Vec<HttpRecord>, IngestError> {
        read_binary_lenient(bytes, &strict()).map(|(recs, _)| recs)
    }

    fn sample() -> Vec<HttpRecord> {
        vec![
            HttpRecord::new(10, "c1", "x.com", "1.2.3.4", "/a.php?k=1")
                .with_user_agent("UA-1")
                .with_referrer("land.com"),
            HttpRecord::new(11, "c2", "y.com", "10.0.0.1", "/b")
                .with_method("POST")
                .with_status(404),
            HttpRecord::new(12, "c1", "hop.com", "9.9.9.9", "/").with_redirect_to("x.com"),
        ]
    }

    #[test]
    fn round_trip() {
        let recs = sample();
        let mut buf = Vec::new();
        write_binary(&mut buf, &recs).unwrap();
        let (back, report) = read_binary_lenient(&buf[..], &strict()).unwrap();
        assert_eq!(recs, back);
        assert_eq!(report.records, 3);
        assert!(!report.truncated_tail);
    }

    #[test]
    fn empty_round_trip() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &[]).unwrap();
        assert_eq!(read(&buf[..]).unwrap(), Vec::<HttpRecord>::new());
    }

    #[test]
    fn bad_magic_rejected() {
        for bytes in [&b"NOTSMASH"[..], &b""[..]] {
            assert!(matches!(read(bytes), Err(IngestError::Io(_))));
        }
    }

    #[test]
    fn truncation_rejected() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        for cut in [buf.len() - 1, buf.len() / 2, MAGIC.len() + 2] {
            assert!(read(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf.extend_from_slice(b"JUNK");
        match read(&buf[..]) {
            Err(IngestError::BudgetExceeded { report, .. }) => {
                assert_eq!(report.records, 3);
                assert_eq!(report.bad_field, 1);
                assert!(report.truncated_tail);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        // With budget to spare, the declared records survive and the
        // trailing region is the one bad record.
        let (back, report) =
            read_binary_lenient(&buf[..], &IngestOptions::default().with_error_budget(0.5))
                .unwrap();
        assert_eq!(back, sample());
        assert_eq!((report.lines, report.bad_field), (4, 1));
        assert!(report.truncated_tail);
    }

    #[test]
    fn layout_matches_the_golden_digest() {
        // The `.smsh` bytes of a fixed archive, pinned by digest: any
        // change to the layout or the string-table order shows here.
        let recs = vec![
            HttpRecord::new(10, "c1", "x.com", "1.2.3.4", "/a.php?k=1")
                .with_user_agent("UA-1")
                .with_referrer("land.com")
                .with_resp_bytes(512),
            HttpRecord::new(11, "c2", "y.com", "10.0.0.1", "/b")
                .with_method("POST")
                .with_status(404),
            HttpRecord::new(12, "c1", "hop.com", "9.9.9.9", "/").with_redirect_to("x.com"),
        ];
        let mut buf = Vec::new();
        write_binary(&mut buf, &recs).unwrap();
        assert_eq!(buf.len(), 259);
        assert_eq!(smash_support::ckpt::fnv1a(&buf), 0x56df_a876_8823_381a);
        assert_eq!(read(&buf[..]).unwrap(), recs);
    }

    #[test]
    fn much_smaller_than_jsonl_on_repetitive_traces() {
        // Repetitive traffic (the normal case) shares nearly all strings.
        let recs: Vec<HttpRecord> = (0..500)
            .map(|i| {
                HttpRecord::new(
                    i,
                    &format!("c{}", i % 10),
                    "server.com",
                    "1.1.1.1",
                    "/login.php?p=1",
                )
                .with_user_agent("Mozilla/5.0 (Windows NT 6.1) Firefox/15.0")
            })
            .collect();
        let mut bin = Vec::new();
        write_binary(&mut bin, &recs).unwrap();
        let mut jsonl = Vec::new();
        crate::io::write_jsonl(&mut jsonl, &recs).unwrap();
        assert!(
            bin.len() * 4 < jsonl.len(),
            "binary {} vs jsonl {}",
            bin.len(),
            jsonl.len()
        );
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("smash-binary-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.smsh");
        let recs = sample();
        write_binary_file(&path, &recs).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        assert_eq!(read_binary_lenient(file, &strict()).unwrap().0, recs);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lenient_salvages_records_before_a_corrupt_tail() {
        // 100 records; cut the buffer mid-way through the record block.
        let recs: Vec<HttpRecord> = (0..100)
            .map(|i| HttpRecord::new(i, "c", "host.com", "1.1.1.1", "/x"))
            .collect();
        let mut buf = Vec::new();
        write_binary(&mut buf, &recs).unwrap();
        // One packed record is 8 + 9·4 + 2 = 46 bytes; drop the last 3.
        let cut = buf.len() - 3 * 46;
        let opts = IngestOptions::default();
        let (salvaged, report) = read_binary_lenient(&buf[..cut], &opts).unwrap();
        assert_eq!(salvaged.len(), 97);
        assert_eq!(report.records, 97);
        assert_eq!(report.bad_field, 3);
        assert!(report.truncated_tail);
        assert_eq!(salvaged[..], recs[..97]);
    }

    #[test]
    fn lenient_deep_truncation_blows_the_budget() {
        let recs: Vec<HttpRecord> = (0..100)
            .map(|i| HttpRecord::new(i, "c", "host.com", "1.1.1.1", "/x"))
            .collect();
        let mut buf = Vec::new();
        write_binary(&mut buf, &recs).unwrap();
        let half = buf.len() / 2;
        match read_binary_lenient(&buf[..half], &IngestOptions::default()) {
            Err(IngestError::BudgetExceeded { report, .. }) => {
                assert!(report.truncated_tail);
                assert!(report.bad_field > 5);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn lenient_bad_magic_is_still_a_hard_error() {
        assert!(matches!(
            read_binary_lenient(&b"NOTSMASHATALL"[..], &IngestOptions::default()),
            Err(IngestError::Io(_))
        ));
    }

    #[test]
    fn lenient_clean_file_reports_clean() {
        let recs = sample();
        let mut buf = Vec::new();
        write_binary(&mut buf, &recs).unwrap();
        let (back, report) = read_binary_lenient(&buf[..], &IngestOptions::default()).unwrap();
        assert_eq!(back, recs);
        assert_eq!(report.bad_lines(), 0);
        assert!(!report.truncated_tail);
    }
}
