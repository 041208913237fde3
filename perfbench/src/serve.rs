//! The open-loop `serve-mixed` workload against the `smash serve` daemon
//! over TCP loopback, and its in-process traced twin.
//!
//! One round: start a daemon on a fresh data dir; replay a Data2012 day
//! as `INGEST` at [`INGEST_RATE`] lines/s on one connection with a
//! `SEAL` after each quarter, while a second connection sends `QUERY`
//! at [`QUERY_RATE`]/s (plus a `STATS` poll that timestamps publishes);
//! `WAIT`; then replay a second day as fast as the socket accepts,
//! `SEAL`, `WAIT`; audit the answers; `SHUTDOWN`; restart on the same data dir
//! and time it until a member of the last published epoch answers
//! `HIT`. Rounds repeat with fresh days until the run's time is used.

use crate::inputs::{self, Day};
use crate::layers::{self, Samples};
use crate::outcome::Outcome;
use crate::provenance;
use crate::schedule::{self, OpenLoop, MAX_GENERATOR_LATE_MS};
use crate::spans::Tracer;
use crate::stats::{self, ms, us};
use smash_core::{Smash, SmashConfig};
use smash_serve::snapshot::SNAPSHOT_FILE;
use smash_serve::{CampaignService, Response, ServeOptions, ServeSnapshot, WaitOutcome};
use smash_support::json::{self, ToJson};
use smash_trace::io::decode_record_line;
use smash_trace::{HttpRecord, TraceDataset};
use smash_whois::WhoisRegistry;
use std::collections::{BTreeSet, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Steady-phase `INGEST` rate, lines per second (below the knee).
pub const INGEST_RATE: f64 = 10_000.0;
/// `QUERY` rate on the second connection, per second.
pub const QUERY_RATE: f64 = 2_000.0;
/// One `STATS` poll per this many `QUERY`s (200/s at the query rate).
const STATS_EVERY: u64 = 10;
/// `SEAL`s per steady-phase day.
const SEALS_PER_DAY: usize = 4;
/// The overload phase's accepted-lines rate is sampled once per this
/// many accepted lines; `ingest_lines_per_s` is the median sample.
const BURST_CHUNK: u64 = 4096;
/// Non-members sampled by the audit.
const AUDIT_NON_MEMBERS: usize = 200;
/// A stream that makes no progress for this long is declared dead.
const STALL: Duration = Duration::from_secs(60);

/// What a request on a stream was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tag {
    Ingest,
    Seal,
    Query,
    Stats,
    Wait,
}

/// One scheduled request.
struct Item {
    due: Duration,
    line: String,
    tag: Tag,
}

/// A reply, with when it arrived and its latency from due.
struct Reply {
    tag: Tag,
    text: String,
    at: Duration,
    latency_us: f64,
}

/// A daemon process running `smash_serve::run` — the same entry point
/// and defaults as `smash serve --data-dir <dir> --addr 127.0.0.1:0`.
struct Daemon {
    child: Child,
    addr: String,
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(dir: &Path) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("--daemon")
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon stdout not captured".to_owned());
        };
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        let read = reader.read_line(&mut line);
        let addr = line.trim().strip_prefix("LISTENING ").map(str::to_owned);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon {
                child,
                addr,
                _stdout: reader,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("daemon did not report its address: {line:?}"))
            }
        }
    }

    fn connect(&self) -> Result<TcpStream, String> {
        let s =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        Ok(s)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits for the process to exit (after `SHUTDOWN`), killing it if
    /// it has not exited within 30 s. Returns whether it exited cleanly.
    fn finish(&mut self) -> bool {
        let deadline = stats::now() + Duration::from_secs(30);
        while stats::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(_) => break,
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        false
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A blocking request/reply connection.
struct Ctl {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Ctl {
    fn new(stream: TcpStream) -> Result<Ctl, String> {
        stream
            .set_nonblocking(false)
            .map_err(|e| format!("blocking: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Ctl {
            writer: stream,
            reader,
        })
    }

    fn request(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send {line}: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err(format!("connection closed after {line}")),
            Ok(_) => Ok(reply.trim_end().to_owned()),
            Err(e) => Err(format!("reply to {line}: {e}")),
        }
    }
}

/// A non-blocking pipelined connection driven by one thread.
struct Pipe {
    stream: TcpStream,
    out: Vec<u8>,
    sent: usize,
    inbuf: Vec<u8>,
}

impl Pipe {
    fn new(stream: TcpStream) -> Result<Pipe, String> {
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("non-blocking: {e}"))?;
        Ok(Pipe {
            stream,
            out: Vec::new(),
            sent: 0,
            inbuf: Vec::new(),
        })
    }

    fn queue(&mut self, line: &str) {
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
    }

    /// Writes what the socket accepts; returns whether bytes moved.
    fn flush(&mut self) -> io::Result<bool> {
        let mut moved = false;
        while let Some(rest) = self.out.get(self.sent..).filter(|r| !r.is_empty()) {
            match self.stream.write(rest) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.sent += n;
                    moved = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.sent == self.out.len() {
            self.out.clear();
            self.sent = 0;
        } else if self.sent > 1 << 20 {
            self.out.drain(..self.sent);
            self.sent = 0;
        }
        Ok(moved)
    }

    /// Reads what has arrived and returns the complete lines.
    fn read_lines(&mut self) -> io::Result<Vec<String>> {
        let mut buf = [0u8; 65536];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.inbuf.extend_from_slice(buf.get(..n).unwrap_or(&[])),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let mut lines = Vec::new();
        while let Some(pos) = self.inbuf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.inbuf.drain(..=pos).collect();
            lines.push(String::from_utf8_lossy(&line).trim_end().to_owned());
        }
        Ok(lines)
    }
}

/// Drives one open-loop stream: queues every item when it falls due
/// (or immediately, for items due at zero in a burst), pumps the socket,
/// and matches replies to requests in order. `next(i)` yields item `i`
/// or `None` when the stream is over.
fn drive(
    pipe: &mut Pipe,
    start: Instant,
    mut next: impl FnMut(u64) -> Option<Item>,
    on_reply: &mut dyn FnMut(Reply),
) -> Result<OpenLoop, String> {
    let mut ol = OpenLoop::new();
    let mut fifo: VecDeque<(usize, Tag)> = VecDeque::new();
    let mut i = 0u64;
    let mut pending = next(i);
    let mut last_progress = stats::now();
    loop {
        let now = start.elapsed();
        let mut due_now = 0usize;
        while let Some(item) = pending.take() {
            if item.due > now {
                pending = Some(item);
                break;
            }
            pipe.queue(&item.line);
            fifo.push_back((ol.queued(item.due, now), item.tag));
            due_now += 1;
            i += 1;
            pending = next(i);
        }
        ol.backlog(due_now);
        let wrote = pipe.flush().map_err(|e| format!("send: {e}"))?;
        let lines = pipe.read_lines().map_err(|e| format!("receive: {e}"))?;
        let at = start.elapsed();
        let got = !lines.is_empty();
        for text in lines {
            let Some((seq, tag)) = fifo.pop_front() else {
                return Err(format!("unsolicited reply {text:?}"));
            };
            let latency_us = ol.latency_us(seq, at);
            on_reply(Reply {
                tag,
                text,
                at,
                latency_us,
            });
        }
        if pending.is_none() && fifo.is_empty() {
            return Ok(ol);
        }
        if wrote || got || due_now > 0 {
            last_progress = stats::now();
        } else if last_progress.elapsed() > STALL {
            return Err(format!(
                "stream stalled with {} requests unanswered",
                fifo.len()
            ));
        } else {
            let idle = pending
                .as_ref()
                .map_or(Duration::from_micros(50), |p| p.due.saturating_sub(now))
                .min(Duration::from_micros(50));
            std::thread::sleep(idle);
        }
    }
}

/// `ok` for a well-formed reply to `tag`.
fn reply_ok(tag: Tag, text: &str) -> bool {
    match tag {
        Tag::Ingest => text == "OK",
        Tag::Seal => text.starts_with("OK epoch="),
        Tag::Query => text == "MISS" || text.starts_with("HIT "),
        Tag::Stats => text.starts_with('{'),
        Tag::Wait => text.starts_with("OK epoch="),
    }
}

/// The number after `key=` (protocol replies) or `"key":` (STATS).
fn field(text: &str, key: &str) -> Option<u64> {
    let at = text
        .find(&format!("{key}="))
        .map(|i| i + key.len() + 1)
        .or_else(|| text.find(&format!("\"{key}\":")).map(|i| i + key.len() + 3))?;
    let digits: String = text
        .get(at..)?
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The steady-phase schedule: every line at [`INGEST_RATE`], a `SEAL`
/// right after the last line of each quarter.
fn steady_item(lines: &[String], k: u64) -> Option<Item> {
    let n = lines.len();
    // Items are lines interleaved with seals: after quarter q's last
    // line (index ends[q]) comes one SEAL.
    let ends: Vec<usize> = (1..=SEALS_PER_DAY)
        .map(|q| (q * n).div_ceil(SEALS_PER_DAY).saturating_sub(1))
        .collect();
    let mut k = k as usize;
    let mut line = 0usize;
    for &end in &ends {
        let span = end + 1 - line;
        if k < span {
            let i = line + k;
            let text = lines.get(i)?;
            return Some(Item {
                due: schedule::due(i as u64, INGEST_RATE),
                line: format!("INGEST {text}"),
                tag: Tag::Ingest,
            });
        }
        if k == span {
            return Some(Item {
                due: schedule::due(end as u64, INGEST_RATE),
                line: "SEAL".to_owned(),
                tag: Tag::Seal,
            });
        }
        k -= span + 1;
        line = end + 1;
    }
    None
}

/// Servers the query stream asks about: planted campaign servers (the
/// future members) interleaved with servers outside every campaign.
fn query_targets(days: &[Day]) -> Vec<String> {
    let planted: BTreeSet<String> = days
        .iter()
        .flat_map(|d| d.planted.iter().flatten().cloned())
        .collect();
    let benign: Vec<String> = days
        .iter()
        .flat_map(|d| {
            d.dataset
                .server_ids()
                .map(|s| d.dataset.server_name(s).to_owned())
                .filter(|s| !planted.contains(s))
                .take(planted.len().max(1))
                .collect::<Vec<_>>()
        })
        .collect();
    let mut out = Vec::new();
    let mut p = planted.iter();
    let mut b = benign.iter();
    loop {
        match (p.next(), b.next()) {
            (None, None) => break,
            (x, y) => out.extend(x.into_iter().chain(y).cloned()),
        }
    }
    out
}

/// The batch pipeline over the records of `days` in send order: the
/// `REPORT` the daemon must serve.
fn batch_reference(days: &[Day]) -> Result<(String, Vec<Vec<String>>, TraceDataset), String> {
    let records = decoded(days)?;
    let ds = TraceDataset::from_records(records);
    let smash = Smash::try_new(SmashConfig::default()).map_err(|e| e.to_string())?;
    let report = smash.run(&ds, &WhoisRegistry::new());
    let text = json::to_string(&report.campaigns.to_json());
    Ok((text, report.campaign_server_names(), ds))
}

fn decoded(days: &[Day]) -> Result<Vec<HttpRecord>, String> {
    days.iter()
        .flat_map(|d| d.lines.iter())
        .map(|l| decode_record_line(l.as_bytes()).map_err(|e| format!("decode: {}", e.class())))
        .collect()
}

/// Members of the reference campaigns and a sample of non-members.
fn audit_sets(campaigns: &[Vec<String>], ds: &TraceDataset) -> (Vec<String>, Vec<String>) {
    let members: BTreeSet<String> = campaigns.iter().flatten().cloned().collect();
    let others: Vec<String> = ds
        .server_ids()
        .map(|s| ds.server_name(s).to_owned())
        .filter(|s| !members.contains(s))
        .collect();
    let step = (others.len() / AUDIT_NON_MEMBERS).max(1);
    let sample = others
        .into_iter()
        .step_by(step)
        .take(AUDIT_NON_MEMBERS)
        .collect();
    (members.into_iter().collect(), sample)
}

/// Per-round measurements of the TCP workload.
#[derive(Default)]
struct Tcp {
    ingest_us: Vec<f64>,
    query_us: Vec<f64>,
    publish_lag_ms: Vec<f64>,
    seal_ack_ms: Vec<f64>,
    late_ms: Vec<f64>,
    max_backlog: usize,
    ingest_ceiling: Vec<f64>,
    setup_s: Vec<f64>,
    rss_mb: Vec<f64>,
    recovered: usize,
    planted: usize,
}

fn scratch_dir(tag: &str, round: usize) -> PathBuf {
    PathBuf::from(crate::WORK_DIR).join(format!("{tag}-{}-{round}", std::process::id()))
}

/// Days for round `round`: a steady-phase day and an overload day.
fn round_days(seed: u64, round: usize, out: &mut Outcome) -> [Day; 2] {
    let r = round as u64;
    let days = [
        Day::data2012(inputs::mix(seed, 2 * r)),
        Day::data2012(inputs::mix(seed, 2 * r + 1)),
    ];
    for d in &days {
        out.inputs.push(provenance::input(
            &format!("data2012_day({}) lines", d.seed),
            d.lines.len(),
            d.lines.iter().map(|l| l.len() + 8).sum(),
            d.digest(),
        ));
    }
    days
}

/// Runs `serve-mixed` (TCP, untraced) or its in-process traced twin.
pub fn run(seed: u64, seconds: u64, trace: bool, out: &mut Outcome) -> Result<(), String> {
    if trace {
        return traced(seed, seconds, out);
    }
    let budget = Duration::from_secs(seconds);
    let start = stats::now();
    let mut m = Tcp::default();
    let mut round = 0usize;
    while round == 0 || start.elapsed() < budget {
        let days = round_days(seed, round, out);
        let dir = scratch_dir("serve", round);
        let _ = std::fs::remove_dir_all(&dir);
        let result = tcp_round(&days, &dir, &mut m, out);
        let _ = std::fs::remove_dir_all(&dir);
        result?;
        round += 1;
    }
    let late_p99 = stats::percentile(&m.late_ms, 99.0).or_else(|| stats::median(&m.late_ms));
    if let Some(late) = late_p99 {
        out.metric("bench.generator_late_ms.p99", "ms", late, m.late_ms.len());
        if late > MAX_GENERATOR_LATE_MS {
            out.invalid = Some(format!(
                "generator fell behind: p99 lateness {late:.2} ms > {MAX_GENERATOR_LATE_MS} ms"
            ));
        }
    }
    out.metric(
        "bench.generator_backlog_max",
        "requests",
        m.max_backlog as f64,
        1,
    );
    out.median("setup_s", "s", &m.setup_s);
    let query_ms: Vec<f64> = m.query_us.iter().map(|u| u / 1e3).collect();
    out.timing("latency_ms", "ms", &query_ms);
    out.median("records_per_s", "records/s", &m.ingest_ceiling);
    out.median("peak_rss_mb", "MiB", &m.rss_mb);
    out.metric(
        "planted_recall",
        "ratio",
        m.recovered as f64 / m.planted.max(1) as f64,
        m.planted,
    );
    out.timing("ingest_us", "us", &m.ingest_us);
    out.timing("query_us", "us", &m.query_us);
    out.timing("publish_lag_ms", "ms", &m.publish_lag_ms);
    out.timing("seal_ack_ms", "ms", &m.seal_ack_ms);
    out.median("ingest_lines_per_s", "lines/s", &m.ingest_ceiling);
    out.metric("bench.rounds", "count", round as f64, round);
    Ok(())
}

/// The steady-phase and overload days of a round.
fn pair(days: &[Day; 2]) -> (&Day, &Day) {
    match days {
        [a, b] => (a, b),
    }
}

fn tcp_round(days: &[Day; 2], dir: &Path, m: &mut Tcp, out: &mut Outcome) -> Result<(), String> {
    let (steady_day, burst_day) = pair(days);
    let (reference, campaigns, ref_ds) = batch_reference(days)?;
    let targets = query_targets(days);
    let mut daemon = Daemon::spawn(dir)?;
    let mut ingest = Pipe::new(daemon.connect()?)?;
    let mut query = Pipe::new(daemon.connect()?)?;
    let stop = AtomicBool::new(false);
    let seal_acks: Mutex<Vec<(u64, Duration)>> = Mutex::new(Vec::new());
    let start = stats::now();

    let (ingest_side, query_side) = std::thread::scope(|scope| {
        let q = scope.spawn(|| {
            let mut publishes: Vec<(Duration, u64)> = Vec::new();
            let mut lat = Vec::new();
            let mut failed = 0u64;
            let mut replies = 0u64;
            let stream = drive(
                &mut query,
                start,
                |k| {
                    if stop.load(Ordering::Acquire) {
                        return None;
                    }
                    let due = schedule::due(k, QUERY_RATE * (1.0 + 1.0 / STATS_EVERY as f64));
                    if k % (STATS_EVERY + 1) == STATS_EVERY {
                        return Some(Item {
                            due,
                            line: "STATS".to_owned(),
                            tag: Tag::Stats,
                        });
                    }
                    let n = targets.len().max(1) as u64;
                    let target = targets.get((k % n) as usize)?;
                    Some(Item {
                        due,
                        line: format!("QUERY {target}"),
                        tag: Tag::Query,
                    })
                },
                &mut |r: Reply| {
                    replies += 1;
                    let ok = reply_ok(r.tag, &r.text);
                    if !ok {
                        failed += 1;
                    }
                    match r.tag {
                        Tag::Query => lat.push(if ok { r.latency_us } else { f64::INFINITY }),
                        Tag::Stats => {
                            if let Some(p) = field(&r.text, "published") {
                                if publishes.last().is_none_or(|&(_, last)| p > last) {
                                    publishes.push((r.at, p));
                                }
                            }
                        }
                        _ => {}
                    }
                },
            );
            (stream, publishes, lat, replies, failed)
        });

        let mut run_ingest = || -> Result<_, String> {
            let mut waits: Vec<(Duration, u64)> = Vec::new();
            let mut lat = Vec::new();
            let mut failed = 0u64;
            let mut replies = 0u64;
            let ol = drive(
                &mut ingest,
                start,
                |k| steady_item(&steady_day.lines, k),
                &mut |r: Reply| {
                    replies += 1;
                    let ok = reply_ok(r.tag, &r.text);
                    if !ok {
                        failed += 1;
                    }
                    match r.tag {
                        Tag::Ingest => lat.push(if ok { r.latency_us } else { f64::INFINITY }),
                        Tag::Seal => {
                            if let (Some(e), Ok(mut acks)) =
                                (field(&r.text, "epoch"), seal_acks.lock())
                            {
                                acks.push((e, r.at));
                            }
                            m.seal_ack_ms.push(r.latency_us / 1e3);
                        }
                        _ => {}
                    }
                },
            )?;
            // Let the steady phase's last re-mine publish, so the overload
            // phase measures ingest alone rather than ingest beside a mine.
            drive(
                &mut ingest,
                start,
                |k| {
                    (k == 0).then(|| Item {
                        due: start.elapsed(),
                        line: "WAIT".to_owned(),
                        tag: Tag::Wait,
                    })
                },
                &mut |r: Reply| {
                    replies += 1;
                    match field(&r.text, "epoch").filter(|_| reply_ok(r.tag, &r.text)) {
                        Some(e) => waits.push((r.at, e)),
                        None => failed += 1,
                    }
                },
            )?;
            // Overload: the second day as fast as the socket accepts.
            let burst_start = start.elapsed();
            let mut mark = burst_start;
            let mut ok_lines = 0u64;
            drive(
                &mut ingest,
                start,
                |k| {
                    burst_day.lines.get(k as usize).map(|l| Item {
                        due: burst_start,
                        line: format!("INGEST {l}"),
                        tag: Tag::Ingest,
                    })
                },
                &mut |r: Reply| {
                    replies += 1;
                    if !reply_ok(r.tag, &r.text) {
                        failed += 1;
                        return;
                    }
                    ok_lines += 1;
                    if ok_lines.is_multiple_of(BURST_CHUNK) {
                        let wall = r.at.saturating_sub(mark).as_secs_f64();
                        m.ingest_ceiling.push(BURST_CHUNK as f64 / wall.max(1e-9));
                        mark = r.at;
                    }
                },
            )?;
            let mut ctl = Ctl::new(ingest.stream.try_clone().map_err(|e| e.to_string())?)?;
            let seal = ctl.request("SEAL")?;
            let seal_at = start.elapsed();
            replies += 2;
            match field(&seal, "epoch").filter(|_| reply_ok(Tag::Seal, &seal)) {
                Some(e) => {
                    if let Ok(mut acks) = seal_acks.lock() {
                        acks.push((e, seal_at));
                    }
                }
                None => failed += 1,
            }
            let wait = ctl.request("WAIT")?;
            match field(&wait, "epoch").filter(|_| reply_ok(Tag::Wait, &wait)) {
                Some(e) => waits.push((start.elapsed(), e)),
                None => failed += 1,
            }
            Ok((ol, lat, replies, failed, waits, ctl))
        };
        let steady = run_ingest();
        stop.store(true, Ordering::Release);
        let query_side = q.join().map_err(|_| "query thread panicked".to_owned());
        (steady, query_side)
    });
    let (ol, ingest_lat, ingest_replies, ingest_failed, waits, mut ctl) = ingest_side?;
    let (stream, publishes, query_lat, query_replies, query_failed) = query_side?;
    let qol = stream?;
    out.count(ingest_replies, ingest_failed);
    out.count(query_replies, query_failed);
    m.ingest_us.extend(ingest_lat);
    m.query_us.extend(query_lat);
    m.late_ms.extend(ol.late_ms.iter().chain(&qol.late_ms));
    m.max_backlog = m.max_backlog.max(ol.max_backlog).max(qol.max_backlog);
    let acks = seal_acks
        .lock()
        .map_err(|_| "seal log poisoned".to_owned())?
        .clone();
    for (epoch, at) in acks {
        // First sight of the epoch published: a STATS poll or a WAIT reply.
        let seen = publishes
            .iter()
            .chain(&waits)
            .filter(|&&(_, p)| p >= epoch)
            .map(|&(t, _)| t)
            .min();
        if let Some(t) = seen {
            m.publish_lag_ms.push(ms(t.saturating_sub(at)));
        } else {
            out.check(false, || format!("epoch {epoch} never seen published"));
        }
    }

    // Audit: REPORT equals the batch pipeline over the same records in
    // seal order; members answer HIT; sampled non-members answer MISS.
    let report = ctl.request("REPORT")?;
    out.check(report == reference, || {
        format!(
            "REPORT differs from the batch pipeline ({} vs {} bytes)",
            report.len(),
            reference.len()
        )
    });
    let (members, non_members) = audit_sets(&campaigns, &ref_ds);
    for s in &members {
        let r = ctl.request(&format!("QUERY {s}"))?;
        out.check(r.starts_with("HIT "), || {
            format!("member {s} answered {r:?}")
        });
    }
    for s in &non_members {
        let r = ctl.request(&format!("QUERY {s}"))?;
        out.check(r == "MISS", || format!("non-member {s} answered {r:?}"));
    }
    let planted: Vec<Vec<String>> = days.iter().flat_map(|d| d.planted.clone()).collect();
    let (hit, all) = inputs::recall(&planted, &campaigns);
    m.recovered += hit;
    m.planted += all;
    m.rss_mb.push(crate::peak_rss_mb(daemon.pid())?);
    let bye = ctl.request("SHUTDOWN")?;
    out.check(bye == "OK" && daemon.finish(), || {
        format!("SHUTDOWN answered {bye:?}")
    });
    drop(ctl);
    drop(ingest);
    drop(query);

    // Restart on the same data dir until the last epoch is served.
    let t = stats::now();
    let mut daemon = Daemon::spawn(dir)?;
    let mut ctl = Ctl::new(daemon.connect()?)?;
    let probe = members.first().cloned();
    let deadline = stats::now() + Duration::from_secs(60);
    loop {
        let ready = match &probe {
            Some(s) => ctl.request(&format!("QUERY {s}"))?.starts_with("HIT "),
            None => ctl.request("WAIT")?.starts_with("OK epoch="),
        };
        if ready {
            break;
        }
        if stats::now() > deadline {
            out.check(false, || "restart never served the last epoch".to_owned());
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    m.setup_s.push(t.elapsed().as_secs_f64());
    let bye = ctl.request("SHUTDOWN")?;
    out.check(bye == "OK" && daemon.finish(), || {
        format!("restart SHUTDOWN answered {bye:?}")
    });
    Ok(())
}

/// The traced twin: the same schedule fed in process through
/// `Connection::handle` and `CampaignService::query`, each call timed,
/// then the layers of the final cumulative re-mine swept under spans.
fn traced(seed: u64, seconds: u64, out: &mut Outcome) -> Result<(), String> {
    let budget = Duration::from_secs(seconds);
    let start = stats::now();
    let mut tr = Tracer::new();
    let mut s = Samples::new();
    let mut round = 0usize;
    while round == 0 || start.elapsed() < budget {
        let days = round_days(seed, round, out);
        let dir = scratch_dir("serve-traced", round);
        let _ = std::fs::remove_dir_all(&dir);
        tr.set_iteration(round as u64);
        let result = traced_round(&days, &dir, &mut tr, &mut s, out);
        let _ = std::fs::remove_dir_all(&dir);
        result?;
        round += 1;
    }
    out.layers(&s, &crate::per_layer_metrics());
    let timings = [
        ("serve.connection.ingest_us", "us"),
        ("serve.service.query_ns", "ns"),
        ("trace.io.decode_line_us", "us"),
    ];
    for (base, unit) in timings {
        if let Some(xs) = s.get(base) {
            out.timing(base, unit, xs);
        }
    }
    let late = s
        .get("bench.generator_late_ms")
        .cloned()
        .unwrap_or_default();
    if let Some(p99) = stats::percentile(&late, 99.0) {
        out.metric("bench.generator_late_ms.p99", "ms", p99, late.len());
    }
    let names: Vec<(String, &'static str)> = [
        ("serve.connection.seal_ms", "ms"),
        ("serve.service.mine_ms", "ms"),
        ("serve.mine.superseded_share", "ratio"),
        ("serve.snapshot.save_ms", "ms"),
        ("serve.snapshot.load_ms", "ms"),
        ("serve.service.recover_ms", "ms"),
        ("serve.ingest.busy", "count"),
        ("serve.ingest.rejected", "count"),
        ("serve.ingest_lines_per_s", "lines/s"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_owned(), u))
    .collect();
    out.layers(&s, &names);
    crate::write_spans(&tr, "serve-mixed")
}

fn handle(conn: &mut smash_serve::Connection, line: &str) -> String {
    match conn.handle(line.as_bytes(), false) {
        Response::Reply(r) | Response::Shutdown(r) => r,
        Response::Quiet => String::new(),
    }
}

fn traced_round(
    days: &[Day; 2],
    dir: &Path,
    tr: &mut Tracer,
    s: &mut Samples,
    out: &mut Outcome,
) -> Result<(), String> {
    let (steady_day, burst_day) = pair(days);
    let (reference, campaigns, _) = batch_reference(days)?;
    let targets = query_targets(days);
    let opts = ServeOptions::new(dir);
    let service = CampaignService::start(opts.clone()).map_err(|e| format!("start: {e}"))?;
    let stop = AtomicBool::new(false);
    let start = stats::now();
    let mut seal_acks: Vec<(u64, Duration)> = Vec::new();
    let ((query_side, ingest_side), _) = tr.span("serve.load", |_| {
        std::thread::scope(|scope| {
            let q = scope.spawn(|| {
                let mut reader = service.reader();
                let mut ns = Vec::new();
                let mut publishes: Vec<(Duration, u64)> = Vec::new();
                let mut k = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let now = start.elapsed();
                    let due = schedule::due(k, QUERY_RATE);
                    if due > now {
                        std::thread::sleep((due - now).min(Duration::from_micros(50)));
                    } else if let Some(target) = targets.get(k as usize % targets.len().max(1)) {
                        let t = stats::now();
                        std::hint::black_box(service.query(target, &mut reader));
                        ns.push(t.elapsed().as_nanos() as f64);
                        k += 1;
                    } else {
                        k += 1;
                    }
                    let (_, published, _) = service.epochs();
                    if publishes.last().is_none_or(|&(_, last)| published > last) {
                        publishes.push((start.elapsed(), published));
                    }
                }
                (ns, publishes)
            });
            let mut run_ingest = || -> Result<_, String> {
                let mut conn = service.connection();
                let mut call_us = Vec::new();
                let mut late = Vec::new();
                let mut failed = 0u64;
                let mut k = 0u64;
                while let Some(item) = steady_item(&steady_day.lines, k) {
                    let now = start.elapsed();
                    if item.due > now {
                        std::thread::sleep((item.due - now).min(Duration::from_micros(50)));
                        continue;
                    }
                    late.push(ms(now - item.due));
                    let t = stats::now();
                    let r = handle(&mut conn, &item.line);
                    let took = t.elapsed();
                    if !reply_ok(item.tag, &r) {
                        failed += 1;
                    }
                    match item.tag {
                        Tag::Seal => {
                            layers::push(s, "serve.connection.seal_ms", ms(took));
                            if let Some(e) = field(&r, "epoch") {
                                seal_acks.push((e, start.elapsed()));
                            }
                        }
                        _ => call_us.push(us(took)),
                    }
                    k += 1;
                }
                let t = stats::now();
                for l in &burst_day.lines {
                    let r = handle(&mut conn, &format!("INGEST {l}"));
                    if r != "OK" {
                        failed += 1;
                    }
                }
                let burst = t.elapsed().as_secs_f64();
                layers::push(
                    s,
                    "serve.ingest_lines_per_s",
                    burst_day.lines.len() as f64 / burst.max(1e-9),
                );
                let r = handle(&mut conn, "SEAL");
                match field(&r, "epoch") {
                    Some(e) => seal_acks.push((e, start.elapsed())),
                    None => failed += 1,
                }
                let t = stats::now();
                let waited = service.wait_published(Duration::from_secs(120));
                layers::push(s, "serve.service.mine_ms", ms(t.elapsed()));
                if !matches!(waited, WaitOutcome::Published(_)) {
                    failed += 1;
                }
                let report = handle(&mut conn, "REPORT");
                let steps = steady_day.lines.len() + SEALS_PER_DAY + burst_day.lines.len() + 2;
                Ok((call_us, late, failed, steps as u64, report))
            };
            let ingest = run_ingest();
            stop.store(true, Ordering::Release);
            let q = q.join().map_err(|_| "query thread panicked".to_owned());
            (q, ingest)
        })
    });
    let (query_ns, publishes) = query_side?;
    let (call_us, late, failed, steps, report) = ingest_side?;
    out.count(steps, failed);
    s.entry("serve.connection.ingest_us".to_owned())
        .or_default()
        .extend(call_us);
    s.entry("serve.service.query_ns".to_owned())
        .or_default()
        .extend(query_ns);
    s.entry("bench.generator_late_ms".to_owned())
        .or_default()
        .extend(late);
    let final_epoch = seal_acks.iter().map(|&(e, _)| e).max().unwrap_or(0);
    for &(epoch, at) in &seal_acks {
        if epoch == final_epoch {
            continue; // timed above through wait_published
        }
        if let Some(&(t, _)) = publishes.iter().find(|&&(_, p)| p >= epoch) {
            layers::push(s, "serve.service.mine_ms", ms(t.saturating_sub(at)));
        }
    }
    let started = service.counter("serve/mine/started");
    let superseded = service.counter("serve/mine/superseded");
    layers::push(
        s,
        "serve.mine.superseded_share",
        superseded as f64 / started.max(1) as f64,
    );
    layers::push(
        s,
        "serve.ingest.busy",
        service.counter("serve/ingest/busy") as f64,
    );
    layers::push(
        s,
        "serve.ingest.rejected",
        service.counter("serve/ingest/rejected") as f64,
    );
    out.check(report == reference, || {
        "in-process REPORT differs from the batch pipeline".to_owned()
    });
    let mut reader = service.reader();
    let members: Vec<String> = campaigns.iter().flatten().cloned().collect();
    for m in &members {
        out.check(service.query(m, &mut reader).is_some(), || {
            format!("member {m} missing")
        });
    }
    let snap_path = dir.join(SNAPSHOT_FILE);
    let (snap, id) = tr.span("serve.snapshot.load", |_| ServeSnapshot::load(&snap_path));
    layers::push(s, "serve.snapshot.load_ms", tr.ms(id));
    let snap = snap.map_err(|e| format!("snapshot load: {e}"))?;
    let copy = dir.join("bench-copy.ckpt");
    let (saved, id) = tr.span("serve.snapshot.save", |_| snap.save(&copy));
    layers::push(s, "serve.snapshot.save_ms", tr.ms(id));
    saved.map_err(|e| format!("snapshot save: {e}"))?;
    service.shutdown();
    drop(service);

    let probe = members.first().cloned();
    let (recovered, id) = tr.span("serve.service.recover", |_| -> Result<(), String> {
        let svc = CampaignService::start(opts.clone()).map_err(|e| format!("restart: {e}"))?;
        let mut reader = svc.reader();
        let deadline = stats::now() + Duration::from_secs(60);
        let ok = loop {
            let ready = match &probe {
                Some(m) => svc.query(m, &mut reader).is_some(),
                None => matches!(
                    svc.wait_published(Duration::from_secs(60)),
                    WaitOutcome::Published(_)
                ),
            };
            if ready || stats::now() > deadline {
                break ready;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        svc.shutdown();
        ok.then_some(())
            .ok_or_else(|| "restart never served the last epoch".to_owned())
    });
    layers::push(s, "serve.service.recover_ms", tr.ms(id));
    out.check(recovered.is_ok(), || {
        "in-process restart did not recover".to_owned()
    });

    // Ingest decode, per line as the daemon does it.
    let mut decode_us = Vec::new();
    let mut records = Vec::new();
    let (decoded_ok, id) = tr.span("trace.decode", |_| {
        for line in days.iter().flat_map(|d| d.lines.iter()) {
            let t = stats::now();
            let r = decode_record_line(line.as_bytes());
            decode_us.push(us(t.elapsed()));
            match r {
                Ok(rec) => records.push(rec),
                Err(_) => return false,
            }
        }
        true
    });
    out.check(decoded_ok, || "an ingest line failed to decode".to_owned());
    layers::push(s, "trace.decode_ms", tr.ms(id));
    layers::push(s, "trace.records", records.len() as f64);
    s.entry("trace.io.decode_line_us".to_owned())
        .or_default()
        .extend(decode_us);

    // The final cumulative re-mine, layer by layer.
    let whois = WhoisRegistry::new();
    let cfg = SmashConfig::default();
    let (ds, root) = tr.span("iteration", |tr| {
        let (ds, id) = tr.span("trace.dataset.build", |_| {
            TraceDataset::from_records(records)
        });
        layers::push(s, "trace.dataset.build_ms", tr.ms(id));
        layers::sweep(tr, &ds, &whois, &cfg, s);
        ds
    });
    let _ = root;
    layers::push(s, "trace.dataset.heap_bytes", ds.heap_bytes() as f64);
    let smash = Smash::try_new(cfg.clone()).map_err(|e| e.to_string())?;
    let (report, id) = tr.span("core.pipeline.run", |_| smash.run(&ds, &whois));
    layers::push(s, "core.pipeline.run_ms", tr.ms(id));
    out.check(
        json::to_string(&report.campaigns.to_json()) == reference,
        || "re-mined campaigns differ from the reference".to_owned(),
    );
    layers::client_lsh(tr, &ds, &cfg, s);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_schedule_seals_after_each_quarter() {
        let lines: Vec<String> = (0..10).map(|i| format!("l{i}")).collect();
        let items: Vec<Item> = (0..).map_while(|k| steady_item(&lines, k)).collect();
        let tags: Vec<Tag> = items.iter().map(|i| i.tag).collect();
        assert_eq!(items.len(), 10 + SEALS_PER_DAY);
        // Quarters of 10 lines end at lines 2, 4, 7 and 9.
        let seal_at: Vec<usize> = tags
            .iter()
            .enumerate()
            .filter(|(_, t)| **t == Tag::Seal)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(seal_at, vec![3, 6, 10, 13]);
        // A seal is due with the line it follows; lines keep the rate.
        let due: Vec<Duration> = items.iter().map(|i| i.due).collect();
        assert_eq!(due.get(3), due.get(2));
        assert_eq!(due.get(13), Some(&schedule::due(9, INGEST_RATE)));
        assert_eq!(items.get(4).map(|i| i.line.as_str()), Some("INGEST l3"));
    }

    #[test]
    fn reply_fields_parse() {
        assert_eq!(field("OK epoch=3 records=10", "epoch"), Some(3));
        assert_eq!(
            field("{\"failed\":0,\"published\":12,\"sealed\":13}", "published"),
            Some(12)
        );
        assert_eq!(field("MISS", "epoch"), None);
        assert!(reply_ok(
            Tag::Query,
            "HIT campaign=0 size=3 score=1.0 since=1"
        ));
        assert!(!reply_ok(Tag::Ingest, "BUSY"));
        assert!(!reply_ok(Tag::Seal, "ERR empty-epoch"));
    }
}
