//! The closed-loop batch workloads: `day-jsonl` and `herd-cols`.
//!
//! One caller runs iterations back to back. An iteration takes the
//! input bytes to a serialized report: for `day-jsonl` Whois JSON →
//! registry, lenient JSONL decode, dataset build, `Smash::run`, report
//! JSON; for `herd-cols` `day::parse_day`, `Smash::run`, report JSON.
//! Every iteration's report is checked against a reference computed in
//! set-up from the generator's in-memory dataset.

use crate::inputs::{self, Day, StreamDay};
use crate::layers::{self, Samples};
use crate::outcome::Outcome;
use crate::provenance;
use crate::spans::{self, Tracer};
use crate::stats::{self, ms};
use smash_core::{Smash, SmashConfig, SmashReport};
use smash_support::ckpt::fnv1a;
use smash_support::json::{self, Json, ToJson};
use smash_trace::io::read_jsonl_lenient;
use smash_trace::{day, IngestOptions, TraceDataset};
use smash_whois::WhoisRegistry;
use std::fs;
use std::path::Path;
use std::process::Command;
use std::time::Duration;

/// Days a batch run rotates through, so that the medians do not hang on
/// one seed's draw (the uri-file pair count of a streamed day alone
/// varies by half from seed to seed).
const DAYS: u64 = 3;

/// Which batch workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// JSONL trace plus Whois JSON, decoded every iteration.
    DayJsonl,
    /// A preprocessed `SMSHCOLS` day.
    HerdCols,
}

/// One input, as the program receives it.
struct Input {
    /// JSONL trace (`day-jsonl`) or `SMSHCOLS` bytes (`herd-cols`).
    bytes: Vec<u8>,
    /// Whois registry JSON (`day-jsonl` only).
    whois_json: String,
    /// Malformed lines planted in the JSONL.
    bad_lines: usize,
    /// Records the input decodes to.
    records: usize,
    /// Canonical reference report.
    reference: String,
    /// Planted campaigns.
    planted: Vec<Vec<String>>,
    /// The generator seed of the day.
    day_seed: u64,
}

/// What an untimed-check iteration produced.
struct Produced {
    report: SmashReport,
    json_len: usize,
    bad_lines: usize,
}

fn report_json(report: &SmashReport) -> String {
    let doc = Json::Obj(vec![
        ("campaigns".to_owned(), report.campaigns.to_json()),
        ("health".to_owned(), report.health.to_json()),
        ("perf".to_owned(), report.perf.to_json()),
    ]);
    json::to_string_pretty(&doc)
}

fn load_whois(text: &str) -> Result<WhoisRegistry, String> {
    json::from_str(text).map_err(|e| format!("whois JSON: {e}"))
}

fn decode_jsonl(bytes: &[u8]) -> Result<(Vec<smash_trace::HttpRecord>, usize), String> {
    let (records, report) = read_jsonl_lenient(bytes, &IngestOptions::default())
        .map_err(|e| format!("JSONL ingest: {e}"))?;
    Ok((records, report.bad_lines()))
}

fn parse(bytes: &[u8]) -> Result<TraceDataset, String> {
    day::parse_day(bytes).map_err(|e| format!("SMSHCOLS day: {e}"))
}

/// One iteration, bytes in to report JSON out.
fn iterate(kind: Kind, smash: &Smash, input: &Input) -> Result<Produced, String> {
    let (ds, whois, bad_lines) = match kind {
        Kind::DayJsonl => {
            let whois = load_whois(&input.whois_json)?;
            let (records, bad) = decode_jsonl(&input.bytes)?;
            (TraceDataset::from_records(records), whois, bad)
        }
        Kind::HerdCols => (parse(&input.bytes)?, WhoisRegistry::new(), 0),
    };
    let report = smash.run(&ds, &whois);
    let json_len = std::hint::black_box(report_json(&report)).len();
    Ok(Produced {
        report,
        json_len,
        bad_lines,
    })
}

/// Set-up samples file the set-up child leaves beside the inputs.
const SETUP_FILE: &str = "setup.txt";

/// Writes input `k` as the set-up child leaves it: `<k>.input` (the
/// bytes), `<k>.whois` (Whois JSON), `<k>.reference` (canonical
/// reference report) and `<k>.meta` (label; records; planted bad lines;
/// digest; day seed; then one planted campaign per line).
fn write_input(dir: &Path, k: u64, input: &Input, label: &str, digest: u64) -> Result<(), String> {
    let mut meta = format!(
        "{label}\n{}\n{}\n{digest}\n{}\n",
        input.records, input.bad_lines, input.day_seed
    );
    for campaign in &input.planted {
        meta.push_str(&campaign.join(" "));
        meta.push('\n');
    }
    let files = [
        ("input", input.bytes.as_slice()),
        ("whois", input.whois_json.as_bytes()),
        ("reference", input.reference.as_bytes()),
        ("meta", meta.as_bytes()),
    ];
    for (ext, data) in files {
        let path = dir.join(format!("{k}.{ext}"));
        fs::write(&path, data).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// The set-up, run in a child process (`--prepare <workload> <seed>
/// <dir>`) so that generation never counts toward the measured process's
/// peak RSS: generates the inputs, computes each reference report from
/// the generator's in-memory dataset, and leaves everything in `dir`
/// with one set-up time per day.
///
/// `herd-cols` times `TraceDataset::from_records` plus `day::frame_day`,
/// the per-day cost of `smash preprocess`. `day-jsonl` has no per-day
/// program set-up beyond `Smash::try_new` (tens of nanoseconds, which on
/// a shared host reads twice as long on one core as on the other), so it
/// times the benchmark's whole per-day set-up: generating the day,
/// writing its JSONL and computing its reference report.
pub fn prepare(kind: Kind, seed: u64, dir: &Path) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let smash = Smash::try_new(SmashConfig::default()).map_err(|e| e.to_string())?;
    let setup_s = match kind {
        Kind::DayJsonl => {
            let mut setup_s = Vec::new();
            for k in 0..DAYS {
                let t = stats::now();
                let day = Day::data2012(inputs::mix(seed, k));
                let (bytes, bad_lines) = day.jsonl_with_bad_lines();
                let input = Input {
                    bytes,
                    bad_lines,
                    records: day.lines.len(),
                    reference: smash.run(&day.dataset, &day.whois).canonical_json(),
                    whois_json: day.whois_json.clone(),
                    planted: day.planted.clone(),
                    day_seed: day.seed,
                };
                write_input(
                    dir,
                    k,
                    &input,
                    &format!("data2012_day({})", day.seed),
                    day.digest(),
                )?;
                setup_s.push(t.elapsed().as_secs_f64());
            }
            setup_s
        }
        Kind::HerdCols => {
            let mut setup_s = Vec::new();
            for k in 0..DAYS {
                let sub = inputs::mix(seed, k);
                let day = StreamDay::quick(sub);
                let t = stats::now();
                let ds = TraceDataset::from_records(day.records);
                let bytes = day::frame_day(&ds);
                setup_s.push(t.elapsed().as_secs_f64());
                let digest = fnv1a(&bytes);
                let input = Input {
                    bytes,
                    whois_json: String::new(),
                    bad_lines: 0,
                    records: ds.record_count(),
                    reference: smash.run(&ds, &WhoisRegistry::new()).canonical_json(),
                    planted: day.planted,
                    day_seed: sub,
                };
                write_input(dir, k, &input, &format!("stream_quick({sub})"), digest)?;
            }
            setup_s
        }
    };
    let text: Vec<String> = setup_s.iter().map(f64::to_string).collect();
    fs::write(dir.join(SETUP_FILE), text.join(" ")).map_err(|e| format!("write {SETUP_FILE}: {e}"))
}

/// Runs [`prepare`] in a child process and loads what it left. Returns
/// the inputs and the set-up samples in seconds.
fn setup(kind: Kind, seed: u64, out: &mut Outcome) -> Result<(Vec<Input>, Vec<f64>), String> {
    let dir = Path::new(crate::WORK_DIR).join(format!("inputs-{}", std::process::id()));
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let status = Command::new(exe)
        .arg("--prepare")
        .arg(kind_name(kind))
        .arg(seed.to_string())
        .arg(&dir)
        .status()
        .map_err(|e| format!("spawn set-up: {e}"))?;
    let loaded = if status.success() {
        load(&dir, out)
    } else {
        Err(format!("set-up failed: {status}"))
    };
    let _ = fs::remove_dir_all(&dir);
    let (inputs, setup_s) = loaded?;
    Ok((inputs, setup_s))
}

fn load(dir: &Path, out: &mut Outcome) -> Result<(Vec<Input>, Vec<f64>), String> {
    let read = |name: String| fs::read(dir.join(&name)).map_err(|e| format!("read {name}: {e}"));
    let text = |name: String| read(name).map(|b| String::from_utf8_lossy(&b).into_owned());
    let bad = |what: &str| format!("set-up meta: bad {what}");
    let setup_s = text(SETUP_FILE.to_owned())?
        .split_whitespace()
        .map(|x| x.parse::<f64>().map_err(|_| bad("set-up sample")))
        .collect::<Result<Vec<_>, _>>()?;
    let mut inputs = Vec::new();
    for k in 0.. {
        if !dir.join(format!("{k}.input")).exists() {
            break;
        }
        let meta = text(format!("{k}.meta"))?;
        let mut lines = meta.lines();
        let label = lines.next().ok_or_else(|| bad("label"))?.to_owned();
        let mut number = |what: &str| -> Result<u64, String> {
            lines
                .next()
                .and_then(|l| l.parse().ok())
                .ok_or_else(|| bad(what))
        };
        let records = number("records")? as usize;
        let bad_lines = number("bad lines")? as usize;
        let digest = number("digest")?;
        let day_seed = number("day seed")?;
        let planted = lines
            .map(|l| l.split_whitespace().map(str::to_owned).collect())
            .collect();
        let bytes = read(format!("{k}.input"))?;
        let whois_json = text(format!("{k}.whois"))?;
        out.inputs.push(provenance::input(
            &label,
            records,
            bytes.len() + whois_json.len(),
            digest,
        ));
        inputs.push(Input {
            bytes,
            whois_json,
            bad_lines,
            records,
            reference: text(format!("{k}.reference"))?,
            planted,
            day_seed,
        });
    }
    if inputs.is_empty() {
        return Err("set-up left no inputs".to_owned());
    }
    Ok((inputs, setup_s))
}

fn check_iteration(
    out: &mut Outcome,
    i: usize,
    input: &Input,
    produced: &Result<Produced, String>,
) {
    match produced {
        Ok(p) => {
            let same = p.report.canonical_json() == input.reference;
            let bad_ok = p.bad_lines == input.bad_lines;
            out.check(same && bad_ok && p.json_len > 0, || {
                format!(
                    "iteration {i}: report matches reference: {same}; bad lines {} (planted {})",
                    p.bad_lines, input.bad_lines
                )
            });
        }
        Err(e) => out.check(false, || format!("iteration {i}: {e}")),
    }
}

/// Runs a batch workload, untraced (`trace == false`, end-to-end
/// metrics) or traced (per-layer metrics).
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let smash = Smash::try_new(SmashConfig::default()).map_err(|e| e.to_string())?;
    let (inputs, setup_s) = setup(kind, seed, out)?;
    out.median("setup_s", "s", &setup_s);
    if trace {
        return traced(kind, &smash, &inputs, seconds, out);
    }
    out.metric(
        "bench.setup_peak_rss_mb",
        "MiB",
        crate::peak_rss_mb(std::process::id())?,
        1,
    );
    let budget = Duration::from_secs(seconds);
    let start = stats::now();
    let mut walls = Vec::new();
    let mut peak_reset = false;
    let mut first_peak = None;
    let mut records = 0usize;
    let mut recall = vec![None; inputs.len()];
    let mut i = 0usize;
    while i < inputs.len() || start.elapsed() < budget {
        let k = i % inputs.len();
        let Some(input) = inputs.get(k) else { break };
        // Peak RSS covers the first iteration, measured from a
        // high-water mark reset to the loaded inputs, so that the
        // allocator fragmentation later iterations add (which differs
        // run to run) stays out of it.
        if i == 0 {
            peak_reset = crate::reset_peak_rss();
        }
        let t = stats::now();
        let produced = iterate(kind, &smash, input);
        let wall = t.elapsed();
        if i == 0 {
            first_peak = Some(crate::peak_rss_mb(std::process::id())?);
        }
        check_iteration(out, i, input, &produced);
        if let (Ok(p), Some(slot)) = (&produced, recall.get_mut(k)) {
            slot.get_or_insert_with(|| {
                inputs::recall(&input.planted, &p.report.campaign_server_names())
            });
        }
        walls.push(ms(wall));
        records += input.records;
        i += 1;
    }
    let shown: Vec<String> = walls.iter().map(|w| format!("{w:.1}")).collect();
    println!("iteration walls (ms): {}", shown.join(" "));
    out.timing("latency_ms", "ms", &walls);
    out.median("run_ms.p50", "ms", &walls);
    // Throughput at the median iteration: records of an average input
    // over the median wall (a total-over-total ratio would let one
    // disturbed iteration move the figure).
    let per_iteration = records as f64 / walls.len().max(1) as f64;
    if let Some(p50) = stats::median(&walls) {
        out.metric(
            "records_per_s",
            "records/s",
            per_iteration / (p50 / 1e3),
            walls.len(),
        );
    }
    let (hit, all) = recall
        .iter()
        .flatten()
        .fold((0, 0), |(h, a), (rh, ra)| (h + rh, a + ra));
    out.metric(
        "planted_recall",
        "ratio",
        hit as f64 / all.max(1) as f64,
        all,
    );
    let buffers: usize = inputs
        .iter()
        .map(|x| x.bytes.len() + x.whois_json.len())
        .sum();
    out.metric(
        "bench.input_buffers_mb",
        "MiB",
        buffers as f64 / 1048576.0,
        inputs.len(),
    );
    // Without a high-water-mark reset the figure is the whole process's
    // peak, set-up buffers included.
    if !peak_reset {
        println!("note: peak RSS could not be reset; peak_rss_mb covers the whole process");
    }
    if let Some(peak) = first_peak {
        out.metric("peak_rss_mb", "MiB", peak, 1);
    }
    out.metric(
        "bench.loop_peak_rss_mb",
        "MiB",
        crate::peak_rss_mb(std::process::id())?,
        walls.len(),
    );
    Ok(())
}

/// The traced run: per iteration, an untraced iteration for reference,
/// then the same input through every layer in sequence under spans,
/// then `Smash::run` and the client LSH candidate generator on their own.
fn traced(
    kind: Kind,
    smash: &Smash,
    inputs: &[Input],
    seconds: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    let cfg = smash.config().clone();
    let span_ns = spans::span_cost_ns();
    let mut tr = Tracer::new();
    let mut s = Samples::new();
    let budget = Duration::from_secs(seconds);
    let start = stats::now();
    let mut i = 0usize;
    while i < inputs.len() || start.elapsed() < budget {
        let Some(input) = inputs.get(i % inputs.len()) else {
            break;
        };
        let t = stats::now();
        let produced = iterate(kind, smash, input);
        let untraced_ms = ms(t.elapsed());
        check_iteration(out, i, input, &produced);
        drop(produced);
        layers::push(&mut s, "bench.untraced_ms", untraced_ms);

        tr.set_iteration(i as u64);
        let (loaded, root) = tr.span("iteration", |tr| -> Result<_, String> {
            let whois = match kind {
                Kind::DayJsonl => {
                    let (w, id) = tr.span("whois.load", |_| load_whois(&input.whois_json));
                    layers::push(&mut s, "whois.load_ms", tr.ms(id));
                    w?
                }
                Kind::HerdCols => WhoisRegistry::new(),
            };
            let ds = match kind {
                Kind::DayJsonl => {
                    let (decoded, id) = tr.span("trace.decode", |_| decode_jsonl(&input.bytes));
                    layers::push(&mut s, "trace.decode_ms", tr.ms(id));
                    let (records, bad) = decoded?;
                    layers::push(&mut s, "trace.io.lines_bad", bad as f64);
                    let (ds, id) = tr.span("trace.dataset.build", |_| {
                        TraceDataset::from_records(records)
                    });
                    layers::push(&mut s, "trace.dataset.build_ms", tr.ms(id));
                    ds
                }
                Kind::HerdCols => {
                    let (ds, id) = tr.span("trace.decode", |_| parse(&input.bytes));
                    layers::push(&mut s, "trace.decode_ms", tr.ms(id));
                    ds?
                }
            };
            let sweep_ms = layers::sweep(tr, &ds, &whois, &cfg, &mut s);
            Ok((ds, whois, sweep_ms))
        });
        let (ds, whois, sweep_ms) = loaded?;
        let wall = tr.ms(root);
        let own = spans::descendant_self_ns(tr.spans(), root) as f64 / 1e6;
        layers::push(&mut s, "bench.traced_iteration_ms", wall);
        layers::push(&mut s, "bench.layer_self_share", own / wall);
        let count = spans::descendants(tr.spans(), root) + 1;
        layers::push(
            &mut s,
            "bench.span_overhead_ms",
            count as f64 * span_ns / 1e6,
        );
        layers::push(&mut s, "trace.records", ds.record_count() as f64);
        layers::push(&mut s, "trace.dataset.heap_bytes", ds.heap_bytes() as f64);

        let (report, id) = tr.span("core.pipeline.run", |_| smash.run(&ds, &whois));
        let pipeline_ms = tr.ms(id);
        layers::push(&mut s, "core.pipeline.run_ms", pipeline_ms);
        let (text, id) = tr.span("report.json", |_| report_json(&report));
        let json_ms = tr.ms(id);
        layers::push(&mut s, "report.json_ms", json_ms);
        out.check(
            report.canonical_json() == input.reference && !text.is_empty(),
            || format!("traced iteration {i}: pipeline report differs from the reference"),
        );
        layers::client_lsh(&mut tr, &ds, &cfg, &mut s);
        if kind == Kind::HerdCols {
            let records = StreamDay::quick(input.day_seed).records;
            let (built, id) = tr.span("trace.dataset.build", |_| {
                TraceDataset::from_records(records)
            });
            layers::push(&mut s, "trace.dataset.build_ms", tr.ms(id));
            let (bytes, id) = tr.span("trace.day.frame", |_| day::frame_day(&built));
            layers::push(&mut s, "trace.day.frame_ms", tr.ms(id));
            layers::push(&mut s, "trace.day.bytes", bytes.len() as f64);
        }
        // traced − untraced = (sweep − pipeline) − report JSON + overhead:
        // the gap, the part of it the serial sweep explains, and the rest.
        let lost_overlap = sweep_ms - pipeline_ms;
        layers::push(&mut s, "bench.trace_gap_ms", wall - untraced_ms);
        layers::push(&mut s, "bench.lost_overlap_ms", lost_overlap);
        layers::push(
            &mut s,
            "bench.trace_overhead_ms",
            (wall - untraced_ms) - lost_overlap + json_ms,
        );
        i += 1;
    }
    out.layers(&s, &crate::per_layer_metrics());
    out.layers(&s, &extra_metrics(kind));
    crate::write_spans(&tr, kind_name(kind))
}

/// The workload's name.
pub fn kind_name(kind: Kind) -> &'static str {
    match kind {
        Kind::DayJsonl => "day-jsonl",
        Kind::HerdCols => "herd-cols",
    }
}

/// Traced-run metrics specific to one batch workload (printed, not part
/// of the declared per-layer set).
fn extra_metrics(kind: Kind) -> Vec<(String, &'static str)> {
    let mut v: Vec<(&str, &'static str)> = vec![
        ("bench.untraced_ms", "ms"),
        ("bench.traced_iteration_ms", "ms"),
        ("bench.layer_self_share", "ratio"),
        ("bench.span_overhead_ms", "ms"),
        ("bench.trace_gap_ms", "ms"),
        ("bench.lost_overlap_ms", "ms"),
        ("bench.trace_overhead_ms", "ms"),
        ("report.json_ms", "ms"),
    ];
    match kind {
        Kind::DayJsonl => v.extend([("whois.load_ms", "ms"), ("trace.io.lines_bad", "count")]),
        Kind::HerdCols => v.extend([("trace.day.frame_ms", "ms"), ("trace.day.bytes", "bytes")]),
    }
    v.into_iter().map(|(n, u)| (n.to_owned(), u)).collect()
}
