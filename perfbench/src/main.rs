//! `smash-perfbench`: the SMASH benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <day-jsonl|herd-cols|serve-mixed|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run reports the end-to-end metrics; with
//! `--trace 1` a separate traced run reports the per-layer metrics and
//! writes its spans under `.perfbench_work/`. Every metric is printed by
//! name with its unit and sample count; the last line of standard output
//! is one JSON object with `correct`, `attempted`, `failed` and the
//! declared metrics. The exit code is non-zero when a correctness check
//! fails or the run is invalid. See `perfbench/README.md`.

mod batch;
mod inputs;
mod layers;
mod outcome;
mod provenance;
mod schedule;
mod serve;
mod spans;
mod stats;

use outcome::Outcome;
use smash_support::json::{self, Json};
use std::path::Path;
use std::process::{Command, ExitCode};

/// Where runs keep their scratch data (serve data dirs, span files),
/// relative to the working directory.
pub const WORK_DIR: &str = ".perfbench_work";

/// Every workload, in `all` order.
const WORKLOADS: [&str; 3] = ["day-jsonl", "herd-cols", "serve-mixed"];

/// The declared end-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_ms.p50", "ms"),
    ("records_per_s", "records/s"),
    ("peak_rss_mb", "MiB"),
    ("planted_recall", "ratio"),
];

/// The declared per-layer metrics (`--trace 1`), with units: the layers
/// every workload exercises.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = vec![
        ("trace.decode_ms".to_owned(), "ms"),
        ("trace.records".to_owned(), "count"),
        ("trace.dataset.build_ms".to_owned(), "ms"),
        ("trace.dataset.heap_bytes".to_owned(), "bytes"),
    ];
    out.extend(layers::metric_names());
    out.push(("core.pipeline.run_ms".to_owned(), "ms"));
    out
}

/// VmHWM (peak resident set) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM for process {pid}"))
}

/// Resets this process's peak-RSS high-water mark to its current RSS
/// (Linux `clear_refs` value 5), so the next VmHWM read covers only what
/// ran since. Returns whether the reset took effect.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Writes a traced run's spans to `.perfbench_work/spans-<workload>-<pid>.jsonl`.
pub fn write_spans(tr: &spans::Tracer, workload: &str) -> Result<(), String> {
    std::fs::create_dir_all(WORK_DIR).map_err(|e| format!("create {WORK_DIR}: {e}"))?;
    let path = Path::new(WORK_DIR).join(format!("spans-{workload}-{}.jsonl", std::process::id()));
    tr.write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("spans: {} ({} spans)", path.display(), tr.spans().len());
    Ok(())
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => out.workload.clone_from(value),
            "--seed" => out.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => out.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if out.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(out)
}

fn run_one(args: &Args) -> Result<bool, String> {
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "day-jsonl" => batch::run(
            batch::Kind::DayJsonl,
            args.seed,
            args.seconds,
            args.trace,
            &mut out,
        )?,
        "herd-cols" => batch::run(
            batch::Kind::HerdCols,
            args.seed,
            args.seconds,
            args.trace,
            &mut out,
        )?,
        "serve-mixed" => serve::run(args.seed, args.seconds, args.trace, &mut out)?,
        other => {
            return Err(format!(
                "unknown workload {other} (day-jsonl|herd-cols|serve-mixed|all)"
            ))
        }
    }
    let mut prov = provenance::base(&args.workload, args.seed, args.seconds, args.trace);
    prov.push(("inputs".to_owned(), Json::Arr(out.inputs.clone())));
    println!("provenance: {}", json::to_string(&Json::Obj(prov)));
    for m in &out.metrics {
        println!(
            "  {:<44} {:>16.4} {:<10} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!("checks: attempted={} failed={}", out.attempted, out.failed);
    for e in &out.errors {
        println!("CHECK FAILED: {e}");
    }
    if let Some(why) = &out.invalid {
        println!("INVALID RUN: {why}");
    }
    let declared: Vec<(String, &str)> = if args.trace {
        per_layer_metrics()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    let mut fields = Vec::new();
    let mut complete = true;
    for (name, unit) in &declared {
        match out.get(name).filter(|m| m.value.is_finite()) {
            // `{}` prints the shortest round-trip form: every digit, no
            // exponent, valid JSON for a finite value.
            Some(m) => fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                m.value
            )),
            None => {
                println!("MISSING METRIC: {name}");
                complete = false;
            }
        }
    }
    let correct = out.attempted > 0
        && out.failed == 0
        && out.errors.is_empty()
        && out.invalid.is_none()
        && complete;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(", ")
    );
    Ok(correct)
}

/// Runs every workload in its own process (so each reports its own peak
/// RSS) and passes their output through.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut all_ok = true;
    for w in WORKLOADS {
        println!("== {w}");
        let result = Command::new(&exe)
            .args(["--workload", w])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("run {w}: {e}"))?;
        print!("{}", String::from_utf8_lossy(&result.stdout));
        eprint!("{}", String::from_utf8_lossy(&result.stderr));
        if !result.status.success() {
            println!("== {w}: FAILED ({})", result.status);
            all_ok = false;
        }
    }
    println!("{{\"all_correct\": {all_ok}}}");
    Ok(all_ok)
}

/// The daemon half of `serve-mixed`: `smash_serve::run` with the
/// defaults of `smash serve --data-dir <dir> --addr 127.0.0.1:0`.
fn daemon(dir: &str) -> ExitCode {
    // If the benchmark dies without SHUTDOWN (killed by a signal), the
    // daemon is re-parented; it then exits instead of outliving the run.
    let parent = std::os::unix::process::parent_id();
    std::thread::spawn(move || loop {
        std::thread::sleep(std::time::Duration::from_millis(200));
        if std::os::unix::process::parent_id() != parent {
            std::process::exit(1);
        }
    });
    let opts = smash_serve::RunOptions {
        serve: smash_serve::ServeOptions::new(dir),
        addr: Some("127.0.0.1:0".to_owned()),
        stdio: false,
    };
    match smash_serve::run(opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match (argv.first().map(String::as_str), argv.get(1), argv.get(2)) {
        (Some("--daemon"), Some(dir), _) => return daemon(dir),
        (Some("--prepare"), Some(workload), Some(seed)) => {
            let kind = match workload.as_str() {
                "day-jsonl" => batch::Kind::DayJsonl,
                _ => batch::Kind::HerdCols,
            };
            let done = match (seed.parse::<u64>(), argv.get(3)) {
                (Ok(seed), Some(dir)) => batch::prepare(kind, seed, Path::new(dir)),
                _ => Err("usage: --prepare <workload> <seed> <dir>".to_owned()),
            };
            return match done {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
