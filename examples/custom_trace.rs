//! Bring your own traffic: build a trace from your own HTTP logs (here,
//! hand-written records standing in for a flow log), persist it as
//! JSONL, and run SMASH with a tuned configuration — the integration
//! path for a real deployment.
//!
//! ```text
//! cargo run --example custom_trace
//! ```

use smash::core::{Smash, SmashConfig};
use smash::trace::{io, HttpRecord, IngestOptions, TraceDataset, TraceStats};
use smash::whois::{WhoisRecord, WhoisRegistry};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Convert your flow log into HttpRecords. Two infected clients
    //    poll three fluxed C&C domains (same script, same IP); the rest
    //    is ordinary browsing.
    let mut records = Vec::new();
    for (i, bot) in ["10.0.0.5", "10.0.0.9"].iter().enumerate() {
        for domain in ["update-cdn1.biz", "update-cdn2.biz", "update-cdn3.biz"] {
            records.push(
                HttpRecord::new(
                    60 * i as u64,
                    bot,
                    domain,
                    "185.13.37.1",
                    "/panel/gate.php?id=77&v=2",
                )
                .with_user_agent("Mozilla/4.0 (compatible; MSIE 6.0)"),
            );
        }
    }
    for (client, host, ip, uri) in [
        (
            "10.0.0.2",
            "news.example.com",
            "93.184.216.34",
            "/stories/today.html",
        ),
        (
            "10.0.0.3",
            "news.example.com",
            "93.184.216.34",
            "/index.html",
        ),
        (
            "10.0.0.2",
            "shop.example.net",
            "93.184.216.40",
            "/cart.php?item=3",
        ),
        (
            "10.0.0.7",
            "mail.example.org",
            "93.184.216.50",
            "/inbox.html",
        ),
        (
            "10.0.0.5",
            "news.example.com",
            "93.184.216.34",
            "/index.html",
        ),
    ] {
        records.push(HttpRecord::new(120, client, host, ip, uri).with_user_agent("Mozilla/5.0"));
    }

    // 2. Persist and reload as JSONL — the interchange format any log
    //    shipper can produce.
    let path = std::env::temp_dir().join("smash-custom-trace.jsonl");
    io::write_jsonl_file(&path, &records)?;
    // Error budget 0 is strict: the first malformed line fails the read.
    let strict = IngestOptions::default().with_error_budget(0.0);
    let (records, _) = io::read_jsonl_lenient(std::fs::File::open(&path)?, &strict)?;

    // Ingest interns every string into the columnar arena: records
    // become rows across typed columns, servers get dense u32 ids, and
    // per-server postings (clients, files, IPs) are built once for
    // every downstream consumer (DESIGN.md §12).
    let dataset = TraceDataset::from_records(records);
    println!("loaded trace: {}", TraceStats::compute(&dataset));

    // 2b. For repeated mining runs, skip re-parsing entirely: save the
    //     interned arena as a binary day file and reload it — the CLI
    //     equivalent is `smash preprocess` + `analyze --load-day`.
    let day_path = std::env::temp_dir().join("smash-custom-trace.day");
    smash::trace::save_day(&day_path, &dataset)?;
    let dataset = smash::trace::load_day(&day_path)?;
    println!(
        "reloaded {} interned records from {}",
        dataset.record_count(),
        day_path.display()
    );

    // 3. Attach whatever Whois you have (optional — the dimension just
    //    stays silent for unregistered domains).
    let mut whois = WhoisRegistry::new();
    for d in ["update-cdn1.biz", "update-cdn2.biz", "update-cdn3.biz"] {
        whois.insert(
            d,
            WhoisRecord::new()
                .with_registrant("resale ltd")
                .with_phone("+7-900-1234567")
                .with_name_server("ns1.bullethost.example"),
        );
    }

    // 4. Tune the pipeline for a tiny trace: no popularity filter needed,
    //    and a lower threshold since there are few servers per herd.
    let config = SmashConfig::default()
        .with_idf_threshold(1000)
        .with_threshold(0.5)
        .with_param_pattern_dimension(true);
    let report = Smash::new(config).run(&dataset, &whois);

    println!("inferred {} campaign(s):", report.campaigns.len());
    for c in &report.campaigns {
        println!(
            "  {} servers / {} client(s) via {:?}: {:?}",
            c.server_count(),
            c.client_count,
            c.dimension_set(),
            c.servers
        );
    }
    std::fs::remove_file(&path).ok();
    Ok(())
}
