//! Workload inputs, generated from the workload seed.
//!
//! The program only ever sees the generated bytes (or, for the
//! reference report, the generator's in-memory dataset). Every input
//! carries an FNV-1a digest so that a seed's inputs can be checked for
//! determinism and stated in the run's provenance.

use smash_groundtruth::GroundTruth;
use smash_support::ckpt::fnv1a;
use smash_support::json;
use smash_synth::stream::StreamScenario;
use smash_synth::Scenario;
use smash_trace::{HttpRecord, TraceDataset};
use smash_whois::WhoisRegistry;

/// A malformed JSONL line is planted once per this many good lines of a
/// `day-jsonl` trace, so lenient decoding has real work to count.
pub const BAD_LINE_EVERY: usize = 1000;

/// Derives the `k`-th sub-seed of `seed` (SplitMix64 finalizer).
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One generated Data2012-shaped day.
pub struct Day {
    /// The scenario seed.
    pub seed: u64,
    /// One JSON record per line, no terminator, in trace order.
    pub lines: Vec<String>,
    /// Pretty-printed Whois registry JSON.
    pub whois_json: String,
    /// The generator's in-memory dataset (reference input).
    pub dataset: TraceDataset,
    /// The generator's in-memory Whois registry (reference input).
    pub whois: WhoisRegistry,
    /// Planted malicious campaigns, as sorted server-name lists.
    pub planted: Vec<Vec<String>>,
}

impl Day {
    /// Generates `Scenario::data2012_day(seed)` and re-emits its records
    /// as JSONL lines the way `smash generate` writes them.
    pub fn data2012(seed: u64) -> Day {
        let data = Scenario::data2012_day(seed).generate();
        let ds = &data.dataset;
        let lines = ds
            .records()
            .map(|r| {
                let path = ds.path_name(r.path);
                let pattern = ds.param_pattern_name(r.param_pattern);
                let uri = if pattern.is_empty() {
                    path.to_owned()
                } else {
                    format!("{path}?{}", pattern.replace("=[]", "=0"))
                };
                let mut rec = HttpRecord::new(
                    r.timestamp,
                    ds.client_name(r.client),
                    ds.server_name(r.server),
                    ds.ip_name(r.ip),
                    &uri,
                )
                .with_user_agent(ds.user_agent_name(r.user_agent))
                .with_status(r.status)
                .with_resp_bytes(r.resp_bytes);
                if let Some(rf) = r.referrer {
                    rec = rec.with_referrer(ds.server_name(rf));
                }
                if let Some(rd) = r.redirect_to {
                    rec = rec.with_redirect_to(ds.server_name(rd));
                }
                json::to_string(&rec)
            })
            .collect();
        let planted = planted_campaigns(&data.truth, ds);
        Day {
            seed,
            lines,
            whois_json: json::to_string_pretty(&data.whois),
            dataset: data.dataset,
            whois: data.whois,
            planted,
        }
    }

    /// The day as JSONL bytes with one malformed line planted per
    /// [`BAD_LINE_EVERY`] good ones. Returns the bytes and the number of
    /// planted bad lines.
    pub fn jsonl_with_bad_lines(&self) -> (Vec<u8>, usize) {
        let mut out = Vec::with_capacity(self.lines.iter().map(|l| l.len() + 1).sum());
        let mut bad = 0usize;
        for (i, line) in self.lines.iter().enumerate() {
            if i % BAD_LINE_EVERY == BAD_LINE_EVERY / 2 {
                out.extend_from_slice(bad_line(bad).as_bytes());
                out.push(b'\n');
                bad += 1;
            }
            out.extend_from_slice(line.as_bytes());
            out.push(b'\n');
        }
        (out, bad)
    }

    /// Digest of the bytes the program receives for this day.
    pub fn digest(&self) -> u64 {
        let mut h = fnv1a(self.whois_json.as_bytes());
        for line in &self.lines {
            h ^= fnv1a(line.as_bytes());
            h = h.rotate_left(5).wrapping_mul(0x0100_0000_01B3);
        }
        h
    }
}

/// The three malformed-line classes lenient ingest distinguishes:
/// truncated JSON, an unparsable server IP, and a missing field.
fn bad_line(k: usize) -> String {
    match k % 3 {
        0 => format!("{{\"timestamp\":{k},\"client\":\"trunc"),
        1 => format!(
            "{{\"timestamp\":{k},\"client\":\"c\",\"host\":\"h.example\",\"server_ip\":\"999.0.0.{k}\",\
             \"method\":\"GET\",\"uri\":\"/\",\"user_agent\":\"-\",\"referrer\":null,\"status\":200,\
             \"redirect_to\":null}}"
        ),
        _ => format!("{{\"timestamp\":{k}}}"),
    }
}

/// Planted malicious campaigns of a scenario with at least two servers
/// present in the trace. The synthetic noise herds (torrent trackers,
/// TeamViewer-style pools) are not campaigns and are left out.
fn planted_campaigns(truth: &GroundTruth, ds: &TraceDataset) -> Vec<Vec<String>> {
    truth
        .campaigns()
        .iter()
        .filter(|c| !c.category.is_noise())
        .map(|c| {
            truth
                .servers_of_campaign(c.id)
                .into_iter()
                .filter(|s| ds.server_id(s).is_some())
                .map(str::to_owned)
                .collect::<Vec<_>>()
        })
        .filter(|servers| servers.len() >= 2)
        .collect()
}

/// One `StreamScenario::quick`-shaped day, materialized.
pub struct StreamDay {
    /// Every record, in stream order.
    pub records: Vec<HttpRecord>,
    /// Planted campaigns, as server-name lists.
    pub planted: Vec<Vec<String>>,
}

impl StreamDay {
    /// Generates the quick streamed scenario for `seed`.
    pub fn quick(seed: u64) -> StreamDay {
        let sc = StreamScenario::quick(seed);
        let records: Vec<HttpRecord> = sc.records().collect();
        let planted = (0..sc.campaigns)
            .map(|c| {
                (0..sc.servers_per_campaign)
                    .map(|s| format!("c{c}-{s}.bad"))
                    .filter(|name| records.iter().any(|r| &r.host == name))
                    .collect::<Vec<_>>()
            })
            .filter(|servers| servers.len() >= 2)
            .collect();
        StreamDay { records, planted }
    }
}

/// Share of `planted` campaigns recovered by `inferred`: a campaign
/// counts when at least half of its servers fall in one inferred
/// campaign. Returns `(recovered, planted)`.
pub fn recall(planted: &[Vec<String>], inferred: &[Vec<String>]) -> (usize, usize) {
    let recovered = planted
        .iter()
        .filter(|p| {
            inferred.iter().any(|c| {
                let hits = p.iter().filter(|s| c.contains(s)).count();
                hits * 2 >= p.len()
            })
        })
        .count();
    (recovered, planted.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        let a = Day::data2012(11);
        let b = Day::data2012(11);
        let c = Day::data2012(12);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.jsonl_with_bad_lines(), b.jsonl_with_bad_lines());
        assert_ne!(a.digest(), c.digest());
        assert!(!a.planted.is_empty());
    }

    #[test]
    fn planted_bad_lines_are_counted_by_lenient_ingest() {
        let day = Day::data2012(3);
        let (bytes, bad) = day.jsonl_with_bad_lines();
        let (records, report) = smash_trace::io::read_jsonl_lenient(
            bytes.as_slice(),
            &smash_trace::IngestOptions::default(),
        )
        .expect("bad lines stay inside the error budget");
        assert_eq!(report.bad_lines(), bad);
        assert_eq!(records.len(), day.lines.len());
        assert!(bad >= 3, "every bad-line class is planted");
    }

    #[test]
    fn stream_day_is_deterministic() {
        let mut sc = StreamScenario::quick(5);
        sc.clients = 2_000;
        let a: Vec<HttpRecord> = sc.records().collect();
        let b: Vec<HttpRecord> = sc.records().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn recall_needs_half_of_a_campaign_in_one_herd() {
        let planted = vec![
            vec![
                "a".to_owned(),
                "b".to_owned(),
                "c".to_owned(),
                "d".to_owned(),
            ],
            vec!["x".to_owned(), "y".to_owned()],
        ];
        let split = vec![vec!["a".to_owned()], vec!["b".to_owned(), "c".to_owned()]];
        assert_eq!(recall(&planted, &split), (1, 2));
        assert_eq!(recall(&planted, &[vec!["q".to_owned()]]), (0, 2));
    }

    #[test]
    fn sub_seeds_differ() {
        assert_ne!(mix(7, 0), mix(7, 1));
        assert_ne!(mix(7, 0), mix(8, 0));
        assert_eq!(mix(7, 3), mix(7, 3));
    }
}
