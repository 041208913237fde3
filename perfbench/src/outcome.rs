//! What one run found: checks attempted and failed, named metrics with
//! units and sample counts, and the inputs it ran on.

use crate::layers::Samples;
use crate::stats;
use smash_support::json::Json;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `latency_ms.p50`.
    pub name: String,
    /// Unit, e.g. `ms`.
    pub unit: String,
    /// The value as measured.
    pub value: f64,
    /// How many samples the value summarizes.
    pub samples: usize,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Operations that failed (wrong output, error, refusal, no answer).
    pub failed: u64,
    /// Correctness failures, described.
    pub errors: Vec<String>,
    /// Set when the run measured the generator instead of the program.
    pub invalid: Option<String>,
    /// Every metric, in report order.
    pub metrics: Vec<Metric>,
    /// The inputs the run used (provenance).
    pub inputs: Vec<Json>,
}

impl Outcome {
    /// Records one metric.
    pub fn metric(&mut self, name: &str, unit: &str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            unit: unit.to_owned(),
            value,
            samples,
        });
    }

    /// Records the median of `xs` as `name`, if there are samples.
    pub fn median(&mut self, name: &str, unit: &str, xs: &[f64]) {
        if let Some(v) = stats::median(xs) {
            self.metric(name, unit, v, xs.len());
        }
    }

    /// Records `<base>.p50` and, where the samples support one, the
    /// highest tail percentile `<base>.p99` / `.p999` / `.p90`.
    pub fn timing(&mut self, base: &str, unit: &str, xs: &[f64]) {
        self.median(&format!("{base}.p50"), unit, xs);
        if let Some((p, v)) = stats::tail(xs) {
            let label = format!("{p}").replace('.', "");
            self.metric(&format!("{base}.p{label}"), unit, v, xs.len());
        }
    }

    /// Records the median of every named layer sample series.
    pub fn layers(&mut self, samples: &Samples, names: &[(String, &'static str)]) {
        for (name, unit) in names {
            if let Some(xs) = samples.get(name) {
                self.median(name, unit, xs);
            }
        }
    }

    /// Counts one checked operation; a failed one is also described.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(what());
            }
        }
    }

    /// Counts `n` operations that were not individually checked for
    /// output, of which `failed` failed.
    pub fn count(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_reports_tails_only_with_support() {
        let mut o = Outcome::default();
        let few: Vec<f64> = (1..=50).map(f64::from).collect();
        o.timing("run_ms", "ms", &few);
        assert_eq!(o.metrics.len(), 1);
        assert_eq!(o.get("run_ms.p50").map(|m| m.samples), Some(50));
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        o.timing("ingest_us", "us", &many);
        assert_eq!(o.get("ingest_us.p99").map(|m| m.value), Some(990.0));
    }

    #[test]
    fn checks_count_failures() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.check(false, || "report differs".to_owned());
        o.count(10, 1);
        assert_eq!((o.attempted, o.failed), (12, 2));
        assert_eq!(o.errors, vec!["report differs".to_owned()]);
    }
}
