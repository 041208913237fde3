//! Open-loop schedule and due-time accounting.
//!
//! Request `i` of a stream at `rate` per second is due `i / rate`
//! seconds after the stream starts, whatever happened to earlier
//! requests. Latency is measured from the due time, so a stall is
//! charged to every request that queued behind it. The generator's own
//! lateness (due time to the moment it handed the request to its socket
//! buffer) is kept apart: when it grows, the run measured the generator
//! and is reported invalid instead of as a number.

use std::time::Duration;

/// Generator lateness (p99, milliseconds) beyond which a run is invalid.
pub const MAX_GENERATOR_LATE_MS: f64 = 10.0;

/// Due offset of request `i` at `rate` requests per second.
pub fn due(i: u64, rate: f64) -> Duration {
    Duration::from_secs_f64(i as f64 / rate)
}

/// Per-stream open-loop bookkeeping: when each request was due and how
/// late the generator queued it (offsets from the stream's start).
#[derive(Debug, Default, Clone)]
pub struct OpenLoop {
    due: Vec<Duration>,
    /// Generator lateness of each queued request, in milliseconds.
    pub late_ms: Vec<f64>,
    /// Most requests ever due but not yet queued at one instant.
    pub max_backlog: usize,
}

impl OpenLoop {
    /// An empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that request `due` was handed to the socket at `now`,
    /// returning its sequence number.
    pub fn queued(&mut self, due: Duration, now: Duration) -> usize {
        self.late_ms
            .push(now.saturating_sub(due).as_nanos() as f64 / 1e6);
        self.due.push(due);
        self.due.len() - 1
    }

    /// Notes how many requests were due but not yet queued at one
    /// instant (the generator's backlog).
    pub fn backlog(&mut self, pending: usize) {
        self.max_backlog = self.max_backlog.max(pending);
    }

    /// Latency of request `seq` answered at `now`, in microseconds from
    /// its due time.
    pub fn latency_us(&self, seq: usize, now: Duration) -> f64 {
        self.due.get(seq).map_or(f64::INFINITY, |d| {
            now.saturating_sub(*d).as_nanos() as f64 / 1e3
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn due_times_follow_the_rate() {
        assert_eq!(due(0, 10_000.0), Duration::ZERO);
        assert_eq!(due(10_000, 10_000.0), Duration::from_secs(1));
        assert_eq!(due(3, 2_000.0), Duration::from_micros(1500));
    }

    #[test]
    fn a_stall_is_charged_from_due_time_to_every_queued_request() {
        // 1 request per ms; the server stalls answering from 2 ms to 12 ms.
        let mut ol = OpenLoop::new();
        let mut lat = Vec::new();
        for i in 0..5u64 {
            let d = due(i, 1_000.0);
            // The generator is on time: it queues each request when due.
            let seq = ol.queued(d, d);
            let answered = if i < 2 {
                d + Duration::from_micros(100)
            } else {
                Duration::from_millis(12)
            };
            lat.push(ol.latency_us(seq, answered));
        }
        assert_eq!(lat, vec![100.0, 100.0, 10_000.0, 9_000.0, 8_000.0]);
        // Queued on time: no generator lateness despite the stall.
        assert!(ol.late_ms.iter().all(|&l| l == 0.0));
        assert_eq!(ol.late_ms.len(), 5);
    }

    #[test]
    fn a_late_generator_shows_as_lateness_and_backlog() {
        let mut ol = OpenLoop::new();
        // The generator wakes 15 ms late and queues 16 overdue requests.
        let woke = Duration::from_millis(15);
        ol.backlog(16);
        for i in 0..16u64 {
            ol.queued(due(i, 1_000.0), woke);
        }
        assert_eq!(ol.max_backlog, 16);
        assert_eq!(ol.late_ms.first().copied(), Some(15.0));
        assert_eq!(ol.late_ms.last().copied(), Some(0.0));
        // Latency from due includes the generator's delay.
        assert_eq!(ol.latency_us(0, woke), 15_000.0);
        assert!(stats::median(&ol.late_ms).unwrap_or(0.0) > 5.0);
        assert_eq!(ol.latency_us(99, woke), f64::INFINITY);
    }
}
