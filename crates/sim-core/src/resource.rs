//! Queueing resources for the event-driven throughput simulations.
//!
//! The CoRM evaluation saturates two server-side resources: the pool of
//! worker threads that poll the RPC queue (Fig. 12 shows RPC throughput
//! flattening at ~700 Kreq/s) and the RNIC inbound engine serving one-sided
//! reads. [`FifoResource`] models a `k`-server FIFO station: arrivals are
//! admitted in event order and each occupies the earliest-available server
//! for its service time.

use crate::time::{SimDuration, SimTime};

/// A `k`-server FIFO queueing station.
///
/// Arrivals must be admitted in non-decreasing time order (the natural order
/// in which an [`crate::EventQueue`]-driven simulation processes them).
/// `admit` returns the completion time of the request: `max(now, earliest
/// free server) + service`.
#[derive(Debug, Clone)]
pub struct FifoResource {
    /// `free_at[i]` is the instant server `i` finishes its current work.
    free_at: Vec<SimTime>,
    /// Total busy time accumulated across all servers (for utilization).
    busy: SimDuration,
    /// Number of admitted requests.
    admitted: u64,
    last_admit: SimTime,
}

impl FifoResource {
    /// Creates a station with `servers` identical servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "a resource needs at least one server");
        FifoResource {
            free_at: vec![SimTime::ZERO; servers],
            busy: SimDuration::ZERO,
            admitted: 0,
            last_admit: SimTime::ZERO,
        }
    }

    /// Admits a request arriving at `now` that needs `service` time.
    /// Returns the instant the request completes.
    ///
    /// FIFO order is by *processing* order: a request admitted with a
    /// timestamp earlier than a previous admission is clamped forward to
    /// it, as if it had queued behind the earlier request. (Event-driven
    /// callers occasionally defer an admission — e.g. a pointer correction
    /// stalled behind a compaction pass — and the clamp keeps the station
    /// causal.)
    pub fn admit(&mut self, now: SimTime, service: SimDuration) -> SimTime {
        let now = now.max(self.last_admit);
        self.last_admit = now;
        // Pick the earliest-free server: FIFO among ordered arrivals.
        let (idx, &free) =
            self.free_at.iter().enumerate().min_by_key(|(_, &t)| t).expect("at least one server");
        let start = free.max(now);
        let done = start + service;
        self.free_at[idx] = done;
        self.busy += service;
        self.admitted += 1;
        done
    }

    /// Total number of admitted requests.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Total busy time accumulated across all servers. Deltas of this
    /// against a monotonically advancing clock give interval utilization
    /// without assuming the station started at time zero.
    pub fn busy(&self) -> SimDuration {
        self.busy
    }

    /// Mean utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        self.busy.as_secs_f64() / (horizon.as_secs_f64() * self.free_at.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }
    fn at(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    #[test]
    fn single_server_serializes() {
        let mut r = FifoResource::new(1);
        assert_eq!(r.admit(at(0), us(10)), at(10));
        assert_eq!(r.admit(at(0), us(10)), at(20));
        assert_eq!(r.admit(at(5), us(10)), at(30));
        // Arrival after the backlog drains starts immediately.
        assert_eq!(r.admit(at(100), us(10)), at(110));
    }

    #[test]
    fn two_servers_run_in_parallel() {
        let mut r = FifoResource::new(2);
        assert_eq!(r.admit(at(0), us(10)), at(10));
        assert_eq!(r.admit(at(0), us(10)), at(10));
        // Third request waits for the first free server.
        assert_eq!(r.admit(at(0), us(10)), at(20));
    }

    #[test]
    fn backlog_reports_queueing_delay() {
        let mut r = FifoResource::new(1);
        r.admit(at(0), us(30));
        // Arriving at 10, a request waits out the first one's last 20 us.
        assert_eq!(r.admit(at(10), SimDuration::ZERO), at(30));
        assert_eq!(r.admit(at(40), SimDuration::ZERO), at(40));
    }

    #[test]
    fn utilization_accounts_all_servers() {
        let mut r = FifoResource::new(2);
        r.admit(at(0), us(10));
        r.admit(at(0), us(10));
        // 20us busy across 2 servers over 20us horizon = 0.5.
        assert!((r.utilization(at(20)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn out_of_order_admission_clamps_to_processing_order() {
        let mut r = FifoResource::new(1);
        assert_eq!(r.admit(at(10), us(1)), at(11));
        // An earlier timestamp queues behind the previous admission.
        assert_eq!(r.admit(at(5), us(1)), at(12));
    }

    #[test]
    fn throughput_saturates_at_service_rate() {
        // k servers with service time s saturate at k/s req/s regardless of
        // offered load — the effect behind Fig. 12's RPC plateau.
        let mut r = FifoResource::new(4);
        let service = us(10); // 4 servers / 10us = 400 Kreq/s
        let mut done = SimTime::ZERO;
        let n = 10_000u64;
        for _ in 0..n {
            done = r.admit(SimTime::ZERO, service);
        }
        let rate = n as f64 / done.as_secs_f64();
        assert!((rate - 400_000.0).abs() / 400_000.0 < 0.01, "rate={rate}");
    }
}
