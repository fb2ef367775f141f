//! The open-loop request scheduler.
//!
//! Independent interactive users do not wait for each other, so lookups are
//! sent on a fixed schedule whatever the server does. Request `i` is due at
//! `start + i / rate`; its latency is measured from that due time, so a
//! stall also charges the wait it imposed on every request queued behind
//! it. The client is a single blocking connection, so a request can only
//! go out once the previous reply is in; how late the generator itself ran
//! beyond that point (timer overshoot, bookkeeping) is reported apart as
//! the generator lag.

use std::time::{Duration, Instant};

/// Below this remaining wait the scheduler yields instead of sleeping:
/// `sleep` overshoots by up to the kernel's 50 us timer slack, which would
/// show up as latency of the system under test.
const SPIN_BELOW: Duration = Duration::from_micros(120);

/// What happened to one scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sent {
    /// Due time to completion, in microseconds; `None` when the request
    /// failed or was refused.
    pub latency_us: Option<f64>,
    /// How long after it could have gone out the request was actually sent
    /// (the later of its due time and the previous completion), in
    /// microseconds.
    pub lag_us: f64,
}

/// Sends requests at `rate` per second until `deadline`, calling `send(i)`
/// for request `i`; `send` returns whether the request succeeded.
pub fn open_loop(rate: f64, deadline: Instant, mut send: impl FnMut(u64) -> bool) -> Vec<Sent> {
    let interval = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now();
    let mut previous_done = start;
    let mut out = Vec::new();
    for i in 0u64.. {
        let due = start + interval.mul_f64(i as f64);
        if due >= deadline {
            break;
        }
        wait_until(due);
        let sent = Instant::now();
        let ready = due.max(previous_done);
        let ok = send(i);
        let done = Instant::now();
        out.push(Sent {
            latency_us: ok.then(|| micros(done.duration_since(due))),
            lag_us: micros(sent.saturating_duration_since(ready)),
        });
        previous_done = done;
    }
    out
}

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN_BELOW {
            std::thread::sleep(left - SPIN_BELOW);
        } else {
            std::thread::yield_now();
        }
    }
}

/// A duration in microseconds.
pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
