//! The benchmark's only wall-clock reads.
//!
//! Every time the benchmark reports comes from [`Clock::now_ns`]: nanoseconds
//! since the clock was made, as a plain integer that spans and block timers
//! can store and subtract without touching `std::time` again.

// fdn-lint: allow(D1) -- the benchmark's timer; its readings go to the benchmark's output only
use std::time::Instant;

/// A monotonic nanosecond clock with a fixed epoch.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    // fdn-lint: allow(D1) -- the benchmark's timer; see the module docs
    epoch: Instant,
}

impl Clock {
    /// Starts a clock whose epoch is now.
    pub fn start() -> Clock {
        Clock {
            // fdn-lint: allow(D1) -- the benchmark's timer; see the module docs
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Seconds since the epoch.
    pub fn secs(&self) -> f64 {
        self.now_ns() as f64 * 1e-9
    }
}

/// Runs `f` once and returns its result with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let clock = Clock::start();
    let out = f();
    (out, clock.secs())
}
