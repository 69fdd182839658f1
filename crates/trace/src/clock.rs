//! The serving tier's single time source.
//!
//! `cargo xtask lint` forbids direct `Instant::now()`, `Instant::elapsed()`
//! and `SystemTime` use in the serving crates (`openapi-serve`,
//! `openapi-net`, `openapi-store`, `openapi-fabric`) outside this module, so every latency measurement flows through one
//! place — the hook point for a future virtual clock, and the guarantee
//! that trace timestamps and stage histograms share an epoch.
//!
//! [`nanos`] timestamps are monotonic nanoseconds since the process trace
//! epoch (captured on first use), so events recorded by different threads
//! order consistently.

use openapi_sync::Mutex;
use std::cell::Cell;
use std::time::Instant;

/// Reads the monotonic clock. The serving crates' one legal spelling of
/// `Instant::now()` (enforced by the `clock` lint rule).
#[inline]
pub fn now() -> Instant {
    // clock: this module is the clock.
    Instant::now()
}

/// The process trace epoch: the first `nanos()` caller captures it; every
/// thread then timestamps relative to the same instant. A mutex (not a
/// lazy static) keeps the facade's loom shims usable here, and each thread
/// caches the epoch after one lookup so the lock is cold.
static EPOCH: Mutex<Option<Instant>> = Mutex::new(None);

thread_local! {
    static EPOCH_CACHE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Monotonic nanoseconds since the process trace epoch. Saturates at
/// `u64::MAX` (~584 years of uptime).
#[inline]
pub fn nanos() -> u64 {
    nanos_at(now())
}

/// Converts an instant already read through [`now`] into nanoseconds
/// since the process trace epoch — the cheap half of [`nanos`]. Call
/// sites that just timed a stage stamp their event with the reading they
/// have instead of paying a second clock read (the clock read is ~90% of
/// a `nanos()` call). An instant predating the epoch (only possible for
/// the reading that races the very first epoch capture) clamps to 0.
#[inline]
pub fn nanos_at(at: Instant) -> u64 {
    let epoch = EPOCH_CACHE.with(|c| match c.get() {
        Some(e) => e,
        None => {
            let e = *EPOCH.lock().get_or_insert_with(now);
            c.set(Some(e));
            e
        }
    });
    u64::try_from(at.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nanos_is_monotonic_within_and_across_threads() {
        let a = nanos();
        let b = std::thread::spawn(nanos).join().unwrap();
        let c = nanos();
        assert!(a <= c, "same-thread timestamps must not run backwards");
        // The spawned read happened between `a` and the join; its epoch is
        // shared, so it lands inside the same timeline.
        assert!(b <= nanos());
    }
}
