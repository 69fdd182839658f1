//! Closed-loop client streams, the client-side tally, the ledger
//! reconciliation, the runtime-switch A/B, and the small statistics every
//! workload shares.

use openapi_serve::{ServeOutcome, StatsSnapshot};
use std::time::Duration;

/// Closed-loop client streams per workload, one per core of the 2-core
/// reference host: each stream sends its next request only after the
/// previous reply arrived.
pub const STREAMS: usize = 2;

/// What the client streams of one phase saw.
#[derive(Debug, Default)]
pub struct Tally {
    /// Client-observed latency of every successful request, call to reply.
    pub lat_ns: Vec<u64>,
    /// When each of those requests completed, in seconds since the phase
    /// began (parallel to `lat_ns`).
    pub done_s: Vec<f64>,
    /// Wire requests only: round trip minus the server's own latency.
    pub wire_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Successful replies by outcome, in the service's bucket order: cache
    /// hit, store hit, solved, coalesced.
    pub outcomes: [u64; 4],
    /// Queries the successful replies say were spent on them.
    pub queries: u64,
    /// The first correctness gate the phase failed, if any.
    pub gate: Option<String>,
}

impl Tally {
    pub fn served(
        &mut self,
        outcome: ServeOutcome,
        queries: usize,
        latency: Duration,
        done: Duration,
    ) {
        self.attempted += 1;
        self.outcomes[match outcome {
            ServeOutcome::CacheHit => 0,
            ServeOutcome::StoreHit => 1,
            ServeOutcome::Solved => 2,
            ServeOutcome::Coalesced => 3,
        }] += 1;
        self.queries += queries as u64;
        self.lat_ns.push(nanos(latency));
        self.done_s.push(done.as_secs_f64());
    }

    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.flag(why);
    }

    /// Records a failed gate; the first one is the one reported.
    pub fn flag(&mut self, why: String) {
        self.gate.get_or_insert(why);
    }

    pub fn ok(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn merge<'a>(parts: impl IntoIterator<Item = &'a Tally>) -> Tally {
        let mut all = Tally::default();
        for part in parts {
            all.lat_ns.extend_from_slice(&part.lat_ns);
            all.done_s.extend_from_slice(&part.done_s);
            all.wire_ns.extend_from_slice(&part.wire_ns);
            all.attempted += part.attempted;
            all.failed += part.failed;
            for (sum, n) in all.outcomes.iter_mut().zip(part.outcomes) {
                *sum += n;
            }
            all.queries += part.queries;
            if all.gate.is_none() {
                all.gate.clone_from(&part.gate);
            }
        }
        all
    }

    /// The phase's gates: none flagged, no request failed, some completed.
    pub fn check(&self) -> Result<(), String> {
        if let Some(why) = &self.gate {
            return Err(why.clone());
        }
        if self.failed > 0 {
            return Err(format!(
                "{} of {} requests failed",
                self.failed, self.attempted
            ));
        }
        if self.attempted == 0 {
            return Err("no request completed".into());
        }
        Ok(())
    }
}

pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `f(stream)` on `n` scoped threads and collects what each returns.
pub fn run_streams<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|s| {
                let f = &f;
                scope.spawn(move || f(s))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client stream panicked"))
            .collect()
    })
}

/// The ledger reconciliation over one phase: the service counted every
/// request the clients sent exactly once, in the outcome the client saw,
/// and the queries it counted are the queries the API wrapper answered and
/// the replies were charged. This catches a harness that drops requests.
pub fn reconcile(
    before: &StatsSnapshot,
    after: &StatsSnapshot,
    tally: &Tally,
    api_calls: u64,
) -> Result<String, String> {
    let requests = after.requests - before.requests;
    let buckets = [
        after.hits - before.hits,
        after.store_hits - before.store_hits,
        after.misses - before.misses,
        after.coalesced_served - before.coalesced_served,
    ];
    let failures = after.failures - before.failures;
    let queries = after.queries - before.queries;
    let settled = buckets.iter().sum::<u64>() + failures;
    let mut broken = Vec::new();
    if requests != tally.attempted {
        broken.push(format!(
            "the service saw {requests} requests, the clients sent {}",
            tally.attempted
        ));
    }
    if settled != requests {
        broken.push(format!(
            "requests {requests} != hits + store_hits + misses + coalesced_served + failures = {settled}"
        ));
    }
    if buckets != tally.outcomes || failures != tally.failed {
        broken.push(format!(
            "service outcomes {buckets:?} + {failures} failed, clients saw {:?} + {} failed",
            tally.outcomes, tally.failed
        ));
    }
    if queries != api_calls || queries != tally.queries {
        broken.push(format!(
            "the service counted {queries} queries, the API answered {api_calls}, the replies were charged {}",
            tally.queries
        ));
    }
    if broken.is_empty() {
        Ok(format!(
            "ledger: requests {requests} = hits {} + store_hits {} + misses {} + coalesced {} + failures {failures}; queries {queries} = API calls {api_calls}",
            buckets[0], buckets[1], buckets[2], buckets[3]
        ))
    } else {
        Err(format!("ledger mismatch: {}", broken.join("; ")))
    }
}

/// One whole second of a phase: requests completed in it and their
/// latency quantiles (ms).
pub struct Window {
    pub completed: usize,
    pub p50_ms: f64,
    pub p99_ms: f64,
}

/// The whole seconds of a phase `secs` long: a run reports the median
/// second, so a burst of load from elsewhere on the host moves a few
/// windows, not the result.
pub fn windows(tally: &Tally, secs: f64) -> Vec<Window> {
    let n = (secs.floor() as usize).max(1);
    let mut latencies = vec![Vec::new(); n];
    for (&done, &ns) in tally.done_s.iter().zip(&tally.lat_ns) {
        if let Some(window) = latencies.get_mut(done as usize) {
            window.push(ns as f64 / 1e6);
        }
    }
    latencies
        .into_iter()
        .map(|lat| {
            let lat = sorted(lat);
            Window {
                completed: lat.len(),
                p50_ms: quantile(&lat, 0.5),
                p99_ms: quantile(&lat, 0.99),
            }
        })
        .collect()
}

/// Ascending copy of `values`.
pub fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Linearly interpolated quantile of ascending `sorted` (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    quantile(&sorted(values), 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Interleaved A/B of a runtime switch: `rounds` back-to-back off/on pairs,
/// alternating which arm runs first, each pair scored on its own so load
/// drift cancels within it. Returns `1 − on/off` of the median pair and
/// leaves the switch on.
pub fn ab_overhead(
    rounds: usize,
    set: impl Fn(bool),
    mut run: impl FnMut() -> Result<f64, String>,
) -> Result<f64, String> {
    let mut ratios = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let mut rps = [0.0f64; 2];
        let order = if round % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for on in order {
            set(on);
            match run() {
                Ok(r) => rps[usize::from(on)] = r,
                Err(e) => {
                    set(true);
                    return Err(e);
                }
            }
        }
        ratios.push(rps[1] / rps[0]);
    }
    set(true);
    Ok(1.0 - median(ratios))
}

/// Peak resident set of this process (`VmHWM` in `/proc/self/status`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
