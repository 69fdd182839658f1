//! Prometheus-style text exposition builder, and the one declaration of
//! every stats counter the serving tier keeps.
//!
//! Always compiled (it formats counters the serving tier keeps anyway —
//! no ring involvement), so the `Metrics` wire request and the example
//! server's `--metrics-addr` listener work even with tracing compiled
//! out. The output follows the Prometheus text format, version 0.0.4:
//! `# HELP` / `# TYPE` headers, one sample per line, histograms as
//! cumulative `_bucket{le="..."}` series plus `_count`. See
//! `docs/OBSERVABILITY.md` for naming conventions and a transcript.
//!
//! Each stats family (service, store, fabric, drift, trace ring) is a
//! snapshot struct implementing [`Family`]: a table of [`Metric`]s, one
//! per counter, written with [`crate::metric!`]. The snapshot load,
//! `Display`, the Prometheus samples ([`MetricsText::family`]) and the
//! `StatsReply` wire codec all walk that table, so a counter is declared
//! once and its write site is the only other line it needs.

use openapi_sync::atomic::{AtomicU64, Ordering};
use std::fmt::{self, Write as _};

/// Whether a [`Metric`] is a monotone counter or a point-in-time gauge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Monotone over its owner's lifetime; exposed with a `_total` name.
    Counter,
    /// A current level the owner reports at snapshot time.
    Gauge,
}

impl Kind {
    /// The Prometheus `# TYPE` keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        }
    }
}

/// One counter of a stats family `S`: the snapshot field it lives in, its
/// exposition name, help text and kind, and the lock-free cell a snapshot
/// loads it from.
pub struct Metric<S: Family> {
    /// The snapshot field's name (the `Display` label and wire-error tag).
    pub field: &'static str,
    /// The Prometheus series name.
    pub name: &'static str,
    /// The `# HELP` text.
    pub help: &'static str,
    /// Counter or gauge.
    pub kind: Kind,
    /// Reads the field.
    pub get: fn(&S) -> u64,
    /// Writes the field.
    pub set: fn(&mut S, u64),
    /// The atomic [`Family::load`] copies; `None` for a value the owner
    /// fills in itself when it takes the snapshot.
    pub atomic: Option<fn(&S::Atomics) -> &AtomicU64>,
}

/// Declares one [`Metric`] over a snapshot field of the same name as its
/// atomic: `metric!(Counter hits, "openapi_cache_hits_total", "Help.")`.
/// A trailing `owned` marks a value the owner fills in at snapshot time
/// (no atomic of the family behind it).
#[macro_export]
macro_rules! metric {
    ($kind:ident $field:ident, $name:literal, $help:literal) => {
        $crate::metric!(@ $kind $field, $name, $help, Some(|a| &a.$field))
    };
    ($kind:ident $field:ident, $name:literal, $help:literal, owned) => {
        $crate::metric!(@ $kind $field, $name, $help, None)
    };
    (@ $kind:ident $field:ident, $name:literal, $help:literal, $atomic:expr) => {
        $crate::expose::Metric {
            field: stringify!($field),
            name: $name,
            help: $help,
            kind: $crate::expose::Kind::$kind,
            get: |s| s.$field,
            set: |s, v| s.$field = v,
            atomic: $atomic,
        }
    };
}

/// A stats snapshot whose counters are declared once, in [`Self::METRICS`].
/// Declaration order is exposition order, `Display` order and the
/// `StatsReply` wire order (docs/PROTOCOL.md).
pub trait Family: Sized + 'static {
    /// The lock-free counters the snapshot is loaded from.
    type Atomics;
    /// Every counter of the family, in declaration order.
    const METRICS: &'static [Metric<Self>];

    /// Copies every atomic-backed counter out of `atomics`; owner-filled
    /// gauges keep their value.
    ///
    /// # Torn reads
    /// The counters are loaded one by one with no cross-counter atomicity:
    /// a snapshot taken mid-flight may observe one counter's increment but
    /// not yet a related one. Each counter is still exact, and once the
    /// writers are quiescent (their completion observed through a channel
    /// or join, which happens-after their last `fetch_add`) so is the
    /// whole snapshot.
    fn load(&mut self, atomics: &Self::Atomics) {
        for m in Self::METRICS {
            if let Some(cell) = m.atomic {
                // ordering: Relaxed — per-counter exactness is the whole
                // contract (see the torn-reads note above).
                (m.set)(self, cell(atomics).load(Ordering::Relaxed));
            }
        }
    }

    /// Writes `label` then `field value` for every counter, six to a line:
    /// the `Display` body every family shares.
    fn write_line(&self, f: &mut fmt::Formatter<'_>, label: &str) -> fmt::Result {
        write!(f, "{label:<8}")?;
        for (i, m) in Self::METRICS.iter().enumerate() {
            let sep = match i {
                0 => " ",
                _ if i % 6 == 0 => "\n         ",
                _ => "   ",
            };
            write!(f, "{sep}{} {}", m.field, (m.get)(self))?;
        }
        Ok(())
    }
}

impl Family for crate::RingStats {
    type Atomics = ();
    const METRICS: &'static [Metric<Self>] = &[
        crate::metric!(Counter emitted, "openapi_trace_events_total", "Trace events committed into the ring.", owned),
        crate::metric!(Counter dropped, "openapi_trace_dropped_total", "Trace events dropped by lap contention.", owned),
    ];
}

/// Incremental builder for one exposition document. Metric families are
/// appended in call order; [`MetricsText::finish`] yields the document.
#[derive(Debug, Default)]
pub struct MetricsText {
    out: String,
}

impl MetricsText {
    /// Starts an empty document.
    pub fn new() -> MetricsText {
        MetricsText::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// Appends one unlabelled counter or gauge per declared metric of a
    /// stats family, in declaration order.
    pub fn family<S: Family>(&mut self, snapshot: &S) {
        for m in S::METRICS {
            self.header(m.name, m.help, m.kind.as_str());
            let _ = writeln!(self.out, "{} {}", m.name, (m.get)(snapshot));
        }
    }

    /// Appends a histogram family in seconds from log₂-nanosecond bucket
    /// counts (`counts[i]` = observations in `[2^i, 2^{i+1})` ns — the
    /// `LatencyHistogram` layout). `series` pairs an optional
    /// `label="value"` selector (empty for none) with its counts; each
    /// series renders cumulative `_bucket` samples (zero-run tails
    /// collapse into the final `+Inf`) plus `_count`. `_sum` is omitted:
    /// the log₂ buckets do not preserve it and an estimate would lie.
    pub fn histogram_log2ns(&mut self, name: &str, help: &str, series: &[(&str, &[u64])]) {
        self.header(name, help, "histogram");
        for (label, counts) in series {
            let sel = |le: &str| -> String {
                if label.is_empty() {
                    format!("{{le=\"{le}\"}}")
                } else {
                    format!("{{{label},le=\"{le}\"}}")
                }
            };
            let total: u64 = counts.iter().sum();
            let last_used = counts.iter().rposition(|&c| c != 0);
            let mut cum = 0u64;
            if let Some(last) = last_used {
                for (i, &c) in counts.iter().enumerate().take(last + 1) {
                    cum += c;
                    let le = upper_bound_secs(i);
                    let _ = writeln!(self.out, "{name}_bucket{} {cum}", sel(&le));
                }
            }
            let _ = writeln!(self.out, "{name}_bucket{} {total}", sel("+Inf"));
            let suffix = if label.is_empty() {
                String::new()
            } else {
                format!("{{{label}}}")
            };
            let _ = writeln!(self.out, "{name}_count{suffix} {total}");
        }
    }

    /// The finished exposition document.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Bucket `i`'s exclusive upper bound, `2^{i+1}` ns, rendered in seconds
/// (Prometheus `le` values are seconds by convention).
fn upper_bound_secs(i: usize) -> String {
    let ns = 2f64.powi(i as i32 + 1);
    format!("{:e}", ns / 1e9)
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn families_render_one_sample_per_metric_with_headers() {
        let mut m = MetricsText::new();
        m.family(&crate::RingStats {
            emitted: 42,
            dropped: 7,
        });
        let doc = m.finish();
        assert!(doc.contains("# HELP openapi_trace_events_total Trace events committed"));
        assert!(doc.contains("# TYPE openapi_trace_events_total counter\n"));
        assert!(doc.contains("openapi_trace_events_total 42\n"));
        assert!(doc.contains("openapi_trace_dropped_total 7\n"));
    }

    #[test]
    fn histograms_render_cumulative_buckets_per_series() {
        let mut counts = [0u64; 48];
        counts[10] = 3; // [1024, 2048) ns
        counts[12] = 1; // [4096, 8192) ns
        let mut m = MetricsText::new();
        m.histogram_log2ns(
            "openapi_stage_latency_seconds",
            "Per-stage latency.",
            &[
                ("stage=\"queue\"", &counts),
                ("stage=\"solve\"", &[0u64; 48]),
            ],
        );
        let doc = m.finish();
        // Cumulative counts: 3 at the 2^11 ns bound, still 3 at 2^13 ns... 4 after.
        assert!(doc.contains("stage=\"queue\",le=\"2.048e-6\"} 3\n"));
        assert!(doc.contains("stage=\"queue\",le=\"8.192e-6\"} 4\n"));
        assert!(doc.contains("stage=\"queue\",le=\"+Inf\"} 4\n"));
        assert!(doc.contains("openapi_stage_latency_seconds_count{stage=\"queue\"} 4\n"));
        // An empty series still exposes +Inf and _count.
        assert!(doc.contains("stage=\"solve\",le=\"+Inf\"} 0\n"));
        assert!(doc.contains("openapi_stage_latency_seconds_count{stage=\"solve\"} 0\n"));
        // The zero tail collapsed: no bucket lines above the last used one.
        assert!(!doc.contains("le=\"1.6384e-5\""));
    }
}
