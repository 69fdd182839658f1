#![forbid(unsafe_code)]
//! `perfbench`: the repository's one benchmark command.
//!
//! It trains the smoke-profile PLNN panel (d = 196, C = 10), generates
//! seeded traffic, and drives one closed-loop workload through the serving
//! stack's public APIs: 2 client streams against a service with 2 workers,
//! every request interpreting class 0.
//!
//! * `warm_wire`: 2 TCP clients against `openapi_net::Server`, the cache
//!   seeded with 64 regions; every reply must be a 1-query cache hit.
//! * `restart_scan`: `InterpretationService::open` over a 500-region
//!   store written at set-up, then uniform traffic over those regions in
//!   process; first touches are store hits, later ones cache hits, and no
//!   request may solve.
//! * `cold_solve`: rounds of 256 requests, each round against a service
//!   opened over a fresh directory and fed 256 regions it has never seen,
//!   so every request runs Algorithm 1 and appends to the store.
//!
//! `--trace 0` prints the end-to-end metrics of one timed phase;
//! `--trace 1` wraps the layers from outside and prints the per-layer
//! metrics. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. A run that fails a
//! correctness gate or the ledger reconciliation prints `"correct": false`
//! with no metrics and exits 1.

mod drive;
mod gen;
mod layers;
mod workloads;
mod wrap;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload warm_wire|restart_scan|cold_solve --seed N --seconds S --trace 0|1";

/// Working space (stores) under the directory the benchmark runs in; each
/// run uses a subdirectory of its own and removes it.
const WORK_ROOT: &str = ".perfbench-work";

/// The end-to-end metrics (`--trace 0`), as `BENCHMARK.json` names them.
const END_TO_END: [(&str, &str); 8] = [
    ("throughput_rps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("queries_per_interp", "count"),
    ("success_rate", "ratio"),
    ("recover_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics (`--trace 1`), as `BENCHMARK.json` names them.
const PER_LAYER: [(&str, &str); 39] = [
    ("net.rtt_us_p50", "us"),
    ("net.rtt_us_p99", "us"),
    ("net.wire_us_p50", "us"),
    ("net.reply_bytes", "bytes"),
    ("net.encode_us", "us"),
    ("net.decode_us", "us"),
    ("net.ping_rtt_us", "us"),
    ("trace.overhead_frac", "ratio"),
    ("trace.ring_dropped", "count"),
    ("serve.queue_us_p50", "us"),
    ("serve.hit_ratio", "ratio"),
    ("serve.store_hit_ratio", "ratio"),
    ("serve.solve_ratio", "ratio"),
    ("serve.coalesced_share", "ratio"),
    ("serve.drift_overhead_frac", "ratio"),
    ("kernel.calls_per_req", "count"),
    ("kernel.rows_per_req", "count"),
    ("kernel.busy_us_per_req", "us"),
    ("kernel.blocked_speedup", "x"),
    ("cache.regions", "count"),
    ("cache.evictions", "count"),
    ("store.lookup_us_hit", "us"),
    ("store.lookup_us_miss", "us"),
    ("store.lookups", "count"),
    ("store.hits", "count"),
    ("store.appends", "count"),
    ("store.fsyncs", "count"),
    ("store.wal_bytes", "bytes"),
    ("store.compactions", "count"),
    ("api.calls_per_interp", "count"),
    ("api.predict_us_mean", "us"),
    ("api.busy_ms_per_solve", "ms"),
    ("solve.ms_p50", "ms"),
    ("solve.ms_p99", "ms"),
    ("solve.iterations_mean", "count"),
    ("solve.self_ms_per_solve", "ms"),
    ("solve.factor_us", "us"),
    ("solve.check_us", "us"),
    ("harness.overhead_frac", "ratio"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WarmWire,
    RestartScan,
    ColdSolve,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::WarmWire,
        Workload::RestartScan,
        Workload::ColdSolve,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::WarmWire => "warm_wire",
            Workload::RestartScan => "restart_scan",
            Workload::ColdSolve => "cold_solve",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a run measured, by metric name, and the lines printed above the
/// JSON result (stamp, self-test, ledger).
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub values: Vec<(&'static str, f64)>,
    pub lines: Vec<String>,
}

/// A failed gate: the run reports this instead of numbers.
pub struct Failure {
    pub attempted: u64,
    pub failed: u64,
    pub why: String,
}

impl From<String> for Failure {
    fn from(why: String) -> Self {
        Failure {
            attempted: 0,
            failed: 0,
            why,
        }
    }
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 15.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let found = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(found.ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = match WorkDir::create(args.workload) {
        Ok(work) => work,
        Err(e) => {
            eprintln!("perfbench: cannot create {WORK_ROOT}: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = workloads::run(&args, &work.0);
    drop(work);
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    match outcome.and_then(|report| metrics_json(&report, table).map(|json| (report, json))) {
        Ok((report, json)) => {
            println!(
                "perfbench {} seed={} seconds={} trace={}",
                args.workload.name(),
                args.seed,
                args.seconds,
                u8::from(args.trace)
            );
            for line in &report.lines {
                println!("{line}");
            }
            for &(name, unit) in table {
                let value = report
                    .values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(f64::NAN, |&(_, v)| v);
                println!("  {name:<26} {value:>16.6} {unit}");
            }
            println!(
                "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {json}}}",
                report.attempted, report.failed
            );
            ExitCode::SUCCESS
        }
        Err(failure) => {
            eprintln!(
                "perfbench: {} failed: {}",
                args.workload.name(),
                failure.why
            );
            println!(
                "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
                failure.attempted.max(1),
                failure.failed
            );
            ExitCode::FAILURE
        }
    }
}

/// The JSON `metrics` object for `table`, in table order. Every listed
/// metric must have been measured exactly once and be finite, and nothing
/// unlisted may have been measured.
fn metrics_json(report: &Report, table: &[(&str, &str)]) -> Result<String, Failure> {
    let fail = |why: String| Failure {
        attempted: report.attempted,
        failed: report.failed,
        why,
    };
    if let Some((name, _)) = report
        .values
        .iter()
        .find(|(n, _)| !table.iter().any(|(t, _)| t == n))
    {
        return Err(fail(format!(
            "measured {name}, which the metric table does not list"
        )));
    }
    let mut json = String::from("{");
    for (i, &(name, unit)) in table.iter().enumerate() {
        let values: Vec<f64> = report
            .values
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .collect();
        let value = match values[..] {
            [v] if v.is_finite() => v,
            [v] => return Err(fail(format!("{name} is not finite ({v})"))),
            _ => return Err(fail(format!("{name} was measured {} times", values.len()))),
        };
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push('}');
    Ok(json)
}

/// This run's working directory; removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: Workload) -> std::io::Result<Self> {
        let dir = Path::new(WORK_ROOT).join(format!("{}-{}", workload.name(), std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run's directory is left.
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

/// The checked-out revision (12 hex digits), read from `.git` without
/// running git; `unknown` outside a git checkout.
pub fn git_revision() -> String {
    fn read(path: &str) -> Option<String> {
        std::fs::read_to_string(path)
            .ok()
            .map(|s| s.trim().to_string())
    }
    fn resolve() -> Option<String> {
        let head = read(".git/HEAD")?;
        if !head.starts_with("ref: ") {
            return Some(head);
        }
        let name = &head["ref: ".len()..];
        read(&format!(".git/{name}")).or_else(|| {
            read(".git/packed-refs")?.lines().find_map(|line| {
                line.strip_suffix(name)
                    .and_then(|hash| hash.strip_suffix(' '))
                    .map(str::to_string)
            })
        })
    }
    resolve().map_or_else(|| "unknown".into(), |rev| rev.chars().take(12).collect())
}
