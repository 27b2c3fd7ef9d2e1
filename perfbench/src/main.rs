//! Seeded end-to-end benchmark of the reconfiguration pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_campaign|warm_reoptimize|serve_mixed \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` re-executes the
//! same ops through the layers' public functions and prints the per-layer
//! metrics.  The last line of standard output is the JSON result; every op
//! is checked against a store-less reference and any mismatch fails the
//! run.  See `README.md` next to this file for the workloads and metrics.

mod cold;
mod gen;
mod layers;
mod serve;
mod spans;
mod stats;
mod warm;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use autoreconf::StoreStats;
use layers::Res;
use stats::{median, Metrics, Summary, Tally};

/// Setups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(bad(&"expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// A working directory inside the benchmark's own directory, removed when
/// the run ends.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> std::io::Result<WorkDir> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!("run-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh, empty directory under the work directory.
    pub fn fresh(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.0.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Process-wide program counters: guest instructions executed, trace walks
/// and trace segments walked.
#[derive(Clone, Copy, Debug, Default)]
pub struct Globals {
    pub guest_instr: u64,
    pub walks: u64,
    pub segments: u64,
}

impl Globals {
    pub fn now() -> Globals {
        Globals {
            guest_instr: workloads::guest_instructions_executed(),
            walks: leon_sim::trace_walks_performed(),
            segments: leon_sim::trace_segments_walked(),
        }
    }

    pub fn since(self, earlier: Globals) -> Globals {
        Globals {
            guest_instr: self.guest_instr - earlier.guest_instr,
            walks: self.walks - earlier.walks,
            segments: self.segments - earlier.segments,
        }
    }

    pub fn add(&mut self, other: Globals) {
        self.guest_instr += other.guest_instr;
        self.walks += other.walks;
        self.segments += other.segments;
    }
}

/// Program-side counts of the untraced ops.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    pub globals: Globals,
    pub store: StoreStats,
    /// Ops answered without a single store miss.
    pub hit_ops: u64,
}

impl Counts {
    pub fn add_store(&mut self, s: &StoreStats) {
        self.store.hits += s.hits;
        self.store.misses += s.misses;
        self.store.corrupt += s.corrupt;
        self.store.writes += s.writes;
        self.store.payload_bytes_read += s.payload_bytes_read;
    }
}

pub fn store_delta(after: &StoreStats, before: &StoreStats) -> StoreStats {
    StoreStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        corrupt: after.corrupt - before.corrupt,
        writes: after.writes - before.writes,
        payload_bytes_read: after.payload_bytes_read - before.payload_bytes_read,
        evictions: after.evictions - before.evictions,
    }
}

/// What a workload run measured.
#[derive(Default)]
pub struct Report {
    pub tally: Tally,
    /// Duration of each set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Untraced op latencies, in ms.
    pub op_ms: Vec<f64>,
    /// Latency percentiles and throughput of the untraced ops.
    pub summary: Option<Summary>,
    /// Peak RSS of an untraced op, in MB: the median over ops, or for
    /// `serve_mixed` the peak over its first round (later rounds start new
    /// daemons in a heap the earlier ones left fragmented).
    pub peak_rss_mb: f64,
    pub counts: Counts,
    /// Traced op latencies, in ms (traced runs only).
    pub traced_ms: Vec<f64>,
    /// Daemon client latency minus the in-process call, summed over traced
    /// requests, in ms.
    pub service_overhead_ms: f64,
    /// Digest of the reference's simulated results.
    pub digest: u64,
}

/// Set-ups per run: [`SETUPS`], or one when tracing.
pub fn setups(args: &Args) -> usize {
    if args.trace {
        1
    } else {
        SETUPS
    }
}

/// Run `setup` [`setups`] times, timing each, and keep the last state.
pub fn timed_setups<T>(
    args: &Args,
    report: &mut Report,
    mut setup: impl FnMut() -> Res<T>,
) -> Res<T> {
    let mut state = None;
    for _ in 0..setups(args) {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup()?);
        report.setup_s.push(t.elapsed().as_secs_f64());
    }
    Ok(state.expect("at least one setup ran"))
}

/// How long the untraced and traced phases measure.
pub fn phases(args: &Args) -> (Duration, Duration) {
    let total = Duration::from_secs_f64(args.seconds);
    if args.trace {
        (total / 2, total / 2)
    } else {
        (total, Duration::ZERO)
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Restart the process's peak-RSS mark at its current RSS.
pub fn reset_peak_rss() -> Res<()> {
    Ok(std::fs::write("/proc/self/clear_refs", "5")?)
}

/// The process's peak RSS since start or since [`reset_peak_rss`], in MB.
pub fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()?;
    Ok(kb / 1024.0)
}

fn end_to_end(report: &Report) -> Res<Metrics> {
    let mut m = Metrics::default();
    m.put("setup_s", median(&report.setup_s), "s");
    let s = report.summary.ok_or("too few ops for a tail percentile")?;
    eprintln!(
        "op_tail_ms is p{:.2} ({} ops)",
        s.tail_pct,
        report.op_ms.len()
    );
    m.put("op_p50_ms", s.p50_ms, "ms");
    m.put("op_tail_ms", s.tail_ms, "ms");
    m.put("ops_per_s", s.ops_per_s, "1/s");
    m.put("peak_rss_mb", report.peak_rss_mb, "MB");
    Ok(m)
}

fn per_layer(report: &Report, ledger: &spans::Ledger, traced_ops: usize) -> Metrics {
    let traced = traced_ops.max(1) as f64;
    let busy = |layer: &str| ledger.self_ms.get(layer).copied().unwrap_or(0.0) / traced;
    let c = &report.counts;
    let untraced = report.op_ms.len().max(1) as f64;
    let per_op = |v: f64| v / untraced;

    let mut m = Metrics::default();
    let capture_ms = busy("sim.capture");
    let guest_instr = per_op(c.globals.guest_instr as f64);
    m.put("sim.capture_ms", capture_ms, "ms");
    m.put("sim.guest_instr", guest_instr, "count");
    let mips = if capture_ms > 0.0 {
        guest_instr / (capture_ms * 1e3)
    } else {
        0.0
    };
    m.put("sim.guest_mips", mips, "Minstr/s");
    m.put("codec.encode_ms", busy("codec.encode"), "ms");
    m.put("codec.decode_ms", busy("codec.decode"), "ms");
    m.put("codec.segment_load_ms", busy("codec.segment_load"), "ms");
    m.put(
        "codec.trace_bytes",
        layers::CODEC_BYTES.load(Ordering::Relaxed) as f64 / traced,
        "bytes",
    );
    m.put("store.open_ms", busy("store.open"), "ms");
    m.put("store.save_ms", busy("store.save"), "ms");
    m.put("store.load_ms", busy("store.load"), "ms");
    m.put("store.json_load_ms", busy("store.json_load"), "ms");
    m.put("store.writes", per_op(c.store.writes as f64), "count");
    m.put("store.hits", per_op(c.store.hits as f64), "count");
    m.put("store.misses", per_op(c.store.misses as f64), "count");
    m.put(
        "store.payload_bytes_read",
        per_op(c.store.payload_bytes_read as f64),
        "bytes",
    );
    m.put("replay.cost_table_ms", busy("replay.cost_table"), "ms");
    m.put("replay.sweep_ms", busy("replay.sweep"), "ms");
    m.put(
        "replay.streamed_sweep_ms",
        busy("replay.streamed_sweep"),
        "ms",
    );
    m.put("replay.validate_ms", busy("replay.validate"), "ms");
    m.put("replay.walks", per_op(c.globals.walks as f64), "count");
    m.put(
        "replay.segments_walked",
        per_op(c.globals.segments as f64),
        "count",
    );
    m.put("formulation.ms", busy("formulation"), "ms");
    m.put("binlp.solve_ms", busy("binlp.solve"), "ms");
    let nodes = layers::BINLP_NODES.load(Ordering::Relaxed) as f64;
    let pruned = layers::BINLP_PRUNED.load(Ordering::Relaxed) as f64;
    m.put("binlp.nodes", nodes / traced, "count");
    m.put(
        "binlp.pruned_frac",
        if nodes > 0.0 { pruned / nodes } else { 0.0 },
        "ratio",
    );
    m.put("service.json_ms", busy("service.json"), "ms");
    m.put(
        "service.overhead_ms",
        report.service_overhead_ms / traced,
        "ms",
    );
    m.put("service.hit_ratio", per_op(c.hit_ops as f64), "ratio");
    m.put("trace.coverage", ledger.coverage, "ratio");
    m.put(
        "trace.overhead_ms",
        median(&report.traced_ms) - median(&report.op_ms),
        "ms",
    );
    m
}

fn run(args: &Args) -> Res<(Report, Metrics)> {
    let work = WorkDir::create()?;
    let report = match args.workload.as_str() {
        "cold_campaign" => cold::run(args, &work)?,
        "warm_reoptimize" => warm::run(args, &work)?,
        "serve_mixed" => serve::run(args, &work)?,
        other => return Err(format!("unknown workload {other:?}").into()),
    };
    eprintln!(
        "{} result digest {:016x} (seed {})",
        args.workload, report.digest, args.seed
    );
    if !args.trace {
        let metrics = end_to_end(&report)?;
        return Ok((report, metrics));
    }
    let (spans, ops) = spans::snapshot();
    let path = work
        .path()
        .with_file_name(format!("spans-{}.jsonl", args.workload));
    spans::write_jsonl(&path, &spans, &ops)?;
    let metrics = per_layer(&report, &spans::ledger(&spans, &ops), ops.len());
    Ok((report, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((report, metrics)) => {
            let correct = report.tally.failed == 0;
            println!("{}", metrics.result_line(correct, report.tally));
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "error: {} of {} ops failed",
                    report.tally.failed, report.tally.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names a section of `BENCHMARK.json` lists, in order.
    fn listed(section: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let body = &json[json
            .find(&format!("\"{section}\""))
            .expect("section present")..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').unwrap()].to_string())
            .collect()
    }

    fn emitted(m: &Metrics) -> Vec<String> {
        m.0.iter().map(|(name, _, _)| name.clone()).collect()
    }

    #[test]
    fn emitted_metrics_are_the_listed_ones() {
        let report = Report {
            setup_s: vec![1.0],
            op_ms: (1..=20).map(f64::from).collect(),
            summary: Summary::of_ops(&[1.0; 20]),
            traced_ms: vec![1.0],
            ..Report::default()
        };
        let e2e = end_to_end(&report).unwrap();
        let layers = per_layer(&report, &spans::Ledger::default(), 1);
        assert_eq!(emitted(&e2e), listed("end_to_end"));
        assert_eq!(emitted(&layers), listed("per_layer"));
        for name in emitted(&e2e).iter().chain(&emitted(&layers)) {
            assert!(stats::valid_metric_name(name), "{name}");
        }
    }
}
