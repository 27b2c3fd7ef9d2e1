//! Fleet-scale population benchmarks (DESIGN.md §12) — `BENCH_population.json`.
//!
//! A population solve batch co-optimizes N tenant mixes and reduces them to
//! a Pareto frontier of configurations.  This bench quantifies the three
//! claims the feature makes:
//!
//! * `cold/<N>` — a fresh store: every unique mix is solved once (traces,
//!   cost tables and the per-mix BINLP all computed and persisted);
//! * `warm_same_key/<N>` — the identical question re-asked: one JSON load
//!   of the `population` artifact, nothing recomputed;
//! * `warm_new_tolerance/<N>` — the same population at a *different*
//!   tolerance: the `population` key misses but every per-mix `co` entry
//!   hits, so the whole solve is cached JSON loads plus the closed-form
//!   regret/prune stage — **zero guest instructions and zero trace walks**,
//!   counter-asserted before the number is reported;
//! * `naive_per_mix_loop/<N>` — the do-nothing-clever baseline: a warm
//!   per-mix `co_optimize` loop over all N tenants (no dedup, no frontier),
//!   what a fleet operator would script without this feature;
//! * `warm_novel_mixes/<k>` — a fresh session on the warm store solves k
//!   mixes no run has stored: every trace and cost table hits, every `co`
//!   entry misses, so each mix validates over the stored traces (one mix
//!   streams them; several decode each trace once up front).  Median of
//!   fresh sessions, each over mixes never seen before.
//!
//! A frontier-size sweep over growing N records how many distinct
//! configurations actually serve a fleet within tolerance.
//!
//! Same `BENCH_<group>.json` / `$BENCH_JSON_DIR` / `BENCH_SMOKE` /
//! `BENCH_SCALE` conventions as the other plain-`main` targets.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use autoreconf::experiments::ExperimentOptions;
use autoreconf::{random_mixes, ArtifactStore, Campaign, MixProfile, Weights};
use bench::campaign_scale;
use leon_sim::trace_walks_performed;
use workloads::{benchmark_suite, guest_instructions_executed, Scale, Workload};

const TOLERANCE_PCT: f64 = 5.0;
const WARM_TOLERANCE_PCT: f64 = 2.5;
const SEED: u64 = 42;

fn scratch_dir() -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("autoreconf-bench-population-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn engine(scale: Scale, dir: &PathBuf) -> Campaign {
    let options = ExperimentOptions { scale, ..ExperimentOptions::default() };
    Campaign::new()
        .with_weights(Weights::runtime_optimized())
        .with_measurement(options.measurement())
        .with_store(ArtifactStore::open(dir).expect("open bench store"))
}

fn solve(
    scale: Scale,
    dir: &PathBuf,
    suite: &[Box<dyn Workload + Send + Sync>],
    mixes: &[MixProfile],
    tolerance_pct: f64,
) -> (String, usize, usize, f64) {
    let session = engine(scale, dir).session(suite).expect("open session");
    let start = Instant::now();
    let outcome = session.population(mixes, tolerance_pct).expect("population solve");
    let secs = start.elapsed().as_secs_f64();
    let json = serde_json::to_string(&outcome).expect("serialise outcome");
    (json, outcome.unique.len(), outcome.frontier.len(), secs)
}

/// `k` mixes no other call produces (`first` numbers them): every weight
/// lies in (1, 1.1) and the weights of a mix are distinct, so no mix
/// canonicalises to one of [`random_mixes`]' small-integer mixes or to
/// another call's.
fn novel_mixes(first: usize, k: usize, workloads: usize) -> Vec<MixProfile> {
    (first..first + k)
        .map(|c| MixProfile {
            name: format!("novel-{c}"),
            weights: (0..workloads)
                .map(|w| 1.0 + (c * workloads + w + 1) as f64 / 99_991.0)
                .collect(),
        })
        .collect()
}

struct Row {
    name: String,
    secs: f64,
    unique: usize,
    frontier: usize,
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").map(|v| v == "1").unwrap_or(false);
    let scale = campaign_scale();
    let n = if smoke { 16 } else { 64 };
    let sweep_sizes: &[usize] = if smoke { &[8, 16] } else { &[16, 64, 256] };
    eprintln!("benchmark group: population (scale {}, {n} tenants)", scale.name());

    let dir = scratch_dir();
    let suite = benchmark_suite(scale);
    let mixes = random_mixes(n, suite.len(), SEED);
    let mut rows = Vec::new();

    // -- cold: fresh store, every unique mix computed ----------------------
    let (cold_json, unique, frontier, cold_secs) =
        solve(scale, &dir, &suite, &mixes, TOLERANCE_PCT);
    eprintln!("  cold/{n}: {cold_secs:.3}s ({unique} unique mixes, {frontier} frontier)");
    rows.push(Row { name: format!("cold/{n}"), secs: cold_secs, unique, frontier });

    // -- warm, same key: a single population-artifact JSON load ------------
    let (warm_json, unique2, frontier2, warm_same_secs) =
        solve(scale, &dir, &suite, &mixes, TOLERANCE_PCT);
    assert_eq!(cold_json, warm_json, "warm population answer must be byte-identical to cold");
    eprintln!("  warm_same_key/{n}: {warm_same_secs:.3}s");
    rows.push(Row {
        name: format!("warm_same_key/{n}"),
        secs: warm_same_secs,
        unique: unique2,
        frontier: frontier2,
    });

    // -- warm, new tolerance: population key misses, every co entry hits ---
    let guests_before = guest_instructions_executed();
    let walks_before = trace_walks_performed();
    let (_, unique3, frontier3, warm_new_secs) =
        solve(scale, &dir, &suite, &mixes, WARM_TOLERANCE_PCT);
    let warm_guests = guest_instructions_executed() - guests_before;
    let warm_walks = trace_walks_performed() - walks_before;
    assert_eq!(warm_guests, 0, "a warm population solve must execute zero guest instructions");
    assert_eq!(warm_walks, 0, "a warm population solve must perform zero trace walks");
    let warm_mixes_per_sec = n as f64 / warm_new_secs.max(1e-9);
    eprintln!(
        "  warm_new_tolerance/{n}: {warm_new_secs:.3}s ({warm_mixes_per_sec:.0} mixes/s, \
         0 guest instructions, 0 trace walks)"
    );
    rows.push(Row {
        name: format!("warm_new_tolerance/{n}"),
        secs: warm_new_secs,
        unique: unique3,
        frontier: frontier3,
    });

    // -- the naive baseline: a warm per-mix co_optimize loop ---------------
    let naive_secs = {
        let session = engine(scale, &dir).session(&suite).expect("open session");
        let start = Instant::now();
        for mix in &mixes {
            session.co_optimize(&mix.weights).expect("per-mix co-optimize");
        }
        start.elapsed().as_secs_f64()
    };
    eprintln!("  naive_per_mix_loop/{n}: {naive_secs:.3}s (warm, no dedup, no frontier)");
    rows.push(Row { name: format!("naive_per_mix_loop/{n}"), secs: naive_secs, unique, frontier });

    // -- warm, novel mixes: co misses over stored traces and tables -------
    let reps = if smoke { 1 } else { 5 };
    let mut first = 0;
    for k in [1, 2, 4, 8, 16] {
        let mut times = Vec::with_capacity(reps);
        let mut last = (0, 0);
        for _ in 0..reps {
            let novel = novel_mixes(first, k, suite.len());
            first += k;
            let guests_before = guest_instructions_executed();
            let (_, unique, frontier, secs) = solve(scale, &dir, &suite, &novel, TOLERANCE_PCT);
            assert_eq!(unique, k, "every novel mix must be distinct");
            assert_eq!(
                guest_instructions_executed(),
                guests_before,
                "a warm store must serve every trace without guest execution"
            );
            times.push(secs);
            last = (unique, frontier);
        }
        times.sort_by(f64::total_cmp);
        let secs = times[times.len() / 2];
        eprintln!("  warm_novel_mixes/{k}: {secs:.3}s (median of {reps} fresh sessions)");
        let (unique, frontier) = last;
        rows.push(Row { name: format!("warm_novel_mixes/{k}"), secs, unique, frontier });
    }

    // -- frontier size vs population size ----------------------------------
    let mut sweep = Vec::new();
    for &size in sweep_sizes {
        let sized = random_mixes(size, suite.len(), SEED);
        let (_, unique, frontier, secs) = solve(scale, &dir, &suite, &sized, TOLERANCE_PCT);
        eprintln!("  sweep n={size}: {unique} unique -> {frontier} frontier ({secs:.3}s)");
        sweep.push((size, unique, frontier, secs));
    }

    // -- report ------------------------------------------------------------
    let out_dir = std::env::var("BENCH_JSON_DIR").unwrap_or_else(|_| ".".to_string());
    let path = format!("{out_dir}/BENCH_population.json");
    let mut body = String::new();
    let _ = writeln!(body, "{{");
    let _ = writeln!(body, "  \"group\": \"population\",");
    let _ = writeln!(body, "  \"scale\": \"{}\",", scale.name());
    let _ = writeln!(body, "  \"tenants\": {n},");
    let _ = writeln!(body, "  \"tolerance_pct\": {TOLERANCE_PCT},");
    let _ = writeln!(body, "  \"warm_guest_instructions\": {warm_guests},");
    let _ = writeln!(body, "  \"warm_trace_walks\": {warm_walks},");
    let _ = writeln!(body, "  \"warm_mixes_per_sec\": {warm_mixes_per_sec:.1},");
    let _ = writeln!(body, "  \"benchmarks\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            body,
            "    {{\"name\": \"{}\", \"secs\": {:.6}, \"unique\": {}, \
             \"frontier\": {}}}{comma}",
            r.name, r.secs, r.unique, r.frontier
        );
    }
    let _ = writeln!(body, "  ],");
    let _ = writeln!(body, "  \"frontier_vs_n\": [");
    for (i, (size, unique, frontier, secs)) in sweep.iter().enumerate() {
        let comma = if i + 1 < sweep.len() { "," } else { "" };
        let _ = writeln!(
            body,
            "    {{\"n\": {size}, \"unique\": {unique}, \"frontier\": {frontier}, \
             \"secs\": {secs:.6}}}{comma}"
        );
    }
    let _ = writeln!(body, "  ]");
    let _ = writeln!(body, "}}");
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        eprintln!("wrote {path}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}
