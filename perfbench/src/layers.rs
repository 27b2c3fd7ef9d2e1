//! The pipeline's configuration, its store-less reference, and the traced
//! re-execution of each op through the layers' public functions (one span
//! per call, fanned out over the same workers as the campaign session).

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use autoreconf::formulation::{formulate, formulate_mixed, predict, FormulationOptions};
use autoreconf::{
    canonical_shares, dcache_exhaustive_traced, run_indexed, ArtifactStore, Campaign,
    CampaignResult, CoOutcome, CoWorkloadRun, CostTable, DcacheRow, Fingerprint,
    MeasurementOptions, OptimizeError, Outcome, ParameterSpace, TraceSet, TracedWorkload,
    Validation, Weights, WorkloadShare,
};
use fpga_model::SynthesisModel;
use leon_sim::{LeonConfig, SegmentRead, StreamedTrace, Trace};
use workloads::Workload;

use crate::spans::span;

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;
pub type Suite = Vec<Box<dyn Workload + Send + Sync>>;

/// Engine worker threads for every workload.
pub const THREADS: usize = 2;

/// The campaign configuration every workload runs: the paper's space and
/// runtime weights (the `Campaign::new` defaults) on [`THREADS`] workers.
pub struct Engine {
    pub space: ParameterSpace,
    pub base: LeonConfig,
    pub model: SynthesisModel,
    pub weights: Weights,
    pub formulation: FormulationOptions,
    pub measurement: MeasurementOptions,
}

impl Engine {
    pub fn new() -> Engine {
        Engine {
            space: ParameterSpace::paper(),
            base: LeonConfig::base(),
            model: SynthesisModel::default(),
            weights: Weights::runtime_optimized(),
            formulation: FormulationOptions::default(),
            measurement: MeasurementOptions {
                threads: THREADS,
                ..MeasurementOptions::default()
            },
        }
    }

    pub fn campaign(&self) -> Campaign {
        Campaign::new().with_measurement(self.measurement)
    }
}

/// Store-less answers every op is compared with, byte for byte.
pub struct Reference {
    pub traces: TraceSet,
    pub result: CampaignResult,
    pub result_json: String,
}

impl Reference {
    /// The whole pipeline over `suite` with the campaign's eager, store-less
    /// API and the equal mix.
    pub fn compute(engine: &Engine, suite: &Suite) -> Res<Reference> {
        let c = engine.campaign();
        let traces = c.capture(suite)?;
        let tables = c.cost_tables(suite, &traces)?;
        let co = c.co_optimize(&traces, &tables, &Campaign::equal_mix(suite.len()))?;
        let sweeps = c.sweeps(&traces)?;
        let per_app = c.optimize_each(suite, &traces, &tables)?;
        let result = CampaignResult {
            workloads: traces.names(),
            tables,
            sweeps,
            per_app,
            co,
        };
        let result_json = serde_json::to_string(&result)?;
        Ok(Reference {
            traces,
            result,
            result_json,
        })
    }

    pub fn co_json(&self, engine: &Engine, mix: &[f64]) -> Res<String> {
        let co = engine
            .campaign()
            .co_optimize(&self.traces, &self.result.tables, mix)?;
        Ok(serde_json::to_string(&co)?)
    }

    pub fn sweep_json(&self, w: usize) -> String {
        serde_json::to_string(&self.result.sweeps[w]).expect("sweep rows serialise")
    }

    pub fn optimum_json(&self, w: usize) -> String {
        serde_json::to_string(&self.result.per_app[w]).expect("outcomes serialise")
    }

    /// Digest of the simulated results, to show a speed-only change leaves
    /// them identical.
    pub fn digest(&self) -> u64 {
        leon_sim::fnv1a64(self.result_json.as_bytes())
    }
}

// -- counters the traced layers keep ----------------------------------------

/// Trace bytes through the codec (encoded, decoded or streamed).
pub static CODEC_BYTES: AtomicU64 = AtomicU64::new(0);
/// Branch-and-bound nodes explored, and nodes pruned (by bound or by
/// constraints), over every solve.
pub static BINLP_NODES: AtomicU64 = AtomicU64::new(0);
pub static BINLP_PRUNED: AtomicU64 = AtomicU64::new(0);

fn note_solve(stats: &binlp::SolveStats) {
    BINLP_NODES.fetch_add(stats.nodes, Ordering::Relaxed);
    BINLP_PRUNED.fetch_add(
        stats.pruned_by_bound + stats.pruned_by_constraints,
        Ordering::Relaxed,
    );
}

// -- the traced ops' own store layout ----------------------------------------

fn workload_key(w: &(dyn Workload + Send + Sync)) -> Fingerprint {
    Fingerprint(w.fingerprint())
}

fn co_key(mix: &[f64]) -> Res<Fingerprint> {
    let mut h = leon_sim::FNV1A64_OFFSET;
    for share in canonical_shares(mix)? {
        h = leon_sim::fnv1a64_extend(h, &share.to_bits().to_le_bytes());
    }
    Ok(Fingerprint(h))
}

/// Base-run cycles and seconds, then the encoded trace: the campaign's
/// stored trace payload layout.
const TRACE_PREFIX: usize = 16;

fn encode(op: u64, entry: &TracedWorkload) -> Vec<u8> {
    let bytes = span(op, "codec.encode", || entry.trace.to_bytes());
    CODEC_BYTES.fetch_add(bytes.len() as u64, Ordering::Relaxed);
    let mut payload = Vec::with_capacity(TRACE_PREFIX + bytes.len());
    payload.extend_from_slice(&entry.base_cycles.to_le_bytes());
    payload.extend_from_slice(&entry.base_seconds.to_bits().to_le_bytes());
    payload.extend_from_slice(&bytes);
    payload
}

fn decode(op: u64, name: &str, payload: &[u8]) -> Res<TracedWorkload> {
    let word = |at: usize| -> Res<u64> {
        let bytes = payload
            .get(at..at + 8)
            .ok_or("stored trace payload is truncated")?;
        Ok(u64::from_le_bytes(bytes.try_into()?))
    };
    let (base_cycles, base_seconds) = (word(0)?, f64::from_bits(word(8)?));
    let bytes = &payload[TRACE_PREFIX..];
    let trace = span(op, "codec.decode", || Trace::from_bytes(bytes))?;
    CODEC_BYTES.fetch_add(bytes.len() as u64, Ordering::Relaxed);
    Ok(TracedWorkload {
        name: name.to_string(),
        trace,
        base_cycles,
        base_seconds,
    })
}

/// Segment reads of a stored trace payload, past its base-cost prefix.
struct StoredSegments {
    reader: autoreconf::store::PayloadReader,
    op: u64,
}

impl SegmentRead for StoredSegments {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        span(self.op, "codec.segment_load", || {
            self.reader.read_at(offset + TRACE_PREFIX as u64, buf)
        })?;
        CODEC_BYTES.fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn total_len(&self) -> std::io::Result<u64> {
        Ok(self.reader.total_len()?.saturating_sub(TRACE_PREFIX as u64))
    }
}

fn save_json<T: serde::Serialize>(
    op: u64,
    store: &ArtifactStore,
    kind: &str,
    key: Fingerprint,
    value: &T,
) -> Res<()> {
    Ok(span(op, "store.save", || {
        store.save_json(kind, key, value)
    })?)
}

fn collect<T, E>(results: Vec<Result<T, E>>) -> Result<Vec<T>, E> {
    results.into_iter().collect()
}

// -- layer sequences -----------------------------------------------------------

/// Blend, solve and replay-validate one mix: the session's co-optimization.
pub fn co_optimize(
    op: u64,
    e: &Engine,
    entries: &[&TracedWorkload],
    tables: &[&CostTable],
    mix: &[f64],
) -> Res<CoOutcome> {
    let shares = canonical_shares(mix)?;
    let weighted: Vec<(f64, &CostTable)> =
        shares.iter().copied().zip(tables.iter().copied()).collect();
    let (formulation, _) = span(op, "formulation", || {
        formulate_mixed(&e.space, &weighted, e.weights, e.formulation)
    });
    let solution = span(op, "binlp.solve", || binlp::solve(&formulation.problem))
        .map_err(|_| OptimizeError::Infeasible)?;
    note_solve(&solution.stats);
    let mut selected = formulation.selected_indices(&solution.assignment);
    selected.sort_unstable();
    let recommended = e.space.apply(&e.base, &selected);
    let report = e.model.synthesize(&recommended);
    let max_cycles = e.measurement.max_cycles;
    let cycles = collect(run_indexed(entries.len(), THREADS, |i| {
        span(op, "replay.validate", || {
            leon_sim::replay(&entries[i].trace, &recommended, max_cycles)
        })
        .map(|stats| stats.cycles)
    }))?;
    let mut per_workload = Vec::with_capacity(entries.len());
    let mut weighted_relative = 0.0;
    for (i, entry) in entries.iter().enumerate() {
        weighted_relative += shares[i] * cycles[i] as f64 / entry.base_cycles as f64;
        per_workload.push(CoWorkloadRun {
            name: entry.name.clone(),
            weight: shares[i],
            base_cycles: entry.base_cycles,
            cycles: cycles[i],
            runtime_gain_pct: (entry.base_cycles as f64 - cycles[i] as f64) * 100.0
                / entry.base_cycles as f64,
        });
    }
    Ok(CoOutcome {
        mix: entries
            .iter()
            .zip(&shares)
            .map(|(e, &weight)| WorkloadShare {
                name: e.name.clone(),
                weight,
            })
            .collect(),
        weights: e.weights,
        changes: changes(&e.space, &selected),
        selected,
        recommended,
        per_workload,
        weighted_relative_runtime: weighted_relative,
        lut_pct: report.lut_percent,
        bram_pct: report.bram_percent,
        fits: report.fits,
        solver: solution.stats,
    })
}

fn changes(space: &ParameterSpace, selected: &[usize]) -> Vec<String> {
    selected
        .iter()
        .filter_map(|i| space.by_index(*i).map(|v| v.name.clone()))
        .collect()
}

/// Formulate, solve and replay-validate one workload's own problem.
fn per_app(op: u64, e: &Engine, entry: &TracedWorkload, table: &CostTable) -> Res<Outcome> {
    let formulation = span(op, "formulation", || {
        formulate(&e.space, table, e.weights, e.formulation)
    });
    let solution = span(op, "binlp.solve", || binlp::solve(&formulation.problem))
        .map_err(|_| OptimizeError::Infeasible)?;
    note_solve(&solution.stats);
    let mut selected = formulation.selected_indices(&solution.assignment);
    selected.sort_unstable();
    let recommended = e.space.apply(&e.base, &selected);
    let prediction = predict(&e.space, table, &selected);
    let report = e.model.synthesize(&recommended);
    let cycles = span(op, "replay.validate", || {
        leon_sim::replay(&entry.trace, &recommended, e.measurement.max_cycles)
    })?
    .cycles;
    let base = table.base.cycles as f64;
    Ok(Outcome {
        workload: entry.name.clone(),
        weights: e.weights,
        cost_table: table.clone(),
        changes: changes(&e.space, &selected),
        selected,
        recommended,
        prediction,
        validation: Validation {
            cycles,
            seconds: recommended.cycles_to_seconds(cycles),
            runtime_delta_pct: (cycles as f64 - base) * 100.0 / base,
            lut_pct: report.lut_percent,
            bram_pct: report.bram_percent,
            fits: report.fits,
        },
        solver: solution.stats,
    })
}

/// A cold campaign through the layers, in the session's order: capture and
/// persist every trace (fanned out), measure every cost table,
/// co-optimize, sweep every workload, then solve every per-application
/// problem (fanned out).
pub fn cold_op(op: u64, e: &Engine, suite: &Suite, dir: &Path, mix: &[f64]) -> Res<CampaignResult> {
    let store = span(op, "store.open", || ArtifactStore::open(dir))?;
    let max_cycles = e.measurement.max_cycles;
    let traces = collect(run_indexed(
        suite.len(),
        THREADS,
        |i| -> Res<TracedWorkload> {
            let w = suite[i].as_ref();
            let (run, trace) = span(op, "sim.capture", || {
                workloads::capture_verified(w, &e.base, max_cycles)
            })?;
            let entry = TracedWorkload {
                name: w.name().to_string(),
                trace,
                base_cycles: run.stats.cycles,
                base_seconds: run.seconds,
            };
            let payload = encode(op, &entry);
            span(op, "store.save", || {
                store.save("trace", workload_key(w), &payload)
            })?;
            Ok(entry)
        },
    ))?;
    let mut tables = Vec::with_capacity(suite.len());
    for (w, entry) in suite.iter().zip(&traces) {
        let table = span(op, "replay.cost_table", || {
            autoreconf::measure_cost_table_traced(
                &e.space,
                w.as_ref(),
                &e.base,
                &e.model,
                &e.measurement,
                &entry.trace,
            )
        })?;
        save_json(op, &store, "table", workload_key(w.as_ref()), &table)?;
        tables.push(table);
    }
    let entries: Vec<&TracedWorkload> = traces.iter().collect();
    let table_refs: Vec<&CostTable> = tables.iter().collect();
    let co = co_optimize(op, e, &entries, &table_refs, mix)?;
    save_json(op, &store, "co", co_key(mix)?, &co)?;
    let mut sweeps = Vec::with_capacity(suite.len());
    for (w, entry) in suite.iter().zip(&traces) {
        let sweep = span(op, "replay.sweep", || {
            dcache_exhaustive_traced(&entry.trace, &e.base, &e.model, max_cycles, THREADS)
        })?;
        save_json(op, &store, "sweep", workload_key(w.as_ref()), &sweep)?;
        sweeps.push(sweep);
    }
    let per_app = collect(run_indexed(suite.len(), THREADS, |i| -> Res<Outcome> {
        let outcome = per_app(op, e, &traces[i], &tables[i])?;
        save_json(
            op,
            &store,
            "optimum",
            workload_key(suite[i].as_ref()),
            &outcome,
        )?;
        Ok(outcome)
    }))?;
    let workloads = traces.into_iter().map(|t| t.name).collect();
    span(op, "store.open", || drop(store));
    Ok(CampaignResult {
        workloads,
        tables,
        sweeps,
        per_app,
        co,
    })
}

/// A warm re-optimization through the layers: workload `w`'s sweep
/// recomputed over the streamed stored trace, then a co-optimization for
/// `mix` over fully loaded and decoded traces and stored cost tables.
pub fn warm_op(
    op: u64,
    e: &Engine,
    suite: &Suite,
    dir: &Path,
    w: usize,
    mix: &[f64],
) -> Res<(Vec<DcacheRow>, CoOutcome)> {
    let store = span(op, "store.open", || ArtifactStore::open(dir))?;
    let key = workload_key(suite[w].as_ref());
    let reader = span(op, "store.load", || store.open_payload_reader("trace", key))
        .ok_or("stored trace is missing")?;
    let streamed = span(op, "codec.segment_load", || {
        StreamedTrace::open(Box::new(StoredSegments { reader, op }))
    })?;
    let sweep = span(op, "replay.streamed_sweep", || {
        autoreconf::dcache_study::dcache_exhaustive_traced_streamed(
            &streamed,
            &e.base,
            &e.model,
            e.measurement.max_cycles,
        )
    })?;
    save_json(op, &store, "sweep", key, &sweep)?;

    let traces = collect(run_indexed(
        suite.len(),
        THREADS,
        |i| -> Res<TracedWorkload> {
            let payload = span(op, "store.load", || {
                store.load("trace", workload_key(suite[i].as_ref()))
            })
            .ok_or("stored trace is missing")?;
            decode(op, suite[i].name(), &payload)
        },
    ))?;
    let mut tables = Vec::with_capacity(suite.len());
    for wl in suite {
        let table = span(op, "store.json_load", || {
            store.load_json::<CostTable>("table", workload_key(wl.as_ref()))
        })
        .ok_or("stored cost table is missing")?;
        tables.push(table);
    }
    let entries: Vec<&TracedWorkload> = traces.iter().collect();
    let table_refs: Vec<&CostTable> = tables.iter().collect();
    let co = co_optimize(op, e, &entries, &table_refs, mix)?;
    save_json(op, &store, "co", co_key(mix)?, &co)?;
    span(op, "store.open", || drop(store));
    Ok((sweep, co))
}

/// The daemon's work for a novel mix, in-process over resident traces and
/// tables: co-optimize and persist.
pub fn serve_co(
    op: u64,
    e: &Engine,
    r: &Reference,
    store: &ArtifactStore,
    mix: &[f64],
) -> Res<String> {
    let entries: Vec<&TracedWorkload> = r.traces.entries.iter().collect();
    let tables: Vec<&CostTable> = r.result.tables.iter().collect();
    let co = co_optimize(op, e, &entries, &tables, mix)?;
    save_json(op, store, "co", co_key(mix)?, &co)?;
    Ok(span(op, "service.json", || serde_json::to_string(&co))?)
}

/// Remove every stored sweep so the next sweep request recomputes.
pub fn purge_sweeps(dir: &Path) -> Res<()> {
    let store = ArtifactStore::open(dir)?;
    for path in store.entries(Some("sweep")) {
        std::fs::remove_file(path)?;
    }
    Ok(())
}
