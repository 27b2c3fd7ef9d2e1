//! `serve_mixed`: an in-process daemon on loopback under two closed-loop
//! SDK clients.  Four in five requests repeat a stored answer; the fifth
//! co-optimizes a never-seen mix (formulate, solve, replay-validate the
//! resident traces, persist).  The only workload through wire framing, JSON
//! and the in-flight gate.

use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use autoreconf::experiments::ExperimentOptions;
use autoreconf::service::{Server, ServerConfig};
use autoreconf::{run_indexed, ArtifactStore, Campaign};
use autoreconf_service::{Client, ClientError};
use workloads::Scale;

use crate::gen::{self, Query, QueryStream};
use crate::layers::{self, Engine, Reference, Res, THREADS};
use crate::stats::{OpResult, Summary};
use crate::{
    ms, peak_rss_mb, phases, reset_peak_rss, setups, spans, store_delta, Args, Globals, Report,
    WorkDir,
};

/// Closed-loop clients.
const CLIENTS: u64 = 2;

/// The daemon, serving from its own thread until stopped.
struct Daemon {
    addr: SocketAddr,
    store: ArtifactStore,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    fn start(engine: &Engine, dir: &std::path::Path) -> Res<Daemon> {
        let store = ArtifactStore::open(dir)?;
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            options: ExperimentOptions {
                scale: Scale::Small,
                max_cycles: engine.measurement.max_cycles,
                threads: THREADS,
            },
            store: Some(store.clone()),
            ..ServerConfig::default()
        })?;
        let addr = server.local_addr()?;
        let thread = Some(std::thread::spawn(move || server.run()));
        Ok(Daemon {
            addr,
            store,
            thread,
        })
    }

    fn stop(&mut self) -> Res<()> {
        if let Some(thread) = self.thread.take() {
            Client::connect(self.addr)?.shutdown()?;
            thread.join().map_err(|_| "daemon thread panicked")??;
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Err(e) = self.stop() {
            eprintln!("warning: daemon did not stop cleanly: {e}");
        }
    }
}

/// One answered (or failed) request.
struct Record {
    query: Query,
    answer: Result<String, ClientError>,
    /// The in-process re-execution's answer (traced phase only).
    replica: Option<String>,
}

fn send(client: &mut Client, names: &[String], query: &Query) -> Result<String, ClientError> {
    match query {
        Query::Optimize(w) => client.optimize(&names[*w]),
        Query::Sweep(w) => client.sweep(&names[*w]),
        Query::CoOptimize(mix) => client.co_optimize(mix),
    }
}

/// The daemon's work for `query`, re-executed in-process through the
/// layers over the reference's resident traces and tables.
fn replica(
    op: u64,
    e: &Engine,
    r: &Reference,
    store: &ArtifactStore,
    query: &Query,
) -> Res<String> {
    match query {
        Query::Optimize(w) => Ok(spans::span(op, "service.json", || r.optimum_json(*w))),
        Query::Sweep(w) => Ok(spans::span(op, "service.json", || r.sweep_json(*w))),
        Query::CoOptimize(mix) => layers::serve_co(op, e, r, store, mix),
    }
}

/// One client's records, latencies in ms and summed service overhead.
type ClientRun = (Vec<Record>, Vec<f64>, f64);

struct Window {
    records: Vec<Record>,
    /// From opening the window until the last client stopped.
    wall: Duration,
    latencies_ms: Vec<f64>,
    overhead_ms: f64,
}

/// Run every client closed-loop for `length`; a client stops only at a
/// block boundary, so each finished stream has the designed mix.  When
/// `traced`, each reply is followed by a traced in-process re-execution of
/// the same request.
fn window(
    daemon: &Daemon,
    names: &[String],
    streams: &mut [QueryStream],
    length: Duration,
    traced: Option<(&Engine, &Reference, &ArtifactStore)>,
) -> Res<Window> {
    let start = Instant::now();
    let per_client = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(c, stream)| {
                scope.spawn(move || -> Res<ClientRun> {
                    let mut client = Client::connect(daemon.addr)?;
                    let (mut records, mut latencies, mut overhead) = (Vec::new(), Vec::new(), 0.0);
                    let mut op = (c as u64) << 32;
                    while start.elapsed() < length {
                        for query in stream.next_block() {
                            let t = Instant::now();
                            let answer = send(&mut client, names, &query);
                            let client_ms = ms(t.elapsed());
                            latencies.push(client_ms);
                            let replica = match traced {
                                Some((e, r, store)) => {
                                    let t = Instant::now();
                                    let json = spans::op(op, || replica(op, e, r, store, &query))?;
                                    overhead += client_ms - ms(t.elapsed());
                                    op += 1;
                                    Some(json)
                                }
                                None => None,
                            };
                            records.push(Record {
                                query,
                                answer,
                                replica,
                            });
                        }
                    }
                    Ok((records, latencies, overhead))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked")?)
            .collect::<Res<Vec<_>>>()
    })?;
    let mut w = Window {
        records: Vec::new(),
        wall: start.elapsed(),
        latencies_ms: Vec::new(),
        overhead_ms: 0.0,
    };
    for (records, latencies, overhead) in per_client {
        w.records.extend(records);
        w.latencies_ms.extend(latencies);
        w.overhead_ms += overhead;
    }
    Ok(w)
}

/// Check every answer against the store-less reference, outside the timed
/// window; novel mixes are recomputed on the worker pool.
fn verify(e: &Engine, r: &Reference, report: &mut Report, records: &[Record]) -> Res<()> {
    let expected = run_indexed(records.len(), THREADS, |i| -> Result<String, String> {
        match &records[i].query {
            Query::Optimize(w) => Ok(r.optimum_json(*w)),
            Query::Sweep(w) => Ok(r.sweep_json(*w)),
            Query::CoOptimize(mix) => r.co_json(e, mix).map_err(|e| e.to_string()),
        }
    });
    for (record, expected) in records.iter().zip(expected) {
        let expected = expected?;
        let result = match &record.answer {
            Ok(answer)
                if *answer == expected
                    && record.replica.as_ref().is_none_or(|j| *j == expected) =>
            {
                OpResult::Ok
            }
            Ok(_) => {
                eprintln!(
                    "serve: answer to {:?} differs from the reference",
                    record.query
                );
                OpResult::WrongAnswer
            }
            Err(ClientError::Overloaded { .. }) => OpResult::Refused,
            Err(e) => {
                eprintln!("serve: {:?} failed: {e}", record.query);
                OpResult::Error
            }
        };
        report.tally.record(result);
    }
    Ok(())
}

/// The program-side invariants of a window: no guest code, no corruption,
/// and exactly one store miss per novel request (so the repeats really
/// were repeats and the novel mixes really were novel).
fn check_window(
    report: &mut Report,
    requests: usize,
    globals: Globals,
    store: autoreconf::StoreStats,
) {
    let novel = requests / gen::BLOCK;
    let ok = globals.guest_instr == 0 && store.corrupt == 0 && store.misses == novel;
    if !ok {
        eprintln!(
            "serve: window of {requests} requests saw guest_instr={} corrupt={} misses={} (want 0, 0, {novel})",
            globals.guest_instr, store.corrupt, store.misses
        );
        report.tally.record(OpResult::WrongAnswer);
    }
}

/// Set-up: daemon start on a fresh store, plus warm-up requests that leave
/// its traces, tables, sweeps and per-application optima resident.
fn start_warm(engine: &Engine, work: &WorkDir, equal: &[f64]) -> Res<(Daemon, Vec<String>)> {
    let daemon = Daemon::start(engine, &work.fresh("store")?)?;
    let mut client = Client::connect(daemon.addr)?;
    let names = client.describe()?.workloads;
    client.co_optimize(equal)?;
    for name in &names {
        client.optimize(name)?;
        client.sweep(name)?;
    }
    Ok((daemon, names))
}

/// Each set-up starts its own daemon and is followed by an equal share of
/// the measured window; the figures are medians over these rounds, so no
/// one daemon's memory layout or stretch of host noise sets them.
pub fn run(args: &Args, work: &WorkDir) -> Res<Report> {
    let engine = Engine::new();
    let mut report = Report::default();
    let equal = Campaign::equal_mix(4);
    let reference = Reference::compute(&engine, &workloads::benchmark_suite(Scale::Small))?;
    report.digest = reference.digest();
    let mut streams: Vec<QueryStream> = (0..CLIENTS)
        .map(|c| {
            QueryStream::new(
                args.seed,
                c,
                reference.result.workloads.len(),
                std::slice::from_ref(&equal),
            )
        })
        .collect();

    let (untraced, traced) = phases(args);
    let rounds = setups(args);
    let (mut summaries, mut records) = (Vec::new(), Vec::new());
    for round in 0..rounds {
        let t = Instant::now();
        let (mut daemon, names) = start_warm(&engine, work, &equal)?;
        report.setup_s.push(t.elapsed().as_secs_f64());
        if reference.result.workloads != names {
            return Err("daemon serves a different suite than the reference".into());
        }
        if round == 0 {
            reset_peak_rss()?;
        }
        let (globals, stats) = (Globals::now(), daemon.store.stats());
        let w = window(
            &daemon,
            &names,
            &mut streams,
            untraced / rounds as u32,
            None,
        )?;
        if round == 0 {
            report.peak_rss_mb = peak_rss_mb()?;
        }
        let (delta, store) = (
            Globals::now().since(globals),
            store_delta(&daemon.store.stats(), &stats),
        );
        check_window(&mut report, w.records.len(), delta, store);
        report.counts.globals.add(delta);
        report.counts.add_store(&store);
        report.counts.hit_ops += (w.records.len() - store.misses) as u64;
        summaries.extend(Summary::of_window(&w.latencies_ms, w.wall.as_secs_f64()));
        report.op_ms.extend(w.latencies_ms);
        records.extend(w.records);

        if args.trace {
            let replica_store = ArtifactStore::open(work.fresh("replica-store")?)?;
            spans::enable();
            let (globals, stats) = (Globals::now(), daemon.store.stats());
            let w = window(
                &daemon,
                &names,
                &mut streams,
                traced,
                Some((&engine, &reference, &replica_store)),
            )?;
            let store = store_delta(&daemon.store.stats(), &stats);
            check_window(
                &mut report,
                w.records.len(),
                Globals::now().since(globals),
                store,
            );
            report.traced_ms = w.latencies_ms;
            report.service_overhead_ms = w.overhead_ms;
            records.extend(w.records);
        }
        daemon.stop()?;
    }
    report.summary = Summary::median_of(&summaries);
    verify(&engine, &reference, &mut report, &records)?;
    Ok(report)
}
