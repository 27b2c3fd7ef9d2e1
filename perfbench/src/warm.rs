//! `warm_reoptimize`: a warmed store answers objectives it has not seen.
//! Each op opens a fresh session, as a new CLI process would, recomputes one
//! workload's Figure 2 sweep over the streamed stored trace, then
//! co-optimizes a never-seen mix over fully loaded traces.  The read-side
//! twin of `cold_campaign`: zero guest instructions.

use std::time::Instant;

use autoreconf::{ArtifactStore, Campaign};

use crate::gen::{self, MixGen};
use crate::layers::{self, Engine, Reference, Res};
use crate::stats::{median, OpResult, Summary};
use crate::{
    ms, peak_rss_mb, phases, reset_peak_rss, spans, timed_setups, Args, Globals, Report, WorkDir,
};

pub fn run(args: &Args, work: &WorkDir) -> Res<Report> {
    let engine = Engine::new();
    let mut report = Report::default();
    let equal = Campaign::equal_mix(4);
    // suite generation plus a store warmed by a whole campaign
    let (suite, store_dir) = timed_setups(args, &mut report, || {
        let suite = gen::seeded_suite(args.seed);
        let dir = work.fresh("store")?;
        engine
            .campaign()
            .with_store_dir(&dir)?
            .session(&suite)?
            .into_result(&equal)?;
        Ok((suite, dir))
    })?;
    let reference = Reference::compute(&engine, &suite)?;
    report.digest = reference.digest();
    let mut mixes = MixGen::new(args.seed, 7, std::slice::from_ref(&equal));

    let (untraced, traced) = phases(args);
    let mut peaks = Vec::new();
    let start = Instant::now();
    for i in 0.. {
        // stop only after whole rotations, so every workload's sweep has the
        // same weight in the latency distribution
        let w = i % suite.len();
        if w == 0 && start.elapsed() >= untraced {
            break;
        }
        let mix = mixes.next_mix(suite.len());
        layers::purge_sweeps(&store_dir)?;
        reset_peak_rss()?;
        let before = Globals::now();
        let t = Instant::now();
        let outcome = (|| -> Res<_> {
            let campaign = engine
                .campaign()
                .with_store(ArtifactStore::open(&store_dir)?);
            let session = campaign.session(&suite)?;
            let sweep = session.sweep(w)?.clone();
            let co = session.co_optimize(&mix)?;
            drop(session);
            let stats = campaign.store().expect("store attached").stats();
            Ok((sweep, co, stats))
        })();
        let elapsed = ms(t.elapsed());
        let delta = Globals::now().since(before);
        report.counts.globals.add(delta);
        report.op_ms.push(elapsed);
        peaks.push(peak_rss_mb()?);
        let result = match outcome {
            Ok((sweep, co, stats)) => {
                report.counts.add_store(&stats);
                report.counts.hit_ops += u64::from(stats.misses == 0);
                let same = serde_json::to_string(&sweep)? == reference.sweep_json(w)
                    && serde_json::to_string(&co)? == reference.co_json(&engine, &mix)?;
                // the sweep and the mix must both be new to the store
                if same && stats.corrupt == 0 && stats.misses == 2 && delta.guest_instr == 0 {
                    OpResult::Ok
                } else {
                    eprintln!(
                        "warm op {i}: same={same} corrupt={} misses={} guest_instr={}",
                        stats.corrupt, stats.misses, delta.guest_instr
                    );
                    OpResult::WrongAnswer
                }
            }
            Err(e) => {
                eprintln!("warm op {i}: {e}");
                OpResult::Error
            }
        };
        report.tally.record(result);
    }
    report.summary = Summary::of_ops(&report.op_ms);
    report.peak_rss_mb = median(&peaks);

    if args.trace {
        // the traced ops keep their own store, warmed through the same layers
        let traced_dir = work.fresh("traced-store")?;
        layers::cold_op(0, &engine, &suite, &traced_dir, &equal)?;
        spans::enable();
        let start = Instant::now();
        for op in 0.. {
            let w = op as usize % suite.len();
            if w == 0 && start.elapsed() >= traced {
                break;
            }
            let mix = mixes.next_mix(suite.len());
            layers::purge_sweeps(&traced_dir)?;
            let before = Globals::now();
            let t = Instant::now();
            let outcome = spans::op(op, || {
                layers::warm_op(op, &engine, &suite, &traced_dir, w, &mix)
            });
            report.traced_ms.push(ms(t.elapsed()));
            let guest_instr = Globals::now().since(before).guest_instr;
            let result = match outcome {
                Ok((sweep, co))
                    if guest_instr == 0
                        && serde_json::to_string(&sweep)? == reference.sweep_json(w)
                        && serde_json::to_string(&co)? == reference.co_json(&engine, &mix)? =>
                {
                    OpResult::Ok
                }
                Ok(_) => {
                    eprintln!("traced warm op {op}: answer differs from the reference");
                    OpResult::WrongAnswer
                }
                Err(e) => {
                    eprintln!("traced warm op {op}: {e}");
                    OpResult::Error
                }
            };
            report.tally.record(result);
        }
    }
    Ok(report)
}
