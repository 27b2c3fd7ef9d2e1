//! `cold_campaign`: the paper's whole pipeline on a fresh, empty store per
//! op — guest simulation, the store's write side and the heaviest replay
//! work (cost tables and sweeps for every workload).

use std::time::Instant;

use autoreconf::{ArtifactStore, Campaign};

use crate::layers::{self, Engine, Reference, Res};
use crate::stats::{median, OpResult, Summary};
use crate::{
    gen, ms, peak_rss_mb, phases, reset_peak_rss, spans, timed_setups, Args, Globals, Report,
    WorkDir,
};

pub fn run(args: &Args, work: &WorkDir) -> Res<Report> {
    let engine = Engine::new();
    let mut report = Report::default();
    let mix = Campaign::equal_mix(4);
    // suite generation plus one untimed warm-up campaign
    let suite = timed_setups(args, &mut report, || {
        let suite = gen::seeded_suite(args.seed);
        let dir = work.fresh("warmup")?;
        engine
            .campaign()
            .with_store_dir(&dir)?
            .session(&suite)?
            .into_result(&mix)?;
        std::fs::remove_dir_all(&dir)?;
        Ok(suite)
    })?;
    let reference = Reference::compute(&engine, &suite)?;
    report.digest = reference.digest();

    let (untraced, traced) = phases(args);
    let mut peaks = Vec::new();
    let start = Instant::now();
    for i in 0.. {
        if start.elapsed() >= untraced {
            break;
        }
        let dir = work.fresh(&format!("cold-{i}"))?;
        reset_peak_rss()?;
        let before = Globals::now();
        let t = Instant::now();
        let outcome = (|| -> Res<_> {
            let campaign = engine.campaign().with_store(ArtifactStore::open(&dir)?);
            let result = campaign.session(&suite)?.into_result(&mix)?;
            let stats = campaign.store().expect("store attached").stats();
            Ok((result, stats))
        })();
        let elapsed = ms(t.elapsed());
        report.counts.globals.add(Globals::now().since(before));
        report.op_ms.push(elapsed);
        peaks.push(peak_rss_mb()?);
        let result = match outcome {
            Ok((result, stats)) => {
                report.counts.add_store(&stats);
                report.counts.hit_ops += u64::from(stats.misses == 0);
                let same = serde_json::to_string(&result)? == reference.result_json;
                if same && stats.corrupt == 0 {
                    OpResult::Ok
                } else {
                    eprintln!("cold op {i}: answer differs from the reference or the store saw corruption");
                    OpResult::WrongAnswer
                }
            }
            Err(e) => {
                eprintln!("cold op {i}: {e}");
                OpResult::Error
            }
        };
        report.tally.record(result);
        std::fs::remove_dir_all(&dir)?;
    }
    report.summary = Summary::of_ops(&report.op_ms);
    report.peak_rss_mb = median(&peaks);

    if args.trace {
        spans::enable();
        let start = Instant::now();
        for op in 0.. {
            if start.elapsed() >= traced {
                break;
            }
            let dir = work.fresh(&format!("traced-{op}"))?;
            let t = Instant::now();
            let outcome = spans::op(op, || layers::cold_op(op, &engine, &suite, &dir, &mix));
            report.traced_ms.push(ms(t.elapsed()));
            let result = match outcome {
                Ok(result) if serde_json::to_string(&result)? == reference.result_json => {
                    OpResult::Ok
                }
                Ok(_) => {
                    eprintln!("traced cold op {op}: answer differs from the reference");
                    OpResult::WrongAnswer
                }
                Err(e) => {
                    eprintln!("traced cold op {op}: {e}");
                    OpResult::Error
                }
            };
            report.tally.record(result);
            std::fs::remove_dir_all(&dir)?;
        }
    }
    Ok(report)
}
