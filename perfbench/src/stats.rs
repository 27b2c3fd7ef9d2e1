//! Latency summaries, op accounting and the result line.

use std::fmt::Write as _;

/// Median of the samples (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    (s[(n - 1) / 2] + s[n / 2]) / 2.0
}

/// The tail rule: the highest nearest-rank percentile, capped at p99, that
/// still has at least ten samples beyond it.  Returns `(percentile,
/// value)`, or `None` when there are too few samples for any tail.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 11 {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    // nearest-rank p99 is index ceil(0.99 n) - 1; index i has n-1-i beyond
    let p99 = (99 * n).div_ceil(100) - 1;
    let i = p99.min(n - 11);
    Some((100.0 * (i + 1) as f64 / n as f64, s[i]))
}

/// The latency and throughput figures of one run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    pub p50_ms: f64,
    pub tail_ms: f64,
    /// Which percentile `tail_ms` is (see [`tail`]).
    pub tail_pct: f64,
    pub ops_per_s: f64,
}

impl Summary {
    /// Ops run one after another: percentiles over every op, and ops per
    /// second of op time.
    pub fn of_ops(op_ms: &[f64]) -> Option<Summary> {
        let (tail_pct, tail_ms) = tail(op_ms)?;
        let busy_s: f64 = op_ms.iter().sum::<f64>() / 1e3;
        Some(Summary {
            p50_ms: median(op_ms),
            tail_ms,
            tail_pct,
            ops_per_s: op_ms.len() as f64 / busy_s,
        })
    }

    /// Concurrent requests over a window of `seconds`: percentiles over
    /// every request, and requests completed per second of the window.
    pub fn of_window(latencies_ms: &[f64], seconds: f64) -> Option<Summary> {
        let (tail_pct, tail_ms) = tail(latencies_ms)?;
        let ops_per_s = latencies_ms.len() as f64 / seconds;
        Some(Summary {
            p50_ms: median(latencies_ms),
            tail_ms,
            tail_pct,
            ops_per_s,
        })
    }

    /// The median of each figure over several summaries.
    pub fn median_of(parts: &[Summary]) -> Option<Summary> {
        let med = |f: fn(&Summary) -> f64| median(&parts.iter().map(f).collect::<Vec<_>>());
        (!parts.is_empty()).then(|| Summary {
            p50_ms: med(|s| s.p50_ms),
            tail_ms: med(|s| s.tail_ms),
            tail_pct: med(|s| s.tail_pct),
            ops_per_s: med(|s| s.ops_per_s),
        })
    }
}

/// How one op ended, as the correctness gate saw it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpResult {
    /// Answered, and the answer matches the store-less reference.
    Ok,
    /// Answered, but the answer differs from the reference.
    WrongAnswer,
    /// Shed by the daemon's in-flight gate.
    Refused,
    /// Any other error.
    Error,
}

/// Ops attempted and failed: every refused, wrong or erroring op counts
/// against the ops attempted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, result: OpResult) {
        self.attempted += 1;
        if result != OpResult::Ok {
            self.failed += 1;
        }
    }
}

/// A metric name as the result line and `BENCHMARK.json` allow it.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The metrics of one run, in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// The benchmark's last line of output.  Panics on a malformed name or a
    /// non-finite value: both are bugs in the benchmark, not results.
    pub fn result_line(&self, correct: bool, tally: Tally) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            tally.attempted, tally.failed
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            assert!(valid_metric_name(name), "bad metric name {name:?}");
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        let ramp = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<_>>();
        assert_eq!(tail(&ramp(10)), None, "ten samples leave no tail");
        // 11 samples: only the lowest has ten beyond it
        assert_eq!(tail(&ramp(11)).map(|t| t.1), Some(1.0));
        // 28 samples (a cold-campaign run): index 17, p64
        let (p, v) = tail(&ramp(28)).unwrap();
        assert_eq!(v, 18.0);
        assert!((p - 100.0 * 18.0 / 28.0).abs() < 1e-12);
        // 3000 samples: capped at nearest-rank p99, which has 30 beyond it
        let (p, v) = tail(&ramp(3000)).unwrap();
        assert_eq!((p, v), (99.0, 2970.0));
        let beyond = ramp(3000).iter().filter(|&&x| x > v).count();
        assert!(beyond >= 10);
        // order of the input does not matter
        let mut shuffled = ramp(500);
        shuffled.reverse();
        assert_eq!(tail(&shuffled), tail(&ramp(500)));
    }

    #[test]
    fn window_summaries_combine_by_median() {
        let ramp = |n: usize, scale: f64| (1..=n).map(|v| v as f64 * scale).collect::<Vec<_>>();
        let calm = Summary::of_window(&ramp(20, 1.0), 2.0).unwrap();
        assert_eq!(
            calm,
            Summary {
                p50_ms: 10.5,
                tail_ms: 10.0,
                tail_pct: 50.0,
                ops_per_s: 10.0
            }
        );
        // one noisy window out of three does not move any figure
        let noisy = Summary::of_window(&ramp(40, 100.0), 2.0).unwrap();
        assert_eq!(Summary::median_of(&[calm, noisy, calm]), Some(calm));
        assert_eq!(Summary::median_of(&[]), None);
        assert_eq!(
            Summary::of_window(&ramp(5, 1.0), 2.0),
            None,
            "too few for a tail"
        );
    }

    #[test]
    fn ops_summary_counts_ops_per_second_of_op_time() {
        let s = Summary::of_ops(&[100.0; 20]).unwrap();
        assert_eq!((s.p50_ms, s.tail_ms, s.ops_per_s), (100.0, 100.0, 10.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn refused_and_wrong_answers_count_against_attempted() {
        let mut t = Tally::default();
        for r in [
            OpResult::Ok,
            OpResult::Refused,
            OpResult::Ok,
            OpResult::WrongAnswer,
            OpResult::Error,
        ] {
            t.record(r);
        }
        assert_eq!(
            t,
            Tally {
                attempted: 5,
                failed: 3
            }
        );
    }

    #[test]
    fn metric_names_are_checked() {
        for good in ["op_p50_ms", "sim.capture_ms", "setup_s", "a-b.c_1"] {
            assert!(valid_metric_name(good), "{good}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "ms\"", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let mut m = Metrics::default();
        m.put("op_p50_ms", 352.123456789012, "ms");
        m.put("ops_per_s", 3.0, "1/s");
        let line = m.result_line(
            true,
            Tally {
                attempted: 4,
                failed: 0,
            },
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\"op_p50_ms\": \
             {\"value\": 352.123456789012, \"unit\": \"ms\"}, \"ops_per_s\": {\"value\": 3.0, \
             \"unit\": \"1/s\"}}}"
        );
    }
}
