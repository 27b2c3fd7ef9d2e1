//! In-memory spans for the traced run: one span per call into a layer's
//! public function, recorded from the benchmark's own code.  Spans are
//! kept in memory and written out when the run ends.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// The enclosing span on the same thread (0 = none).
    pub parent: u64,
    /// The op the call belongs to; spans of one op share it.
    pub op: u64,
    pub thread: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The wall-clock interval of one traced op.
#[derive(Clone, Copy, Debug)]
pub struct OpWindow {
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static OPS: Mutex<Vec<OpWindow>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Start recording.  Until this is called [`span`] only runs its closure.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Run `f` as a call into layer `name` on behalf of `op`.
pub fn span<T>(op: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    let thread = THREAD.with(|t| *t);
    let span = Span {
        id,
        parent,
        op,
        thread,
        name,
        start_ns,
        end_ns,
    };
    SPANS
        .lock()
        .expect("span buffer poisoned by a panicking thread")
        .push(span);
    out
}

/// Run `f` as traced op `op`, recording its wall-clock window.
pub fn op<T>(op: u64, f: impl FnOnce() -> T) -> T {
    let start_ns = now_ns();
    let out = f();
    let window = OpWindow {
        op,
        start_ns,
        end_ns: now_ns(),
    };
    OPS.lock()
        .expect("op buffer poisoned by a panicking thread")
        .push(window);
    out
}

/// Everything recorded so far.
pub fn snapshot() -> (Vec<Span>, Vec<OpWindow>) {
    let spans = SPANS
        .lock()
        .expect("span buffer poisoned by a panicking thread")
        .clone();
    let ops = OPS
        .lock()
        .expect("op buffer poisoned by a panicking thread")
        .clone();
    (spans, ops)
}

/// Per-layer totals over a set of traced ops.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Self time per layer (span time minus its child spans), summed over
    /// every thread: busy time, which can exceed wall time under fan-out.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Wall time of the ops covered by at least one span, over the ops'
    /// wall time.
    pub coverage: f64,
}

pub fn ledger(spans: &[Span], ops: &[OpWindow]) -> Ledger {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut ledger = Ledger::default();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *ledger.self_ms.entry(s.name).or_default() += own as f64 / 1e6;
    }
    let mut by_op: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent == 0) {
        by_op.entry(s.op).or_default().push((s.start_ns, s.end_ns));
    }
    let (mut covered, mut wall) = (0u64, 0u64);
    for w in ops {
        wall += w.end_ns - w.start_ns;
        let mut iv = by_op.remove(&w.op).unwrap_or_default();
        iv.sort_unstable();
        let mut reach = w.start_ns;
        for (start, end) in iv {
            let (start, end) = (start.max(reach), end.min(w.end_ns));
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
    }
    ledger.coverage = if wall == 0 {
        0.0
    } else {
        covered as f64 / wall as f64
    };
    ledger
}

/// Write the spans and op windows as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span], ops: &[OpWindow]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for w in ops {
        writeln!(
            out,
            "{{\"op\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            w.op, w.start_ns, w.end_ns
        )?;
    }
    for s in spans {
        writeln!(
            out,
            "{{\"span\": \"{}\", \"id\": {}, \"parent\": {}, \"op\": {}, \"thread\": {}, \
             \"start_ns\": {}, \"end_ns\": {}}}",
            s.name, s.id, s.parent, s.op, s.thread, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, op: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op,
            thread: 1,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_excludes_children_and_coverage_merges_overlaps() {
        let ms = 1_000_000;
        let spans = [
            sp(1, 0, 7, "replay.sweep", 0, 10 * ms),
            sp(2, 1, 7, "codec.segment_load", 2 * ms, 5 * ms),
            // a second worker overlapping the first
            sp(3, 0, 7, "sim.capture", 5 * ms, 15 * ms),
        ];
        let ops = [OpWindow {
            op: 7,
            start_ns: 0,
            end_ns: 20 * ms,
        }];
        let l = ledger(&spans, &ops);
        assert_eq!(l.self_ms["replay.sweep"], 7.0);
        assert_eq!(l.self_ms["codec.segment_load"], 3.0);
        assert_eq!(l.self_ms["sim.capture"], 10.0);
        assert_eq!(
            l.coverage, 0.75,
            "0..15 ms of a 20 ms op is inside some span"
        );
    }
}
