//! Trace capture and replay retiming.
//!
//! The measurement phase of the paper (Section 3) evaluates ~52 one-at-a-time
//! perturbations per application, and the Figure 2 study exhaustively sweeps
//! the d-cache geometry.  In an in-order, blocking LEON2 model, cache and
//! timing perturbations cannot change the instruction or memory-address
//! stream — only how many cycles each event costs.  So the stream only has to
//! be produced once: the first functional run records a compact execution
//! trace, and every perturbation is retimed by [`replay`] — no decode, no
//! ALU, no architectural state.
//!
//! # What the trace stores
//!
//! * [`Trace::ops`] — one [`TraceOp`] per eventful instruction (loads,
//!   stores, branches, multiplies, window rotations, …), with runs of
//!   event-free sequential fetches inside one 16-byte block (the minimum
//!   line size, so "same cache line" holds under every valid geometry)
//!   run-length compressed into a single record;
//! * [`Trace::folded`] — just the data-cache-relevant stream, with
//!   guaranteed hits pre-folded into run counts: load/store effective
//!   addresses and `save`/`restore` markers with their (architecturally
//!   configuration-independent) stack pointers;
//! * [`Trace::segments`] — per-segment checkpoints, so each segment of both
//!   streams can be decoded and walked on its own;
//! * [`Trace::summary`] — configuration-independent event *counts*;
//! * the capturing configuration and its cache statistics.
//!
//! # How replay retimes a configuration
//!
//! There is one replay engine: a batch of configurations is partitioned
//! into behavior classes ([`ReplayBatch`]), each stream is walked once for
//! all of its classes, segment by segment, and every configuration is
//! reconstructed closed-form.  [`replay`] is a batch of one.  Total cycles
//! decompose into `Σ events × cost(event, config)`, and only cache hit/miss
//! behaviour needs stateful re-simulation:
//!
//! 1. **i-cache**: if the replayed i-cache geometry equals the capturing
//!    one, its statistics are reused verbatim; otherwise the fetch stream in
//!    `ops` is re-walked through a lean cache model.
//! 2. **d-cache + window traps**: if both the d-cache geometry and the
//!    register-window count match, the captured statistics are reused;
//!    otherwise `folded` is re-walked — a resident-window automaton
//!    re-derives overflow/underflow traps for the window count under
//!    evaluation and expands each trap into its 16 spill/fill accesses.
//! 3. **everything else** (latency options, decode/jump/interlock, fast
//!    read/write, multiplier/divider, memory timing) is closed-form
//!    arithmetic over [`TraceSummary`] — O(1).
//!
//! Segments come from one of two sources — borrowed slices of an in-memory
//! [`Trace`] ([`replay_batch`]) or verified loads from a serialised trace
//! ([`StreamedTrace`], [`replay_batch_streamed`]) — and everything past the
//! source is shared.
//!
//! Replay is bit-identical to full simulation — same final `cycles` and
//! cache statistics — which `tests/replay_equivalence.rs` asserts across the
//! benchmark suite × a grid of perturbations.  The `max_cycles` budget is a
//! bound on the run *total* in both engines: a run first pushed past the
//! budget by its very last instruction errors identically here and in
//! [`crate::Cpu::run`] (see `budget_boundary_is_identical_to_simulation`).
//!
//! Traces are plain data (`Send + Sync`): one captured trace is shared
//! read-only by every replay worker of a measurement campaign.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::cache::{CacheStats, TagCache};
use crate::config::{CacheConfig, LeonConfig};
use crate::error::SimError;
use crate::hash::checksum64;
use crate::profiler::Stats;

/// Process-wide count of trace-stream walks: one tick per pass over a trace's
/// record or memory stream, for however many behavior classes the pass
/// re-simulates at once.  Closed-form retimes never walk and never tick.
///
/// This is the batched engine's headline counter, next to
/// `workloads::guest_instructions_executed` and
/// `workloads::trace_payload_bytes_read`: a batched 52-variable cost-table
/// measurement must perform at most one walk per distinct behavior class —
/// and exactly one pass per stream when the classes are not partitioned
/// across workers — which `tests/batch_walk_budget.rs` asserts against
/// deltas of this counter.
static TRACE_WALKS: AtomicU64 = AtomicU64::new(0);

/// Total trace-stream walks performed so far by this process.  Monotonic;
/// compare deltas rather than resetting, so concurrent measurements cannot
/// clobber each other.
pub fn trace_walks_performed() -> u64 {
    TRACE_WALKS.load(Ordering::Relaxed)
}

/// Record one pass over a trace stream.
fn record_trace_walk() {
    TRACE_WALKS.fetch_add(1, Ordering::Relaxed);
}

/// Process-wide count of trace *segments* walked: one tick per segment
/// processed by a memory or fetch walk, whichever driver runs it.  A full span walk over
/// a trace with S segments ticks this S times (and [`TRACE_WALKS`] once), so
/// the segment-level budget of a batched measurement is
/// `classes × segments`, and a fused Figure 2 memory pass is exactly
/// `segments` — `tests/batch_walk_budget.rs` asserts both against deltas of
/// this counter.
static TRACE_SEGMENTS: AtomicU64 = AtomicU64::new(0);

/// Total trace segments walked so far by this process.  Monotonic; compare
/// deltas, as with [`trace_walks_performed`].
pub fn trace_segments_walked() -> u64 {
    TRACE_SEGMENTS.load(Ordering::Relaxed)
}

/// Record one segment processed by a span walker.
fn record_segment_walk() {
    TRACE_SEGMENTS.fetch_add(1, Ordering::Relaxed);
}

/// Flag bits of one [`TraceOp`].  A bit records that the *event occurred* in
/// the instruction stream; whether and how many cycles it costs is decided at
/// replay time from the configuration under evaluation.  A record with no
/// flag bits is a compressed run of `aux` event-free sequential fetches.
pub mod flags {
    /// The instruction uses a slow-decode format (`sethi`/`save`/`restore`/
    /// `jmpl`); costs one extra cycle unless fast decode is enabled.
    pub const SLOW_DECODE: u16 = 1 << 0;
    /// The instruction consumes the destination of the immediately preceding
    /// load (load-use interlock); costs `load_delay` cycles.
    pub const LOAD_USE: u16 = 1 << 1;
    /// A conditional branch immediately following an icc-setting instruction;
    /// costs one cycle when the ICC-hold interlock is configured.
    pub const ICC_BRANCH: u16 = 1 << 2;
    /// Hardware multiply.
    pub const MUL: u16 = 1 << 3;
    /// Hardware divide.
    pub const DIV: u16 = 1 << 4;
    /// Memory load; `aux` holds the effective address.
    pub const LOAD: u16 = 1 << 5;
    /// Memory store; `aux` holds the effective address.
    pub const STORE: u16 = 1 << 6;
    /// Conditional branch.
    pub const BRANCH: u16 = 1 << 7;
    /// The branch was taken (fetch refill cycle).
    pub const TAKEN: u16 = 1 << 8;
    /// Call or indirect jump (`call`/`jmpl` address-generation cycles).
    pub const CALL: u16 = 1 << 9;
    /// Register-window rotation forward (`save`); `aux` holds the
    /// (architectural, configuration-independent) post-save stack pointer a
    /// spill would write through.
    pub const SAVE: u16 = 1 << 10;
    /// Register-window rotation backward (`restore`); `aux` holds the
    /// post-restore stack pointer a fill would read through.
    pub const RESTORE: u16 = 1 << 11;
}

/// One trace record: a single eventful instruction, or a compressed run of
/// event-free sequential fetches when `flags == 0`.
///
/// 12 bytes per record: the fetch address (for the i-cache), an event
/// bitmask, and one auxiliary word (load/store effective address, save/
/// restore stack pointer, or the run length of a compressed fetch run).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceOp {
    /// Program counter of the (first) fetch.
    pub pc: u32,
    /// Event bits from [`flags`]; `0` marks a compressed fetch run.
    pub flags: u16,
    /// Effective address (loads/stores), trap stack pointer (save/restore),
    /// or run length in instructions (compressed fetch runs).
    pub aux: u32,
}

impl TraceOp {
    /// A single event-free fetch (a run of length 1).
    pub fn fetch(pc: u32) -> TraceOp {
        TraceOp { pc, flags: 0, aux: 1 }
    }

    /// Dynamic instructions this record retires.
    pub fn instructions(&self) -> u64 {
        if self.flags == 0 {
            self.aux as u64
        } else {
            1
        }
    }
}

/// Configuration-independent event counts of a captured run: everything the
/// cycle model charges for, minus the cache behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Dynamic instructions.
    pub instructions: u64,
    /// Instructions with a slow-decode format.
    pub slow_decode: u64,
    /// Load-use interlock occurrences.
    pub load_use: u64,
    /// Branches immediately following an icc-setting instruction.
    pub icc_branch: u64,
    /// Hardware multiplies.
    pub mul_ops: u64,
    /// Hardware divides.
    pub div_ops: u64,
    /// Loads.
    pub loads: u64,
    /// Stores.
    pub stores: u64,
    /// Conditional branches.
    pub branches: u64,
    /// Taken conditional branches.
    pub taken_branches: u64,
    /// Calls and indirect jumps.
    pub calls: u64,
    /// `save` rotations.
    pub saves: u64,
    /// `restore` rotations.
    pub restores: u64,
}

/// Target number of records per trace segment (the "fixed-size-ish" cut):
/// large enough that per-segment checkpoint and index overhead is noise,
/// small enough that a large trace yields dozens of independently walkable
/// units for intra-trace parallelism.
pub const SEGMENT_TARGET_OPS: usize = 1 << 16;

/// Marker flag of a folded-stream item (bit 63): the item is a
/// `save`/`restore` window rotation, not a load/store run leader.
const FOLD_MARKER_BIT: u64 = 1 << 63;

/// On a marker item: set for `restore`, clear for `save`.  The low 32 bits
/// hold the (configuration-independent) trap stack pointer either way.
const FOLD_RESTORE_BIT: u64 = 1 << 32;

/// [`SegmentMeta::fold_carry`] sentinel: no fold was in flight at the
/// segment boundary.  A real carry is a 16-byte line number (`addr >> 4`,
/// at most `2^28 - 1`), so the sentinel is unambiguous.
const FOLD_NONE: u32 = u32::MAX;

/// Per-segment entry checkpoint of a [`Trace`]: everything needed to decode
/// and walk one segment without touching its predecessors.  Deliberately
/// cache-independent — cache tag state chains through the span walkers — the
/// checkpoint pins the *stream* state at segment entry: per-stream record
/// offsets, the retired-instruction (cycle-offset) prefix, the capturing
/// configuration's resident-window automaton state, and the capture-fold
/// run-compression carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentMeta {
    /// First record of this segment in [`Trace::ops`].
    pub ops_start: usize,
    /// First item of this segment in [`Trace::folded`].
    pub folded_start: usize,
    /// Dynamic instructions retired before this segment (the segment's
    /// configuration-independent cycle/instruction offset).
    pub instructions_before: u64,
    /// Resident-window automaton state at segment entry *on the capturing
    /// configuration* (format completeness; replay automata for other window
    /// counts chain through the span walkers).
    pub resident_entry: u32,
    /// 16-byte line a capture-time fold would have continued across this
    /// boundary ([`FOLD_NONE`] when none): stored folds are split at every
    /// boundary so segments decode independently, and the carry records what
    /// was split.
    pub fold_carry: u32,
}

/// Build the segment checkpoints and the capture-folded memory stream for a
/// record stream cut at `boundaries` (record indices; first must be 0,
/// strictly increasing, all within the stream).
///
/// The folded stream is the capture-side pre-computation of the batched
/// walk's guaranteed-hit elision: an access that strictly-consecutively
/// follows a **read** of its own 16-byte line folds into the leader's run
/// count (a write never establishes presence, so write leaders carry no
/// run).  Stored folds split at every `save`/`restore` marker — whether the
/// marker traps depends on the replayed window count, so folding across it
/// would be unsound — and at every segment boundary, so each segment's items
/// stand alone; the walk re-folds across non-trapping markers at run time,
/// recovering the monolithic elision exactly.
fn derive_segments(
    ops: &[TraceOp],
    boundaries: &[usize],
    nwindows: u32,
) -> (Vec<SegmentMeta>, Vec<u64>) {
    let mut segments = Vec::with_capacity(boundaries.len());
    let mut folded: Vec<u64> = Vec::new();
    let mut instructions = 0u64;
    let mut resident: u32 = 1;
    let mut run_line: Option<u32> = None;

    for (index, &start) in boundaries.iter().enumerate() {
        let end = boundaries.get(index + 1).copied().unwrap_or(ops.len());
        segments.push(SegmentMeta {
            ops_start: start,
            folded_start: folded.len(),
            instructions_before: instructions,
            resident_entry: resident,
            fold_carry: run_line.unwrap_or(FOLD_NONE),
        });
        // a stored fold never crosses a segment boundary, so `folded_start`
        // always aligns with `ops_start` (the split is recorded as the carry)
        run_line = None;
        for op in &ops[start..end] {
            instructions += op.instructions();
            if op.flags == 0 {
                continue;
            }
            fold_op(&mut folded, &mut run_line, op);
            if op.flags & flags::SAVE != 0 && resident < nwindows - 1 {
                resident += 1;
            }
            if op.flags & flags::RESTORE != 0 && resident > 1 {
                resident -= 1;
            }
        }
    }
    (segments, folded)
}

/// Append one record's folded items to `folded` — the one spelling of the
/// folded format, shared by [`derive_segments`] and the streamed segment
/// cross-check: its load and store, then its `save`/`restore` marker, which
/// closes the open read run whose line is `run_line`.
#[inline(always)]
fn fold_op(folded: &mut Vec<u64>, run_line: &mut Option<u32>, op: &TraceOp) {
    if op.flags & flags::LOAD != 0 {
        fold_access(folded, run_line, op.aux, false);
    }
    if op.flags & flags::STORE != 0 {
        fold_access(folded, run_line, op.aux, true);
    }
    if op.flags & flags::SAVE != 0 {
        folded.push(FOLD_MARKER_BIT | op.aux as u64);
        *run_line = None;
    }
    if op.flags & flags::RESTORE != 0 {
        folded.push(FOLD_MARKER_BIT | FOLD_RESTORE_BIT | op.aux as u64);
        *run_line = None;
    }
}

/// Fold one memory access into `folded`: extend the open read run of its
/// 16-byte line, or lead a new item (a write never opens a run).
#[inline(always)]
fn fold_access(folded: &mut Vec<u64>, run_line: &mut Option<u32>, addr: u32, write: bool) {
    if *run_line == Some(addr >> 4) {
        *folded.last_mut().expect("a run leader precedes every extension") +=
            1 << TagCache::MEM_RUN_SHIFT;
    } else {
        folded.push(addr as u64 | if write { TagCache::WRITE_BIT } else { 0 });
        *run_line = (!write).then_some(addr >> 4);
    }
}

/// A captured execution trace: the full timing-relevant event stream of one
/// program run, independent of every Figure 1 parameter (including the
/// register-window count — window traps are re-derived at replay time).
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// Per-instruction records with fetch-run compression, in execution order.
    pub ops: Vec<TraceOp>,
    /// The capture-folded data-cache/window event stream, in execution
    /// order: one item per load/store run leader or window marker (see
    /// [`derive_segments`]), segment-aligned.
    pub folded: Vec<u64>,
    /// Segment checkpoints, in segment order ([`SegmentMeta`]); every trace
    /// with records has at least one segment.
    pub segments: Vec<SegmentMeta>,
    /// Configuration-independent event counts.
    pub summary: TraceSummary,
    /// The configuration the trace was captured on.
    pub captured: LeonConfig,
    /// I-cache statistics of the capturing run (reused verbatim when the
    /// replayed i-cache geometry matches).
    pub base_icache: CacheStats,
    /// D-cache statistics of the capturing run (include window-trap traffic).
    pub base_dcache: CacheStats,
    /// Window overflow traps of the capturing run.
    pub base_overflows: u64,
    /// Window underflow traps of the capturing run.
    pub base_underflows: u64,
}

impl Trace {
    /// Number of records (compressed runs count once).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Dynamic instruction count of the captured run.
    pub fn instructions(&self) -> u64 {
        self.summary.instructions
    }

    /// Approximate in-memory footprint of the trace buffers, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.ops.len() * std::mem::size_of::<TraceOp>()
            + self.folded.len() * std::mem::size_of::<u64>()
            + self.segments.len() * std::mem::size_of::<SegmentMeta>()
    }

    /// Number of segments (0 only for an empty trace).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Record range of segment `seg` in [`Trace::ops`].
    fn ops_range(&self, seg: usize) -> Range<usize> {
        let start = self.segments[seg].ops_start;
        let end = self.segments.get(seg + 1).map_or(self.ops.len(), |s| s.ops_start);
        start..end
    }

    /// Item range of segment `seg` in [`Trace::folded`].
    fn folded_range(&self, seg: usize) -> Range<usize> {
        let start = self.segments[seg].folded_start;
        let end = self.segments.get(seg + 1).map_or(self.folded.len(), |s| s.folded_start);
        start..end
    }

    /// `true` when `boundaries` is a valid segmentation of `records` records:
    /// empty for an empty trace, otherwise starting at 0, strictly
    /// increasing, and within the stream.
    fn valid_boundaries(records: usize, boundaries: &[usize]) -> bool {
        if records == 0 {
            return boundaries.is_empty();
        }
        boundaries.first() == Some(&0)
            && boundaries.windows(2).all(|w| w[0] < w[1])
            && boundaries.iter().all(|&b| b < records)
    }

    /// The default segmentation: a cut every [`SEGMENT_TARGET_OPS`] records.
    fn default_boundaries(records: usize) -> Vec<usize> {
        (0..records).step_by(SEGMENT_TARGET_OPS).collect()
    }

    /// Re-cut the trace at the given record boundaries (first must be 0,
    /// strictly increasing, all `< ops.len()`; empty only for an empty
    /// trace), rebuilding the segment checkpoints and the capture-folded
    /// stream.  Replay results are independent of the segmentation — the
    /// segmented-replay proptest exercises exactly this API.
    ///
    /// # Panics
    ///
    /// Panics when `boundaries` is not a valid segmentation.
    pub fn resegment_at(&mut self, boundaries: &[usize]) {
        assert!(
            Trace::valid_boundaries(self.ops.len(), boundaries),
            "segment boundaries must start at 0, increase strictly and stay in-range"
        );
        let (segments, folded) =
            derive_segments(&self.ops, boundaries, self.captured.iu.reg_windows as u32);
        self.segments = segments;
        self.folded = folded;
    }

    /// Count the configuration-independent events of a raw record stream.
    ///
    /// The summary is a pure function of `ops`: a decoded trace re-derives
    /// it here and checks it against the stored one, so an internally
    /// inconsistent (ops vs. summary) trace is unrepresentable.
    fn derive_summary(ops: &[TraceOp]) -> TraceSummary {
        let mut summary = TraceSummary::default();
        for op in ops {
            let f = op.flags;
            if f == 0 {
                summary.instructions += op.aux as u64;
                continue;
            }
            summary.instructions += 1;
            summary.slow_decode += (f & flags::SLOW_DECODE != 0) as u64;
            summary.load_use += (f & flags::LOAD_USE != 0) as u64;
            summary.icc_branch += (f & flags::ICC_BRANCH != 0) as u64;
            summary.mul_ops += (f & flags::MUL != 0) as u64;
            summary.div_ops += (f & flags::DIV != 0) as u64;
            summary.branches += (f & flags::BRANCH != 0) as u64;
            summary.taken_branches += (f & flags::TAKEN != 0) as u64;
            summary.calls += (f & flags::CALL != 0) as u64;
            summary.loads += (f & flags::LOAD != 0) as u64;
            summary.stores += (f & flags::STORE != 0) as u64;
            summary.saves += (f & flags::SAVE != 0) as u64;
            summary.restores += (f & flags::RESTORE != 0) as u64;
        }
        summary
    }

    /// Build the derived data (summary, segments, folded stream) from a raw
    /// record stream and the capturing run's results.
    fn assemble(ops: Vec<TraceOp>, captured: &LeonConfig, stats: &Stats) -> Trace {
        let summary = Trace::derive_summary(&ops);
        debug_assert_eq!(summary.instructions, stats.instructions);
        debug_assert_eq!(summary.loads, stats.loads);
        debug_assert_eq!(summary.stores, stats.stores);
        debug_assert_eq!(summary.branches, stats.branches);
        let boundaries = Trace::default_boundaries(ops.len());
        let (segments, folded) =
            derive_segments(&ops, &boundaries, captured.iu.reg_windows as u32);
        Trace {
            ops,
            folded,
            segments,
            summary,
            captured: *captured,
            base_icache: stats.icache,
            base_dcache: stats.dcache,
            base_overflows: stats.window_overflows,
            base_underflows: stats.window_underflows,
        }
    }
}

// ---------------------------------------------------------------------------
// Versioned binary serialization
// ---------------------------------------------------------------------------

/// Version number of the binary trace format produced by [`Trace::to_bytes`].
///
/// Bump this whenever the record layout, the captured-configuration encoding
/// or the semantics of any serialised field change: persisted traces carry
/// the version they were written with, and every decoder refuses any other
/// version, so stale artifacts fall back to recapture instead of silently
/// mis-replaying.  In this version every byte is covered by exactly one
/// [`checksum64`]: the header checksum (over the header and segment index)
/// or its segment's checksum.
pub const TRACE_FORMAT_VERSION: u32 = 3;

/// Magic bytes opening every serialised trace.
const TRACE_MAGIC: [u8; 4] = *b"LTRC";

/// Serialised byte length of the fixed prefix (everything before the
/// segment index): magic, version, config, base stats, trap counts, record
/// count, summary, folded count, segment count.
const PREFIX_LEN: usize = 252;

/// Error decoding a serialised trace (wrong magic/version, checksum
/// mismatch, truncation, or a malformed field).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceCodecError(String);

impl TraceCodecError {
    fn new(message: impl Into<String>) -> TraceCodecError {
        TraceCodecError(message.into())
    }
}

impl std::fmt::Display for TraceCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace decode error: {}", self.0)
    }
}

impl std::error::Error for TraceCodecError {}

/// Writer for the header's fixed-width fields (records use the bulk codec).
struct ByteWriter(Vec<u8>);

impl ByteWriter {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
}

/// Bounds-checked reader for the header's fixed-width fields.
struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], TraceCodecError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| TraceCodecError::new("unexpected end of input"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }
    fn u8(&mut self) -> Result<u8, TraceCodecError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, TraceCodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, TraceCodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn bool(&mut self) -> Result<bool, TraceCodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(TraceCodecError::new(format!("invalid bool byte {other}"))),
        }
    }
}

/// Encode records at 10 bytes apiece (`pc`, `flags`, `aux`, little-endian)
/// into `out`, which holds exactly `ops.len() * 10` bytes.
fn encode_ops(out: &mut [u8], ops: &[TraceOp]) {
    for (c, op) in out.chunks_exact_mut(10).zip(ops) {
        c[0..4].copy_from_slice(&op.pc.to_le_bytes());
        c[4..6].copy_from_slice(&op.flags.to_le_bytes());
        c[6..10].copy_from_slice(&op.aux.to_le_bytes());
    }
}

/// Encode folded items at 8 bytes apiece into `out`.
fn encode_folded(out: &mut [u8], items: &[u64]) {
    for (c, item) in out.chunks_exact_mut(8).zip(items) {
        c.copy_from_slice(&item.to_le_bytes());
    }
}

/// Decode one 10-byte record.
#[inline(always)]
fn decode_op(c: &[u8]) -> TraceOp {
    TraceOp {
        pc: u32::from_le_bytes(c[0..4].try_into().unwrap()),
        flags: u16::from_le_bytes(c[4..6].try_into().unwrap()),
        aux: u32::from_le_bytes(c[6..10].try_into().unwrap()),
    }
}

/// Append the 10-byte records in `bytes` to `ops`.
fn decode_ops(bytes: &[u8], ops: &mut Vec<TraceOp>) {
    ops.extend(bytes.chunks_exact(10).map(decode_op));
}

/// The 8-byte folded items in `bytes`.
fn decode_folded(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap()))
}

fn encode_cache_config(w: &mut ByteWriter, c: &CacheConfig) {
    w.u8(c.ways);
    w.u32(c.way_kb);
    w.u8(c.line_words);
    w.u8(match c.replacement {
        crate::config::ReplacementPolicy::Random => 0,
        crate::config::ReplacementPolicy::Lrr => 1,
        crate::config::ReplacementPolicy::Lru => 2,
    });
}

fn decode_cache_config(r: &mut ByteReader) -> Result<CacheConfig, TraceCodecError> {
    Ok(CacheConfig {
        ways: r.u8()?,
        way_kb: r.u32()?,
        line_words: r.u8()?,
        replacement: match r.u8()? {
            0 => crate::config::ReplacementPolicy::Random,
            1 => crate::config::ReplacementPolicy::Lrr,
            2 => crate::config::ReplacementPolicy::Lru,
            other => {
                return Err(TraceCodecError::new(format!("invalid replacement tag {other}")))
            }
        },
    })
}

fn encode_config(w: &mut ByteWriter, c: &LeonConfig) {
    encode_cache_config(w, &c.icache);
    encode_cache_config(w, &c.dcache);
    w.u8(c.dcache_fast_read as u8);
    w.u8(c.dcache_fast_write as u8);
    w.u8(c.iu.fast_jump as u8);
    w.u8(c.iu.icc_hold as u8);
    w.u8(c.iu.fast_decode as u8);
    w.u8(c.iu.load_delay);
    w.u8(c.iu.reg_windows);
    w.u8(match c.iu.divider {
        crate::config::Divider::Radix2 => 0,
        crate::config::Divider::None => 1,
    });
    let mul = crate::config::Multiplier::ALL
        .iter()
        .position(|&m| m == c.iu.multiplier)
        .expect("every multiplier variant is listed in Multiplier::ALL");
    w.u8(mul as u8);
    w.u8(c.synthesis.infer_mult_div as u8);
    w.u32(c.memory.read_first);
    w.u32(c.memory.read_burst);
    w.u32(c.memory.write);
    w.u32(c.clock_mhz);
}

fn decode_config(r: &mut ByteReader) -> Result<LeonConfig, TraceCodecError> {
    let icache = decode_cache_config(r)?;
    let dcache = decode_cache_config(r)?;
    let dcache_fast_read = r.bool()?;
    let dcache_fast_write = r.bool()?;
    let fast_jump = r.bool()?;
    let icc_hold = r.bool()?;
    let fast_decode = r.bool()?;
    let load_delay = r.u8()?;
    let reg_windows = r.u8()?;
    let divider = match r.u8()? {
        0 => crate::config::Divider::Radix2,
        1 => crate::config::Divider::None,
        other => return Err(TraceCodecError::new(format!("invalid divider tag {other}"))),
    };
    let mul_tag = r.u8()? as usize;
    let multiplier = *crate::config::Multiplier::ALL
        .get(mul_tag)
        .ok_or_else(|| TraceCodecError::new(format!("invalid multiplier tag {mul_tag}")))?;
    let infer_mult_div = r.bool()?;
    let memory = crate::config::MemoryTiming {
        read_first: r.u32()?,
        read_burst: r.u32()?,
        write: r.u32()?,
    };
    let clock_mhz = r.u32()?;
    Ok(LeonConfig {
        icache,
        dcache,
        dcache_fast_read,
        dcache_fast_write,
        iu: crate::config::IuConfig {
            fast_jump,
            icc_hold,
            fast_decode,
            load_delay,
            reg_windows,
            divider,
            multiplier,
        },
        synthesis: crate::config::SynthesisConfig { infer_mult_div },
        memory,
        clock_mhz,
    })
}

fn encode_cache_stats(w: &mut ByteWriter, s: &CacheStats) {
    w.u64(s.read_hits);
    w.u64(s.read_misses);
    w.u64(s.write_hits);
    w.u64(s.write_misses);
}

fn decode_cache_stats(r: &mut ByteReader) -> Result<CacheStats, TraceCodecError> {
    Ok(CacheStats {
        read_hits: r.u64()?,
        read_misses: r.u64()?,
        write_hits: r.u64()?,
        write_misses: r.u64()?,
    })
}

/// One entry of the serialised segment index: the [`SegmentMeta`]
/// checkpoint plus where the segment's payload lives and its integrity
/// checksum, so a streaming reader can locate, fetch and verify any segment
/// independently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentInfo {
    /// First record of the segment in the record stream.
    pub ops_start: u64,
    /// First item of the segment in the folded stream.
    pub folded_start: u64,
    /// Dynamic instructions retired before the segment.
    pub instructions_before: u64,
    /// Capture-config resident-window automaton state at entry.
    pub resident_entry: u32,
    /// Run-compression carry split at the boundary ([`FOLD_NONE`] if none).
    pub fold_carry: u32,
    /// Byte offset of the segment's payload, relative to the start of the
    /// payload region (just after the header checksum).
    pub payload_offset: u64,
    /// [`checksum64`] over the segment's payload bytes.
    pub checksum: u64,
}

/// Serialised size of one [`SegmentInfo`] index entry.
const SEGMENT_INFO_LEN: usize = 48;

/// The decoded header of a serialised trace — every field covered by the
/// header checksum — available without touching the record payload (see
/// [`Trace::peek_header`]).
#[derive(Clone, Debug, PartialEq)]
pub struct TraceHeader {
    /// The configuration the trace was captured on.
    pub captured: LeonConfig,
    /// I-cache statistics of the capturing run.
    pub base_icache: CacheStats,
    /// D-cache statistics of the capturing run.
    pub base_dcache: CacheStats,
    /// Window overflow traps of the capturing run.
    pub base_overflows: u64,
    /// Window underflow traps of the capturing run.
    pub base_underflows: u64,
    /// Number of trace records in the (unread) record stream.
    pub records: u64,
    /// Number of items in the folded stream.
    pub folded: u64,
    /// The stored event summary.
    pub summary: TraceSummary,
    /// The segment index.
    pub segments: Vec<SegmentInfo>,
}

fn encode_summary(w: &mut ByteWriter, s: &TraceSummary) {
    for v in [
        s.instructions,
        s.slow_decode,
        s.load_use,
        s.icc_branch,
        s.mul_ops,
        s.div_ops,
        s.loads,
        s.stores,
        s.branches,
        s.taken_branches,
        s.calls,
        s.saves,
        s.restores,
    ] {
        w.u64(v);
    }
}

fn decode_summary(r: &mut ByteReader) -> Result<TraceSummary, TraceCodecError> {
    Ok(TraceSummary {
        instructions: r.u64()?,
        slow_decode: r.u64()?,
        load_use: r.u64()?,
        icc_branch: r.u64()?,
        mul_ops: r.u64()?,
        div_ops: r.u64()?,
        loads: r.u64()?,
        stores: r.u64()?,
        branches: r.u64()?,
        taken_branches: r.u64()?,
        calls: r.u64()?,
        saves: r.u64()?,
        restores: r.u64()?,
    })
}

/// Check the magic and version at the front of a serialised trace of
/// `total` bytes and return the length of its checksummed header (the fixed
/// prefix plus the segment index).  `prefix` holds at least the first
/// `min(total, PREFIX_LEN)` bytes.
fn header_len(prefix: &[u8], total: u64) -> Result<usize, TraceCodecError> {
    if prefix.len() < 8 {
        return Err(TraceCodecError::new("input shorter than the fixed header"));
    }
    if prefix[..4] != TRACE_MAGIC {
        return Err(TraceCodecError::new("bad magic (not a serialised trace)"));
    }
    let version = u32::from_le_bytes(prefix[4..8].try_into().unwrap());
    if version != TRACE_FORMAT_VERSION {
        return Err(TraceCodecError::new(format!(
            "unsupported trace format version {version} (expected {TRACE_FORMAT_VERSION})"
        )));
    }
    if prefix.len() < PREFIX_LEN {
        return Err(TraceCodecError::new("input shorter than the fixed header"));
    }
    let count = u32::from_le_bytes(prefix[PREFIX_LEN - 4..PREFIX_LEN].try_into().unwrap());
    let len = PREFIX_LEN as u64 + count as u64 * SEGMENT_INFO_LEN as u64;
    if len + 8 > total {
        return Err(TraceCodecError::new("segment index does not fit the serialised trace"));
    }
    Ok(len as usize)
}

/// Verify and parse the header of a serialised trace of `total` bytes.
/// `head` holds at least its first `header_len + 8` bytes: the fixed prefix,
/// the segment index and the header checksum.  Returns the header and the
/// offset of the payload region, after checking the checksum, every field
/// and that the index tiles exactly the payload bytes that follow.
fn read_header(head: &[u8], total: u64) -> Result<(TraceHeader, usize), TraceCodecError> {
    let len = header_len(head, total)?;
    let stored = head
        .get(len..len + 8)
        .ok_or_else(|| TraceCodecError::new("input shorter than the header checksum"))?;
    let stored = u64::from_le_bytes(stored.try_into().unwrap());
    let computed = checksum64(&head[..len]);
    if stored != computed {
        return Err(TraceCodecError::new(format!(
            "header checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
        )));
    }

    // magic and version were checked by `header_len`
    let r = &mut ByteReader { bytes: &head[..len], pos: 8 };
    let captured = decode_config(r)?;
    captured
        .validate()
        .map_err(|e| TraceCodecError::new(format!("invalid captured configuration: {e}")))?;
    let base_icache = decode_cache_stats(r)?;
    let base_dcache = decode_cache_stats(r)?;
    let base_overflows = r.u64()?;
    let base_underflows = r.u64()?;
    let records = r.u64()?;
    let summary = decode_summary(r)?;
    let folded = r.u64()?;
    let count = r.u32()? as usize;
    let mut segments = Vec::with_capacity(count);
    for _ in 0..count {
        segments.push(SegmentInfo {
            ops_start: r.u64()?,
            folded_start: r.u64()?,
            instructions_before: r.u64()?,
            resident_entry: r.u32()?,
            fold_carry: r.u32()?,
            payload_offset: r.u64()?,
            checksum: r.u64()?,
        });
    }
    debug_assert_eq!(r.pos, len);
    let header = TraceHeader {
        captured,
        base_icache,
        base_dcache,
        base_overflows,
        base_underflows,
        records,
        folded,
        summary,
        segments,
    };

    let base = len + 8;
    let payload = validate_segment_index(&header)?;
    if base as u64 + payload != total {
        return Err(TraceCodecError::new(format!(
            "record count {} does not match the remaining payload",
            header.records
        )));
    }
    Ok((header, base))
}

/// Byte length of segment `i`'s payload per the index in `header`.
fn segment_payload_len(header: &TraceHeader, i: usize) -> (u64, u64, u64) {
    let info = &header.segments[i];
    let ops_end = header.segments.get(i + 1).map_or(header.records, |s| s.ops_start);
    let folded_end = header.segments.get(i + 1).map_or(header.folded, |s| s.folded_start);
    let recs = ops_end.wrapping_sub(info.ops_start);
    let folded = folded_end.wrapping_sub(info.folded_start);
    (recs, folded, recs.wrapping_mul(10).wrapping_add(folded.wrapping_mul(8)))
}

/// Structurally validate a parsed header's segment index — offsets start at
/// 0 and increase monotonically, per-segment payloads tile the payload
/// region contiguously — and return the total payload byte count the body
/// must still hold.
fn validate_segment_index(header: &TraceHeader) -> Result<u64, TraceCodecError> {
    let segs = &header.segments;
    if header.records == 0 {
        if !segs.is_empty() || header.folded != 0 {
            return Err(TraceCodecError::new("an empty trace must have an empty segment index"));
        }
        return Ok(0);
    }
    if segs.is_empty() {
        return Err(TraceCodecError::new("a non-empty trace must have at least one segment"));
    }
    if segs[0].ops_start != 0 || segs[0].folded_start != 0 || segs[0].payload_offset != 0 {
        return Err(TraceCodecError::new("segment index must start at offset 0"));
    }
    let mut expected_offset: u64 = 0;
    for i in 0..segs.len() {
        let info = &segs[i];
        let ops_end = segs.get(i + 1).map_or(header.records, |s| s.ops_start);
        let folded_end = segs.get(i + 1).map_or(header.folded, |s| s.folded_start);
        if ops_end <= info.ops_start || ops_end > header.records {
            return Err(TraceCodecError::new(format!(
                "segment {i}: record offsets are not strictly increasing"
            )));
        }
        if folded_end < info.folded_start || folded_end > header.folded {
            return Err(TraceCodecError::new(format!(
                "segment {i}: folded offsets are not monotone"
            )));
        }
        if info.payload_offset != expected_offset {
            return Err(TraceCodecError::new(format!(
                "segment {i}: payload offset {} does not tile the payload (expected \
                 {expected_offset})",
                info.payload_offset
            )));
        }
        let (_, _, len) = segment_payload_len(header, i);
        expected_offset = expected_offset
            .checked_add(len)
            .ok_or_else(|| TraceCodecError::new("segment payload sizes overflow"))?;
    }
    Ok(expected_offset)
}

/// Check segment `i`'s payload bytes against the index checksum in `info`.
fn verify_segment(i: usize, info: &SegmentInfo, payload: &[u8]) -> Result<(), TraceCodecError> {
    let computed = checksum64(payload);
    if computed != info.checksum {
        return Err(TraceCodecError::new(format!(
            "segment {i} checksum mismatch: stored {:#018x}, computed {computed:#018x}",
            info.checksum
        )));
    }
    Ok(())
}

impl Trace {
    /// Serialise the trace into the versioned binary format (version 3).
    ///
    /// Layout (all integers little-endian):
    ///
    /// 1. the header: the magic `LTRC`, the [`TRACE_FORMAT_VERSION`], the
    ///    capturing configuration, the capturing run's cache statistics and
    ///    window-trap counts, the record count, the stored
    ///    [`TraceSummary`], the folded-item count, and the segment index
    ///    (one [`SegmentInfo`] per segment, with payload offsets and
    ///    checksums);
    /// 2. the header checksum: [`checksum64`] over the header;
    /// 3. the per-segment payloads, each segment's records at 10 bytes
    ///    apiece followed by its capture-folded items at 8.
    ///
    /// Each byte is covered by exactly one checksum: the header's, or its
    /// segment's (stored in the checksummed index).  The folded stream is
    /// stored, so a streaming decoder can walk a segment without first
    /// re-deriving the guaranteed-hit elision.
    pub fn to_bytes(&self) -> Vec<u8> {
        let header_len = PREFIX_LEN + self.segments.len() * SEGMENT_INFO_LEN;
        let base = header_len + 8;
        let mut out = vec![0u8; base + self.ops.len() * 10 + self.folded.len() * 8];
        let mut locations: Vec<(u64, u64)> = Vec::with_capacity(self.segments.len());
        let mut at = base;
        for seg in 0..self.segments.len() {
            let ops = &self.ops[self.ops_range(seg)];
            let folded = &self.folded[self.folded_range(seg)];
            let end = at + ops.len() * 10 + folded.len() * 8;
            let (recs, items) = out[at..end].split_at_mut(ops.len() * 10);
            encode_ops(recs, ops);
            encode_folded(items, folded);
            locations.push(((at - base) as u64, checksum64(&out[at..end])));
            at = end;
        }

        let mut w = ByteWriter(Vec::with_capacity(header_len));
        w.0.extend_from_slice(&TRACE_MAGIC);
        w.u32(TRACE_FORMAT_VERSION);
        encode_config(&mut w, &self.captured);
        encode_cache_stats(&mut w, &self.base_icache);
        encode_cache_stats(&mut w, &self.base_dcache);
        w.u64(self.base_overflows);
        w.u64(self.base_underflows);
        w.u64(self.ops.len() as u64);
        encode_summary(&mut w, &self.summary);
        w.u64(self.folded.len() as u64);
        w.u32(self.segments.len() as u32);
        for (meta, &(offset, checksum)) in self.segments.iter().zip(&locations) {
            w.u64(meta.ops_start as u64);
            w.u64(meta.folded_start as u64);
            w.u64(meta.instructions_before);
            w.u32(meta.resident_entry);
            w.u32(meta.fold_carry);
            w.u64(offset);
            w.u64(checksum);
        }
        debug_assert_eq!(w.0.len(), header_len);
        out[..header_len].copy_from_slice(&w.0);
        out[header_len..base].copy_from_slice(&checksum64(&w.0).to_le_bytes());
        out
    }

    /// Verify and decode only the header of a serialised trace — O(header +
    /// index) regardless of how many records follow.
    ///
    /// This is the *peek* half of the lazy-materialization contract: a store
    /// layer can check the format version, the capturing configuration and
    /// the record count of a multi-megabyte trace entry without paying the
    /// full decode.  Everything it returns is covered by the verified header
    /// checksum, and the index must tile the input exactly; the record
    /// payload is not read, so a flip there passes `peek_header` and is
    /// caught by its segment's checksum ([`Trace::from_bytes`],
    /// [`Trace::validate_segments`], [`StreamedTrace::load_segment`]).
    pub fn peek_header(bytes: &[u8]) -> Result<TraceHeader, TraceCodecError> {
        read_header(bytes, bytes.len() as u64).map(|(header, _)| header)
    }

    /// Verify a serialised trace without decoding it: the header checksum,
    /// the header fields, the segment index (offset monotonicity, contiguous
    /// payload tiling, total length) and every per-segment payload checksum.
    /// Returns the parsed header.
    ///
    /// Cheaper than [`Trace::from_bytes`] (no record decode, no derived
    /// stream rebuild or cross-check), which makes it the right integrity
    /// pass for `store doctor`: it checks every byte against the one
    /// checksum that covers it, exactly as the streaming reader would.
    pub fn validate_segments(bytes: &[u8]) -> Result<TraceHeader, TraceCodecError> {
        let (header, base) = read_header(bytes, bytes.len() as u64)?;
        let mut at = base;
        for (i, info) in header.segments.iter().enumerate() {
            let (_, _, len) = segment_payload_len(&header, i);
            verify_segment(i, info, &bytes[at..at + len as usize])?;
            at += len as usize;
        }
        Ok(header)
    }

    /// Decode a trace serialised by [`Trace::to_bytes`].
    ///
    /// Fails — rather than ever producing a wrong trace — on a bad magic, a
    /// different format version, a header or segment checksum mismatch,
    /// truncated or trailing bytes, or any malformed field.  On success the
    /// decoded trace is exactly the one serialised (the summary, checkpoints
    /// and folded stream are re-derived from the record stream and checked
    /// against the stored ones).
    pub fn from_bytes(bytes: &[u8]) -> Result<Trace, TraceCodecError> {
        let (header, base) = read_header(bytes, bytes.len() as u64)?;

        // segment payloads tile the region in index order (validated by
        // `read_header`), so a sequential read visits each one exactly
        let mut ops = Vec::with_capacity(header.records as usize);
        let mut stored_folded: Vec<&[u8]> = Vec::with_capacity(header.segments.len());
        let mut at = base;
        for (i, info) in header.segments.iter().enumerate() {
            let (recs, _, len) = segment_payload_len(&header, i);
            let seg_bytes = &bytes[at..at + len as usize];
            verify_segment(i, info, seg_bytes)?;
            let (records, folded) = seg_bytes.split_at(recs as usize * 10);
            decode_ops(records, &mut ops);
            stored_folded.push(folded);
            at += len as usize;
        }

        let summary = Trace::derive_summary(&ops);
        let boundaries: Vec<usize> = header.segments.iter().map(|s| s.ops_start as usize).collect();
        let (segments, folded) =
            derive_segments(&ops, &boundaries, header.captured.iu.reg_windows as u32);

        // the stored derived data (summary, folded stream, checkpoints) must
        // match re-derivation from the record stream: a file can checksum
        // correctly and still be internally inconsistent, and the streaming
        // replay path trusts the stored form without re-deriving it
        if header.summary != summary {
            return Err(TraceCodecError::new("stored summary does not match the record stream"));
        }
        if !stored_folded.iter().flat_map(|b| decode_folded(b)).eq(folded.iter().copied()) {
            return Err(TraceCodecError::new(
                "stored folded stream does not match the record stream",
            ));
        }
        for (i, (meta, info)) in segments.iter().zip(&header.segments).enumerate() {
            if meta.folded_start as u64 != info.folded_start
                || meta.instructions_before != info.instructions_before
                || meta.resident_entry != info.resident_entry
                || meta.fold_carry != info.fold_carry
            {
                return Err(TraceCodecError::new(format!(
                    "segment {i} checkpoint does not match the record stream"
                )));
            }
        }

        Ok(Trace {
            ops,
            folded,
            segments,
            summary,
            captured: header.captured,
            base_icache: header.base_icache,
            base_dcache: header.base_dcache,
            base_overflows: header.base_overflows,
            base_underflows: header.base_underflows,
        })
    }
}

/// Closed-form cycle reconstruction behind every batch's finish (mirrors
/// `Cpu::step`'s charges): given a
/// configuration's cache behaviour and window-trap counts, rebuild the exact
/// [`Stats`] a full run would produce, enforcing the cycle budget as a bound
/// on the run total.
fn reconstruct_stats(
    s: &TraceSummary,
    config: &LeonConfig,
    icache: CacheStats,
    dcache: CacheStats,
    window_overflows: u64,
    window_underflows: u64,
    max_cycles: u64,
) -> Result<Stats, SimError> {
    let m = &config.memory;
    let icache_fill = (m.read_first + (config.icache.line_words as u32 - 1) * m.read_burst) as u64;
    let dcache_fill = (m.read_first + (config.dcache.line_words as u32 - 1) * m.read_burst) as u64;
    let dread_hit: u64 = if config.dcache_fast_read { 0 } else { 1 };
    let dwrite_hit: u64 = if config.dcache_fast_write { 0 } else { 1 };

    let load_use_stalls = s.load_use * config.iu.load_delay as u64;
    let icc_hold_stalls = if config.iu.icc_hold { s.icc_branch } else { 0 };
    let traps = window_overflows + window_underflows;
    let cycles = s.instructions
        + icache.read_misses * icache_fill
        + if config.iu.fast_decode { 0 } else { s.slow_decode }
        + load_use_stalls
        + icc_hold_stalls
        + s.mul_ops * (config.iu.multiplier.latency() - 1) as u64
        + s.div_ops * (config.iu.divider.latency() - 1) as u64
        + s.taken_branches
        + s.calls * if config.iu.fast_jump { 1 } else { 2 }
        + dcache.read_hits * dread_hit
        + dcache.read_misses * (dread_hit + dcache_fill)
        + dcache.write_hits * dwrite_hit
        + dcache.write_misses * (dwrite_hit + 1)
        + traps * (crate::cpu::WINDOW_TRAP_OVERHEAD + crate::cpu::WINDOW_TRAP_REGS as u64);

    if cycles > max_cycles {
        return Err(SimError::CycleLimitExceeded { limit: max_cycles });
    }

    Ok(Stats {
        cycles,
        instructions: s.instructions,
        icache,
        dcache,
        loads: s.loads,
        stores: s.stores,
        branches: s.branches,
        taken_branches: s.taken_branches,
        calls: s.calls,
        mul_ops: s.mul_ops,
        div_ops: s.div_ops,
        window_overflows,
        window_underflows,
        icc_hold_stalls,
        load_use_stalls,
    })
}

/// Retime a captured trace under `config`, producing the exact [`Stats`] a
/// full simulation of the same program on `config` would produce — in a
/// fraction of the time, because only the caches (and only the *changed*
/// caches) are re-simulated while every other cost is closed-form.
///
/// A batch of one through [`replay_batch`]: a configuration with the
/// captured geometry walks nothing, a d-cache or window-count change walks
/// the memory stream once, an i-cache change walks the record stream once.
pub fn replay(trace: &Trace, config: &LeonConfig, max_cycles: u64) -> Result<Stats, SimError> {
    replay_batch(trace, std::slice::from_ref(config), max_cycles)
        .pop()
        .expect("a batch of one yields one result")
}

// ---------------------------------------------------------------------------
// Batched replay: retime every configuration of a sweep in one trace walk
// ---------------------------------------------------------------------------

/// Behaviour class of the memory walk: a distinct (d-cache geometry,
/// register-window count) pair.  Every other Figure 1 knob is a pure
/// closed-form retime, so two configurations in the same class share one
/// memory walk bit-for-bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct MemClass {
    dcache: CacheConfig,
    reg_windows: u8,
}

/// Entries per resolved-access block of the batched walkers: 4096 × 8 bytes
/// = 32 KB, so a block plus the tags one class touches while streaming
/// through it stay cache-resident.
const WALK_BLOCK: usize = 4096;

/// Accesses one window trap expands into (16 spills or fills).
const TRAP_ACCESSES: usize = crate::cpu::WINDOW_TRAP_REGS as usize;

/// Resident-window automaton shared by every memory class with one window
/// count: trap decisions depend only on the count, so the automaton (and
/// its trap totals) runs once per distinct count and its expansions are
/// applied to each member class's cache.
struct WindowGroup {
    nwindows: u32,
    resident: u32,
    overflows: u64,
    underflows: u64,
    members: Vec<usize>,
}

/// Per-configuration disposition within a [`ReplayBatch`].
#[derive(Clone, Debug)]
enum Disposition {
    /// Failed validation; [`replay`] would fail with exactly this error.
    Invalid(SimError),
    /// Valid: which walk classes (if any) this configuration's cache
    /// statistics come from.  `None` means the captured geometry matches and
    /// the capturing run's statistics are reused verbatim.
    Valid { mem_class: Option<usize>, fetch_class: Option<usize> },
}

/// A planned batch replay: every configuration of a sweep partitioned into
/// *behavior classes*, so that one pass over each trace stream retimes the
/// whole batch.
///
/// The paper's central experiments — the 52-variable cost table and the
/// exhaustive d-cache sweep — evaluate many configurations against one fixed
/// program behaviour.  The plan walks each stream **once**, updating one
/// lean cache model per distinct class simultaneously ([`crate::cache`]'s
/// `TagCache`), and reconstructs every configuration's [`Stats`] closed-form
/// from its class's walk results — bit-identical to full simulation (pinned
/// by `tests/replay_equivalence.rs`).
///
/// The classes of each stream are exposed as an indexable axis
/// ([`ReplayBatch::mem_span_walker`] / [`ReplayBatch::fetch_span_walker`])
/// so a worker pool can partition *classes × segments* — not configurations
/// — across threads; results are independent of the partitioning, so any
/// thread count produces byte-identical output.  [`replay_batch`] is the
/// serial driver: one fused pass per stream.
pub struct ReplayBatch<'a> {
    trace: &'a Trace,
    plan: BatchPlan<'a>,
}

/// What a batch reconstructs from besides its walks: the capturing
/// configuration, the configuration-independent event counts, and the
/// capturing run's cache and window-trap results (reused verbatim by every
/// configuration whose geometry matches).
#[derive(Clone, Copy)]
struct CapturedRun<'a> {
    config: &'a LeonConfig,
    summary: &'a TraceSummary,
    icache: CacheStats,
    dcache: CacheStats,
    overflows: u64,
    underflows: u64,
}

impl Trace {
    fn captured_run(&self) -> CapturedRun<'_> {
        CapturedRun {
            config: &self.captured,
            summary: &self.summary,
            icache: self.base_icache,
            dcache: self.base_dcache,
            overflows: self.base_overflows,
            underflows: self.base_underflows,
        }
    }
}

/// The trace-independent half of a batch replay — configuration validation,
/// behavior-class dedup, the serial segment driver and closed-form
/// reconstruction — shared by the in-memory [`ReplayBatch`] and the
/// streaming [`replay_batch_streamed`] path (which never holds a whole
/// [`Trace`]).
struct BatchPlan<'a> {
    captured: CapturedRun<'a>,
    max_cycles: u64,
    configs: Vec<LeonConfig>,
    dispositions: Vec<Disposition>,
    mem_classes: Vec<MemClass>,
    fetch_classes: Vec<CacheConfig>,
}

impl<'a> BatchPlan<'a> {
    fn new(captured: CapturedRun<'a>, configs: &[LeonConfig], max_cycles: u64) -> BatchPlan<'a> {
        let base = captured.config;
        let mut mem_classes = Vec::new();
        let mut fetch_classes = Vec::new();
        let mut mem_index: HashMap<MemClass, usize> = HashMap::new();
        let mut fetch_index: HashMap<CacheConfig, usize> = HashMap::new();
        let dispositions = configs
            .iter()
            .map(|config| {
                if let Err(e) = config.validate() {
                    return Disposition::Invalid(SimError::InvalidConfig(e.to_string()));
                }
                let mem_class = if config.dcache == base.dcache
                    && config.iu.reg_windows == base.iu.reg_windows
                {
                    None
                } else {
                    let key =
                        MemClass { dcache: config.dcache, reg_windows: config.iu.reg_windows };
                    Some(*mem_index.entry(key).or_insert_with(|| {
                        mem_classes.push(key);
                        mem_classes.len() - 1
                    }))
                };
                let fetch_class = if config.icache == base.icache {
                    None
                } else {
                    Some(*fetch_index.entry(config.icache).or_insert_with(|| {
                        fetch_classes.push(config.icache);
                        fetch_classes.len() - 1
                    }))
                };
                Disposition::Valid { mem_class, fetch_class }
            })
            .collect();
        BatchPlan {
            captured,
            max_cycles,
            configs: configs.to_vec(),
            dispositions,
            mem_classes,
            fetch_classes,
        }
    }

    /// The serial walk/reduce/finish driver behind [`replay_batch`] and
    /// [`replay_batch_streamed`]: one chained walker per non-empty stream
    /// (each counted as one trace walk), fed every segment in order, then
    /// the deterministic partial reduction and the closed-form finish.
    ///
    /// `visit(seg, walk)` is the segment source: it hands segment `seg`'s
    /// records and folded items to `walk` — borrowed slices of an in-memory
    /// trace, or a verified [`StreamedTrace::load_segment`] — and its error
    /// aborts the batch.  A batch with no classes visits nothing.
    fn run<E>(
        &self,
        segments: usize,
        mut visit: impl FnMut(usize, &mut dyn FnMut(&[TraceOp], &[u64])) -> Result<(), E>,
    ) -> Result<Vec<Result<Stats, SimError>>, E> {
        let mut mem_core = (!self.mem_classes.is_empty()).then(|| {
            record_trace_walk();
            MemWalkCore::new(&self.mem_classes)
        });
        let mut fetch_core = (!self.fetch_classes.is_empty()).then(|| {
            record_trace_walk();
            FetchWalkCore::new(&self.fetch_classes)
        });
        let mut mem_partials: Vec<MemSegmentPartial> = Vec::new();
        let mut fetch_partials: Vec<FetchSegmentPartial> = Vec::new();
        if mem_core.is_some() || fetch_core.is_some() {
            for seg in 0..segments {
                visit(seg, &mut |ops, folded| {
                    if let Some(core) = mem_core.as_mut() {
                        record_segment_walk();
                        mem_partials.push(core.walk_segment_folded(folded));
                    }
                    if let Some(core) = fetch_core.as_mut() {
                        record_segment_walk();
                        fetch_partials.push(core.walk_segment_ops(ops));
                    }
                })?;
            }
        }
        let summary = self.captured.summary;
        let mem = reduce_mem(summary, self.mem_classes.len(), &mem_partials);
        let fetch = reduce_fetch(summary, self.fetch_classes.len(), &fetch_partials);
        Ok(self.finish(&mem, &fetch))
    }

    /// Closed-form reconstruction over the per-class walk results; classless
    /// configurations reuse the capturing run's statistics verbatim.
    fn finish(
        &self,
        mem: &[(CacheStats, u64, u64)],
        fetch: &[CacheStats],
    ) -> Vec<Result<Stats, SimError>> {
        assert_eq!(mem.len(), self.mem_classes.len(), "one walk result per memory class");
        assert_eq!(fetch.len(), self.fetch_classes.len(), "one walk result per fetch class");
        let run = &self.captured;
        self.dispositions
            .iter()
            .zip(&self.configs)
            .map(|(disposition, config)| match disposition {
                Disposition::Invalid(error) => Err(error.clone()),
                Disposition::Valid { mem_class, fetch_class } => {
                    let icache = match fetch_class {
                        Some(class) => fetch[*class],
                        None => run.icache,
                    };
                    let (dcache, overflows, underflows) = match mem_class {
                        Some(class) => mem[*class],
                        None => (run.dcache, run.overflows, run.underflows),
                    };
                    reconstruct_stats(
                        run.summary,
                        config,
                        icache,
                        dcache,
                        overflows,
                        underflows,
                        self.max_cycles,
                    )
                }
            })
            .collect()
    }
}

impl<'a> ReplayBatch<'a> {
    /// Plan a batch: validate every configuration and partition the batch
    /// into distinct behavior classes (first-appearance order, so the plan
    /// is deterministic for a given configuration sequence).  Performs no
    /// walks.
    pub fn new(trace: &'a Trace, configs: &[LeonConfig], max_cycles: u64) -> ReplayBatch<'a> {
        ReplayBatch { trace, plan: BatchPlan::new(trace.captured_run(), configs, max_cycles) }
    }

    /// Number of configurations in the batch.
    pub fn len(&self) -> usize {
        self.plan.configs.len()
    }

    /// True for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.plan.configs.is_empty()
    }

    /// Number of distinct memory-walk behavior classes.
    pub fn mem_class_count(&self) -> usize {
        self.plan.mem_classes.len()
    }

    /// Number of distinct fetch-walk behavior classes.
    pub fn fetch_class_count(&self) -> usize {
        self.plan.fetch_classes.len()
    }

    /// Total distinct behavior classes (the batch's walk budget: no caller
    /// partitioning can make the engine perform more walks than this).
    pub fn class_count(&self) -> usize {
        self.plan.mem_classes.len() + self.plan.fetch_classes.len()
    }

    /// Number of segments of the underlying trace — the second axis of the
    /// class × segment work partition.
    pub fn segment_count(&self) -> usize {
        self.trace.segment_count()
    }

    /// Build the stateful segmented walker for the memory classes in `span`:
    /// each class's lean d-cache model sees exactly the access sequence a
    /// full simulation produces, and one resident-window automaton per
    /// distinct window count re-derives the traps shared by every class with
    /// that count.  Call [`MemSpanWalker::walk_segment`] for every segment
    /// in order and feed the partials to [`ReplayBatch::reduce_mem_partials`].
    /// Counts as one trace walk (the segment counter ticks per segment).
    ///
    /// # Panics
    ///
    /// Panics when `span` is empty — empty spans have nothing to walk.
    pub fn mem_span_walker(&self, span: Range<usize>) -> MemSpanWalker<'a> {
        let classes = &self.plan.mem_classes[span];
        assert!(!classes.is_empty(), "a span walker needs at least one class");
        record_trace_walk();
        MemSpanWalker { trace: self.trace, core: MemWalkCore::new(classes), next_segment: 0 }
    }

    /// Deterministically merge per-segment memory partials (one per segment,
    /// in segment order, each with one delta per class of `span`) into the
    /// span's `(dcache stats, overflows, underflows)` results, in span order
    /// — bit-identical for any schedule: the walk counters are associative
    /// sums over segments, and every derived statistic is a closed form over
    /// those sums.
    pub fn reduce_mem_partials(
        &self,
        span: Range<usize>,
        partials: &[MemSegmentPartial],
    ) -> Vec<(CacheStats, u64, u64)> {
        reduce_mem(&self.trace.summary, span.len(), partials)
    }

    /// Build the stateful segmented walker for the fetch classes in `span`
    /// (see [`ReplayBatch::mem_span_walker`]).
    ///
    /// # Panics
    ///
    /// Panics when `span` is empty.
    pub fn fetch_span_walker(&self, span: Range<usize>) -> FetchSpanWalker<'a> {
        let classes = &self.plan.fetch_classes[span];
        assert!(!classes.is_empty(), "a span walker needs at least one class");
        record_trace_walk();
        FetchSpanWalker { trace: self.trace, core: FetchWalkCore::new(classes), next_segment: 0 }
    }

    /// Deterministically merge per-segment fetch partials into the span's
    /// i-cache statistics (see [`ReplayBatch::reduce_mem_partials`]).
    pub fn reduce_fetch_partials(
        &self,
        span: Range<usize>,
        partials: &[FetchSegmentPartial],
    ) -> Vec<CacheStats> {
        reduce_fetch(&self.trace.summary, span.len(), partials)
    }

    /// Reconstruct every configuration's [`Stats`] closed-form from the walk
    /// results (`mem` and `fetch` are the per-class results, concatenated in
    /// class order).  Element `i` equals `replay(trace, &configs[i],
    /// max_cycles)` exactly, including errors.
    pub fn finish(
        &self,
        mem: &[(CacheStats, u64, u64)],
        fetch: &[CacheStats],
    ) -> Vec<Result<Stats, SimError>> {
        self.plan.finish(mem, fetch)
    }
}

// ---------------------------------------------------------------------------
// Segmented span walkers: per-segment partials + deterministic reduction
// ---------------------------------------------------------------------------

/// Counter deltas one memory class accumulated over one segment.  The
/// deltas — not the tag state — are what the segments contribute
/// associatively: summing them in segment order reproduces the monolithic
/// walk's final counters exactly, because the tag state itself chains
/// sequentially through the walker.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemClassDelta {
    /// Read misses charged to the class in this segment.
    pub read_misses: u64,
    /// Write misses charged to the class in this segment.
    pub write_misses: u64,
    /// Window overflow traps of the class's window group in this segment.
    pub overflows: u64,
    /// Window underflow traps of the class's window group in this segment.
    pub underflows: u64,
}

/// Partial result of one memory segment: one delta per class, in span order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemSegmentPartial {
    /// Per-class counter deltas.
    pub classes: Vec<MemClassDelta>,
}

/// Partial result of one fetch segment: per-class read-miss deltas, in span
/// order (fetch walks never write, so one counter suffices).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FetchSegmentPartial {
    /// Per-class read-miss deltas.
    pub classes: Vec<u64>,
}

/// Merge memory partials in segment order into final span results.
fn reduce_mem(
    summary: &TraceSummary,
    count: usize,
    partials: &[MemSegmentPartial],
) -> Vec<(CacheStats, u64, u64)> {
    let mut totals = vec![MemClassDelta::default(); count];
    for partial in partials {
        assert_eq!(partial.classes.len(), count, "one delta per class in every partial");
        for (total, delta) in totals.iter_mut().zip(&partial.classes) {
            total.read_misses += delta.read_misses;
            total.write_misses += delta.write_misses;
            total.overflows += delta.overflows;
            total.underflows += delta.underflows;
        }
    }
    // hit counts are derived, not maintained: every class saw exactly
    // loads + 16·underflows reads and stores + 16·overflows writes
    let trap_regs = crate::cpu::WINDOW_TRAP_REGS as u64;
    totals
        .iter()
        .map(|t| {
            let reads = summary.loads + t.underflows * trap_regs;
            let writes = summary.stores + t.overflows * trap_regs;
            debug_assert!(t.read_misses <= reads && t.write_misses <= writes);
            let stats = CacheStats {
                read_hits: reads - t.read_misses,
                read_misses: t.read_misses,
                write_hits: writes - t.write_misses,
                write_misses: t.write_misses,
            };
            (stats, t.overflows, t.underflows)
        })
        .collect()
}

/// Merge fetch partials in segment order into final span results.
fn reduce_fetch(
    summary: &TraceSummary,
    count: usize,
    partials: &[FetchSegmentPartial],
) -> Vec<CacheStats> {
    let mut totals = vec![0u64; count];
    for partial in partials {
        assert_eq!(partial.classes.len(), count, "one delta per class in every partial");
        for (total, delta) in totals.iter_mut().zip(&partial.classes) {
            *total += delta;
        }
    }
    // every class fetched exactly one read per dynamic instruction
    let fetches = summary.instructions;
    totals
        .iter()
        .map(|&misses| {
            debug_assert!(misses <= fetches);
            CacheStats {
                read_hits: fetches - misses,
                read_misses: misses,
                write_hits: 0,
                write_misses: 0,
            }
        })
        .collect()
}

/// The chained cache/automaton state of a memory span walk, segment-agnostic:
/// the same core serves the parked [`MemSpanWalker`] and the serial batch
/// driver, whichever source its segments come from.
struct MemWalkCore {
    caches: Vec<TagCache>,
    groups: Vec<WindowGroup>,
    /// `group_of[class]` indexes `groups`.
    group_of: Vec<usize>,
    block: Vec<u64>,
}

impl MemWalkCore {
    fn new(classes: &[MemClass]) -> MemWalkCore {
        let caches: Vec<TagCache> =
            classes.iter().map(|class| TagCache::new(class.dcache)).collect();
        // one automaton per distinct window count; members index `caches`
        let mut groups: Vec<WindowGroup> = Vec::new();
        let mut group_of = vec![0usize; classes.len()];
        for (i, class) in classes.iter().enumerate() {
            let nwindows = class.reg_windows as u32;
            match groups.iter_mut().position(|g| g.nwindows == nwindows) {
                Some(index) => {
                    groups[index].members.push(i);
                    group_of[i] = index;
                }
                None => {
                    groups.push(WindowGroup {
                        nwindows,
                        resident: 1,
                        overflows: 0,
                        underflows: 0,
                        members: vec![i],
                    });
                    group_of[i] = groups.len() - 1;
                }
            }
        }
        MemWalkCore {
            caches,
            groups,
            group_of,
            block: Vec::with_capacity(WALK_BLOCK + 2 * TRAP_ACCESSES),
        }
    }

    /// Process one segment's folded items, returning the per-class counter
    /// deltas it contributed.  Must be fed the segments in order — the tag
    /// and automaton state chains across calls.
    fn walk_segment_folded(&mut self, folded: &[u64]) -> MemSegmentPartial {
        let miss_before: Vec<(u64, u64)> =
            self.caches.iter().map(|cache| cache.miss_counts()).collect();
        let trap_before: Vec<(u64, u64)> =
            self.groups.iter().map(|g| (g.overflows, g.underflows)).collect();

        if self.groups.len() == 1 {
            self.walk_folded_blocked(folded);
        } else {
            self.walk_folded_interleaved(folded);
        }

        let classes = self
            .caches
            .iter()
            .enumerate()
            .map(|(i, cache)| {
                let (read_misses, write_misses) = cache.miss_counts();
                let group = &self.groups[self.group_of[i]];
                let (overflows_before, underflows_before) = trap_before[self.group_of[i]];
                MemClassDelta {
                    read_misses: read_misses - miss_before[i].0,
                    write_misses: write_misses - miss_before[i].1,
                    overflows: group.overflows - overflows_before,
                    underflows: group.underflows - underflows_before,
                }
            })
            .collect();
        MemSegmentPartial { classes }
    }

    /// Single-window-count path: the segment's pre-folded items stream into
    /// [`WALK_BLOCK`]-entry buffers that fan out class by class (cache
    /// blocking, as before — the folded-item encoding *is* the block-entry
    /// encoding, so a leader whose line is not already established is pushed
    /// verbatim).  Walk-time folding re-merges items across non-trapping
    /// markers and block starts, recovering the monolithic elision exactly:
    /// every re-merged access is a guaranteed hit whose only state effect
    /// (LRU clock/stamp) is identical either way, and flush/boundary
    /// `run_line` resets are stats-invisible for the same reason.
    fn walk_folded_blocked(&mut self, folded: &[u64]) {
        const RUN_ONE: u64 = 1 << TagCache::MEM_RUN_SHIFT;
        let group = &mut self.groups[0];
        let caches = &mut self.caches;
        let block = &mut self.block;
        // 16-byte line established as present by the last entry's read run
        // (None after a write leader — a write never establishes presence)
        let mut run_line: Option<u32> = None;

        let flush = |block: &mut Vec<u64>, run_line: &mut Option<u32>, caches: &mut [TagCache]| {
            for cache in caches.iter_mut() {
                cache.run_mem_block(block);
            }
            block.clear();
            *run_line = None; // never extend an entry across a flush
        };

        let push = |block: &mut Vec<u64>, run_line: &mut Option<u32>, addr: u32, write: bool| {
            if *run_line == Some(addr >> 4) {
                *block.last_mut().expect("a run leader precedes every extension") += RUN_ONE;
            } else {
                block.push(addr as u64 | if write { TagCache::WRITE_BIT } else { 0 });
                *run_line = (!write).then_some(addr >> 4);
            }
        };

        for &item in folded {
            if item & FOLD_MARKER_BIT != 0 {
                let sp = item as u32;
                if item & FOLD_RESTORE_BIT != 0 {
                    if group.resident <= 1 {
                        group.underflows += 1;
                        for i in 0..crate::cpu::WINDOW_TRAP_REGS {
                            push(block, &mut run_line, sp.wrapping_sub(4 + i * 4), false);
                        }
                    } else {
                        group.resident -= 1;
                    }
                } else if group.resident >= group.nwindows - 1 {
                    group.overflows += 1;
                    for i in 0..crate::cpu::WINDOW_TRAP_REGS {
                        push(block, &mut run_line, sp.wrapping_sub(4 + i * 4), true);
                    }
                } else {
                    group.resident += 1;
                }
            } else {
                let addr = item as u32;
                let write = item & TagCache::WRITE_BIT != 0;
                if run_line == Some(addr >> 4) {
                    // the stored leader and its whole run are guaranteed hits
                    // here: merge all of them into the established entry
                    let run = item >> TagCache::MEM_RUN_SHIFT;
                    *block.last_mut().expect("a run leader precedes every extension") +=
                        (1 + run) * RUN_ONE;
                } else {
                    block.push(item);
                    run_line = (!write).then(|| addr >> 4);
                }
            }
            if block.len() >= WALK_BLOCK {
                flush(block, &mut run_line, caches);
            }
        }
        flush(block, &mut run_line, caches);
    }

    /// Mixed-window-count path: fan every folded item out to all classes as
    /// it is decoded (each group's trap expansions interleave at its own
    /// positions, so a shared resolved buffer does not exist).  A read
    /// leader's elided followers surface as `read_run` extras — guaranteed
    /// hits whose LRU clock/stamp effects match the per-access walk.
    fn walk_folded_interleaved(&mut self, folded: &[u64]) {
        for &item in folded {
            if item & FOLD_MARKER_BIT != 0 {
                let sp = item as u32;
                let restore = item & FOLD_RESTORE_BIT != 0;
                for group in self.groups.iter_mut() {
                    if restore {
                        if group.resident <= 1 {
                            group.underflows += 1;
                            for &member in &group.members {
                                let cache = &mut self.caches[member];
                                for i in 0..crate::cpu::WINDOW_TRAP_REGS {
                                    cache.read(sp.wrapping_sub(4 + i * 4));
                                }
                            }
                        } else {
                            group.resident -= 1;
                        }
                    } else if group.resident >= group.nwindows - 1 {
                        group.overflows += 1;
                        for &member in &group.members {
                            let cache = &mut self.caches[member];
                            for i in 0..crate::cpu::WINDOW_TRAP_REGS {
                                cache.write(sp.wrapping_sub(4 + i * 4));
                            }
                        }
                    } else {
                        group.resident += 1;
                    }
                }
            } else {
                let addr = item as u32;
                if item & TagCache::WRITE_BIT != 0 {
                    debug_assert_eq!(item >> TagCache::MEM_RUN_SHIFT, 0, "write leaders carry no run");
                    for cache in self.caches.iter_mut() {
                        cache.write(addr);
                    }
                } else {
                    let run = item >> TagCache::MEM_RUN_SHIFT;
                    for cache in self.caches.iter_mut() {
                        cache.read_run(addr, run);
                    }
                }
            }
        }
    }
}

/// The chained cache state of a fetch span walk (see [`MemWalkCore`]).
struct FetchWalkCore {
    caches: Vec<TagCache>,
    block: Vec<u64>,
}

impl FetchWalkCore {
    fn new(classes: &[CacheConfig]) -> FetchWalkCore {
        FetchWalkCore {
            caches: classes.iter().map(|&config| TagCache::new(config)).collect(),
            block: Vec::with_capacity(WALK_BLOCK),
        }
    }

    /// Process one segment's records, returning per-class read-miss deltas.
    /// Must be fed the segments in order.
    fn walk_segment_ops(&mut self, ops: &[TraceOp]) -> FetchSegmentPartial {
        let before: Vec<u64> = self.caches.iter().map(|cache| cache.miss_counts().0).collect();

        // Consecutive records inside one 16-byte block — the captured
        // fetch-run invariant guarantees a compressed run never crosses one
        // — merge into the previous entry's run: after the leading fetch
        // the line is present in every class, so the followers are
        // guaranteed hits (probed by nobody, clock-accounted under LRU).
        const RUN_ONE: u64 = 1 << TagCache::MEM_RUN_SHIFT;
        let caches = &mut self.caches;
        let block = &mut self.block;
        let mut run_line: Option<u32> = None;
        let flush = |block: &mut Vec<u64>, run_line: &mut Option<u32>, caches: &mut [TagCache]| {
            for cache in caches.iter_mut() {
                cache.run_mem_block(block);
            }
            block.clear();
            *run_line = None;
        };
        for op in ops {
            let fetches = if op.flags == 0 { op.aux as u64 } else { 1 };
            if run_line == Some(op.pc >> 4) {
                *block.last_mut().expect("a run leader precedes every extension") +=
                    fetches * RUN_ONE;
            } else {
                block.push(op.pc as u64 | (fetches - 1) * RUN_ONE);
                run_line = Some(op.pc >> 4);
                if block.len() >= WALK_BLOCK {
                    flush(block, &mut run_line, caches);
                }
            }
        }
        flush(block, &mut run_line, caches);

        let classes = self
            .caches
            .iter()
            .zip(&before)
            .map(|(cache, &misses_before)| cache.miss_counts().0 - misses_before)
            .collect();
        FetchSegmentPartial { classes }
    }
}

/// Stateful segmented walker over the memory classes of one span: walk the
/// segments strictly in order, collect the per-segment partials, reduce.
/// The walker owns the chained tag-cache and window-automaton state, so it
/// can be parked (e.g. in a scheduler slot between class × segment work
/// units) and resumed on the next segment by any thread.
pub struct MemSpanWalker<'a> {
    trace: &'a Trace,
    core: MemWalkCore,
    next_segment: usize,
}

impl MemSpanWalker<'_> {
    /// Segments of the underlying trace (the number of `walk_segment` calls
    /// a full span walk makes).
    pub fn segment_count(&self) -> usize {
        self.trace.segment_count()
    }

    /// Walk segment `seg` (must be `0, 1, 2, …` in order) and return its
    /// per-class counter deltas.
    ///
    /// # Panics
    ///
    /// Panics when segments are walked out of order.
    pub fn walk_segment(&mut self, seg: usize) -> MemSegmentPartial {
        assert_eq!(seg, self.next_segment, "segments must be walked in order");
        self.next_segment += 1;
        record_segment_walk();
        let range = self.trace.folded_range(seg);
        self.core.walk_segment_folded(&self.trace.folded[range])
    }
}

/// Stateful segmented walker over the fetch classes of one span (see
/// [`MemSpanWalker`]).
pub struct FetchSpanWalker<'a> {
    trace: &'a Trace,
    core: FetchWalkCore,
    next_segment: usize,
}

impl FetchSpanWalker<'_> {
    /// Segments of the underlying trace.
    pub fn segment_count(&self) -> usize {
        self.trace.segment_count()
    }

    /// Walk segment `seg` (must be `0, 1, 2, …` in order) and return its
    /// per-class read-miss deltas.
    ///
    /// # Panics
    ///
    /// Panics when segments are walked out of order.
    pub fn walk_segment(&mut self, seg: usize) -> FetchSegmentPartial {
        assert_eq!(seg, self.next_segment, "segments must be walked in order");
        self.next_segment += 1;
        record_segment_walk();
        let range = self.trace.ops_range(seg);
        self.core.walk_segment_ops(&self.trace.ops[range])
    }
}

/// Retime every configuration of a batch against one captured trace in a
/// single pass per trace stream.
///
/// Element `i` of the result is bit-for-bit what a full simulation on
/// `configs[i]` produces (including `InvalidConfig` and
/// `CycleLimitExceeded` errors), but a batch of N configurations performs at
/// most **two** trace walks — one over the memory stream for all distinct
/// (d-cache geometry, window count) classes, one over the record stream for
/// all distinct i-cache geometries — instead of up to N.  Callers with a
/// worker pool should partition the classes instead (see [`ReplayBatch`]).
pub fn replay_batch(
    trace: &Trace,
    configs: &[LeonConfig],
    max_cycles: u64,
) -> Vec<Result<Stats, SimError>> {
    let plan = BatchPlan::new(trace.captured_run(), configs, max_cycles);
    let Ok(results) = plan.run(trace.segment_count(), |seg, walk| {
        walk(&trace.ops[trace.ops_range(seg)], &trace.folded[trace.folded_range(seg)]);
        Ok::<(), std::convert::Infallible>(())
    });
    results
}

/// Run `program` on `config` once, capturing both the full [`crate::RunResult`]
/// and the execution trace for later replays.
pub fn capture(
    config: &LeonConfig,
    program: &leon_isa::Program,
    max_cycles: u64,
) -> Result<(crate::RunResult, Trace), SimError> {
    let mut cpu = crate::Cpu::new(*config, program)?;
    cpu.enable_trace();
    let result = cpu.run(max_cycles)?;
    let ops = cpu.take_trace().expect("trace was enabled before the run");
    let trace = Trace::assemble(ops, config, &result.stats);
    Ok((result, trace))
}

// ---------------------------------------------------------------------------
// Streaming decode: one segment resident at a time
// ---------------------------------------------------------------------------

/// Random-access byte source a [`StreamedTrace`] reads segments from — a
/// file, an in-memory buffer, or an artifact-store payload window.
pub trait SegmentRead: Send + Sync {
    /// Fill `buf` from the source starting at `offset`; errors (rather than
    /// short-reads) when the range is out of bounds.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()>;

    /// Total byte length of the source.
    fn total_len(&self) -> std::io::Result<u64>;
}

impl SegmentRead for Vec<u8> {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        let start = usize::try_from(offset)
            .ok()
            .filter(|&s| s.checked_add(buf.len()).is_some_and(|end| end <= self.len()));
        match start {
            Some(start) => {
                buf.copy_from_slice(&self[start..start + buf.len()]);
                Ok(())
            }
            None => Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "read past the end of the trace buffer",
            )),
        }
    }

    fn total_len(&self) -> std::io::Result<u64> {
        Ok(self.len() as u64)
    }
}

/// One materialised trace segment: the records and the capture-folded
/// memory items, exactly the slices the in-memory walkers see.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSegment {
    /// The segment's trace records.
    pub ops: Vec<TraceOp>,
    /// The segment's capture-folded memory items.
    pub folded: Vec<u64>,
}

/// A serialised trace opened for streaming: the header and the segment
/// index are resident, the payload is fetched one segment at a time through
/// a [`SegmentRead`], so peak memory is O(largest segment) instead of
/// O(trace).
///
/// Opening reads O(header + index) bytes and verifies them exactly as
/// [`Trace::peek_header`] does: the header checksum, every field, the
/// segment index structure and the total length.  Each
/// [`StreamedTrace::load_segment`] then verifies its segment's checksum and
/// re-derives the folded stream from the records (segments are
/// self-contained: capture-side folds split at segment boundaries).  Every
/// byte the replay uses is therefore checked against the one checksum that
/// covers it before it is trusted.
pub struct StreamedTrace {
    source: Box<dyn SegmentRead>,
    header: TraceHeader,
    /// Absolute byte offset of the payload region (just past the header
    /// checksum).
    payload_base: u64,
}

impl std::fmt::Debug for StreamedTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamedTrace")
            .field("header", &self.header)
            .field("payload_base", &self.payload_base)
            .finish_non_exhaustive()
    }
}

impl StreamedTrace {
    /// Open a serialised trace for streaming access, reading and verifying
    /// its header (see the type docs).
    pub fn open(source: Box<dyn SegmentRead>) -> Result<StreamedTrace, TraceCodecError> {
        let total = source
            .total_len()
            .map_err(|e| TraceCodecError::new(format!("could not size the trace source: {e}")))?;
        let read = |offset: u64, len: usize| -> Result<Vec<u8>, TraceCodecError> {
            let mut buf = vec![0u8; len];
            source
                .read_at(offset, &mut buf)
                .map_err(|e| TraceCodecError::new(format!("could not read the trace source: {e}")))?;
            Ok(buf)
        };

        let mut head = read(0, total.min(PREFIX_LEN as u64) as usize)?;
        let len = header_len(&head, total)?;
        head.extend_from_slice(&read(PREFIX_LEN as u64, len + 8 - PREFIX_LEN)?);
        let (header, payload_base) = read_header(&head, total)?;
        Ok(StreamedTrace { source, header, payload_base: payload_base as u64 })
    }

    /// The resident header (capturing config, base stats, summary, index).
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Number of segments in the trace.
    pub fn segment_count(&self) -> usize {
        self.header.segments.len()
    }

    /// Fetch, verify and decode segment `i`.
    ///
    /// Verification is self-contained: the payload bytes must match the
    /// index's per-segment checksum, and the stored folded items must equal
    /// re-derivation from the segment's own records (folds never cross a
    /// segment boundary, so no predecessor context is needed).
    pub fn load_segment(&self, i: usize) -> Result<TraceSegment, TraceCodecError> {
        let mut segment = TraceSegment { ops: Vec::new(), folded: Vec::new() };
        self.load_segment_into(i, &mut Vec::new(), &mut segment)?;
        Ok(segment)
    }

    /// [`StreamedTrace::load_segment`] into caller-owned buffers: `buf`
    /// receives the raw payload and `segment` the decoded records plus the
    /// folded items re-derived from them, which are compared with the stored
    /// items in place.  A batch reuses one `buf` and one `segment` for every
    /// segment, so a streamed replay allocates nothing per segment once the
    /// largest one has been seen.
    fn load_segment_into(
        &self,
        i: usize,
        buf: &mut Vec<u8>,
        segment: &mut TraceSegment,
    ) -> Result<(), TraceCodecError> {
        assert!(i < self.header.segments.len(), "segment index out of range");
        let info = &self.header.segments[i];
        let (recs, _, len) = segment_payload_len(&self.header, i);
        // every byte is overwritten by the read, so only growth is zeroed
        buf.resize(len as usize, 0);
        self.source
            .read_at(self.payload_base + info.payload_offset, buf)
            .map_err(|e| TraceCodecError::new(format!("could not read segment {i}: {e}")))?;
        verify_segment(i, info, buf)?;
        let (records, items) = buf.split_at(recs as usize * 10);
        // decode and re-fold in one pass over the records
        segment.ops.clear();
        segment.folded.clear();
        let folded = &mut segment.folded;
        let mut run_line = None;
        segment.ops.extend(records.chunks_exact(10).map(|c| {
            let op = decode_op(c);
            if op.flags != 0 {
                fold_op(folded, &mut run_line, &op);
            }
            op
        }));
        if !decode_folded(items).eq(segment.folded.iter().copied()) {
            return Err(TraceCodecError::new(format!(
                "segment {i}: stored folded items do not match the record stream"
            )));
        }
        Ok(())
    }
}

/// Retime every configuration of a batch against a [`StreamedTrace`],
/// holding **one segment** in memory at a time: peak memory is
/// O(largest segment + classes), never O(trace).
///
/// The same driver as [`replay_batch`], fed verified
/// [`StreamedTrace::load_segment`] loads (into one read buffer and one
/// decoded segment reused across the batch) instead of borrowed slices, so
/// element `i` equals `replay_batch` on the fully-decoded trace bit-for-bit.
/// The walk is serial (all classes advance together through each segment);
/// callers wanting parallelism should decode fully and partition class ×
/// segment units instead.  A segment that fails to load or verify aborts
/// the batch with its codec error.
pub fn replay_batch_streamed(
    streamed: &StreamedTrace,
    configs: &[LeonConfig],
    max_cycles: u64,
) -> Result<Vec<Result<Stats, SimError>>, TraceCodecError> {
    let header = streamed.header();
    let captured = CapturedRun {
        config: &header.captured,
        summary: &header.summary,
        icache: header.base_icache,
        dcache: header.base_dcache,
        overflows: header.base_overflows,
        underflows: header.base_underflows,
    };
    let plan = BatchPlan::new(captured, configs, max_cycles);
    let mut buf = Vec::new();
    let mut segment = TraceSegment { ops: Vec::new(), folded: Vec::new() };
    plan.run(streamed.segment_count(), |seg, walk| {
        streamed.load_segment_into(seg, &mut buf, &mut segment)?;
        walk(&segment.ops, &segment.folded);
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Multiplier, ReplacementPolicy};
    use leon_isa::{Asm, Reg};

    /// Serialises the tests that walk a trace: two of them assert exact
    /// deltas of the process-global walk counters.
    static WALK_COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn walk_guard() -> std::sync::MutexGuard<'static, ()> {
        WALK_COUNTERS.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn demo_program() -> leon_isa::Program {
        let mut a = Asm::new("trace-demo");
        a.set(Reg::L0, 64);
        a.set(Reg::L1, 0);
        a.set(Reg::L2, leon_isa::DEFAULT_MEMORY_SIZE / 2);
        a.label("loop");
        a.st(Reg::L1, Reg::L2, 0);
        a.ld(Reg::L3, Reg::L2, 0);
        a.add(Reg::L1, Reg::L3, 1);
        a.smul(Reg::L4, Reg::L1, 3);
        a.add(Reg::L2, Reg::L2, 4);
        a.subcc(Reg::L0, Reg::L0, 1);
        a.bne("loop");
        a.halt();
        a.assemble().unwrap()
    }

    /// A recursive program that overflows and underflows the window file.
    fn recursing_program() -> leon_isa::Program {
        let mut a = Asm::new("recurse");
        a.set(Reg::O0, 12);
        a.call("func");
        a.halt();
        a.label("func");
        a.save(Reg::SP, Reg::SP, -96);
        a.cmp(Reg::I0, 0);
        a.be("leaf");
        a.add(Reg::O0, Reg::I0, -1_i32);
        a.call("func");
        a.label("leaf");
        a.ret_restore();
        a.assemble().unwrap()
    }

    #[test]
    fn capture_matches_plain_simulation() {
        let config = LeonConfig::base();
        for program in [demo_program(), recursing_program()] {
            let plain = crate::simulate(&config, &program, 1_000_000).unwrap();
            let (run, trace) = capture(&config, &program, 1_000_000).unwrap();
            assert_eq!(run.stats, plain.stats, "tracing must not perturb the run");
            assert_eq!(trace.instructions(), plain.stats.instructions);
            assert!(
                trace.len() as u64 <= plain.stats.instructions,
                "fetch runs must compress, not expand"
            );
        }
    }

    #[test]
    fn replay_reproduces_capture_config_exactly() {
        let config = LeonConfig::base();
        for program in [demo_program(), recursing_program()] {
            let (run, trace) = capture(&config, &program, 1_000_000).unwrap();
            let stats = replay(&trace, &config, 1_000_000).unwrap();
            assert_eq!(stats, run.stats);
        }
    }

    #[test]
    fn replay_retimes_cache_and_latency_perturbations_exactly() {
        let _walks = walk_guard();
        let base = LeonConfig::base();
        let program = demo_program();
        let (_, trace) = capture(&base, &program, 1_000_000).unwrap();

        let mut perturbations = Vec::new();
        let mut c = base;
        c.dcache.way_kb = 1;
        perturbations.push(c);
        let mut c = base;
        c.dcache.ways = 2;
        c.dcache.replacement = ReplacementPolicy::Lru;
        perturbations.push(c);
        let mut c = base;
        c.icache.line_words = 4;
        perturbations.push(c);
        let mut c = base;
        c.icache.way_kb = 1;
        c.icache.ways = 2;
        c.icache.replacement = ReplacementPolicy::Lrr;
        perturbations.push(c);
        let mut c = base;
        c.iu.multiplier = Multiplier::M32x32;
        perturbations.push(c);
        let mut c = base;
        c.dcache_fast_read = true;
        c.dcache_fast_write = true;
        perturbations.push(c);
        let mut c = base;
        c.iu.load_delay = 2;
        c.iu.fast_decode = false;
        c.iu.fast_jump = false;
        c.iu.icc_hold = false;
        perturbations.push(c);

        for config in perturbations {
            let full = crate::simulate(&config, &program, 1_000_000).unwrap();
            let replayed = replay(&trace, &config, 1_000_000).unwrap();
            assert_eq!(replayed, full.stats, "replay must be bit-identical for {config:?}");
        }
    }

    #[test]
    fn replay_retimes_register_window_changes_exactly() {
        let _walks = walk_guard();
        // the recursion depth (12) straddles every window count here, so the
        // trap pattern genuinely differs between configurations
        let base = LeonConfig::base();
        let program = recursing_program();
        let (_, trace) = capture(&base, &program, 1_000_000).unwrap();
        for windows in [2u8, 4, 8, 16, 32] {
            let mut config = base;
            config.iu.reg_windows = windows;
            let full = crate::simulate(&config, &program, 1_000_000).unwrap();
            let replayed = replay(&trace, &config, 1_000_000).unwrap();
            assert_eq!(
                replayed, full.stats,
                "replay must re-derive window traps for {windows} windows"
            );
            if windows == 2 {
                assert!(replayed.window_overflows > 0, "2 windows must trap on recursion");
            }
        }
    }

    #[test]
    fn replay_respects_the_cycle_budget() {
        let base = LeonConfig::base();
        let program = demo_program();
        let (run, trace) = capture(&base, &program, 1_000_000).unwrap();
        let limit = run.stats.cycles / 2;
        let full = crate::simulate(&base, &program, limit).unwrap_err();
        let replayed = replay(&trace, &base, limit).unwrap_err();
        assert_eq!(full, replayed);
        assert!(matches!(replayed, SimError::CycleLimitExceeded { .. }));
    }

    #[test]
    fn budget_boundary_is_identical_to_simulation() {
        // Regression test for the one semantic divergence the first trace
        // engine shipped with: a budget first exceeded by the *final*
        // instruction used to finish under full simulation but error under
        // replay.  Both must now treat the budget as a bound on the total.
        let base = LeonConfig::base();
        for program in [demo_program(), recursing_program()] {
            let (run, trace) = capture(&base, &program, 1_000_000).unwrap();
            let total = run.stats.cycles;

            // budget == total: both engines finish, bit-identically
            let full = crate::simulate(&base, &program, total).unwrap();
            let replayed = replay(&trace, &base, total).unwrap();
            assert_eq!(replayed, full.stats);

            // budget == total - 1 (exhausted on the final instruction):
            // both engines must fail with the same error
            let full = crate::simulate(&base, &program, total - 1).unwrap_err();
            let replayed = replay(&trace, &base, total - 1).unwrap_err();
            assert_eq!(full, SimError::CycleLimitExceeded { limit: total - 1 });
            assert_eq!(replayed, full);
        }
    }

    #[test]
    fn replay_batch_matches_full_simulation_on_a_mixed_batch() {
        let _walks = walk_guard();
        let base = LeonConfig::base();
        for program in [demo_program(), recursing_program()] {
            let (_, trace) = capture(&base, &program, 1_000_000).unwrap();

            let mut configs = Vec::new();
            configs.push(base); // the captured configuration itself
            let mut c = base;
            c.dcache.way_kb = 1;
            configs.push(c);
            configs.push(c); // duplicate: same behavior class, same result
            let mut c = base;
            c.dcache.ways = 2;
            c.dcache.replacement = ReplacementPolicy::Lru;
            c.iu.reg_windows = 2;
            configs.push(c);
            let mut c = base;
            c.icache.way_kb = 1;
            c.icache.ways = 2;
            c.icache.replacement = ReplacementPolicy::Lrr;
            configs.push(c);
            let mut c = base;
            c.iu.multiplier = Multiplier::M32x32;
            c.dcache_fast_read = true;
            configs.push(c); // pure closed-form retime, no class at all
            let mut c = base;
            c.dcache.way_kb = 3; // structurally invalid
            configs.push(c);

            let batched = replay_batch(&trace, &configs, 1_000_000);
            let simulated: Vec<_> = configs
                .iter()
                .map(|c| crate::simulate(c, &program, 1_000_000).map(|run| run.stats))
                .collect();
            assert_eq!(batched, simulated, "batch must equal full simulation exactly");
            assert!(matches!(batched[6], Err(SimError::InvalidConfig(_))));
            // class dedup is invisible: a batch of N equals N batches of one
            let singles: Vec<_> = configs.iter().map(|c| replay(&trace, c, 1_000_000)).collect();
            assert_eq!(batched, singles);
        }
    }

    #[test]
    fn replay_batch_enforces_the_cycle_budget_per_configuration() {
        let base = LeonConfig::base();
        let program = demo_program();
        let (run, trace) = capture(&base, &program, 1_000_000).unwrap();
        let mut slow = base;
        slow.iu.fast_decode = false;
        slow.iu.fast_jump = false;
        // budget exactly the base total: the base fits, the slowed config
        // must exceed it — with the same error full simulation produces
        let results = replay_batch(&trace, &[base, slow], run.stats.cycles);
        assert_eq!(results[0].as_ref().unwrap().cycles, run.stats.cycles);
        assert_eq!(
            results[1],
            Err(SimError::CycleLimitExceeded { limit: run.stats.cycles })
        );
        assert_eq!(
            results[1].clone().unwrap_err(),
            crate::simulate(&slow, &program, run.stats.cycles).unwrap_err()
        );
    }

    /// Drive a memory span walker over every segment in order and reduce.
    fn walk_mem_span(plan: &ReplayBatch, span: Range<usize>) -> Vec<(CacheStats, u64, u64)> {
        let mut walker = plan.mem_span_walker(span.clone());
        let partials: Vec<MemSegmentPartial> =
            (0..walker.segment_count()).map(|seg| walker.walk_segment(seg)).collect();
        plan.reduce_mem_partials(span, &partials)
    }

    /// Drive a fetch span walker over every segment in order and reduce.
    fn walk_fetch_span(plan: &ReplayBatch, span: Range<usize>) -> Vec<CacheStats> {
        let mut walker = plan.fetch_span_walker(span.clone());
        let partials: Vec<FetchSegmentPartial> =
            (0..walker.segment_count()).map(|seg| walker.walk_segment(seg)).collect();
        plan.reduce_fetch_partials(span, &partials)
    }

    #[test]
    fn batch_plan_deduplicates_behavior_classes_and_walks_once_per_span() {
        let _walks = walk_guard();
        let base = LeonConfig::base();
        let program = recursing_program();
        let (_, trace) = capture(&base, &program, 1_000_000).unwrap();

        let mut dcache_small = base;
        dcache_small.dcache.way_kb = 1;
        let mut windows_low = base;
        windows_low.iu.reg_windows = 2;
        let mut icache_small = base;
        icache_small.icache.way_kb = 1;
        let mut closed_form = base;
        closed_form.iu.multiplier = Multiplier::M32x32;
        let configs =
            [base, dcache_small, dcache_small, windows_low, icache_small, closed_form, base];

        let plan = ReplayBatch::new(&trace, &configs, 1_000_000);
        assert_eq!(plan.len(), 7);
        // duplicates and base-geometry configs never create classes
        assert_eq!(plan.mem_class_count(), 2, "dcache_small (deduped) + windows_low");
        assert_eq!(plan.fetch_class_count(), 1, "icache_small");
        assert_eq!(plan.class_count(), 3);

        // a span walk is exactly one counted pass over the stream
        let before = trace_walks_performed();
        let mem = walk_mem_span(&plan, 0..plan.mem_class_count());
        assert_eq!(trace_walks_performed() - before, 1);
        let fetch = walk_fetch_span(&plan, 0..plan.fetch_class_count());
        assert_eq!(trace_walks_performed() - before, 2);

        // split spans produce the same per-class results as the fused pass
        let first = walk_mem_span(&plan, 0..1);
        let second = walk_mem_span(&plan, 1..2);
        assert_eq!(mem, [first, second].concat());

        let finished = plan.finish(&mem, &fetch);
        for (result, config) in finished.iter().zip(&configs) {
            let full = crate::simulate(config, &program, 1_000_000).unwrap();
            assert_eq!(result.as_ref().unwrap(), &full.stats);
        }
    }

    #[test]
    fn traces_are_shared_across_measurement_workers() {
        // the campaign engine fans replays of one trace out over a worker
        // pool; the trace type must stay plain shareable data
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Trace>();
        assert_send_sync::<TraceOp>();
    }

    #[test]
    fn compressed_runs_never_cross_a_16_byte_block() {
        let base = LeonConfig::base();
        let program = demo_program();
        let (_, trace) = capture(&base, &program, 1_000_000).unwrap();
        for op in &trace.ops {
            if op.flags == 0 {
                assert!(op.aux >= 1 && op.aux <= 4);
                let last_pc = op.pc + 4 * (op.aux - 1);
                assert_eq!(op.pc >> 4, last_pc >> 4, "run crosses a minimum-size line");
            }
        }
    }

    #[test]
    fn binary_codec_round_trips_exactly() {
        let _walks = walk_guard();
        let mut config = LeonConfig::base();
        // a non-default capture configuration exercises every encoded field
        config.icache.ways = 2;
        config.icache.replacement = ReplacementPolicy::Lru;
        config.iu.multiplier = Multiplier::M32x32;
        config.dcache_fast_read = true;
        for program in [demo_program(), recursing_program()] {
            let (_, trace) = capture(&config, &program, 1_000_000).unwrap();
            let bytes = trace.to_bytes();
            let decoded = Trace::from_bytes(&bytes).unwrap();
            assert_eq!(decoded, trace, "decode(encode(t)) must equal t exactly");
            // and the decoded trace replays bit-identically to the original
            let base = LeonConfig::base();
            assert_eq!(
                replay(&decoded, &base, 1_000_000).unwrap(),
                replay(&trace, &base, 1_000_000).unwrap()
            );
        }
    }

    #[test]
    fn peek_header_reads_only_the_fixed_header() {
        let mut config = LeonConfig::base();
        config.icache.ways = 2;
        config.icache.replacement = ReplacementPolicy::Lru;
        let (run, trace) = capture(&config, &recursing_program(), 1_000_000).unwrap();
        let bytes = trace.to_bytes();

        let header = Trace::peek_header(&bytes).unwrap();
        assert_eq!(header.captured, config);
        assert_eq!(header.base_icache, run.stats.icache);
        assert_eq!(header.base_dcache, run.stats.dcache);
        assert_eq!(header.base_overflows, run.stats.window_overflows);
        assert_eq!(header.records, trace.ops.len() as u64);

        // a record-stream bit flip passes the peek (the payload is not read)
        // but fails the full decode on its segment's checksum
        let mut flipped = bytes.clone();
        let pos = flipped.len() - 20;
        flipped[pos] ^= 0x40;
        assert!(Trace::peek_header(&flipped).is_ok());
        assert!(Trace::from_bytes(&flipped).is_err());

        // header damage is caught by the peek itself
        let mut stats_flip = bytes.clone();
        stats_flip[PREFIX_LEN - 60] ^= 0x01; // inside the stored summary
        let err = Trace::peek_header(&stats_flip).unwrap_err();
        assert!(err.to_string().contains("header checksum"), "got: {err}");
        assert!(Trace::peek_header(&bytes[..10]).is_err());
        let mut versioned = bytes.clone();
        versioned[4..8].copy_from_slice(&(TRACE_FORMAT_VERSION + 7).to_le_bytes());
        let err = Trace::peek_header(&versioned).unwrap_err();
        assert!(err.to_string().contains("version"), "got: {err}");
        let mut truncated = bytes.clone();
        truncated.truncate(bytes.len() - 10);
        assert!(Trace::peek_header(&truncated).is_err(), "record count must mismatch");
    }

    /// Recompute the header checksum of a serialised trace in place (for
    /// damage cases that must be caught by something other than it).
    fn rechecksum_header(bytes: &mut [u8]) {
        let count = u32::from_le_bytes(bytes[PREFIX_LEN - 4..PREFIX_LEN].try_into().unwrap());
        let len = PREFIX_LEN + count as usize * SEGMENT_INFO_LEN;
        let checksum = checksum64(&bytes[..len]);
        bytes[len..len + 8].copy_from_slice(&checksum.to_le_bytes());
    }

    /// Whether the streamed path refuses `bytes`: `open` fails, or some
    /// segment fails to load.
    fn streamed_rejects(bytes: Vec<u8>) -> bool {
        match StreamedTrace::open(Box::new(bytes)) {
            Err(_) => true,
            Ok(streamed) => (0..streamed.segment_count()).any(|i| streamed.load_segment(i).is_err()),
        }
    }

    /// The demo trace cut into several segments, serialised.
    fn segmented_demo_bytes() -> Vec<u8> {
        let (_, mut trace) = capture(&LeonConfig::base(), &demo_program(), 1_000_000).unwrap();
        let step = (trace.ops.len() / 4).max(1);
        let boundaries: Vec<usize> = (0..trace.ops.len()).step_by(step).collect();
        trace.resegment_at(&boundaries);
        assert!(trace.segment_count() >= 3);
        trace.to_bytes()
    }

    #[test]
    fn binary_codec_rejects_damage() {
        let good = segmented_demo_bytes();
        assert!(Trace::from_bytes(&good).is_ok());
        assert!(!streamed_rejects(good.clone()));

        // truncation (both mid-record and mid-header)
        assert!(Trace::from_bytes(&good[..good.len() - 1]).is_err());
        assert!(Trace::from_bytes(&good[..10]).is_err());
        assert!(Trace::from_bytes(&[]).is_err());
        assert!(streamed_rejects(good[..good.len() - 1].to_vec()));

        // a flipped bit in any byte — header, index, header checksum or
        // payload — is a typed error on both decode paths
        for pos in 0..good.len() {
            let mut bad = good.clone();
            bad[pos] ^= 1 << (pos % 8);
            assert!(Trace::from_bytes(&bad).is_err(), "bit flip at {pos} must be detected");
            assert!(streamed_rejects(bad), "streamed: bit flip at {pos} must be detected");
        }

        // a different format version must be rejected even with a valid
        // header checksum over the altered header
        let mut versioned = good.clone();
        versioned[4..8].copy_from_slice(&(TRACE_FORMAT_VERSION + 1).to_le_bytes());
        rechecksum_header(&mut versioned);
        let err = Trace::from_bytes(&versioned).unwrap_err();
        assert!(err.to_string().contains("version"), "got: {err}");

        // trailing garbage is rejected (record count no longer matches),
        // also when the header checksum is recomputed
        let mut padded = good.clone();
        padded.extend_from_slice(&[0u8; 10]);
        rechecksum_header(&mut padded);
        let err = Trace::from_bytes(&padded).unwrap_err();
        assert!(err.to_string().contains("remaining payload"), "got: {err}");
        assert!(streamed_rejects(padded));

        // a header that checksums correctly but lies about the stream is
        // caught by the re-derivation cross-check
        let mut lying = good.clone();
        lying[PREFIX_LEN - 60] ^= 0x01; // inside the stored summary
        rechecksum_header(&mut lying);
        let err = Trace::from_bytes(&lying).unwrap_err();
        assert!(err.to_string().contains("summary"), "got: {err}");
    }

    #[test]
    fn streamed_open_rejects_every_header_bit_flip() {
        // the header, the segment index and the header checksum itself: a
        // flip in any of them must fail `open`, never yield a header that
        // replays to a different answer
        let good = segmented_demo_bytes();
        let header_end = header_len(&good[..PREFIX_LEN], good.len() as u64).unwrap() + 8;
        assert!(StreamedTrace::open(Box::new(good.clone())).is_ok());
        for pos in 0..header_end {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[pos] ^= 1 << bit;
                assert!(
                    StreamedTrace::open(Box::new(bad.clone())).is_err(),
                    "open accepted a flip of bit {bit} in header byte {pos}"
                );
                assert!(Trace::peek_header(&bad).is_err(), "peek: bit {bit} of byte {pos}");
            }
        }
    }

    #[test]
    fn summary_and_folded_stream_are_consistent() {
        let base = LeonConfig::base();
        let program = recursing_program();
        let (run, trace) = capture(&base, &program, 1_000_000).unwrap();
        let s = &trace.summary;
        assert_eq!(s.instructions, run.stats.instructions);
        assert_eq!(s.loads, run.stats.loads);
        assert_eq!(s.stores, run.stats.stores);
        assert_eq!(s.branches, run.stats.branches);
        assert_eq!(s.taken_branches, run.stats.taken_branches);
        assert_eq!(s.calls, run.stats.calls);
        // every load/store is a run leader or folded into one; every window
        // rotation is one marker
        let (markers, accesses): (Vec<u64>, Vec<u64>) =
            trace.folded.iter().partition(|&&item| item & FOLD_MARKER_BIT != 0);
        let folded_accesses: u64 =
            accesses.iter().map(|item| 1 + (item >> TagCache::MEM_RUN_SHIFT)).sum();
        assert_eq!(folded_accesses, s.loads + s.stores);
        let restores = markers.iter().filter(|&&m| m & FOLD_RESTORE_BIT != 0).count() as u64;
        assert_eq!((markers.len() as u64 - restores, restores), (s.saves, s.restores));
        assert!(s.saves > 0 && s.restores > 0, "recursion must rotate windows");
    }

    /// A small mixed batch: base geometry, a d-cache + window variant, an
    /// i-cache variant, and a pure closed-form variant.
    fn mixed_batch(base: &LeonConfig) -> Vec<LeonConfig> {
        let mut dcache_small = *base;
        dcache_small.dcache.way_kb = 1;
        dcache_small.iu.reg_windows = 2;
        let mut icache_small = *base;
        icache_small.icache.way_kb = 1;
        let mut closed_form = *base;
        closed_form.iu.multiplier = Multiplier::M32x32;
        vec![*base, dcache_small, icache_small, closed_form]
    }

    #[test]
    fn resegmented_traces_replay_and_round_trip_identically() {
        let _walks = walk_guard();
        let base = LeonConfig::base();
        let configs = mixed_batch(&base);
        for program in [demo_program(), recursing_program()] {
            let (_, trace) = capture(&base, &program, 1_000_000).unwrap();
            let expected = replay_batch(&trace, &configs, 1_000_000);

            // deliberately odd boundaries: 1-record segments up front, cuts
            // mid-stream — results and the codec round-trip must not care
            let n = trace.ops.len();
            let mut boundaries: Vec<usize> = vec![0, 1, 2, n / 3, n / 2, n - 1];
            boundaries.sort_unstable();
            boundaries.dedup();
            boundaries.retain(|&b| b < n);
            let mut resegmented = trace.clone();
            resegmented.resegment_at(&boundaries);
            assert!(resegmented.segment_count() >= 4);

            assert_eq!(replay_batch(&resegmented, &configs, 1_000_000), expected);
            let decoded = Trace::from_bytes(&resegmented.to_bytes()).unwrap();
            assert_eq!(decoded, resegmented, "v2 codec must preserve the segmentation");
        }
    }

    #[test]
    fn streamed_replay_matches_full_simulation() {
        let _walks = walk_guard();
        let base = LeonConfig::base();
        let configs = mixed_batch(&base);
        for program in [demo_program(), recursing_program()] {
            let (_, mut trace) = capture(&base, &program, 1_000_000).unwrap();
            // cut into several segments so streaming actually iterates
            let step = (trace.ops.len() / 5).max(1);
            let boundaries: Vec<usize> = (0..trace.ops.len()).step_by(step).collect();
            trace.resegment_at(&boundaries);

            let bytes = trace.to_bytes();
            let streamed = StreamedTrace::open(Box::new(bytes.clone())).unwrap();
            assert_eq!(streamed.segment_count(), trace.segment_count());
            assert_eq!(streamed.header().captured, trace.captured);

            let got = replay_batch_streamed(&streamed, &configs, 1_000_000).unwrap();
            let simulated: Vec<_> = configs
                .iter()
                .map(|c| crate::simulate(c, &program, 1_000_000).map(|run| run.stats))
                .collect();
            assert_eq!(got, simulated);

            // payload corruption passes open() (header-only) but is caught
            // by the damaged segment's checksum on load
            let mut damaged = bytes.clone();
            let target = PREFIX_LEN + trace.segment_count() * SEGMENT_INFO_LEN + 8;
            damaged[target] ^= 0x40; // first byte of segment 0's payload
            let opened = StreamedTrace::open(Box::new(damaged)).unwrap();
            assert!(opened.load_segment(0).unwrap_err().to_string().contains("checksum"));
        }
    }

    #[test]
    fn segment_walkers_tick_the_segment_counter() {
        let _walks = walk_guard();
        let base = LeonConfig::base();
        let (_, mut trace) = capture(&base, &recursing_program(), 1_000_000).unwrap();
        let step = (trace.ops.len() / 4).max(1);
        let boundaries: Vec<usize> = (0..trace.ops.len()).step_by(step).collect();
        trace.resegment_at(&boundaries);
        let segments = trace.segment_count() as u64;
        assert!(segments >= 3);

        // the serial driver: one walk per perturbed stream, one tick per
        // segment of each
        let configs = mixed_batch(&base);
        let walks_before = trace_walks_performed();
        let segs_before = trace_segments_walked();
        let serial = replay_batch(&trace, &configs, 1_000_000);
        assert_eq!(trace_walks_performed() - walks_before, 2);
        assert_eq!(trace_segments_walked() - segs_before, 2 * segments);

        // the parked span walkers tick the same way and reduce to the same
        // results
        let plan = ReplayBatch::new(&trace, &configs, 1_000_000);
        let walks_before = trace_walks_performed();
        let segs_before = trace_segments_walked();
        let mem = walk_mem_span(&plan, 0..plan.mem_class_count());
        let fetch = walk_fetch_span(&plan, 0..plan.fetch_class_count());
        assert_eq!(trace_walks_performed() - walks_before, 2);
        assert_eq!(trace_segments_walked() - segs_before, 2 * segments);
        assert_eq!(plan.finish(&mem, &fetch), serial);
    }
}
