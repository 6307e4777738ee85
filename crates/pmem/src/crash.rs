//! Crash simulation: reconstructing possible NVMM images at a failure.
//!
//! In a write-back cache hierarchy, a dirty block *may* be written back
//! to memory at any time — so after a crash, each block's NVMM content is
//! a snapshot of that block at *some* point between its last *guaranteed*
//! persist and the crash, independently per block. A persist is
//! guaranteed only by the full `clwb; sfence; pcommit; sfence` dance
//! (§2.2): the first fence orders the writeback before the `pcommit`, and
//! the second fence awaits the `pcommit` acknowledgement.
//!
//! [`PersistFrontier`] makes one `O(n)` pass over an `n`-event trace and
//! records, per block, its store indices and every step of its
//! guaranteed-persist frontier. The frontier only moves forward, so at
//! crash index `c` it is the last step whose fence precedes `c`: a binary
//! search. [`CrashSim`] views a frontier at one crash index in
//! `O(log n)` and materializes candidate NVMM images — a per-block cut
//! anywhere between the frontier and the crash — in `O(d log n + s)` for
//! `d` dirty blocks and `s` applied stores, so `k` crash points of one
//! trace cost `O(n + k·d log n)`, not `k` replays. Recovery correctness
//! tests assert that *every* such image recovers to a consistent
//! structure.
//!
//! Writebacks are modelled as 64-byte-atomic (a whole cache line reaches
//! the write-pending queue at once), the standard assumption in the
//! persistency-model literature; sub-line tearing is out of scope.
//!
//! The three flush instructions carry different ordering baggage
//! (§2.2): `clwb` and `clflushopt` are weakly ordered and need the
//! first `sfence` to order the writeback before a `pcommit`, while
//! legacy `clflush` is serializing with respect to a later `pcommit`
//! on its own — its writeback enters the ordered stage directly, and
//! only the trailing `sfence` (awaiting the `pcommit` acknowledgement)
//! is still required for a durability guarantee.

use std::borrow::Cow;
use std::collections::HashMap;

use crate::addr::BlockId;
use crate::event::Event;
use crate::hash::FastHashBuilder;
use crate::rng::splitmix64;
use crate::space::Space;

/// One block's history in a [`PersistFrontier`].
#[derive(Debug, Clone, Default)]
struct BlockFrontier {
    block: BlockId,
    /// Trace indices of the block's stores, ascending.
    stores: Vec<u32>,
    /// `(fence_idx, guarantee)` pairs, both strictly ascending: a crash
    /// after the fence at `fence_idx` finds the block guaranteed up to
    /// the exclusive index `guarantee`.
    steps: Vec<(u32, u32)>,
    /// The flush riding each writeback stage: issued -> (sfence) ->
    /// ordered -> (pcommit) -> in-flight -> (sfence) -> guaranteed.
    issued: Option<u32>,
    ordered: Option<u32>,
    inflight: Option<u32>,
}

impl BlockFrontier {
    fn guarantee_at(&self, crash: usize) -> usize {
        let k = self.steps.partition_point(|&(f, _)| (f as usize) < crash);
        k.checked_sub(1).map_or(0, |k| self.steps[k].1 as usize)
    }
}

/// Moves `slot`'s flush `idx` into a stage, max-merging with a flush
/// already there; `members` lists the slots with a flush in the stage.
fn stage_enter(stage: &mut Option<u32>, members: &mut Vec<u32>, slot: u32, idx: u32) {
    match stage {
        Some(old) => *old = (*old).max(idx),
        None => {
            *stage = Some(idx);
            members.push(slot);
        }
    }
}

/// The guaranteed-persist frontier of every block of a trace at every
/// crash index. Per block it holds the trace indices of the block's
/// stores (images read the payloads from the trace) and the steps of its
/// guarantee. [`PersistFrontier::push`] consumes one event at a time, so
/// trace analyses also drive it as the writeback-stage machine.
///
/// ```
/// use spp_pmem::{PersistFrontier, PmemEnv, Variant};
///
/// let mut env = PmemEnv::new(Variant::LogPSf);
/// let a = env.alloc_block();
/// let base = env.snapshot();
/// env.store_u64(a, 7);
/// env.clwb(a);
/// env.sfence();
/// env.pcommit();
/// env.sfence();
/// let events = env.take_trace().events;
/// let frontier = PersistFrontier::new(&events);
/// // Guaranteed only once the trailing fence has executed.
/// assert_eq!(frontier.at(&base, &events, events.len() - 1).guarantee(a.block()), 0);
/// let end = frontier.at(&base, &events, events.len());
/// assert_eq!(end.image_guaranteed_only().read_u64(a), 7);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PersistFrontier {
    /// Every touched block, in order of first touch.
    blocks: Vec<BlockFrontier>,
    slots: HashMap<BlockId, u32, FastHashBuilder>,
    /// Slots of stored-to blocks, in order of first store.
    dirty: Vec<u32>,
    /// Slots with a flush in each writeback stage.
    issued: Vec<u32>,
    ordered: Vec<u32>,
    inflight: Vec<u32>,
    /// Events consumed.
    len: usize,
}

impl PersistFrontier {
    /// Builds the frontier of `events` in one pass.
    ///
    /// # Panics
    ///
    /// Panics if `events` holds more than `u32::MAX` events.
    pub fn new(events: &[Event]) -> Self {
        let mut f = PersistFrontier::default();
        for ev in events {
            f.push(ev);
        }
        f
    }

    fn slot(&mut self, block: BlockId) -> u32 {
        let next = self.blocks.len() as u32;
        let slot = *self.slots.entry(block).or_insert(next);
        if slot == next {
            let fresh = BlockFrontier {
                block,
                ..BlockFrontier::default()
            };
            self.blocks.push(fresh);
        }
        slot
    }

    fn get(&self, block: BlockId) -> Option<&BlockFrontier> {
        self.slots.get(&block).map(|&s| &self.blocks[s as usize])
    }

    /// Consumes the next trace event. Returns `true` if the event is a
    /// `pcommit` or fence that moved at least one flush to its next
    /// writeback stage.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX` events.
    pub fn push(&mut self, ev: &Event) -> bool {
        assert!(
            self.len < u32::MAX as usize,
            "trace longer than u32::MAX events"
        );
        let idx = self.len as u32;
        self.len += 1;
        match *ev {
            Event::Store { addr, .. } => {
                debug_assert_eq!(
                    addr.raw() % 8,
                    0,
                    "crash analysis assumes 8-byte-aligned stores"
                );
                let s = self.slot(addr.block());
                let b = &mut self.blocks[s as usize];
                if b.stores.is_empty() {
                    self.dirty.push(s);
                }
                b.stores.push(idx);
                false
            }
            Event::Clwb { addr } | Event::ClflushOpt { addr } => {
                let s = self.slot(addr.block());
                let b = &mut self.blocks[s as usize];
                stage_enter(&mut b.issued, &mut self.issued, s, idx);
                false
            }
            Event::Clflush { addr } => {
                // Legacy clflush is ordered with respect to a later
                // pcommit without an intervening sfence (Intel SDM): it
                // skips the issued stage.
                let s = self.slot(addr.block());
                let b = &mut self.blocks[s as usize];
                stage_enter(&mut b.ordered, &mut self.ordered, s, idx);
                false
            }
            Event::Pcommit => {
                for &s in &self.ordered {
                    let b = &mut self.blocks[s as usize];
                    if let Some(i) = b.ordered.take() {
                        stage_enter(&mut b.inflight, &mut self.inflight, s, i);
                    }
                }
                let drained = !self.ordered.is_empty();
                self.ordered.clear();
                drained
            }
            Event::Sfence | Event::Mfence => {
                let drained = !self.inflight.is_empty() || !self.issued.is_empty();
                for &s in &self.inflight {
                    let b = &mut self.blocks[s as usize];
                    if let Some(i) = b.inflight.take() {
                        if i > b.steps.last().map_or(0, |&(_, g)| g) {
                            b.steps.push((idx, i));
                        }
                    }
                }
                for &s in &self.issued {
                    let b = &mut self.blocks[s as usize];
                    if let Some(i) = b.issued.take() {
                        stage_enter(&mut b.ordered, &mut self.ordered, s, i);
                    }
                }
                self.inflight.clear();
                self.issued.clear();
                drained
            }
            _ => false,
        }
    }

    /// Every block the trace stored to or flushed, in order of first
    /// touch.
    pub fn blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.blocks.iter().map(|b| b.block)
    }

    /// Trace indices of `block`'s stores, ascending.
    pub fn stores(&self, block: BlockId) -> &[u32] {
        self.get(block).map_or(&[], |b| &b.stores)
    }

    /// The steps of `block`'s guarantee as `(fence_idx, guarantee)`
    /// pairs, both strictly ascending: from any crash index past
    /// `fence_idx`, the stores to `block` before `guarantee` are
    /// certainly in NVMM.
    pub fn steps(&self, block: BlockId) -> &[(u32, u32)] {
        self.get(block).map_or(&[], |b| &b.steps)
    }

    /// Flushes that never left a writeback stage: no fence and `pcommit`
    /// sequence carried them to the guaranteed frontier.
    pub fn staged(&self) -> impl Iterator<Item = usize> + '_ {
        self.blocks
            .iter()
            .flat_map(|b| [b.issued, b.ordered, b.inflight])
            .flatten()
            .map(|i| i as usize)
    }

    /// Views the frontier at crash index `crash`. `events` must be the
    /// trace the frontier was built from; `base` is the pre-trace image.
    ///
    /// # Panics
    ///
    /// Panics if `events` is not as long as the consumed trace or
    /// `crash > events.len()`.
    pub fn at<'a>(&'a self, base: &'a Space, events: &'a [Event], crash: usize) -> CrashSim<'a> {
        CrashSim::view(base, events, Cow::Borrowed(self), crash)
    }
}

/// A crash-point analysis of a recorded trace: a [`PersistFrontier`]
/// viewed at one crash index.
///
/// ```
/// use spp_pmem::{CrashSim, PmemEnv, Variant, recover};
///
/// let mut env = PmemEnv::new(Variant::LogPSf);
/// let node = env.alloc_block();
/// let base = env.snapshot();
/// env.tx_begin(0);
/// env.tx_log(node, 8);
/// env.tx_set_logged();
/// env.store_u64(node, 42);
/// env.clwb(node);
/// env.tx_commit();
///
/// let trace = env.take_trace();
/// let layout = env.log_layout();
/// // Crash anywhere: the adversarial image must recover consistently.
/// for crash in 0..=trace.events.len() {
///     let sim = CrashSim::new(&base, &trace.events, crash);
///     let mut img = sim.image_guaranteed_only();
///     recover(&mut img, &layout);
///     let v = img.read_u64(node);
///     assert!(v == 0 || v == 42, "torn value {v}");
/// }
/// ```
///
/// [`CrashSim::new`] builds a frontier over the trace prefix for one
/// crash index; to sweep many crash indices of one trace, build the
/// [`PersistFrontier`] once and open a view per index with
/// [`PersistFrontier::at`].
#[derive(Debug)]
pub struct CrashSim<'a> {
    base: &'a Space,
    events: &'a [Event],
    frontier: Cow<'a, PersistFrontier>,
    crash_idx: usize,
    /// How many of the frontier's dirty blocks were stored to before
    /// the crash.
    dirty: usize,
}

impl<'a> CrashSim<'a> {
    /// Analyses `events[..crash_idx]` against the pre-trace image
    /// `base`. `base` is assumed fully durable (e.g. a freshly populated
    /// and quiesced structure).
    ///
    /// # Panics
    ///
    /// Panics if `crash_idx > events.len()`.
    pub fn new(base: &'a Space, events: &'a [Event], crash_idx: usize) -> Self {
        assert!(crash_idx <= events.len(), "crash index past end of trace");
        let frontier = PersistFrontier::new(&events[..crash_idx]);
        CrashSim::view(base, &events[..crash_idx], Cow::Owned(frontier), crash_idx)
    }

    fn view(
        base: &'a Space,
        events: &'a [Event],
        frontier: Cow<'a, PersistFrontier>,
        crash_idx: usize,
    ) -> Self {
        assert_eq!(events.len(), frontier.len, "frontier of another trace");
        assert!(crash_idx <= events.len(), "crash index past end of trace");
        let dirty = frontier
            .dirty
            .partition_point(|&s| (frontier.blocks[s as usize].stores[0] as usize) < crash_idx);
        CrashSim {
            base,
            events,
            frontier,
            crash_idx,
            dirty,
        }
    }

    /// The crash point (exclusive event index) this analysis covers.
    pub fn crash_idx(&self) -> usize {
        self.crash_idx
    }

    /// The guaranteed-persist frontier of `block`, as an *exclusive*
    /// event index: every store to the block strictly before it is
    /// certainly in NVMM. Blocks never persisted return 0 — no store
    /// precedes index 0, so only the base image is certain. (The
    /// exclusive convention matters: a guaranteed flush at event `i`
    /// covers the stores before it, and an inclusive default of 0
    /// would silently claim a store at trace index 0 always persists —
    /// an off-by-one the Px86 litmus harness caught.)
    pub fn guarantee(&self, block: BlockId) -> usize {
        let b = self.frontier.get(block);
        b.map_or(0, |b| b.guarantee_at(self.crash_idx))
    }

    /// Blocks stored to before the crash, in order of first store.
    fn dirty(&self) -> impl Iterator<Item = &BlockFrontier> + '_ {
        self.frontier.dirty[..self.dirty]
            .iter()
            .map(|&s| &self.frontier.blocks[s as usize])
    }

    /// Builds an NVMM image choosing, for each dirty block, a cut point
    /// via `choose(block, frontier, crash_idx)`. The returned cut is
    /// clamped into `[frontier, crash_idx]`; all stores to the block
    /// strictly before the cut are applied (cuts are exclusive, like
    /// the frontier, so `frontier` itself applies exactly the
    /// guaranteed stores and `crash_idx` applies everything). Blocks
    /// are visited in order of first store.
    pub fn image_with(&self, mut choose: impl FnMut(BlockId, usize, usize) -> usize) -> Space {
        let mut img = self.base.clone();
        for b in self.dirty() {
            let g = b.guarantee_at(self.crash_idx);
            let cut = choose(b.block, g, self.crash_idx).clamp(g, self.crash_idx);
            for &i in b.stores.iter().take_while(|&&i| (i as usize) < cut) {
                if let Event::Store { addr, size, value } = self.events[i as usize] {
                    img.write_uint(addr, size, value);
                }
            }
        }
        img
    }

    /// The adversarial "slowest possible writeback" image: each block
    /// contains only its guaranteed stores.
    pub fn image_guaranteed_only(&self) -> Space {
        self.image_with(|_, g, _| g)
    }

    /// A seeded adversarial reordering: every dirty block's cut point is
    /// drawn independently and uniformly from `[frontier, crash_idx]`
    /// by hashing `(seed, block)`, so blocks race ahead of or lag behind
    /// each other in every combination the persistency model allows
    /// (x86-TSO-persistency-style per-line writeback freedom).
    ///
    /// The schedule is a pure function of `(seed, block)` — identical
    /// seeds reproduce identical images, which is what makes fuzzing
    /// witnesses replayable.
    pub fn image_seeded(&self, seed: u64) -> Space {
        self.image_with(|b, g, c| {
            let x = splitmix64(seed ^ b.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15));
            g + (x as usize) % (c - g + 1).max(1)
        })
    }

    /// The "eager writeback" image: every store up to the crash reached
    /// NVMM (as if the cache wrote everything back instantly).
    pub fn image_everything(&self) -> Space {
        self.image_with(|_, _, crash| crash)
    }

    /// Blocks that were stored to before the crash, with their
    /// guaranteed frontiers, in order of first store (diagnostics and
    /// test enumeration).
    pub fn dirty_blocks(&self) -> impl Iterator<Item = (BlockId, usize)> + '_ {
        self.dirty()
            .map(move |b| (b.block, b.guarantee_at(self.crash_idx)))
    }

    /// The distinct cut points of `block`: its guaranteed frontier plus
    /// one cut just past every store at or after the frontier (cuts are
    /// exclusive). Any cut in `[frontier, crash_idx]` produces the same
    /// image as the largest cut point at or below it, so these exhaust
    /// the block's possible post-crash contents. A clean block has the
    /// single cut `0`.
    pub fn cut_points(&self, block: BlockId) -> Vec<usize> {
        let g = self.guarantee(block);
        let mut pts = vec![g];
        pts.extend(
            self.frontier
                .stores(block)
                .iter()
                .map(|&i| i as usize)
                .filter(|&i| i >= g && i < self.crash_idx)
                .map(|i| i + 1),
        );
        pts.dedup();
        pts
    }

    /// Exhaustively enumerates every post-crash image the per-block cut
    /// freedom allows — the cross product of [`CrashSim::cut_points`]
    /// over all dirty blocks — and calls `visit` on each. This is the
    /// ground truth the seeded sampler ([`CrashSim::image_seeded`]) and
    /// the litmus checker's reachable-state sets are pinned against.
    ///
    /// The enumeration is exponential in the number of dirty blocks;
    /// callers are expected to use it on small traces only (litmus
    /// programs, property tests).
    pub fn for_each_image(&self, mut visit: impl FnMut(&Space)) {
        let mut blocks: Vec<BlockId> = self.dirty().map(|b| b.block).collect();
        blocks.sort_unstable();
        let cuts: Vec<Vec<usize>> = blocks.iter().map(|&b| self.cut_points(b)).collect();
        // An odometer over the per-block cut choices, last block fastest.
        let mut pick = vec![0usize; blocks.len()];
        loop {
            let cut = |b, g| blocks.binary_search(&b).map_or(g, |k| cuts[k][pick[k]]);
            visit(&self.image_with(|b, g, _| cut(b, g)));
            let Some(k) = (0..pick.len()).rev().find(|&k| pick[k] + 1 < cuts[k].len()) else {
                return;
            };
            pick[k] += 1;
            pick[k + 1..].fill(0);
        }
    }
}

/// The sorted, deduplicated crash indices at which durability state can
/// change: just before and just after every persistence-relevant event
/// (flushes, `pcommit`, fences, transaction markers), clamped to
/// `0..=events.len()`. Crashing *between* two consecutive boundary
/// points is indistinguishable from crashing at the earlier one as far
/// as guarantees go (only plain stores happen in between, which are
/// never guaranteed), so sweeping these points exhausts every
/// guarantee-frontier configuration a trace can produce.
pub fn persist_boundaries(events: &[Event]) -> Vec<usize> {
    let mut points = vec![0, events.len()];
    for (i, ev) in events.iter().enumerate() {
        let interesting = ev.is_persist_op()
            || ev.is_fence()
            || matches!(ev, Event::TxBegin(_) | Event::TxEnd(_));
        if interesting {
            points.push(i);
            points.push(i + 1);
        }
    }
    points.sort_unstable();
    points.dedup();
    points.retain(|&p| p <= events.len());
    points
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::addr::PAddr;
    use crate::env::PmemEnv;
    use crate::variant::Variant;

    /// clwb alone (no fences/pcommit) guarantees nothing.
    #[test]
    fn clwb_without_barrier_guarantees_nothing() {
        let mut env = PmemEnv::new(Variant::LogP); // no fences in this build
        let a = env.alloc_block();
        let base = env.snapshot();
        env.store_u64(a, 5);
        env.clwb(a);
        env.pcommit();
        let trace = env.take_trace();
        let sim = CrashSim::new(&base, &trace.events, trace.events.len());
        assert_eq!(sim.guarantee(a.block()), 0);
        // Worst case: the store never made it.
        assert_eq!(sim.image_guaranteed_only().read_u64(a), 0);
        // Best case: it did.
        assert_eq!(sim.image_everything().read_u64(a), 5);
    }

    /// The full clwb;sfence;pcommit;sfence sequence guarantees the store.
    #[test]
    fn full_sequence_guarantees_store() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let a = env.alloc_block();
        let base = env.snapshot();
        env.store_u64(a, 5);
        env.clwb(a);
        env.sfence();
        env.pcommit();
        env.sfence();
        let trace = env.take_trace();
        let sim = CrashSim::new(&base, &trace.events, trace.events.len());
        assert!(sim.guarantee(a.block()) > 0);
        assert_eq!(sim.image_guaranteed_only().read_u64(a), 5);
    }

    /// Without the first sfence, the writeback may land after the
    /// pcommit flushed the queue: no guarantee.
    #[test]
    fn missing_first_fence_breaks_guarantee() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let a = env.alloc_block();
        let base = env.snapshot();
        env.store_u64(a, 5);
        env.clwb(a);
        env.pcommit(); // clwb not yet ordered!
        env.sfence();
        let trace = env.take_trace();
        let sim = CrashSim::new(&base, &trace.events, trace.events.len());
        assert_eq!(sim.guarantee(a.block()), 0);
    }

    /// Without the second sfence, the pcommit may not have completed.
    #[test]
    fn missing_second_fence_breaks_guarantee() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let a = env.alloc_block();
        let base = env.snapshot();
        env.store_u64(a, 5);
        env.clwb(a);
        env.sfence();
        env.pcommit();
        let trace = env.take_trace();
        let sim = CrashSim::new(&base, &trace.events, trace.events.len());
        assert_eq!(sim.guarantee(a.block()), 0);
    }

    /// A store after the clwb is not covered by the guarantee.
    #[test]
    fn later_store_not_guaranteed() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let a = env.alloc_block();
        let base = env.snapshot();
        env.store_u64(a, 5);
        env.clwb(a);
        env.sfence();
        env.pcommit();
        env.sfence();
        env.store_u64(a, 9); // newer, unpersisted
        let trace = env.take_trace();
        let sim = CrashSim::new(&base, &trace.events, trace.events.len());
        let img = sim.image_guaranteed_only();
        assert_eq!(img.read_u64(a), 5);
        assert_eq!(sim.image_everything().read_u64(a), 9);
    }

    /// Blocks are independent: one may be stale while another is fresh.
    #[test]
    fn per_block_independence() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let a = env.alloc_block();
        let b = env.alloc_block();
        let base = env.snapshot();
        env.store_u64(a, 1);
        env.store_u64(b, 2);
        let trace = env.take_trace();
        let sim = CrashSim::new(&base, &trace.events, trace.events.len());
        let img = sim.image_with(|blk, g, crash| if blk == a.block() { crash } else { g });
        assert_eq!(img.read_u64(a), 1);
        assert_eq!(img.read_u64(b), 0);
    }

    /// Crash index bounds the visible stores even in the eager image.
    #[test]
    fn crash_idx_truncates() {
        let mut env = PmemEnv::new(Variant::Base);
        let a = env.alloc_block();
        let base = env.snapshot();
        env.store_u64(a, 1); // event 1 (alloc emitted a Compute first)
        env.store_u64(a, 2);
        let trace = env.take_trace();
        let store_idxs: Vec<usize> = trace
            .events
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e, Event::Store { .. }))
            .map(|(i, _)| i)
            .collect();
        let sim = CrashSim::new(&base, &trace.events, store_idxs[1]);
        assert_eq!(sim.image_everything().read_u64(a), 1);
    }

    #[test]
    fn image_with_clamps_wild_cuts() {
        let mut env = PmemEnv::new(Variant::Base);
        let a = env.alloc_block();
        let base = env.snapshot();
        env.store_u64(a, 1);
        let trace = env.take_trace();
        let sim = CrashSim::new(&base, &trace.events, trace.events.len());
        // A chooser returning usize::MAX is clamped to the crash point.
        let img = sim.image_with(|_, _, _| usize::MAX);
        assert_eq!(img.read_u64(a), 1);
    }

    #[test]
    #[should_panic(expected = "past end")]
    fn crash_idx_validated() {
        let base = Space::new();
        let _ = CrashSim::new(&base, &[], 1);
    }

    /// Legacy `clflush` is ordered before a later `pcommit` on its own:
    /// `clflush; pcommit; sfence` guarantees the store with no first
    /// fence, unlike `clwb`/`clflushopt`.
    #[test]
    fn flushmode_guarantees_diverge_without_first_fence() {
        use crate::FlushMode;
        for (mode, expect_guaranteed) in [
            (FlushMode::Clwb, false),
            (FlushMode::ClflushOpt, false),
            (FlushMode::Clflush, true),
        ] {
            let mut env = PmemEnv::new(Variant::LogPSf);
            env.set_flush_mode(mode);
            let a = env.alloc_block();
            let base = env.snapshot();
            env.store_u64(a, 5);
            env.clwb(a); // emits the configured flush instruction
            env.pcommit(); // no sfence between flush and pcommit
            env.sfence();
            let trace = env.take_trace();
            let sim = CrashSim::new(&base, &trace.events, trace.events.len());
            assert_eq!(
                sim.guarantee(a.block()) > 0,
                expect_guaranteed,
                "{mode}: flush; pcommit; sfence guarantee"
            );
        }
    }

    /// With the full `flush; sfence; pcommit; sfence` dance, all three
    /// flush modes guarantee the store identically.
    #[test]
    fn all_flushmodes_guarantee_with_full_barrier() {
        use crate::FlushMode;
        for mode in FlushMode::ALL {
            let mut env = PmemEnv::new(Variant::LogPSf);
            env.set_flush_mode(mode);
            let a = env.alloc_block();
            let base = env.snapshot();
            env.store_u64(a, 5);
            env.clwb(a);
            env.sfence();
            env.pcommit();
            env.sfence();
            let trace = env.take_trace();
            let sim = CrashSim::new(&base, &trace.events, trace.events.len());
            assert!(sim.guarantee(a.block()) > 0, "{mode}: full barrier");
            assert_eq!(sim.image_guaranteed_only().read_u64(a), 5, "{mode}");
        }
    }

    /// Even for clflush, the trailing sfence (pcommit acknowledgement)
    /// is still load-bearing: `clflush; pcommit` alone guarantees
    /// nothing.
    #[test]
    fn clflush_without_trailing_fence_not_guaranteed() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        env.set_flush_mode(crate::FlushMode::Clflush);
        let a = env.alloc_block();
        let base = env.snapshot();
        env.store_u64(a, 5);
        env.clwb(a);
        env.pcommit();
        let trace = env.take_trace();
        let sim = CrashSim::new(&base, &trace.events, trace.events.len());
        assert_eq!(sim.guarantee(a.block()), 0);
    }

    /// A clflush with no pcommit at all is never guaranteed, fences or
    /// not: ordering is not durability.
    #[test]
    fn clflush_alone_is_not_durable() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        env.set_flush_mode(crate::FlushMode::Clflush);
        let a = env.alloc_block();
        let base = env.snapshot();
        env.store_u64(a, 5);
        env.clwb(a);
        env.sfence();
        env.sfence();
        let trace = env.take_trace();
        let sim = CrashSim::new(&base, &trace.events, trace.events.len());
        assert_eq!(sim.guarantee(a.block()), 0);
    }

    #[test]
    fn seeded_images_are_deterministic_and_bounded() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let a = env.alloc_block();
        let b = env.alloc_block();
        let base = env.snapshot();
        env.store_u64(a, 1);
        env.store_u64(b, 2);
        env.store_u64(a, 3);
        let trace = env.take_trace();
        let sim = CrashSim::new(&base, &trace.events, trace.events.len());
        for seed in 0..64u64 {
            let img1 = sim.image_seeded(seed);
            let img2 = sim.image_seeded(seed);
            for addr in [a, b] {
                assert_eq!(img1.read_u64(addr), img2.read_u64(addr), "seed {seed}");
            }
            // Every per-block value must be one of that block's
            // prefix-consistent contents.
            assert!(matches!(img1.read_u64(a), 0 | 1 | 3));
            assert!(matches!(img1.read_u64(b), 0 | 2));
        }
        // With enough seeds, the cuts actually vary (not all-stale).
        let varied = (0..64u64).any(|s| sim.image_seeded(s).read_u64(a) != 0);
        assert!(varied, "seeded schedules never moved past the frontier");
    }

    #[test]
    fn seeded_image_respects_guarantee_frontier() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let a = env.alloc_block();
        let base = env.snapshot();
        env.store_u64(a, 5);
        env.clwb(a);
        env.sfence();
        env.pcommit();
        env.sfence();
        let trace = env.take_trace();
        let sim = CrashSim::new(&base, &trace.events, trace.events.len());
        for seed in 0..32u64 {
            assert_eq!(sim.image_seeded(seed).read_u64(a), 5, "seed {seed}");
        }
    }

    #[test]
    fn persist_boundaries_bracket_every_durability_event() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let a = env.alloc_block();
        env.tx_begin(0);
        env.tx_log(a, 8);
        env.tx_set_logged();
        env.store_u64(a, 1);
        env.clwb(a);
        env.tx_commit();
        let trace = env.take_trace();
        let pts = persist_boundaries(&trace.events);
        // Sorted, deduplicated, bounded.
        assert!(pts.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*pts.first().unwrap(), 0);
        assert_eq!(*pts.last().unwrap(), trace.events.len());
        // Every persist op / fence / tx marker is bracketed.
        for (i, ev) in trace.events.iter().enumerate() {
            if ev.is_persist_op()
                || ev.is_fence()
                || matches!(ev, Event::TxBegin(_) | Event::TxEnd(_))
            {
                assert!(pts.contains(&i), "missing point before event {i}");
                assert!(pts.contains(&(i + 1)), "missing point after event {i}");
            }
        }
    }

    #[test]
    fn cut_points_are_frontier_plus_later_stores() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let a = env.alloc_block();
        let base = env.snapshot();
        env.store_u64(a, 1);
        env.clwb(a);
        env.sfence();
        env.pcommit();
        env.sfence();
        env.store_u64(a, 2);
        env.store_u64(a, 3);
        let trace = env.take_trace();
        let sim = CrashSim::new(&base, &trace.events, trace.events.len());
        let g = sim.guarantee(a.block());
        assert!(g > 0);
        let pts = sim.cut_points(a.block());
        assert_eq!(pts.len(), 3, "frontier + two unguaranteed stores");
        assert_eq!(pts[0], g);
        assert!(pts.windows(2).all(|w| w[0] < w[1]));
        // A clean block exposes only the trivial cut.
        assert_eq!(
            sim.cut_points(BlockId::new(usize::MAX as u64 & !63)),
            vec![0]
        );
    }

    /// Exhaustive enumeration visits exactly the cross product of
    /// per-block prefix states.
    #[test]
    fn for_each_image_is_the_cut_cross_product() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let a = env.alloc_block();
        let b = env.alloc_block();
        let base = env.snapshot();
        env.store_u64(a, 1);
        env.store_u64(b, 10);
        env.store_u64(a, 2);
        let trace = env.take_trace();
        let sim = CrashSim::new(&base, &trace.events, trace.events.len());
        let mut states = std::collections::BTreeSet::new();
        sim.for_each_image(|img| {
            states.insert((img.read_u64(a), img.read_u64(b)));
        });
        // a ∈ {0, 1, 2} independently of b ∈ {0, 10}.
        let expect: std::collections::BTreeSet<(u64, u64)> = [0u64, 1, 2]
            .iter()
            .flat_map(|&x| [0u64, 10].iter().map(move |&y| (x, y)))
            .collect();
        assert_eq!(states, expect);
    }

    /// Satellite: the seeded sampler, swept over a modest seed range,
    /// produces *exactly* the state set the exhaustive enumeration
    /// produces — on every persist boundary of a tiny multi-block trace.
    /// This pins `image_seeded` to the ground truth the litmus checker's
    /// witness replay relies on.
    #[test]
    fn seeded_sweep_matches_exhaustive_enumeration() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let blocks: Vec<PAddr> = (0..4).map(|_| env.alloc_block()).collect();
        let base = env.snapshot();
        env.store_u64(blocks[0], 1);
        env.store_u64(blocks[1], 2);
        env.clwb(blocks[0]);
        env.sfence();
        env.store_u64(blocks[2], 3);
        env.pcommit();
        env.sfence();
        env.store_u64(blocks[3], 4);
        env.store_u64(blocks[0], 5);
        let trace = env.take_trace();
        for &crash in &persist_boundaries(&trace.events) {
            let sim = CrashSim::new(&base, &trace.events, crash);
            let state =
                |img: &Space| -> Vec<u64> { blocks.iter().map(|&p| img.read_u64(p)).collect() };
            let mut exhaustive = std::collections::BTreeSet::new();
            sim.for_each_image(|img| {
                exhaustive.insert(state(img));
            });
            let mut sampled = std::collections::BTreeSet::new();
            for seed in 0..4096u64 {
                sampled.insert(state(&sim.image_seeded(seed)));
            }
            assert_eq!(
                sampled, exhaustive,
                "crash {crash}: seeded sweep must cover exactly the exhaustive states"
            );
        }
    }

    #[test]
    fn dirty_blocks_reports_frontiers() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let a = env.alloc_block();
        let b = env.alloc_block();
        let c = env.alloc_block();
        let base = env.snapshot();
        env.store_u64(c, 1);
        env.store_u64(a, 5);
        env.store_u64(c, 2);
        env.clwb(a);
        env.sfence();
        env.pcommit();
        env.sfence();
        env.clwb(b); // flushed before its first store
        env.store_u64(b, 7);
        let events = env.take_trace().events;
        let frontier = PersistFrontier::new(&events);
        let end = frontier.at(&base, &events, events.len());
        // First-store order: not address order, not flush order.
        let dirty: Vec<(BlockId, usize)> = end.dirty_blocks().collect();
        let order: Vec<BlockId> = dirty.iter().map(|&(blk, _)| blk).collect();
        assert_eq!(order, vec![c.block(), a.block(), b.block()]);
        assert_eq!(dirty[0].1, 0);
        assert!(dirty[1].1 > 0);
        assert_eq!(dirty[2].1, 0);
        // Before b's store the order is a prefix.
        let last_store = events
            .iter()
            .rposition(|e| matches!(e, Event::Store { .. }))
            .unwrap();
        let early = frontier.at(&base, &events, last_store);
        let order: Vec<BlockId> = early.dirty_blocks().map(|(blk, _)| blk).collect();
        assert_eq!(order, vec![c.block(), a.block()]);
    }
}
