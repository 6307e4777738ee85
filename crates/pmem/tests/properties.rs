//! Property tests for the pmem substrate: crash-image soundness and
//! recovery correctness under randomized programs and crash points.

use std::collections::{BTreeSet, HashMap};

use proptest::prelude::*;
use spp_pmem::{
    recover, splitmix64, BlockId, CrashSim, Event, PAddr, PersistFrontier, PmemEnv, Space, Variant,
    BLOCK_SIZE,
};

/// A tiny random "program": a sequence of failure-safe transactions,
/// each updating a random subset of a small array of persistent cells.
#[derive(Debug, Clone)]
struct TxOp {
    cells: Vec<(usize, u64)>, // (cell index, new value)
}

fn tx_ops(n_cells: usize) -> impl Strategy<Value = Vec<TxOp>> {
    prop::collection::vec(
        prop::collection::vec((0..n_cells, any::<u64>()), 1..4).prop_map(|cells| TxOp { cells }),
        1..6,
    )
}

/// Runs the transactions against a fresh env and returns everything a
/// crash test needs.
fn run_program(
    variant: Variant,
    n_cells: usize,
    ops: &[TxOp],
) -> (
    PmemEnv,
    spp_pmem::Space,
    Vec<spp_pmem::PAddr>,
    spp_pmem::Trace,
) {
    let mut env = PmemEnv::new(variant);
    let cells: Vec<_> = (0..n_cells).map(|_| env.alloc_block()).collect();
    // Initial values: cell i holds i, fully persisted before recording.
    env.set_recording(false);
    for (i, &c) in cells.iter().enumerate() {
        env.store_u64(c, i as u64);
    }
    env.set_recording(true);
    let base = env.snapshot();
    for (id, op) in ops.iter().enumerate() {
        env.tx_begin(id as u64);
        for &(i, _) in &op.cells {
            env.tx_log(cells[i], 8);
        }
        env.tx_set_logged();
        for &(i, v) in &op.cells {
            env.store_u64(cells[i], v);
            env.clwb(cells[i]);
        }
        env.tx_commit();
    }
    let trace = env.take_trace();
    (env, base, cells, trace)
}

/// Computes the set of acceptable post-recovery states: after any prefix
/// of committed transactions (each transaction is atomic).
fn acceptable_states(n_cells: usize, ops: &[TxOp]) -> Vec<Vec<u64>> {
    let mut states = Vec::with_capacity(ops.len() + 1);
    let mut cur: Vec<u64> = (0..n_cells as u64).collect();
    states.push(cur.clone());
    for op in ops {
        for &(i, v) in &op.cells {
            cur[i] = v;
        }
        states.push(cur.clone());
    }
    states
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline failure-safety property: in the Log+P+Sf build, an
    /// adversarial crash at ANY event boundary, with the slowest possible
    /// writebacks, recovers to a transaction-atomic state.
    #[test]
    fn wal_recovery_is_transaction_atomic(ops in tx_ops(4), crash_frac in 0.0f64..=1.0) {
        let (env, base, cells, trace) = run_program(Variant::LogPSf, 4, &ops);
        let layout = env.log_layout();
        let crash = ((trace.events.len() as f64) * crash_frac) as usize;
        let sim = CrashSim::new(&base, &trace.events, crash.min(trace.events.len()));
        let mut img = sim.image_guaranteed_only();
        recover(&mut img, &layout);
        let state: Vec<u64> = cells.iter().map(|&c| img.read_u64(c)).collect();
        let ok = acceptable_states(4, &ops).contains(&state);
        prop_assert!(ok, "recovered to non-atomic state {state:?}");
    }

    /// Same property under arbitrary (not just adversarial) per-block
    /// writeback schedules, derived from a random seed.
    #[test]
    fn wal_recovery_atomic_under_random_writebacks(
        ops in tx_ops(3),
        crash_frac in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let (env, base, cells, trace) = run_program(Variant::LogPSf, 3, &ops);
        let layout = env.log_layout();
        let crash = ((trace.events.len() as f64) * crash_frac) as usize;
        let sim = CrashSim::new(&base, &trace.events, crash.min(trace.events.len()));
        // Deterministic pseudo-random cut per block from the seed.
        let mut img = sim.image_with(|b, g, c| {
            let h = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(b.raw().wrapping_mul(0xBF58_476D_1CE4_E5B9));
            g + (h as usize) % (c - g + 1).max(1)
        });
        recover(&mut img, &layout);
        let state: Vec<u64> = cells.iter().map(|&c| img.read_u64(c)).collect();
        let ok = acceptable_states(3, &ops).contains(&state);
        prop_assert!(ok, "recovered to non-atomic state {state:?}");
    }

    /// Negative control: the Log+P build (no fences) is NOT failure safe
    /// in general — but recovery must still never produce a state outside
    /// the per-cell value universe (no wild writes from the log replay).
    #[test]
    fn recovery_never_writes_outside_targets(ops in tx_ops(3), crash_frac in 0.0f64..=1.0) {
        let (env, base, cells, trace) = run_program(Variant::LogP, 3, &ops);
        let layout = env.log_layout();
        let crash = ((trace.events.len() as f64) * crash_frac) as usize;
        let sim = CrashSim::new(&base, &trace.events, crash.min(trace.events.len()));
        let mut img = sim.image_guaranteed_only();
        recover(&mut img, &layout);
        // An untouched sentinel block far from the program's cells must
        // remain zero after recovery.
        let sentinel = cells.last().unwrap().offset(16 * BLOCK_SIZE);
        prop_assert_eq!(img.read_u64(sentinel), 0);
        let _ = base;
    }

    /// The eager image (everything written back) always equals the
    /// functional shadow memory at the crash point for stored cells.
    #[test]
    fn eager_image_matches_functional_state(ops in tx_ops(3)) {
        let (env, base, cells, trace) = run_program(Variant::LogPSf, 3, &ops);
        let sim = CrashSim::new(&base, &trace.events, trace.events.len());
        let img = sim.image_everything();
        for &c in &cells {
            prop_assert_eq!(img.read_u64(c), env.space().read_u64(c));
        }
    }

    /// Guarantee frontiers are monotone in the crash index.
    #[test]
    fn guarantee_frontier_is_monotone(ops in tx_ops(2)) {
        let (_env, base, cells, trace) = run_program(Variant::LogPSf, 2, &ops);
        let n = trace.events.len();
        let mut prev = vec![0usize; cells.len()];
        for crash in (0..=n).step_by((n / 16).max(1)) {
            let sim = CrashSim::new(&base, &trace.events, crash);
            for (i, &c) in cells.iter().enumerate() {
                let g = sim.guarantee(c.block());
                prop_assert!(g >= prev[i], "frontier went backwards");
                prev[i] = g;
            }
        }
    }
}

/// Test-only reference model of the crash frontier: a straight-line
/// replay of `events[..crash_idx]` through the writeback stages, kept
/// independent of [`PersistFrontier`] so the proptest below can pin the
/// build-once frontier to it.
struct ReferenceCrash<'a> {
    base: &'a Space,
    crash_idx: usize,
    /// Per block: its stores `(idx, addr, size, value)` in trace order.
    stores: HashMap<BlockId, Vec<(usize, PAddr, u8, u64)>>,
    /// Blocks in order of first store.
    first_store: Vec<BlockId>,
    guaranteed: HashMap<BlockId, usize>,
}

impl<'a> ReferenceCrash<'a> {
    fn new(base: &'a Space, events: &[Event], crash_idx: usize) -> Self {
        let mut stores: HashMap<BlockId, Vec<(usize, PAddr, u8, u64)>> = HashMap::new();
        let mut first_store = Vec::new();
        let mut guaranteed: HashMap<BlockId, usize> = HashMap::new();
        // issued -> (sfence) -> ordered -> (pcommit) -> in-flight ->
        // (sfence) -> guaranteed.
        let mut issued: HashMap<BlockId, usize> = HashMap::new();
        let mut ordered: HashMap<BlockId, usize> = HashMap::new();
        let mut inflight: HashMap<BlockId, usize> = HashMap::new();
        for (idx, ev) in events[..crash_idx].iter().enumerate() {
            match *ev {
                Event::Store { addr, size, value } => {
                    let v = stores.entry(addr.block()).or_default();
                    if v.is_empty() {
                        first_store.push(addr.block());
                    }
                    v.push((idx, addr, size, value));
                }
                Event::Clwb { addr } | Event::ClflushOpt { addr } => {
                    issued.insert(addr.block(), idx);
                }
                // Legacy clflush skips the issued stage.
                Event::Clflush { addr } => {
                    ordered.insert(addr.block(), idx);
                }
                Event::Pcommit => {
                    for (b, i) in ordered.drain() {
                        let e = inflight.entry(b).or_insert(i);
                        *e = (*e).max(i);
                    }
                }
                Event::Sfence | Event::Mfence => {
                    for (b, i) in inflight.drain() {
                        let e = guaranteed.entry(b).or_insert(i);
                        *e = (*e).max(i);
                    }
                    for (b, i) in issued.drain() {
                        let e = ordered.entry(b).or_insert(i);
                        *e = (*e).max(i);
                    }
                }
                _ => {}
            }
        }
        ReferenceCrash {
            base,
            crash_idx,
            stores,
            first_store,
            guaranteed,
        }
    }

    fn guarantee(&self, block: BlockId) -> usize {
        self.guaranteed.get(&block).copied().unwrap_or(0)
    }

    fn cut_points(&self, block: BlockId) -> Vec<usize> {
        let g = self.guarantee(block);
        let mut pts = vec![g];
        if let Some(stores) = self.stores.get(&block) {
            pts.extend(stores.iter().filter(|s| s.0 >= g).map(|s| s.0 + 1));
        }
        pts.dedup();
        pts
    }

    fn image_seeded(&self, seed: u64) -> Space {
        let mut img = self.base.clone();
        for (&block, stores) in &self.stores {
            let (g, c) = (self.guarantee(block), self.crash_idx);
            let x = splitmix64(seed ^ block.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let cut = g + (x as usize) % (c - g + 1).max(1);
            for &(idx, addr, size, value) in stores {
                if idx < cut {
                    img.write_uint(addr, size, value);
                }
            }
        }
        img
    }
}

/// Blocks a random persist program touches (one more stays clean).
const PROGRAM_BLOCKS: u64 = 4;

fn program_addr(block: u64, word: u64) -> PAddr {
    PAddr::new(BLOCK_SIZE * (16 + block) + 8 * word)
}

/// A random persist program: stores, all three flush instructions,
/// `pcommit`, both fences and some persistence-neutral events, over a
/// few blocks, emitted as raw events so one trace can mix flush kinds.
fn persist_program() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec((0..11u8, 0..PROGRAM_BLOCKS, any::<u64>()), 0..48).prop_map(|ops| {
        ops.into_iter()
            .map(|(kind, block, value)| {
                let addr = program_addr(block, value % 8);
                match kind {
                    0..=2 => Event::Store {
                        addr,
                        size: 8,
                        value,
                    },
                    3 => Event::Clwb { addr },
                    4 => Event::ClflushOpt { addr },
                    5 => Event::Clflush { addr },
                    6 => Event::Pcommit,
                    7 => Event::Sfence,
                    8 => Event::Mfence,
                    9 => Event::TxEnd(value),
                    _ => Event::Load {
                        addr,
                        size: 8,
                        dep: false,
                    },
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The frontier built once over a whole trace, viewed at crash index
    /// `c`, is indistinguishable from a straight-line replay of
    /// `events[..c]`: same guarantees, same dirty blocks in the same
    /// order, same cut points and same seeded images, at every `c`.
    #[test]
    fn frontier_view_matches_reference_replay(events in persist_program()) {
        let mut base = Space::new();
        for b in 0..PROGRAM_BLOCKS {
            base.write_u64(program_addr(b, b), 100 + b);
        }
        let blocks: Vec<BlockId> = (0..=PROGRAM_BLOCKS).map(|b| program_addr(b, 0).block()).collect();
        let frontier = PersistFrontier::new(&events);
        for c in 0..=events.len() {
            let view = frontier.at(&base, &events, c);
            let reference = ReferenceCrash::new(&base, &events, c);
            for &b in &blocks {
                prop_assert_eq!(view.guarantee(b), reference.guarantee(b), "guarantee @ {}", c);
                prop_assert_eq!(view.cut_points(b), reference.cut_points(b), "cut points @ {}", c);
            }
            let dirty: Vec<BlockId> = view.dirty_blocks().map(|(b, _)| b).collect();
            prop_assert_eq!(&dirty, &reference.first_store, "dirty blocks @ {}", c);
            let ref_dirty: BTreeSet<u64> = reference.stores.keys().map(|b| b.raw()).collect();
            let got_dirty: BTreeSet<u64> = dirty.iter().map(|b| b.raw()).collect();
            prop_assert_eq!(got_dirty, ref_dirty);
            for seed in [0u64, 1, 7, 0xBEEF, u64::MAX] {
                let (got, want) = (view.image_seeded(seed), reference.image_seeded(seed));
                for b in 0..=PROGRAM_BLOCKS {
                    for w in 0..8 {
                        let a = program_addr(b, w);
                        prop_assert_eq!(got.read_u64(a), want.read_u64(a), "seed {} @ {}", seed, c);
                    }
                }
            }
        }
        // The per-prefix constructor is the same frontier.
        for c in 0..=events.len() {
            let (sim, view) = (CrashSim::new(&base, &events, c), frontier.at(&base, &events, c));
            for &b in &blocks {
                prop_assert_eq!(sim.guarantee(b), view.guarantee(b));
            }
        }
    }
}
