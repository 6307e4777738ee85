//! Host-cost benchmark for the specpersist simulator.
//!
//! Three workloads drive the public API of `spp-bench`, `spp-workloads`,
//! `spp-pmem` and `spp-cpu`, each in a process of its own so that peak
//! RSS belongs to one workload:
//!
//! * `paper-suite`: the Fig. 8-12/14 sweep and the Fig. 13 SSB sweep over
//!   all seven Table 1 benchmarks on a cold one-worker `Harness`, with
//!   recording interleaved with replay as in `repro all`;
//! * `crash-sweep`: `Log+P+Sf` crash bundles for every benchmark and
//!   flush instruction, every crash point checked under two reorder
//!   seeds, and each bundle through the persist-path optimizer and its
//!   safety lemma — persist-frontier work only, no pipeline;
//! * `kv-stream`: the KV engine's mixed workload under `Log+P+Sf`,
//!   streamed chunk by chunk through the simulator on the baseline and
//!   the SP256 core.
//!
//! An untraced iteration calls the layers' entry points as users do; a
//! layer-by-layer iteration makes the same calls one layer at a time and
//! checks each call's output. Traced, a [`span::Tracer`] span around
//! each call attributes host time from outside the program. Every run
//! starts with one untimed layer-by-layer pass, so the per-call checks
//! cover the untraced iterations too: both paths produce the same
//! [`Iteration::digest`], and every iteration's digest must equal the
//! checking pass's.
//! Modelled caches start empty in every simulation and every iteration
//! starts with an empty trace cache.

#![forbid(unsafe_code)]

pub mod host;
pub mod metrics;
pub mod span;

mod crash_sweep;
mod kv_stream;
mod paper_suite;

use std::collections::BTreeMap;
use std::fmt::Debug;

use spp_cpu::SimResult;

pub use span::Tracer;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 8-14 suite on a cold harness.
    PaperSuite,
    /// Crash-oracle and optimizer sweep over fuzz bundles.
    CrashSweep,
    /// Streamed KV engine on the baseline and SP256 cores.
    KvStream,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperSuite,
        Workload::CrashSweep,
        Workload::KvStream,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSuite => "paper-suite",
            Workload::CrashSweep => "crash-sweep",
            Workload::KvStream => "kv-stream",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// What one unit of [`Iteration::work`] is.
    pub fn work_unit(self) -> &'static str {
        match self {
            Workload::PaperSuite => "committed simulated uops",
            Workload::CrashSweep => "crash checks",
            Workload::KvStream => "KV driver ops (both cores)",
        }
    }

    /// Runs one iteration from cold: every trace, bundle and stream is
    /// produced again from `seed`.
    pub fn run(self, seed: u64, size: Size, tr: &mut Tracer) -> Iteration {
        match self {
            Workload::PaperSuite => paper_suite::run(seed, size, tr),
            Workload::CrashSweep => crash_sweep::run(seed, size, tr),
            Workload::KvStream => kv_stream::run(seed, size, tr),
        }
    }

    /// One stand-alone measurement of set-up time: harness construction
    /// on `paper-suite`, bundle recording on `crash-sweep` (also timed
    /// inside [`Workload::run`], see [`Iteration::setup_s`]) and the
    /// first chunk on `kv-stream`.
    ///
    /// # Errors
    ///
    /// Returns a message if set-up fails.
    pub fn setup_probe(self, seed: u64, size: Size) -> Option<Result<f64, String>> {
        match self {
            Workload::PaperSuite => Some(Ok(paper_suite::setup_probe(seed, size))),
            Workload::CrashSweep => Some(Ok(crash_sweep::setup_probe(seed, size))),
            Workload::KvStream => Some(kv_stream::setup_probe(seed, size)),
        }
    }
}

/// Input sizes: `Full` for measurements, `Tiny` for the determinism
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A smoke-test size that runs in well under a second.
    Tiny,
}

/// What one iteration produced, apart from its wall and CPU time.
#[derive(Debug, Clone, Default)]
pub struct Iteration {
    /// Hash of every deterministic simulated result, crash verdict and
    /// stream report field; equal for layered and untraced iterations of
    /// one seed.
    pub digest: u64,
    /// Correctness checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Set-up time inside the iteration (bundle recording on
    /// `crash-sweep`); `None` where set-up is probed separately.
    pub setup_s: Option<f64>,
    /// Units of completed work ([`Workload::work_unit`]).
    pub work: u64,
    /// Simulated end-to-end results (not host costs).
    pub simulated: BTreeMap<&'static str, f64>,
    /// Deterministic per-layer counts (complete only layer by layer).
    pub counts: BTreeMap<&'static str, f64>,
    /// Per-layer values that are measured, not deterministic.
    pub measured: BTreeMap<&'static str, f64>,
}

impl Iteration {
    /// Records one correctness check.
    pub(crate) fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    pub(crate) fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }
}

/// FNV-1a over a stream of values; stable across runs and platforms of
/// one toolchain.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Digest(u64);

impl Digest {
    pub(crate) fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Hashes every field of `v` through its `Debug` rendering.
    pub(crate) fn debug(&mut self, v: &impl Debug) {
        self.bytes(format!("{v:?}").as_bytes());
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// Sums of the simulated counters the per-layer report shows, over
/// every `SimResult` of an iteration.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SimTotals {
    sims: u64,
    uops: u64,
    cycles: u64,
    fence_stall: u64,
    fetch_stall: u64,
    squashed: u64,
    ssb_inserts: u64,
    ssb_lookups: u64,
    ssb_full: u64,
    bloom_queries: u64,
    bloom_fp: u64,
    epochs: u64,
    rollbacks: u64,
    ckpt_exhaustions: u64,
    l1: u64,
    l2: u64,
    l3: u64,
    mem: u64,
    nvmm_writes: u64,
    wpq_stall: u64,
    pcommits: u64,
    pcommit_lat: u64,
}

impl SimTotals {
    pub(crate) fn add(&mut self, r: &SimResult) {
        self.sims += 1;
        self.uops += r.cpu.committed_uops;
        self.cycles += r.cpu.cycles;
        self.fence_stall += r.cpu.fence_stall_cycles;
        self.fetch_stall += r.cpu.fetch_stall_cycles;
        self.squashed += r.cpu.squashed_uops;
        self.ssb_inserts += r.ssb.inserts;
        self.ssb_lookups += r.ssb.lookups;
        self.ssb_full += r.ssb.full_rejections;
        self.bloom_queries += r.bloom.queries;
        self.bloom_fp += r.bloom.false_positives;
        self.epochs += r.cpu.epochs;
        self.rollbacks += r.cpu.rollbacks;
        self.ckpt_exhaustions += r.checkpoints.exhaustions;
        self.l1 += r.mem.hits_l1;
        self.l2 += r.mem.hits_l2;
        self.l3 += r.mem.hits_l3;
        self.mem += r.mem.mem_accesses;
        self.nvmm_writes += r.mc.nvmm_writes;
        self.wpq_stall += r.mc.wpq_stall_cycles;
        self.pcommits += r.mc.pcommits;
        self.pcommit_lat += r.mc.pcommit_latency_total;
    }

    /// Adds the `cpu.*`, `core.*` and `mem.*` counts to `it`.
    pub(crate) fn report(&self, it: &mut Iteration) {
        let pairs = [
            ("cpu.sims", self.sims),
            ("cpu.uops", self.uops),
            ("cpu.cycles", self.cycles),
            ("cpu.fence_stall_cycles", self.fence_stall),
            ("cpu.fetch_stall_cycles", self.fetch_stall),
            ("cpu.squashed_uops", self.squashed),
            ("core.ssb_inserts", self.ssb_inserts),
            ("core.ssb_lookups", self.ssb_lookups),
            ("core.ssb_full_rejections", self.ssb_full),
            ("core.bloom_queries", self.bloom_queries),
            ("core.bloom_false_positives", self.bloom_fp),
            ("core.epochs", self.epochs),
            ("core.rollbacks", self.rollbacks),
            ("core.checkpoint_exhaustions", self.ckpt_exhaustions),
            ("mem.l1_hits", self.l1),
            ("mem.l2_hits", self.l2),
            ("mem.l3_hits", self.l3),
            ("mem.mem_accesses", self.mem),
            ("mem.nvmm_writes", self.nvmm_writes),
            ("mem.wpq_stall_cycles", self.wpq_stall),
        ];
        for (name, v) in pairs {
            it.count(name, v as f64);
        }
        if self.pcommits > 0 {
            it.count(
                "mem.pcommit_lat_avg",
                self.pcommit_lat as f64 / self.pcommits as f64,
            );
        }
    }
}

/// Bytes per MiB.
pub(crate) const MIB: f64 = 1024.0 * 1024.0;
