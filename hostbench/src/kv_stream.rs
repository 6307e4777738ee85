//! `kv-stream`: the KV engine's mixed workload under `Log+P+Sf`, recorded
//! on one thread and replayed chunk by chunk on another, once on the
//! baseline core and once on SP256.
//!
//! Untraced, each run is one `stream::run_kv_streamed` call. Layer by
//! layer (traced, or a run's checking pass), the iteration pulls the same
//! chunks from a `StreamingKvSource`, replays each with `Simulator::run`
//! and checks that the replay commits exactly the chunk's uops, timing
//! the wait for every chunk and every replay when traced; it rebuilds the
//! same `StreamReport`, so both paths give one digest.

use std::time::Instant;

use spp_bench::source::{StreamingKvSource, TraceSource as _};
use spp_bench::stream::{run_kv_streamed, KvStreamSpec, StreamError, StreamReport};
use spp_cpu::{CpuConfig, Simulator};
use spp_pmem::{Event, Variant};
use spp_workloads::kv::{KvMix, KvSpec};

use crate::{Digest, Iteration, SimTotals, Size, Tracer, MIB};

fn stream_spec(seed: u64, size: Size) -> KvStreamSpec {
    let (init_keys, ops, chunk_ops) = match size {
        Size::Full => (1_000, 16_000, 1_280),
        Size::Tiny => (32, 300, 64),
    };
    KvStreamSpec {
        chunk_ops,
        ..KvStreamSpec::new(
            KvSpec {
                init_keys,
                ops,
                ckpt_every: 16,
                wal_cap: 32,
                seed,
                mix: KvMix::MIXED,
            },
            Variant::LogPSf,
        )
    }
}

/// Seconds from starting the recorder to holding the first chunk.
pub(crate) fn setup_probe(seed: u64, size: Size) -> Result<f64, String> {
    let t = Instant::now();
    let mut src = StreamingKvSource::record(stream_spec(seed, size));
    let first = src.next_chunk().map(|c| c.is_some());
    let secs = t.elapsed().as_secs_f64();
    match first {
        Ok(true) => Ok(secs),
        Ok(false) => Err("the stream produced no chunk".into()),
        Err(e) => Err(format!("first chunk: {e}")),
    }
}

/// Every deterministic field of a report (all but the gauge-measured
/// `peak_bytes`).
fn digest_report(d: &mut Digest, r: &StreamReport) {
    for v in [
        r.ops,
        r.chunks,
        r.spilled_chunks,
        r.events,
        r.cycles,
        r.committed_uops,
        r.peak_bound,
        r.final_count,
        r.mutations,
    ] {
        d.u64(v);
    }
}

pub(crate) fn run(seed: u64, size: Size, tr: &mut Tracer) -> Iteration {
    let sspec = stream_spec(seed, size);
    let mut it = Iteration::default();
    let mut totals = SimTotals::default();
    let mut reports = Vec::new();
    let mut replay_s = [0.0f64; 2];
    for (i, cpu) in [CpuConfig::baseline(), CpuConfig::with_sp()]
        .into_iter()
        .enumerate()
    {
        let outcome = if tr.layered() {
            traced(&sspec, cpu, tr, &mut it, &mut totals, &mut replay_s[i])
        } else {
            run_kv_streamed(&sspec, &cpu)
        };
        let core = if i == 0 { "baseline" } else { "SP256" };
        match outcome {
            Ok(r) => {
                it.check(r.ops == sspec.spec.ops, || {
                    format!("{core}: {} of {} ops streamed", r.ops, sspec.spec.ops)
                });
                reports.push(r);
            }
            Err(e) => it.check(false, || format!("{core}: stream failed: {e}")),
        }
    }
    let mut d = Digest::new();
    for r in &reports {
        digest_report(&mut d, r);
    }
    it.digest = d.finish();
    if let [base, sp] = reports[..] {
        it.check(
            base.committed_uops == sp.committed_uops && base.events == sp.events,
            || {
                format!(
                    "SP256 committed {} uops of {} events, baseline {} of {}",
                    sp.committed_uops, sp.events, base.committed_uops, base.events
                )
            },
        );
        it.simulated
            .insert("kv_sp_speedup", base.cycles as f64 / sp.cycles as f64);
    }
    it.work = reports.iter().map(|r| r.ops).sum();
    for r in &reports {
        it.count("stream.chunks", r.chunks as f64);
        it.count("stream.events", r.events as f64);
        it.count("stream.spilled_chunks", r.spilled_chunks as f64);
        it.count("workloads.events", r.events as f64);
        it.count(
            "workloads.trace_mb",
            (r.events as usize * std::mem::size_of::<Event>()) as f64 / MIB,
        );
    }
    if let Some(peak) = reports.iter().map(|r| r.peak_bytes).max() {
        it.measured.insert("stream.peak_mb", peak as f64 / MIB);
    }
    if tr.layered() {
        totals.report(&mut it);
        it.measured
            .insert("core.sp_extra_s", replay_s[1] - replay_s[0]);
    } else {
        it.count(
            "cpu.uops",
            reports.iter().map(|r| r.committed_uops).sum::<u64>() as f64,
        );
    }
    it
}

/// The traced equivalent of `run_kv_streamed`: the wait for the first
/// chunk is the recorder's set-up (`workloads.first_chunk`), later waits
/// are `stream.wait`, and each chunk's replay is `cpu.run.*`.
fn traced(
    sspec: &KvStreamSpec,
    cpu: CpuConfig,
    tr: &mut Tracer,
    it: &mut Iteration,
    totals: &mut SimTotals,
    replay_s: &mut f64,
) -> Result<StreamReport, StreamError> {
    let cell = tr.new_cell();
    let run_name = if cpu.sp.is_some() {
        "cpu.run.sp"
    } else {
        "cpu.run.base"
    };
    tr.enter("bench.stream", cell);
    let mut src = StreamingKvSource::record(sspec.clone());
    let gauge = src.gauge();
    let mut r = StreamReport {
        ops: 0,
        chunks: 0,
        spilled_chunks: 0,
        events: 0,
        cycles: 0,
        committed_uops: 0,
        peak_bytes: 0,
        peak_bound: 0,
        final_count: 0,
        mutations: 0,
    };
    let mut wait = "workloads.first_chunk";
    let outcome = loop {
        let t = tr.start();
        let next = src.next_chunk();
        tr.leaf(wait, cell, t);
        let events = match next {
            Ok(Some(events)) => events,
            Ok(None) => break Ok(()),
            Err(e) => break Err(e),
        };
        if r.chunks == 0 {
            it.count("workloads.timed_events", events.len() as f64);
        }
        wait = "stream.wait";
        let t = tr.start();
        let result = Simulator::new(&events).config(cpu).run();
        *replay_s += tr.leaf(run_name, cell, t);
        let sim = match result {
            Ok(sim) => sim,
            Err(e) => break Err(StreamError::Sim(e.to_string())),
        };
        let trace_uops: u64 = events.iter().map(Event::micro_ops).sum();
        it.check(sim.cpu.committed_uops == trace_uops, || {
            format!(
                "chunk {}: replay committed {} uops of a {trace_uops}-uop chunk",
                r.chunks, sim.cpu.committed_uops
            )
        });
        totals.add(&sim);
        r.chunks += 1;
        r.events += events.len() as u64;
        r.cycles += sim.cpu.cycles;
        r.committed_uops += sim.cpu.committed_uops;
    };
    let stats = src.stats();
    r.spilled_chunks = src.spilled_chunks();
    r.peak_bound = src.peak_bound();
    drop(src);
    tr.exit();
    outcome?;
    let stats = stats.ok_or(StreamError::RecorderDied)?;
    r.ops = stats.ops;
    r.final_count = stats.final_count;
    r.mutations = stats.mutations;
    r.peak_bytes = gauge.peak();
    Ok(r)
}
