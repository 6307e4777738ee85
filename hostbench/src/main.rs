//! `hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one untimed layer-by-layer pass of the workload that checks
//! every call's output, then repeats the workload, each iteration from
//! cold, until the next iteration would end after `--seconds` (counted
//! from the start, checking pass included). It prints every metric by
//! name with its unit and, as the last line of standard output, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones over untraced
//! iterations: the lower quartile of their host times divided by the
//! lower quartile of the reference kernel's times (`host::reference_s`),
//! the least peak RSS of an iteration and the median set-up time; with
//! `--trace 1` untraced and traced iterations alternate and the metrics
//! are the per-layer ones.
//! Spans of a traced run are written to
//! `.hostbench/spans-<workload>-<seed>.jsonl`.

use std::fmt::Write as _;
use std::fs::{self, File};
use std::io::{BufWriter, Write as _};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use spp_hostbench::metrics::{median, per_layer, quantile, Metric, Traced, END_TO_END};
use spp_hostbench::{host, Iteration, Size, Tracer, Workload};

const USAGE: &str = "usage: hostbench --workload <paper-suite|crash-sweep|kv-stream> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// The paper's residual SP256 overhead over `Log+P`, in percent
/// (EXPERIMENTS.md headline).
const PAPER_SP_RESIDUAL_PCT: f64 = 3.6;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_u64(flag: &str, v: &str) -> Result<u64, String> {
    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|_| format!("{flag} {v:?} is not an unsigned integer"))
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::PaperSuite,
        seed: 0x5EED,
        seconds: 30,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => args.seed = parse_u64(&flag, &value)?,
            "--seconds" => args.seconds = parse_u64(&flag, &value)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hostbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One iteration's outcome with its host costs.
struct Sample {
    it: Iteration,
    tracer: Option<Tracer>,
    wall_s: f64,
    cpu_s: f64,
    rss_mib: f64,
}

/// What a run measured.
struct Measured {
    /// The untimed layer-by-layer pass every iteration must agree with.
    checked: Iteration,
    samples: Vec<Sample>,
    /// Every set-up time measured.
    setup_s: Vec<f64>,
    /// Reference-kernel times, one before each iteration and one after
    /// the last.
    ref_s: Vec<f64>,
}

/// Runs the checking pass, then iterations until the next one, with its
/// probes, would end past the deadline; a traced run alternates untraced
/// and traced iterations. Set-up is probed before each iteration, and the
/// host reference kernel is timed between iterations, so both see the
/// same host conditions as the iterations.
fn iterate(args: &Args) -> Result<Measured, String> {
    let w = args.workload;
    let deadline = Duration::from_secs(args.seconds);
    let min_iterations = if args.trace { 4 } else { 3 };
    let start = Instant::now();
    let mut m = Measured {
        checked: w.run(args.seed, Size::Full, &mut Tracer::layer_by_layer()),
        samples: Vec::new(),
        setup_s: Vec::new(),
        ref_s: Vec::new(),
    };
    loop {
        let cycle = Instant::now();
        m.ref_s.push(host::reference_s());
        if let Some(probe) = w.setup_probe(args.seed, Size::Full) {
            m.setup_s.push(probe?);
        }
        let traced = args.trace && m.samples.len() % 2 == 1;
        let mut tracer = if traced { Tracer::on() } else { Tracer::off() };
        host::reset_peak_rss()?;
        let cpu0 = host::cpu_seconds()?;
        let t0 = Instant::now();
        let it = w.run(args.seed, Size::Full, &mut tracer);
        let wall = t0.elapsed();
        let cpu_s = host::cpu_seconds()? - cpu0;
        let rss_mib = host::peak_rss_mib()?;
        m.setup_s.extend(it.setup_s);
        m.samples.push(Sample {
            it,
            tracer: traced.then_some(tracer),
            wall_s: wall.as_secs_f64(),
            cpu_s,
            rss_mib,
        });
        if m.samples.len() >= min_iterations && start.elapsed() + cycle.elapsed() > deadline {
            m.ref_s.push(host::reference_s());
            return Ok(m);
        }
    }
}

/// Checks made and failed, with the first failure messages: the
/// checking pass's and every iteration's own checks, plus every
/// iteration's digest and every traced iteration's per-layer counts
/// against the checking pass's.
fn verdict(checked: &Iteration, samples: &[Sample]) -> (u64, u64, Vec<String>) {
    let its = || std::iter::once(checked).chain(samples.iter().map(|s| &s.it));
    let mut attempted: u64 = its().map(|it| it.attempted).sum();
    let mut failed: u64 = its().map(|it| it.failed).sum();
    let mut failures: Vec<String> = its()
        .flat_map(|it| it.failures.iter().cloned())
        .take(8)
        .collect();
    for (i, s) in samples.iter().enumerate() {
        attempted += 1;
        if s.it.digest != checked.digest {
            failed += 1;
            failures.push(format!(
                "iteration {i}: sim_digest differs from the checking pass"
            ));
        }
        if s.tracer.is_some() {
            attempted += 1;
            if s.it.counts != checked.counts {
                failed += 1;
                failures.push(format!(
                    "iteration {i}: per-layer counts differ from the checking pass"
                ));
            }
        }
    }
    (attempted, failed, failures)
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let started = Instant::now();
    let Measured {
        checked,
        samples,
        setup_s,
        ref_s,
    } = iterate(args)?;
    let (attempted, failed, failures) = verdict(&checked, &samples);

    let untraced: Vec<&Sample> = samples.iter().filter(|s| s.tracer.is_none()).collect();
    // A shared host only ever adds time, in spells that last minutes, so
    // the lower quartile of the iterations against the lower quartile of
    // the reference kernel estimates what the workload itself costs more
    // steadily than medians or minima do (METRICS.md, "Noise"). An
    // iteration's peak RSS only gains from what the allocator still holds
    // of the iteration before, so the least one is reported.
    let ref_quick = quantile(&ref_s, 0.25);
    let quick = |cost: &dyn Fn(&Sample) -> f64| {
        quantile(&untraced.iter().map(|s| cost(s)).collect::<Vec<_>>(), 0.25) / ref_quick
    };
    let walls: Vec<f64> = untraced.iter().map(|s| s.wall_s).collect();
    let cpus: Vec<f64> = untraced.iter().map(|s| s.cpu_s).collect();
    let rss: Vec<f64> = untraced.iter().map(|s| s.rss_mib).collect();
    let per_wall_s = |n: &dyn Fn(&Iteration) -> f64| {
        median(
            &untraced
                .iter()
                .map(|s| n(&s.it) / s.wall_s)
                .collect::<Vec<_>>(),
        )
    };
    let work_per_s = per_wall_s(&|it| it.work as f64);
    let uops_per_s = per_wall_s(&|it| it.counts.get("cpu.uops").copied().unwrap_or(0.0));
    let ref_med = median(&ref_s);
    let e2e = [
        median(&setup_s) / ref_med * host::NOMINAL_REF_S,
        quick(&|s| s.wall_s),
        quick(&|s| s.cpu_s),
        quantile(&rss, 0.0),
        quick(&|s| s.wall_s / s.it.work as f64).recip(),
    ];

    let mut out = String::new();
    let _ = writeln!(
        out,
        "hostbench {}: seed {:#x}, checking pass and {} iterations ({} untraced) in {:.1} s, {} CPUs",
        w.name(),
        args.seed,
        samples.len(),
        untraced.len(),
        started.elapsed().as_secs_f64(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let _ = writeln!(
        out,
        "end-to-end over untraced iterations (median [min, max], n = {}); \
         *_ref = lower quartile of host time / of ref_s:",
        untraced.len()
    );
    let range = |v: &[f64]| format!("[{:.4}, {:.4}]", quantile(v, 0.0), quantile(v, 1.0));
    let residual = checked.simulated.get("sp_residual_pct").map(|&r| {
        format!(
            "simulated; paper {PAPER_SP_RESIDUAL_PCT}, abs error {:.3} pp",
            (r - PAPER_SP_RESIDUAL_PCT).abs()
        )
    });
    let rows: [(&str, Option<f64>, &str, String); 17] = [
        (
            "setup_s",
            Some(e2e[0]),
            "s",
            format!(
                "at nominal host speed: setup_raw_s * {} s / ref_s",
                host::NOMINAL_REF_S
            ),
        ),
        (
            "wall_ref",
            Some(e2e[1]),
            "ref",
            "wall_s / ref_s, lower quartiles".into(),
        ),
        (
            "cpu_ref",
            Some(e2e[2]),
            "ref",
            "cpu_s / ref_s, lower quartiles".into(),
        ),
        (
            "peak_rss_mb",
            Some(e2e[3]),
            "MiB",
            format!("least VmHWM of an iteration {}", range(&rss)),
        ),
        (
            "work_per_ref",
            Some(e2e[4]),
            "1/ref",
            format!("{} per ref_s, lower quartiles", w.work_unit()),
        ),
        (
            "ref_s",
            Some(ref_med),
            "s",
            format!("host reference kernel {}", range(&ref_s)),
        ),
        (
            "setup_raw_s",
            Some(median(&setup_s)),
            "s",
            format!("n = {} {}", setup_s.len(), range(&setup_s)),
        ),
        ("wall_s", Some(median(&walls)), "s", range(&walls)),
        ("cpu_s", Some(median(&cpus)), "s", range(&cpus)),
        (
            "work_per_s",
            Some(work_per_s),
            "1/s",
            format!("{} per wall second", w.work_unit()),
        ),
        (
            "uops_per_s",
            (w != Workload::CrashSweep).then_some(uops_per_s),
            "1/s",
            "committed simulated uops per wall second".into(),
        ),
        (
            "checks_per_s",
            (w == Workload::CrashSweep).then_some(work_per_s),
            "1/s",
            "crash checks per wall second".into(),
        ),
        (
            "kv_ops_per_s",
            (w == Workload::KvStream).then_some(work_per_s),
            "1/s",
            "KV driver ops per wall second, both cores".into(),
        ),
        (
            "fail_frac",
            Some(failed as f64 / attempted.max(1) as f64),
            "1",
            format!("{failed} of {attempted} checks failed"),
        ),
        (
            "sp_residual_pct",
            checked.simulated.get("sp_residual_pct").copied(),
            "%",
            residual.unwrap_or_default(),
        ),
        (
            "kv_sp_speedup",
            checked.simulated.get("kv_sp_speedup").copied(),
            "x",
            "simulated; unvalidated, no reference exists".into(),
        ),
        ("sim_digest", None, "", format!("{:#018x}", checked.digest)),
    ];
    for (name, value, unit, note) in rows {
        let _ = match value {
            Some(v) => writeln!(out, "  {name:<16} {v:>16.6} {unit:<4} {note}"),
            None if name == "sim_digest" => writeln!(out, "  {name:<16} {note}"),
            None => writeln!(
                out,
                "  {name:<16} {:>16} {unit:<4} not run on this workload",
                "n/a"
            ),
        };
    }
    let order: Vec<String> = samples
        .iter()
        .map(|s| {
            format!(
                "{:.3}{}",
                s.wall_s,
                if s.tracer.is_some() { "t" } else { "" }
            )
        })
        .collect();
    let _ = writeln!(
        out,
        "iteration wall s in run order (t = traced): {}",
        order.join(" ")
    );
    let refs: Vec<String> = ref_s.iter().map(|r| format!("{r:.4}")).collect();
    let _ = writeln!(out, "reference kernel s in run order: {}", refs.join(" "));

    for f in &failures {
        let _ = writeln!(out, "FAIL {f}");
    }

    let metrics: Vec<Metric> = if args.trace {
        let traced: Vec<Traced> = samples
            .into_iter()
            .filter_map(|s| {
                s.tracer.map(|tracer| Traced {
                    it: s.it,
                    tracer,
                    wall_s: s.wall_s,
                })
            })
            .collect();
        let layers = per_layer(&traced, &walls);
        let _ = writeln!(out, "per-layer, over {} traced iterations:", traced.len());
        for m in &layers {
            let _ = writeln!(out, "  {:<30} {:>18.6} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(
            out,
            "span self time, first traced iteration (calls, total s, self s):"
        );
        for (name, st) in traced[0].tracer.self_times() {
            let _ = writeln!(
                out,
                "  {name:<30} {:>9} {:>12.6} {:>12.6}",
                st.calls, st.total_s, st.self_s
            );
        }
        let path = write_spans(w, args.seed, &traced)?;
        let _ = writeln!(out, "spans written to {path}");
        layers
    } else {
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(name, unit), value)| Metric { name, unit, value })
            .collect()
    };

    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", m.name));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    let _ = writeln!(
        out,
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    Ok(out)
}

/// Writes every traced iteration's spans as JSON lines.
fn write_spans(w: Workload, seed: u64, traced: &[Traced]) -> Result<String, String> {
    let dir = ".hostbench";
    let path = format!("{dir}/spans-{}-{seed}.jsonl", w.name());
    let io = |e: std::io::Error| format!("{path}: {e}");
    fs::create_dir_all(dir).map_err(io)?;
    let mut f = BufWriter::new(File::create(&path).map_err(io)?);
    for (i, t) in traced.iter().enumerate() {
        t.tracer.write_jsonl(i, &mut f).map_err(io)?;
    }
    f.flush().map_err(io)?;
    Ok(path)
}
