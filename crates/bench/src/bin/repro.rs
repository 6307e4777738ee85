//! `repro` — regenerate the paper's tables and figures, and run the
//! extension studies.
//!
//! Every command is one entry of [`COMMANDS`]: its word, the positional
//! words it takes (written as the usage line shows them), the flags it
//! accepts beyond `--scale`, `--seed` and `--jobs`, and the function
//! that runs it. The argv walk, the argv checks, the usage block and
//! dispatch all read that table; `repro` with no command prints the
//! usage. Each runner's doc comment says what its command does.
//!
//! ```text
//! --scale N  divide Table 1's op counts by N (default 50; 1 = paper)
//! --seed S   RNG seed (default 0x5EED)
//! --jobs J   worker threads (default: all cores; 1 = serial)
//! --journal [PATH]  record completed cells into the journaled result
//!            manifest at PATH (default `.specpersist/journal-v1.jsonl`);
//!            a fresh run requires a fresh path
//! --resume   (with --journal) replay verified cells from an existing
//!            journal instead of recomputing them; the resumed stdout is
//!            byte-identical to an uninterrupted run's
//! --model-knob K  (test-only) weaken one Px86 rule — `honest` (default)
//!            or `clflushopt-po` (pretend clflushopt is program-ordered
//!            like clflush); under a weakened model the checker must
//!            reach forbidden states, proving the harness would catch a
//!            real model violation
//! --trace-out PATH  write the merged Chrome trace_event document to
//!            PATH (loadable in Perfetto or chrome://tracing); a write
//!            failure exits non-zero
//! --trace-mem-cap BYTES  cap the bytes of recorded traces the harness
//!            may hold resident; a run that trips the cap fails with a
//!            typed one-line error (never an OOM kill) and dumps the
//!            per-trace byte footprint to stderr
//! ```
//!
//! Invalid input exits non-zero with a one-line `repro: ...` diagnostic
//! on stderr; when argv alone is at fault (a malformed or zero value, an
//! unknown command, flag, benchmark, variant or leg, a missing or surplus
//! word, a flag the command does not take, `--resume` without
//! `--journal`) the usage block follows it.
//!
//! Every trace is recorded exactly once per invocation and shared
//! across all simulator configurations (the `repro all` sweep replays
//! most traces several times). `--jobs` only changes wall time: the
//! report on stdout is byte-identical at every job count; stage
//! timings (and, for `all`, peak RSS) go to stderr. No command writes
//! a file it was not told to write.

use std::cell::OnceCell;
use std::fmt;
use std::process::ExitCode;
use std::time::Instant;

use spp_bench::litmus::ModelKnob;
use spp_bench::multicore::{run_multicore_opts, CellSpec};
use spp_bench::report;
use spp_bench::study::{staged, StudyCli, StudyError, StudyRunner};
use spp_bench::supervisor::MAX_ATTEMPTS;
use spp_bench::{parse_bench, parse_variant, BenchRun, CellFailure, Experiment, Harness, Journal};
use spp_pmem::Variant;
use spp_workloads::BenchId;

/// The flags `repro` knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flag {
    Scale,
    Seed,
    Jobs,
    Journal,
    Resume,
    ModelKnob,
    TraceOut,
    TraceMemCap,
}

/// Every flag, in the order the scope check reports them.
const FLAGS: [Flag; 8] = [
    Flag::Scale,
    Flag::Seed,
    Flag::Jobs,
    Flag::Journal,
    Flag::Resume,
    Flag::ModelKnob,
    Flag::TraceOut,
    Flag::TraceMemCap,
];

impl Flag {
    /// The flag's word, its value as the usage line shows it (after a
    /// space), and what a valid value is.
    fn spec(self) -> (&'static str, &'static str, &'static str) {
        match self {
            Flag::Scale => ("--scale", " N", "an integer of at least 1"),
            Flag::Seed => ("--seed", " S", "a non-negative integer"),
            Flag::Jobs => ("--jobs", " J", "an integer of at least 1"),
            Flag::Journal => ("--journal", " [PATH]", "a file path"),
            Flag::Resume => ("--resume", "", ""),
            Flag::ModelKnob => ("--model-knob", " K", "honest or clflushopt-po"),
            Flag::TraceOut => ("--trace-out", " PATH", "a file path"),
            // Zero would trip before the first recording; the smallest
            // honest budget is one byte.
            Flag::TraceMemCap => ("--trace-mem-cap", " BYTES", "a byte count of at least 1"),
        }
    }

    fn name(self) -> &'static str {
        self.spec().0
    }
}

/// A command's flag list.
type Flags = &'static [Flag];
/// The flags every command accepts.
const EVERY_COMMAND: Flags = &[Flag::Scale, Flag::Seed, Flag::Jobs];
/// Commands that run on the harness, whose trace cache the cap governs.
const CAPPED: Flags = &[Flag::TraceMemCap];
/// Journaled studies.
const JOURNALED: Flags = &[Flag::Journal, Flag::Resume, Flag::TraceMemCap];
/// `litmus` also takes the model knob, `profile` the trace file.
const LITMUS: Flags = &[
    Flag::Journal,
    Flag::Resume,
    Flag::ModelKnob,
    Flag::TraceMemCap,
];
const PROFILE: Flags = &[
    Flag::Journal,
    Flag::Resume,
    Flag::TraceOut,
    Flag::TraceMemCap,
];
/// The `<BENCH> <VARIANT>` words of `trace`, `profile` and `optimize`.
const BENCH_VARIANT: &str = "<GH|HM|LL|SS|AT|BT|RT> <base|log|logp|logpsf>";

/// Runs a command once its argv has passed [`check`].
type Runner = fn(&Ctx) -> Result<ExitCode, CliError>;
/// Renders a command's section of `repro all`; the second argument is
/// the command word, the label of its timed stage.
type Section = fn(&Ctx, &'static str) -> String;

/// One `repro` command.
struct Command {
    word: &'static str,
    /// Positional words as the usage line shows them: a bare word must
    /// be given literally, `<X>` is required and `[X]` optional.
    args: &'static str,
    /// Flags accepted beyond [`EVERY_COMMAND`].
    flags: Flags,
    run: Runner,
    /// The command's part of `repro all`, in table order.
    section: Option<Section>,
}

const fn cmd(word: &'static str, args: &'static str, flags: Flags, run: Runner) -> Command {
    Command {
        word,
        args,
        flags,
        run,
        section: None,
    }
}

/// A report section: `repro all` prints it, and so does its own command.
const fn section(word: &'static str, render: Section) -> Command {
    Command {
        section: Some(render),
        ..cmd(word, "", CAPPED, print_section)
    }
}

/// Every command, in usage order. The stage sizes are the simulations
/// each section issues (for the stderr rate line).
static COMMANDS: &[Command] = &[
    cmd("all", "", CAPPED, all),
    section("table1", |c, _| report::table1(&c.cli.exp)),
    section("table2", |_, _| report::table2()),
    section("table3", |_, _| report::table3()),
    section("fig8", |c, _| report::fig8(c.suite())),
    section("fig9", |c, _| report::fig9(c.suite())),
    section("fig10", |c, _| report::fig10(c.suite())),
    section("fig11", |c, _| report::fig11(c.suite())),
    section("fig12", |c, _| report::fig12(c.suite())),
    section("fig13", |c, w| c.timed(w, 49, report::fig13)),
    section("fig14", |c, _| report::fig14(c.suite())),
    section("ablation", |c, w| c.timed(w, 42, report::ablation)),
    section("incremental", |c, w| c.timed(w, 4, report::incremental)),
    section("flushmode", |c, w| c.timed(w, 18, report::flushmode)),
    cmd("json", "", CAPPED, json),
    cmd("trace", BENCH_VARIANT, &[], trace),
    cmd("crashfuzz", "[all|log|logp|logpsf]", CAPPED, crashfuzz),
    cmd("faultsim", "", JOURNALED, faultsim),
    Command {
        section: Some(|c, w| c.timed(w, CellSpec::all().len(), report::multicore)),
        ..cmd("multicore", "", JOURNALED, multicore)
    },
    cmd("kv", "", JOURNALED, kv),
    cmd("litmus", "", LITMUS, litmus),
    cmd("optimize", BENCH_VARIANT, JOURNALED, optimize),
    cmd("profile", BENCH_VARIANT, PROFILE, profile),
    cmd("journal", "check <PATH>", &[], journal),
];

/// The usage block, rendered from [`COMMANDS`]: one line per run of
/// consecutive commands that take the same words and flags.
fn usage() -> String {
    let flags = |fs: &[Flag]| -> String {
        fs.iter()
            .map(|f| format!(" [{}{}]", f.name(), f.spec().1))
            .collect()
    };
    let mut s = format!("usage: repro <command>{}\n", flags(EVERY_COMMAND));
    for group in COMMANDS.chunk_by(|a, b| a.args == b.args && a.flags == b.flags) {
        let words: Vec<&str> = group.iter().map(|c| c.word).collect();
        let head = [words.join("|"), group[0].args.to_string()].join(" ");
        s += &format!("  repro {}{}\n", head.trim_end(), flags(group[0].flags));
    }
    s
}

/// A rejected invocation: every variant renders as one line, and every
/// variant exits non-zero. Parsing never panics on user input.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CliError {
    /// No command was given.
    NoCommand,
    /// The command word is not one `repro` knows.
    UnknownCommand(String),
    /// A `--` word that is not one of `repro`'s flags.
    UnknownFlag(String),
    /// A positional word beyond those the command takes.
    UnexpectedArg { cmd: &'static str, arg: String },
    /// A flag's value is missing or unusable (non-numeric, negative,
    /// or below the flag's minimum).
    BadValue {
        flag: &'static str,
        given: String,
        want: &'static str,
    },
    /// The command's required positional words are missing or wrong.
    MissingArgs {
        cmd: &'static str,
        args: &'static str,
    },
    /// The benchmark abbreviation is not in Table 1.
    UnknownBench(String),
    /// The build-variant name is not one of the four builds.
    UnknownVariant(String),
    /// The crashfuzz leg name is not a known slice of the matrix.
    UnknownLeg(String),
    /// A flag given to a command that does not take it.
    FlagUnsupported {
        flag: &'static str,
        cmd: &'static str,
    },
    /// `--resume` without `--journal`.
    ResumeNeedsJournal,
    /// The journal could not be opened or read.
    Study(StudyError),
    /// The trace cache grew past `--trace-mem-cap` (the wrapped
    /// [`spp_bench::TraceMemCap`] rendering).
    TraceMemCap(String),
    /// `--trace-out` could not be written.
    TraceOut { path: String, reason: String },
    /// A study's only cell exhausted its retries (the wrapped
    /// [`spp_bench::CellFailure`] reason).
    CellFailed { key: String, reason: String },
}

impl CliError {
    /// Whether argv alone is at fault, so the usage block follows the
    /// diagnostic. Failures that depend on files or on the run itself
    /// stay one line.
    fn is_usage(&self) -> bool {
        !matches!(
            self,
            CliError::Study(_)
                | CliError::TraceMemCap(_)
                | CliError::TraceOut { .. }
                | CliError::CellFailed { .. }
        )
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::NoCommand => f.write_str("no command given"),
            CliError::UnknownCommand(c) => write!(f, "unknown command {c:?}"),
            CliError::UnknownFlag(flag) => write!(f, "unknown flag {flag:?}"),
            CliError::UnexpectedArg { cmd, arg } => {
                write!(f, "unexpected argument {arg:?} for {cmd:?}")
            }
            CliError::BadValue { flag, given, want } => {
                write!(f, "{flag} {given:?} is invalid (want {want})")
            }
            CliError::MissingArgs { cmd, args } => write!(f, "{cmd} needs {args}"),
            CliError::UnknownBench(b) => {
                write!(f, "unknown benchmark {b:?} (want GH|HM|LL|SS|AT|BT|RT)")
            }
            CliError::UnknownVariant(v) => {
                write!(f, "unknown variant {v:?} (want base|log|logp|logpsf)")
            }
            CliError::UnknownLeg(l) => {
                write!(f, "unknown crashfuzz leg {l:?} (want all|log|logp|logpsf)")
            }
            CliError::FlagUnsupported { flag, cmd } => {
                let takers: Vec<&str> = COMMANDS
                    .iter()
                    .filter(|c| c.flags.iter().any(|g| g.name() == *flag))
                    .map(|c| c.word)
                    .collect();
                write!(
                    f,
                    "{flag} is not supported by {cmd:?} (commands that take it: {})",
                    takers.join(", ")
                )
            }
            CliError::ResumeNeedsJournal => f.write_str("--resume requires --journal <path>"),
            CliError::Study(e) => write!(f, "{e}"),
            CliError::TraceMemCap(e) => f.write_str(e),
            CliError::TraceOut { path, reason } => write!(f, "--trace-out {path:?}: {reason}"),
            CliError::CellFailed { key, reason } => {
                write!(
                    f,
                    "cell {key} failed after {MAX_ATTEMPTS} attempts: {reason}"
                )
            }
        }
    }
}

/// A parsed invocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Cli {
    cmd: String,
    exp: Experiment,
    jobs: usize,
    study: StudyCli,
    model_knob: ModelKnob,
    trace_out: Option<String>,
    trace_mem_cap: Option<u64>,
    /// Every flag given, in argv order.
    given: Vec<Flag>,
    positional: Vec<String>,
}

/// Parses everything after the binary name. Flags may appear anywhere;
/// a `--` word that is not a known flag is an error, and all remaining
/// words are positional arguments for the command.
fn parse_args(args: &[String]) -> Result<Cli, CliError> {
    let (cmd, rest) = args.split_first().ok_or(CliError::NoCommand)?;
    let mut cli = Cli {
        cmd: cmd.clone(),
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        ..Cli::default()
    };
    let mut i = 0;
    while let Some(word) = rest.get(i) {
        i += 1;
        if !word.starts_with("--") {
            cli.positional.push(word.clone());
            continue;
        }
        let flag = FLAGS
            .into_iter()
            .find(|f| f.name() == word)
            .ok_or_else(|| CliError::UnknownFlag(word.clone()))?;
        cli.given.push(flag);
        let next = rest.get(i).map(String::as_str);
        let bad = || CliError::BadValue {
            flag: flag.name(),
            given: next.unwrap_or_default().to_string(),
            want: flag.spec().2,
        };
        let int = |min: u64| {
            next.and_then(|v| v.parse().ok())
                .filter(|&v| v >= min)
                .ok_or_else(bad)
        };
        // A path never starts with `--`, so that word is the next flag.
        let path = || {
            next.filter(|p| !p.is_empty() && !p.starts_with("--"))
                .map(String::from)
                .ok_or_else(bad)
        };
        match flag {
            Flag::Scale => cli.exp.scale = int(1)?,
            Flag::Seed => cli.exp.seed = int(0)?,
            Flag::Jobs => cli.jobs = int(1)? as usize,
            Flag::TraceMemCap => cli.trace_mem_cap = Some(int(1)?),
            Flag::ModelKnob => cli.model_knob = next.and_then(ModelKnob::parse).ok_or_else(bad)?,
            Flag::TraceOut => cli.trace_out = Some(path()?),
            // Bare `--journal` (end of args, or another flag next) uses
            // the conventional manifest location; an explicit empty
            // path is still an error.
            Flag::Journal if next.is_none_or(|p| p.starts_with("--")) => {
                cli.study.journal = Some(spp_bench::journal::DEFAULT_JOURNAL_PATH.to_string());
                continue;
            }
            Flag::Journal => cli.study.journal = Some(path()?),
            Flag::Resume => {
                cli.study.resume = true;
                continue;
            }
        }
        i += 1;
    }
    Ok(cli)
}

/// Everything argv alone can get wrong, found before any work starts:
/// an unknown command, a surplus word, a flag the command does not
/// take, `--resume` without `--journal`, and missing words.
fn check(cli: &Cli) -> Result<&'static Command, CliError> {
    let found = COMMANDS.iter().find(|c| c.word == cli.cmd);
    let c = found.ok_or_else(|| CliError::UnknownCommand(cli.cmd.clone()))?;
    let (cmd, args) = (c.word, c.args);
    let want: Vec<&str> = args.split_whitespace().collect();
    if let Some(arg) = cli.positional.get(want.len()).cloned() {
        return Err(CliError::UnexpectedArg { cmd, arg });
    }
    let refused =
        |f: &Flag| cli.given.contains(f) && !EVERY_COMMAND.contains(f) && !c.flags.contains(f);
    if let Some(flag) = FLAGS.into_iter().find(refused).map(Flag::name) {
        return Err(CliError::FlagUnsupported { flag, cmd });
    }
    if cli.study.resume && cli.study.journal.is_none() {
        return Err(CliError::ResumeNeedsJournal);
    }
    let present = |(i, w): (usize, &&str)| match cli.positional.get(i) {
        _ if w.starts_with('[') => true,
        Some(got) => w.starts_with('<') || got.as_str() == *w,
        None => false,
    };
    if !want.iter().enumerate().all(present) {
        return Err(CliError::MissingArgs { cmd, args });
    }
    Ok(c)
}

/// One checked invocation, as every runner sees it.
struct Ctx {
    cmd: &'static Command,
    cli: Cli,
    harness: Harness,
    suite: OnceCell<Vec<BenchRun>>,
}

impl Ctx {
    fn new(cli: Cli) -> Result<Ctx, CliError> {
        let cmd = check(&cli)?;
        let harness = Harness::new(cli.exp, cli.jobs);
        harness.set_trace_mem_cap(cli.trace_mem_cap);
        Ok(Ctx {
            cmd,
            cli,
            harness,
            suite: OnceCell::new(),
        })
    }

    /// Runs the command, then the `--trace-mem-cap` gate.
    fn run(&self) -> Result<ExitCode, CliError> {
        let code = (self.cmd.run)(self)?;
        check_trace_mem(&self.harness, code)
    }

    /// The Fig. 8-12/14 sweep, run on first use and shared after.
    fn suite(&self) -> &[BenchRun] {
        self.suite.get_or_init(|| {
            let (Experiment { scale, seed }, jobs) = (self.cli.exp, self.cli.jobs);
            eprintln!("# running suite at scale 1/{scale} (seed {seed:#x}, {jobs} jobs)...");
            staged("suite", 35, || self.harness.run_suite())
        })
    }

    /// Renders a section from the harness as a timed stage.
    fn timed(&self, label: &'static str, sims: usize, render: fn(&Harness) -> String) -> String {
        staged(label, sims, || render(&self.harness))
    }

    /// Opens the command's journal (if any) for a study whose stage
    /// label is the command word; `sims` sizes the stderr rate line.
    fn study(&self, sims: usize) -> Result<StudyRunner, CliError> {
        StudyRunner::new(self.cmd.word, sims, &self.cli.study).map_err(CliError::Study)
    }

    /// The `<BENCH> <VARIANT>` words of `trace`, `profile` and
    /// `optimize`.
    fn bench_variant(&self) -> Result<(BenchId, Variant), CliError> {
        let word = |i: usize| self.cli.positional.get(i).cloned().unwrap_or_default();
        let id = parse_bench(&word(0)).ok_or_else(|| CliError::UnknownBench(word(0)))?;
        let variant = parse_variant(&word(1)).ok_or_else(|| CliError::UnknownVariant(word(1)))?;
        Ok((id, variant))
    }
}

/// The report verdict as an exit status.
fn verdict(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The process's peak resident set size in KiB, read from
/// `/proc/self/status` (`VmHWM`); 0 where that interface is missing.
fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let hwm = status.lines().find_map(|l| l.strip_prefix("VmHWM:"));
    hwm.and_then(|kb| kb.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(Ctx::new).and_then(|c| c.run()) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("repro: {e}");
            if e.is_usage() {
                eprint!("{}", usage());
            }
            ExitCode::FAILURE
        }
    }
}

/// The per-key byte footprint of every recorded trace, heaviest first,
/// on stderr.
fn dump_trace_bytes(harness: &Harness) {
    for (k, bytes) in harness.trace_bytes_by_key() {
        eprintln!("#   {bytes} bytes {}/{}/{}", k.id, k.variant, k.flush_mode);
    }
}

/// The `--trace-mem-cap` gate, applied after a command's work: a
/// tripped cap is a typed failure even when every stage succeeded —
/// the run held more trace bytes than the budget allowed, which is
/// exactly what the flag exists to catch. The per-key footprint goes
/// to stderr (heaviest first) so the offending traces are named.
fn check_trace_mem(harness: &Harness, code: ExitCode) -> Result<ExitCode, CliError> {
    match harness.trace_mem_exceeded() {
        None => Ok(code),
        Some(e) => {
            dump_trace_bytes(harness);
            Err(CliError::TraceMemCap(e.to_string()))
        }
    }
}

/// `repro <section>`: print one section of the report.
fn print_section(c: &Ctx) -> Result<ExitCode, CliError> {
    if let Some(render) = c.cmd.section {
        print!("{}", render(c, c.cmd.word));
    }
    Ok(ExitCode::SUCCESS)
}

/// `repro all`: every table and figure plus the ablation, logging,
/// flush-mode and multicore sections, in [`COMMANDS`] order; then the
/// trace-cache accounting, total time and peak RSS on stderr.
fn all(c: &Ctx) -> Result<ExitCode, CliError> {
    let t0 = Instant::now();
    for cmd in COMMANDS {
        if let Some(render) = cmd.section {
            print!("{}", render(c, cmd.word));
        }
    }
    let s = c.harness.cache_stats();
    eprintln!(
        "# trace cache: {} recordings, {} cached replays, {} keys, {} bytes",
        s.recordings, s.hits, s.entries, s.bytes
    );
    if c.cli.trace_mem_cap.is_some() {
        // A cap is in force: show where the bytes went, heaviest trace
        // first, so the budget can be tuned.
        dump_trace_bytes(&c.harness);
    }
    // The harness contract: a trace is recorded at most once per key,
    // no matter how many figures replay it.
    assert_eq!(
        s.recordings, s.entries,
        "each (bench, variant, scale, seed, flushmode) trace must be recorded exactly once"
    );
    let (secs, jobs, rss) = (t0.elapsed().as_secs_f64(), c.cli.jobs, peak_rss_kb());
    eprintln!("# total: {secs:.2}s ({jobs} jobs), peak rss {rss} KiB");
    Ok(ExitCode::SUCCESS)
}

/// `repro json`: run the suite and print it as one JSON document.
fn json(c: &Ctx) -> Result<ExitCode, CliError> {
    println!("{}", spp_bench::json::suite_json(c.suite()));
    Ok(ExitCode::SUCCESS)
}

/// `repro kv`: the crash-recoverable KV storage-engine study — WAL +
/// checkpointed B+tree under a mixed YCSB-style load: baseline-vs-SP
/// cycles across a checkpoint-interval sweep, crashfuzz at every
/// persist boundary (clean under Log+P+Sf, witness-minimized under Log,
/// and a must-fail leg proving an elided WAL checksum is caught), plus
/// the bounded-memory streamed leg. Prints the per-cell tables and one
/// `specpersist/kv-v1` JSON line. Exits non-zero if any cell failed its
/// oracle or the SP legs regressed.
fn kv(c: &Ctx) -> Result<ExitCode, CliError> {
    use spp_bench::kv::{run_kv_opts, KvCellSpec};
    let rep = c
        .study(KvCellSpec::all().len())?
        .run(|j| run_kv_opts(&c.harness, j));
    Ok(verdict(rep.ok()))
}

/// `repro optimize <BENCH> <VARIANT>`: the persist-path trace optimizer
/// — analyze one recorded trace for redundant persist operations (the
/// same line flushed twice in an epoch, flushes never covered by a
/// persist barrier, fences with nothing to order), elide them, replay
/// the optimized trace on both pipeline cores x {baseline, SP} with the
/// spp-obs probe attached, and prove the plan safe by crashfuzzing
/// every persist boundary of the optimized trace (plus the inverted leg
/// eliding a required flush, which the oracle must catch). Prints the
/// before/after tables and one `specpersist/optimize-v1` JSON line.
/// Exits non-zero if any leg fails.
fn optimize(c: &Ctx) -> Result<ExitCode, CliError> {
    use spp_bench::optimize::{run_optimize_opts, OptimizeCellSpec};
    let (id, variant) = c.bench_variant()?;
    let runner = c.study(OptimizeCellSpec::all().len())?;
    let rep = runner.run(|j| run_optimize_opts(&c.harness, id, variant, j));
    Ok(verdict(rep.ok()))
}

/// `repro journal check <PATH>`: offline integrity walk of a result
/// manifest. Re-reads every line, verifying the per-entry checksum
/// and envelope, and reports each damaged line (bit flip, truncation,
/// torn tail, bad schema) on stdout. It never creates or changes the
/// file. Exit codes: 0 when every line verified, 2 when damage was
/// found, 1 when the file is missing or unreadable.
fn journal(c: &Ctx) -> Result<ExitCode, CliError> {
    Ok(match journal_check(&c.cli.positional[1])? {
        0 => ExitCode::SUCCESS,
        _ => ExitCode::from(2),
    })
}

/// The walk behind [`journal`]: verifies every line, prints one line per
/// damaged entry plus a summary, and returns the damaged-line count.
fn journal_check(path: &str) -> Result<usize, CliError> {
    let unreadable = |e: String| CliError::Study(StudyError::Journal(e));
    // `Journal::open` creates absent files; a checker must not.
    if !std::path::Path::new(path).is_file() {
        return Err(unreadable(format!("journal {path:?} does not exist")));
    }
    let verified = Journal::verify(std::path::Path::new(path));
    let (entries, damage) = verified.map_err(|e| unreadable(e.to_string()))?;
    for e in &damage {
        println!("journal check: {e}");
    }
    println!(
        "journal check: {path}: {entries} entries ok, {} damaged",
        damage.len()
    );
    Ok(damage.len())
}

/// `repro crashfuzz [all|log|logp|logpsf]`: crash-consistency fuzzing,
/// the workload-level half of the persist-semantics story (litmus is
/// the model-level half). Log+P+Sf must recover at every crash point
/// and reordering; Log and Log+P must each yield a minimized
/// inconsistency witness. Prints the text report plus one JSON line and
/// exits non-zero when a must-pass cell violated its oracle, a
/// must-fail cell found no inconsistency, or the SP differential
/// diverged.
fn crashfuzz(c: &Ctx) -> Result<ExitCode, CliError> {
    use spp_bench::crashfuzz::{run_crashfuzz, Leg};
    let leg = match c.cli.positional.first() {
        None => Leg::All,
        Some(s) => Leg::parse(s).ok_or_else(|| CliError::UnknownLeg(s.clone()))?,
    };
    let rep = staged(c.cmd.word, 0, || run_crashfuzz(&c.harness, leg));
    print!("{}", rep.render_text());
    println!("{}", rep.render_json());
    Ok(verdict(rep.ok()))
}

/// `repro faultsim`: deterministic hardware fault injection — every
/// benchmark x variant x fault plan, on both cores, must commit exactly
/// the fault-free architectural state (only cycle counts may move),
/// crash verdicts must hold, and the forward-progress watchdog must
/// convert a wedged run into a typed error. Prints the text report and
/// one JSON line; exits non-zero on any divergence, a cell that
/// exhausted its retries, or a plan that never fired.
fn faultsim(c: &Ctx) -> Result<ExitCode, CliError> {
    use spp_bench::faultsim::{run_faultsim_opts, FaultsimOpts, SIMS};
    let rep = c.study(SIMS)?.run(|journal| {
        let opts = FaultsimOpts {
            journal,
            ..FaultsimOpts::default()
        };
        run_faultsim_opts(&c.harness, opts)
    });
    Ok(verdict(rep.ok()))
}

/// `repro multicore`: the shared-data multi-core scaling study —
/// Treiber-style stack and MS-style queue over one coherent memory
/// system, 1..4 cores x {baseline, SP256} x {contended, disjoint},
/// reporting worst-core cycles/op plus BLT conflict/rollback
/// accounting. Prints the scaling tables and one
/// `specpersist/multicore-v1` JSON line. Exits non-zero if any cell
/// degraded, the contended SP legs produced no BLT conflicts, or a
/// disjoint leg conflicted.
fn multicore(c: &Ctx) -> Result<ExitCode, CliError> {
    let rep = c
        .study(CellSpec::all().len())?
        .run(|j| run_multicore_opts(&c.harness, j));
    Ok(verdict(rep.ok()))
}

/// `repro litmus`: Px86 persistency-model validation — every litmus
/// program (the catalog plus seeded generated programs at generous
/// scales) x flush mode is one supervised cell, checking every
/// reachable post-crash state of the real stack (CrashSim at each
/// persist boundary, both pipeline cores x {baseline, SP}) against the
/// executable reference model, with the SP differential proving
/// speculation never widens a reachable set. Prints the per-program
/// table and one `specpersist/litmus-v1` JSON line; failed cells replay
/// from a journal witness and all. The hidden `--model-knob` weakens
/// one model rule so CI can prove the checker actually fails when the
/// model is wrong. Exits non-zero if any leg reached a forbidden state.
fn litmus(c: &Ctx) -> Result<ExitCode, CliError> {
    use spp_bench::litmus::{litmus_programs, run_litmus_opts, LitmusOpts};
    let sims = litmus_programs(&c.cli.exp).len() * spp_pmem::FlushMode::ALL.len();
    let rep = c.study(sims)?.run(|journal| {
        let opts = LitmusOpts {
            journal,
            knob: c.cli.model_knob,
        };
        run_litmus_opts(&c.harness, opts)
    });
    Ok(verdict(rep.ok()))
}

/// `repro profile <BENCH> <VARIANT>`: cycle-resolved observability —
/// replay one trace on the baseline and SP256 cores with the spp-obs
/// probe attached, print the stall-attribution table and one
/// `specpersist/profile-v2` JSON line, and optionally write the merged
/// Chrome trace (`--trace-out`). A journal records the whole cell (text,
/// JSON and trace). Exits non-zero if the probe's attribution diverges
/// from the machine's stall counters; a trace that cannot be written or
/// a cell that exhausts its retries is a typed error.
fn profile(c: &Ctx) -> Result<ExitCode, CliError> {
    use spp_bench::profile::{run_profile_study, PROFILE_CONFIGS};
    let (id, variant) = c.bench_variant()?;
    let runner = c.study(PROFILE_CONFIGS.len())?;
    let rep = runner.run(|j| run_profile_study(&c.harness, id, variant, j));
    let cell = rep
        .cell
        .map_err(|CellFailure { key, reason, .. }| CliError::CellFailed { key, reason })?;
    if let Some(path) = &c.cli.trace_out {
        std::fs::write(path, &cell.trace).map_err(|e| CliError::TraceOut {
            path: path.clone(),
            reason: e.to_string(),
        })?;
        eprintln!("# chrome trace: {path} ({} bytes)", cell.trace.len());
    }
    Ok(verdict(cell.ok))
}

/// `repro trace <BENCH> <VARIANT>`: record one trace and print its
/// micro-op mix and per-operation averages.
fn trace(c: &Ctx) -> Result<ExitCode, CliError> {
    use spp_workloads::{record_trace, BenchSpec, TraceSpec};
    let (id, variant) = c.bench_variant()?;
    let Experiment { scale, seed } = c.cli.exp;
    let spec = BenchSpec::scaled(id, scale);
    let counts = record_trace(&TraceSpec::new(variant, spec, seed)).counts;
    let (name, ops) = (id.name(), spec.sim_ops);
    println!("{name} / {variant} at scale 1/{scale} ({ops} ops recorded)");
    println!("{:<22} {:>12} {:>10}", "class", "micro-ops", "per op");
    for (name, v) in [
        ("compute", counts.compute),
        ("loads", counts.loads),
        ("stores", counts.stores),
        ("flushes (clwb/...)", counts.flushes),
        ("pcommits", counts.pcommits),
        ("fences", counts.fences),
        ("TOTAL", counts.total()),
    ] {
        println!("{:<22} {:>12} {:>10.1}", name, v, v as f64 / ops as f64);
    }
    println!("transactions: {}", counts.transactions);
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    /// Parses and checks `words`, returning the argv error if any.
    fn checked(words: &[&str]) -> Result<(), CliError> {
        check(&parse_args(&args(words)).unwrap()).map(|_| ())
    }

    /// A checked invocation, ready for its runner.
    fn ctx(words: &[&str]) -> Ctx {
        Ctx::new(parse_args(&args(words)).unwrap()).unwrap()
    }

    #[test]
    fn defaults_apply_without_flags() {
        let cli = parse_args(&args(&["all"])).unwrap();
        assert_eq!(cli.cmd, "all");
        assert_eq!(cli.exp.scale, Experiment::default().scale);
        assert_eq!(cli.exp.seed, Experiment::default().seed);
        assert!(cli.jobs >= 1);
        assert!(cli.positional.is_empty());
    }

    #[test]
    fn flags_and_positionals_parse_anywhere() {
        let cli = parse_args(&args(&[
            "trace", "--scale", "200", "LL", "--seed", "9", "logpsf", "--jobs", "3",
        ]))
        .unwrap();
        assert_eq!(cli.cmd, "trace");
        assert_eq!(cli.exp.scale, 200);
        assert_eq!(cli.exp.seed, 9);
        assert_eq!(cli.jobs, 3);
        assert_eq!(cli.positional, args(&["LL", "logpsf"]));
    }

    #[test]
    fn zero_jobs_is_a_typed_error() {
        let e = parse_args(&args(&["all", "--jobs", "0"])).unwrap_err();
        assert_eq!(
            e,
            CliError::BadValue {
                flag: "--jobs",
                given: "0".to_string(),
                want: "an integer of at least 1",
            }
        );
    }

    #[test]
    fn zero_and_negative_scale_are_typed_errors() {
        for bad in ["0", "-3", "1.5", "lots", ""] {
            let e = parse_args(&args(&["all", "--scale", bad])).unwrap_err();
            assert!(
                matches!(
                    e,
                    CliError::BadValue {
                        flag: "--scale",
                        ..
                    }
                ),
                "--scale {bad:?} gave {e:?}"
            );
        }
    }

    #[test]
    fn missing_flag_value_is_a_typed_error() {
        let e = parse_args(&args(&["all", "--seed"])).unwrap_err();
        assert_eq!(
            e,
            CliError::BadValue {
                flag: "--seed",
                given: String::new(),
                want: "a non-negative integer",
            }
        );
    }

    #[test]
    fn no_command_is_a_typed_error() {
        assert_eq!(parse_args(&[]).unwrap_err(), CliError::NoCommand);
    }

    /// One instance of every [`CliError`] variant, paired with whether
    /// it is an argv mistake (and so prints the usage block).
    fn every_error() -> Vec<(CliError, bool)> {
        vec![
            (CliError::NoCommand, true),
            (CliError::UnknownCommand("fig99".into()), true),
            (CliError::UnknownFlag("--jbos".into()), true),
            (
                CliError::UnexpectedArg {
                    cmd: "all",
                    arg: "extra".into(),
                },
                true,
            ),
            (
                CliError::BadValue {
                    flag: "--jobs",
                    given: "-2".into(),
                    want: "an integer of at least 1",
                },
                true,
            ),
            (
                CliError::MissingArgs {
                    cmd: "trace",
                    args: BENCH_VARIANT,
                },
                true,
            ),
            (
                CliError::MissingArgs {
                    cmd: "journal",
                    args: "check <PATH>",
                },
                true,
            ),
            (CliError::UnknownBench("ZZ".into()), true),
            (CliError::UnknownVariant("fast".into()), true),
            (CliError::UnknownLeg("base".into()), true),
            (
                CliError::FlagUnsupported {
                    flag: "--journal",
                    cmd: "all",
                },
                true,
            ),
            (CliError::ResumeNeedsJournal, true),
            (
                CliError::Study(StudyError::ResumeMissingJournal("/tmp/x.jsonl".into())),
                false,
            ),
            (
                CliError::Study(StudyError::JournalNeedsResume("/tmp/x.jsonl".into())),
                false,
            ),
            (
                CliError::Study(StudyError::Journal("journal \"x\": denied".into())),
                false,
            ),
            (
                CliError::TraceMemCap(
                    "trace cache holds 9 bytes, exceeding --trace-mem-cap 1".into(),
                ),
                false,
            ),
            (
                CliError::TraceOut {
                    path: "/nonexistent/t.json".into(),
                    reason: "No such file or directory (os error 2)".into(),
                },
                false,
            ),
            (
                CliError::CellFailed {
                    key: "profile/LL/logpsf/scale400/seed0x1".into(),
                    reason: "panic: boom".into(),
                },
                false,
            ),
        ]
    }

    #[test]
    fn every_error_renders_as_one_line() {
        for (e, _) in every_error() {
            let s = e.to_string();
            assert!(!s.is_empty() && !s.contains('\n'), "{e:?} renders {s:?}");
        }
        // The two kinds of missing words read as they always have.
        assert_eq!(
            CliError::MissingArgs {
                cmd: "trace",
                args: BENCH_VARIANT
            }
            .to_string(),
            "trace needs <GH|HM|LL|SS|AT|BT|RT> <base|log|logp|logpsf>"
        );
        assert_eq!(
            checked(&["journal"]).unwrap_err().to_string(),
            "journal needs check <PATH>"
        );
    }

    #[test]
    fn only_argv_mistakes_print_the_usage_block() {
        for (e, usage) in every_error() {
            assert_eq!(e.is_usage(), usage, "{e:?}");
        }
        // `every_error` must hold every variant: this match has no
        // wildcard, so a new variant fails to compile until it is
        // listed and classified above.
        for (e, _) in every_error() {
            match e {
                CliError::NoCommand
                | CliError::UnknownCommand(_)
                | CliError::UnknownFlag(_)
                | CliError::UnexpectedArg { .. }
                | CliError::BadValue { .. }
                | CliError::MissingArgs { .. }
                | CliError::UnknownBench(_)
                | CliError::UnknownVariant(_)
                | CliError::UnknownLeg(_)
                | CliError::FlagUnsupported { .. }
                | CliError::ResumeNeedsJournal
                | CliError::Study(_)
                | CliError::TraceMemCap(_)
                | CliError::TraceOut { .. }
                | CliError::CellFailed { .. } => {}
            }
        }
    }

    #[test]
    fn usage_names_every_command_its_words_and_every_flag() {
        let u = usage();
        assert!(u.starts_with("usage: repro <command> [--scale N] [--seed S] [--jobs J]\n"));
        for c in COMMANDS {
            let line = u
                .lines()
                .find(|l| {
                    l.trim_start()
                        .strip_prefix("repro ")
                        .and_then(|l| l.split(' ').next())
                        .is_some_and(|words| words.split('|').any(|w| w == c.word))
                })
                .unwrap_or_else(|| panic!("no usage line for {}:\n{u}", c.word));
            assert!(line.contains(c.args), "{}: {line}", c.word);
            for f in c.flags {
                assert!(line.contains(f.name()), "{}: {line}", c.word);
            }
        }
        for f in FLAGS {
            assert!(u.contains(f.name()), "{} missing:\n{u}", f.name());
        }
        assert!(u.contains("repro litmus [--journal [PATH]] [--resume] [--model-knob K]"));
        assert!(u.contains("repro journal check <PATH>\n"));
    }

    #[test]
    fn flag_unsupported_lists_the_commands_that_take_the_flag() {
        let e = checked(&["all", "--trace-out", "t.json"]).unwrap_err();
        assert_eq!(
            e.to_string(),
            "--trace-out is not supported by \"all\" (commands that take it: profile)"
        );
        let e = checked(&["fig8", "--journal", "j.jsonl"]).unwrap_err();
        assert_eq!(
            e.to_string(),
            "--journal is not supported by \"fig8\" (commands that take it: faultsim, multicore, kv, litmus, optimize, profile)"
        );
    }

    #[test]
    fn journal_flags_parse() {
        let cli = parse_args(&args(&[
            "faultsim",
            "--journal",
            "j.jsonl",
            "--resume",
            "--jobs",
            "2",
        ]))
        .unwrap();
        assert_eq!(cli.study.journal.as_deref(), Some("j.jsonl"));
        assert!(cli.study.resume);
        assert!(check(&cli).is_ok());
    }

    #[test]
    fn model_knob_parses_validates_and_scopes_to_litmus() {
        let cli = parse_args(&args(&["litmus", "--model-knob", "clflushopt-po"])).unwrap();
        assert_eq!(cli.model_knob, ModelKnob::ClflushOptProgramOrdered);
        assert!(check(&cli).is_ok());
        let cli = parse_args(&args(&["litmus", "--model-knob", "honest"])).unwrap();
        assert_eq!(cli.model_knob, ModelKnob::Honest);
        for bad in ["", "tso", "--journal"] {
            let e = parse_args(&args(&["litmus", "--model-knob", bad])).unwrap_err();
            assert!(
                matches!(
                    e,
                    CliError::BadValue {
                        flag: "--model-knob",
                        ..
                    }
                ),
                "--model-knob {bad:?} gave {e:?}"
            );
        }
        // Test-only means litmus-only: no other command may weaken the
        // model, even by accident.
        assert_eq!(
            checked(&["crashfuzz", "--model-knob", "honest"]).unwrap_err(),
            CliError::FlagUnsupported {
                flag: "--model-knob",
                cmd: "crashfuzz",
            }
        );
    }

    #[test]
    fn litmus_is_a_journaled_command() {
        let cli = parse_args(&args(&["litmus", "--journal", "j.jsonl", "--resume"])).unwrap();
        assert_eq!(cli.study.journal.as_deref(), Some("j.jsonl"));
        assert!(cli.study.resume);
        assert!(check(&cli).is_ok());
    }

    #[test]
    fn resume_without_journal_is_a_typed_error() {
        assert_eq!(
            checked(&["faultsim", "--resume"]).unwrap_err(),
            CliError::ResumeNeedsJournal
        );
    }

    #[test]
    fn journal_flags_are_rejected_on_unjournaled_commands() {
        for (words, flag) in [
            (vec!["all", "--journal", "j.jsonl"], "--journal"),
            (vec!["fig8", "--resume"], "--resume"),
        ] {
            assert_eq!(
                checked(&words).unwrap_err(),
                CliError::FlagUnsupported {
                    flag,
                    cmd: words[0],
                },
                "{words:?}"
            );
        }
    }

    #[test]
    fn journal_flag_values_are_validated() {
        // Bare `--journal` (end of args, or another flag next) falls
        // back to the conventional manifest location.
        let cli = parse_args(&args(&["faultsim", "--journal"])).unwrap();
        assert_eq!(
            cli.study.journal.as_deref(),
            Some(spp_bench::journal::DEFAULT_JOURNAL_PATH)
        );
        let cli = parse_args(&args(&["faultsim", "--journal", "--resume"])).unwrap();
        assert_eq!(
            cli.study.journal.as_deref(),
            Some(spp_bench::journal::DEFAULT_JOURNAL_PATH)
        );
        assert!(cli.study.resume);
        // An explicit empty path is still a typed error.
        let e = parse_args(&args(&["faultsim", "--journal", ""])).unwrap_err();
        assert!(
            matches!(
                e,
                CliError::BadValue {
                    flag: "--journal",
                    ..
                }
            ),
            "{e:?}"
        );
    }

    #[test]
    fn open_journal_enforces_the_resume_discipline() {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "spp-repro-cli-journal-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        let open_journal = |resume| {
            StudyCli {
                journal: Some(p.display().to_string()),
                resume,
            }
            .open()
            .map_err(CliError::Study)
        };
        // Resuming a journal that does not exist is a typed error.
        assert!(matches!(
            open_journal(true).unwrap_err(),
            CliError::Study(StudyError::ResumeMissingJournal(_))
        ));
        // A fresh run against a fresh path opens (and creates) it.
        open_journal(false).unwrap();
        // A fresh run against an existing non-empty journal must not
        // silently mix campaigns.
        std::fs::write(&p, "x\n").unwrap();
        assert!(matches!(
            open_journal(false).unwrap_err(),
            CliError::Study(StudyError::JournalNeedsResume(_))
        ));
        // Resuming it is fine (the bogus line surfaces via corrupt()).
        let j = open_journal(true).unwrap().unwrap();
        assert_eq!(j.corrupt().len(), 1);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn trace_cmd_rejects_unknown_names() {
        assert_eq!(
            trace(&ctx(&["trace", "ZZ", "base"])).unwrap_err(),
            CliError::UnknownBench("ZZ".into())
        );
        assert_eq!(
            trace(&ctx(&["trace", "LL", "fast"])).unwrap_err(),
            CliError::UnknownVariant("fast".into())
        );
        assert_eq!(
            checked(&["trace", "LL"]).unwrap_err(),
            CliError::MissingArgs {
                cmd: "trace",
                args: BENCH_VARIANT
            }
        );
    }

    #[test]
    fn profile_flags_parse_and_scope_check() {
        // `--trace-out` with a value parses, and profile accepts the
        // journal flags (it is a journaled command).
        let cli = parse_args(&args(&[
            "profile",
            "LL",
            "logpsf",
            "--trace-out",
            "t.json",
            "--journal",
            "j.jsonl",
        ]))
        .unwrap();
        assert_eq!(cli.cmd, "profile");
        assert_eq!(cli.positional, args(&["LL", "logpsf"]));
        assert_eq!(cli.trace_out.as_deref(), Some("t.json"));
        assert_eq!(cli.study.journal.as_deref(), Some("j.jsonl"));
        assert!(check(&cli).is_ok());
        // A missing or flag-like value is a typed error.
        for words in [
            vec!["profile", "LL", "base", "--trace-out"],
            vec!["profile", "LL", "base", "--trace-out", "--jobs"],
            vec!["profile", "LL", "base", "--trace-out", ""],
        ] {
            let e = parse_args(&args(&words)).unwrap_err();
            assert!(
                matches!(
                    e,
                    CliError::BadValue {
                        flag: "--trace-out",
                        ..
                    }
                ),
                "{words:?} gave {e:?}"
            );
        }
        // `--trace-out` is profile-only.
        assert_eq!(
            checked(&["all", "--trace-out", "t.json"]).unwrap_err(),
            CliError::FlagUnsupported {
                flag: "--trace-out",
                cmd: "all",
            }
        );
    }

    #[test]
    fn profile_cmd_rejects_unknown_names() {
        assert_eq!(
            profile(&ctx(&["profile", "ZZ", "base"])).unwrap_err(),
            CliError::UnknownBench("ZZ".into())
        );
        assert_eq!(
            profile(&ctx(&["profile", "LL", "fast"])).unwrap_err(),
            CliError::UnknownVariant("fast".into())
        );
        assert_eq!(
            checked(&["profile", "LL"]).unwrap_err(),
            CliError::MissingArgs {
                cmd: "profile",
                args: BENCH_VARIANT
            }
        );
    }

    #[test]
    fn optimize_cmd_rejects_unknown_names() {
        assert_eq!(
            optimize(&ctx(&["optimize", "ZZ", "base"])).unwrap_err(),
            CliError::UnknownBench("ZZ".into())
        );
        assert_eq!(
            optimize(&ctx(&["optimize", "LL", "fast"])).unwrap_err(),
            CliError::UnknownVariant("fast".into())
        );
        assert_eq!(
            checked(&["optimize", "LL"]).unwrap_err(),
            CliError::MissingArgs {
                cmd: "optimize",
                args: BENCH_VARIANT
            }
        );
    }

    #[test]
    fn optimize_is_a_journaled_command() {
        let cli = parse_args(&args(&[
            "optimize",
            "LL",
            "logpsf",
            "--journal",
            "j.jsonl",
            "--resume",
            "--trace-mem-cap",
            "4096",
        ]))
        .unwrap();
        assert_eq!(cli.positional, args(&["LL", "logpsf"]));
        assert_eq!(cli.study.journal.as_deref(), Some("j.jsonl"));
        assert!(cli.study.resume);
        assert_eq!(cli.trace_mem_cap, Some(4096));
        assert!(check(&cli).is_ok());
        // Profile-only flags stay profile-only.
        assert_eq!(
            checked(&["optimize", "LL", "logpsf", "--trace-out", "t.json"]).unwrap_err(),
            CliError::FlagUnsupported {
                flag: "--trace-out",
                cmd: "optimize",
            }
        );
    }

    #[test]
    fn unknown_crashfuzz_leg_is_a_typed_error() {
        assert_eq!(
            crashfuzz(&ctx(&["crashfuzz", "base"])).unwrap_err(),
            CliError::UnknownLeg("base".into())
        );
    }

    #[test]
    fn kv_is_a_journaled_command() {
        let cli = parse_args(&args(&["kv", "--journal", "j.jsonl", "--resume"])).unwrap();
        assert_eq!(cli.study.journal.as_deref(), Some("j.jsonl"));
        assert!(cli.study.resume);
        assert!(check(&cli).is_ok());
    }

    #[test]
    fn unknown_flags_are_typed_errors() {
        // A misspelled or retired flag must not fall through as a
        // positional word and be silently ignored.
        for (words, flag) in [
            (vec!["all", "--jbos", "8"], "--jbos"),
            (vec!["profile", "LL", "base", "--trace", "t"], "--trace"),
            (vec!["kv", "--scale", "400", "--out"], "--out"),
            (vec!["trace", "LL", "base", "--"], "--"),
            (vec!["multicore", "--storm-bound", "8"], "--storm-bound"),
        ] {
            assert_eq!(
                parse_args(&args(&words)).unwrap_err(),
                CliError::UnknownFlag(flag.into()),
                "{words:?}"
            );
        }
    }

    #[test]
    fn surplus_positionals_are_typed_errors() {
        for (words, arg) in [
            (vec!["all", "extra"], "extra"),
            (vec!["fig8", "--scale", "400", "LL"], "LL"),
            (vec!["kv", "x"], "x"),
            (vec!["crashfuzz", "log", "extra"], "extra"),
            (vec!["trace", "LL", "base", "extra"], "extra"),
            (vec!["profile", "LL", "logpsf", "x", "y"], "x"),
            (vec!["optimize", "LL", "logp", "extra"], "extra"),
            (vec!["journal", "check", "j.jsonl", "extra"], "extra"),
        ] {
            assert_eq!(
                checked(&words).unwrap_err(),
                CliError::UnexpectedArg {
                    cmd: words[0],
                    arg: arg.into(),
                },
                "{words:?}"
            );
        }
        // Up to the command's own count is fine.
        for words in [
            vec!["all"],
            vec!["crashfuzz"],
            vec!["crashfuzz", "log"],
            vec!["trace", "LL", "base"],
            vec!["journal", "check", "j.jsonl"],
        ] {
            assert!(checked(&words).is_ok(), "{words:?}");
        }
        // Too few words are a missing-words error, not a surplus one.
        assert!(matches!(
            checked(&["profile", "LL"]).unwrap_err(),
            CliError::MissingArgs { .. }
        ));
        // An unknown command is reported as such, not as its words.
        for cmd in ["fig99", "soak"] {
            assert_eq!(
                checked(&[cmd, "extra"]).unwrap_err(),
                CliError::UnknownCommand(cmd.into())
            );
        }
    }

    #[test]
    fn peak_rss_is_nonzero_on_linux() {
        // On the CI/dev Linux kernels /proc/self/status always exists;
        // elsewhere the function degrades to 0 rather than failing.
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_kb() > 0);
        }
    }

    #[test]
    fn trace_mem_cap_parses_validates_and_scopes() {
        for cmd in ["all", "kv", "profile", "crashfuzz"] {
            let cli = parse_args(&args(&[cmd, "--trace-mem-cap", "4096"])).unwrap();
            assert_eq!(cli.trace_mem_cap, Some(4096));
            assert!(
                !matches!(check(&cli), Err(CliError::FlagUnsupported { .. })),
                "{cmd}"
            );
        }
        for bad in ["0", "-1", "lots", ""] {
            let e = parse_args(&args(&["all", "--trace-mem-cap", bad])).unwrap_err();
            assert!(
                matches!(
                    e,
                    CliError::BadValue {
                        flag: "--trace-mem-cap",
                        ..
                    }
                ),
                "--trace-mem-cap {bad:?} gave {e:?}"
            );
        }
        // Commands that never route traces through the harness cache
        // reject the cap instead of silently ignoring it.
        for cmd in ["trace", "journal"] {
            assert_eq!(
                checked(&[cmd, "--trace-mem-cap", "4096"]).unwrap_err(),
                CliError::FlagUnsupported {
                    flag: "--trace-mem-cap",
                    cmd,
                },
                "{cmd}"
            );
        }
    }

    #[test]
    fn a_tripped_trace_mem_cap_is_a_typed_error() {
        use spp_bench::TraceKey;
        let exp = Experiment {
            scale: 2400,
            seed: 7,
        };
        let h = Harness::new(exp, 1);
        h.set_trace_mem_cap(Some(1));
        // One recording holds far more than one byte: the cap trips.
        let _ = h.trace(TraceKey::new(BenchId::LinkedList, Variant::Base, &exp));
        let e = check_trace_mem(&h, ExitCode::SUCCESS).unwrap_err();
        assert!(
            matches!(e, CliError::TraceMemCap(ref s) if s.contains("--trace-mem-cap 1")),
            "{e:?}"
        );
        // Without a cap the same recording passes the gate untouched.
        let h = Harness::new(exp, 1);
        let _ = h.trace(TraceKey::new(BenchId::LinkedList, Variant::Base, &exp));
        assert!(check_trace_mem(&h, ExitCode::SUCCESS).is_ok());
    }

    #[test]
    fn journal_check_wants_the_subcommand_and_a_path() {
        for words in [
            vec!["journal"],
            vec!["journal", "check"],
            vec!["journal", "verify", "a"],
        ] {
            assert_eq!(
                checked(&words).unwrap_err(),
                CliError::MissingArgs {
                    cmd: "journal",
                    args: "check <PATH>"
                },
                "{words:?}"
            );
        }
        // A missing file is an open error, not a silent empty manifest
        // (Journal::open would create it).
        assert!(matches!(
            journal_check("/nonexistent/spp-journal-check.jsonl").unwrap_err(),
            CliError::Study(StudyError::Journal(_))
        ));
    }

    #[test]
    fn journal_check_verifies_flags_truncation_and_bit_flips() {
        use spp_bench::Supervisor;
        let mut p = std::env::temp_dir();
        p.push(format!(
            "spp-repro-journal-check-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        let j = Journal::open(&p).unwrap();
        Supervisor {
            jobs: 1,
            journal: Some(&j),
        }
        .run_cells(
            &["kv/a", "kv/b", "kv/c"],
            |_, k| k.to_string(),
            |_, _| Ok(()),
            |_| "{\"ok\":1}".to_string(),
            |_, _| Some(()),
        );
        drop(j);
        let path = p.display().to_string();
        // Pristine: every line verifies.
        assert_eq!(journal_check(&path).unwrap(), 0);
        // A kill mid-append leaves a torn final line: cut the last
        // entry in half. The damage localizes to that one line.
        let clean = std::fs::read(&p).unwrap();
        std::fs::write(&p, &clean[..clean.len() - 9]).unwrap();
        assert_eq!(journal_check(&path).unwrap(), 1);
        // A single flipped payload byte fails that entry's checksum.
        let mut flipped = clean.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        std::fs::write(&p, &flipped).unwrap();
        assert!(journal_check(&path).unwrap() >= 1);
        std::fs::remove_file(&p).unwrap();
    }
}
