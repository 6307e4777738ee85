//! The unified study façade behind every journaled `repro` command.
//!
//! `repro kv/litmus/multicore/faultsim/profile` (and now `optimize`)
//! all share the same invocation shape: open a result journal under
//! the resume discipline, run the study under a timed stage, surface
//! corrupt journal entries, report how many cells replayed, print the
//! text report and the one-line JSON document, and turn the report's
//! verdict into an exit status. That plumbing used to be copy-pasted
//! per command in the `repro` binary; it now lives here, once:
//!
//! * [`StudyCli`] carries the shared `--journal`/`--resume` flag state
//!   and opens the journal under the discipline the CLI documents;
//! * [`StudyRunner`] owns the opened journal and the stage label and
//!   drives one study end to end via [`StudyRunner::run`];
//! * [`StudyReport`] is the small contract a study's report must meet
//!   (`ok` / `replayed` / `render_text` / `render_json`) — the four
//!   existing journaled studies already satisfied it verbatim.
//!
//! The façade is output-preserving by construction: every byte written
//! to stdout and stderr is the same the per-command plumbing wrote
//! before the migration, so the goldens and the CI `cmp` gates did not
//! move. CI denies the old pattern outright — the replay-report and
//! journal-open plumbing may not reappear in `repro.rs`.

use std::fmt;
use std::path::Path;
use std::time::Instant;

use spp_workloads::oracle::OracleViolation;

use crate::journal::{CellStatus, Entry, Journal};
use crate::json::{JsonObject, Value};
use crate::parallel::run_indexed;

/// A rejected or failed journal opening, typed so the CLI can map each
/// case onto its own diagnostic without string matching.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StudyError {
    /// `--resume` named a journal file that does not exist.
    ResumeMissingJournal(String),
    /// `--journal` named an existing non-empty journal without
    /// `--resume` (mixing two campaigns in one manifest is always a
    /// mistake; replaying one must be explicit).
    JournalNeedsResume(String),
    /// The journal could not be opened (the wrapped
    /// [`crate::JournalError`] rendering).
    Journal(String),
}

impl fmt::Display for StudyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StudyError::ResumeMissingJournal(p) => {
                write!(f, "--resume: journal {p:?} does not exist")
            }
            StudyError::JournalNeedsResume(p) => {
                write!(
                    f,
                    "journal {p:?} already has entries; pass --resume to replay it or pick a fresh path"
                )
            }
            StudyError::Journal(e) => f.write_str(e),
        }
    }
}

impl std::error::Error for StudyError {}

/// Opens the journal at `path` under the CLI's resume discipline:
/// resuming requires the file to exist, and starting fresh requires it
/// to be absent or empty — an existing manifest is never silently
/// appended to and never silently ignored.
pub fn open_journal(path: &Path, resume: bool) -> Result<Journal, StudyError> {
    let display = path.display().to_string();
    let has_entries = std::fs::metadata(path)
        .map(|m| m.len() > 0)
        .unwrap_or(false);
    if resume && !path.exists() {
        return Err(StudyError::ResumeMissingJournal(display));
    }
    if !resume && has_entries {
        return Err(StudyError::JournalNeedsResume(display));
    }
    Journal::open(path).map_err(|e| StudyError::Journal(e.to_string()))
}

/// The shared journal flag state of one `repro` invocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StudyCli {
    /// `--journal PATH`, when given.
    pub journal: Option<String>,
    /// `--resume`.
    pub resume: bool,
}

impl StudyCli {
    /// Opens the journal named by `--journal` (if any) under the resume
    /// discipline. `None` means the command runs unjournaled.
    pub fn open(&self) -> Result<Option<Journal>, StudyError> {
        match &self.journal {
            Some(p) => Ok(Some(open_journal(Path::new(p), self.resume)?)),
            None => Ok(None),
        }
    }
}

/// What a journaled study's report must provide for the runner to
/// drive it: a verdict, a replay count, and the two renderings.
pub trait StudyReport {
    /// `true` when every cell met its oracle — the exit-status verdict.
    fn ok(&self) -> bool;
    /// How many cells were replayed from the journal instead of
    /// recomputed.
    fn replayed(&self) -> usize;
    /// The human-readable tables.
    fn render_text(&self) -> String;
    /// The one-line JSON document.
    fn render_json(&self) -> String;
}

macro_rules! impl_study_report {
    ($($ty:ty),+ $(,)?) => {$(
        impl StudyReport for $ty {
            fn ok(&self) -> bool {
                <$ty>::ok(self)
            }
            fn replayed(&self) -> usize {
                self.replayed
            }
            fn render_text(&self) -> String {
                <$ty>::render_text(self)
            }
            fn render_json(&self) -> String {
                <$ty>::render_json(self)
            }
        }
    )+};
}

impl_study_report!(
    crate::faultsim::FaultReport,
    crate::kv::KvReport,
    crate::litmus::LitmusReport,
    crate::multicore::MulticoreReport,
    crate::optimize::OptimizeReport,
);

/// Runs one evaluation stage, reporting wall time and throughput on
/// stderr (`sims` counts the simulator replays the stage issues; 0
/// suppresses the rate). Stdout stays byte-identical across `--jobs`.
pub fn staged<T>(label: &str, sims: usize, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    let dt = t0.elapsed().as_secs_f64();
    if sims > 0 {
        eprintln!(
            "# {label}: {sims} sims in {dt:.2}s ({:.1} sims/s)",
            sims as f64 / dt.max(1e-9)
        );
    } else {
        eprintln!("# {label}: {dt:.2}s");
    }
    out
}

/// A failing `(crash_idx, seed)` schedule a study's crash leg found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellWitness {
    /// Crash point (index into the crashed event stream).
    pub crash_idx: u64,
    /// Reordering seed.
    pub seed: u64,
    /// What the oracle rejected (kebab label).
    pub kind: String,
}

impl CellWitness {
    /// The witness of a sweep's first failure, if any.
    pub fn of(first: Option<(usize, u64, OracleViolation)>) -> Option<Self> {
        first.map(|(p, seed, v)| CellWitness {
            crash_idx: p as u64,
            seed,
            kind: v.kind.to_string(),
        })
    }

    /// The witness as a JSON object.
    pub fn json(&self) -> String {
        let mut o = JsonObject::new();
        o.num("crash_idx", self.crash_idx as f64)
            .num("seed", self.seed as f64)
            .str("kind", &self.kind);
        o.render()
    }

    /// A witness back from [`CellWitness::json`].
    pub fn decode(w: &Value) -> Option<Self> {
        Some(CellWitness {
            crash_idx: w.get("crash_idx").and_then(Value::as_u64)?,
            seed: w.get("seed").and_then(Value::as_u64)?,
            kind: w.get("kind").and_then(Value::as_str)?.to_string(),
        })
    }
}

/// How a study's cells map onto journal entries.
pub struct CellCodec<'a, S, C> {
    /// Study name for the undecodable-payload diagnostic.
    pub study: &'a str,
    /// The journal key of a cell.
    pub key: &'a dyn Fn(&S) -> String,
    /// A cell back from its payload; `None` recomputes it.
    pub decode: fn(&S, &str) -> Option<C>,
    /// A cell as its payload.
    pub encode: fn(&C) -> String,
    /// The cell's verdict, journaled as its status.
    pub ok: fn(&C) -> bool,
}

/// Runs a study's cells: every cell whose journal entry decodes is
/// replayed, the rest run on up to `jobs` workers and are appended to
/// the journal in `specs` order. Returns the cells in `specs` order and
/// how many were replayed.
pub fn journaled_cells<S: Sync, C: Send + Sync>(
    jobs: usize,
    journal: Option<&Journal>,
    specs: &[S],
    codec: &CellCodec<'_, S, C>,
    run: impl Fn(&S) -> C + Sync,
) -> (Vec<C>, usize) {
    let cached: Vec<Option<C>> = specs
        .iter()
        .map(|spec| {
            let j = journal?;
            let key = (codec.key)(spec);
            let decoded = (codec.decode)(spec, &j.lookup(&key)?.payload);
            if decoded.is_none() {
                j.report_bad_payload(&key, format!("{} payload does not decode", codec.study));
            }
            decoded
        })
        .collect();
    let computed = run_indexed(jobs, specs, |i, spec| {
        cached[i].is_none().then(|| run(spec))
    });
    let replayed = cached.iter().flatten().count();
    let mut cells = Vec::with_capacity(specs.len());
    for ((spec, cached), computed) in specs.iter().zip(cached).zip(computed) {
        let fresh = cached.is_none();
        let Some(cell) = cached.or(computed) else {
            unreachable!("a cell neither cached nor computed")
        };
        if let Some(j) = journal.filter(|_| fresh) {
            let entry = Entry {
                key: (codec.key)(spec),
                attempt: 1,
                status: if (codec.ok)(&cell) {
                    CellStatus::Ok
                } else {
                    CellStatus::Failed
                },
                payload: (codec.encode)(&cell),
            };
            if let Err(e) = j.append(&entry) {
                eprintln!("repro: journal: {e}");
            }
        }
        cells.push(cell);
    }
    (cells, replayed)
}

/// One journaled study invocation: the stage label, the expected
/// simulation count (for the stderr rate line), and the opened journal.
#[derive(Debug)]
pub struct StudyRunner {
    label: &'static str,
    sims: usize,
    journal: Option<Journal>,
}

impl StudyRunner {
    /// Prepares a runner: opens the journal named by `cli` (if any)
    /// under the resume discipline.
    pub fn new(label: &'static str, sims: usize, cli: &StudyCli) -> Result<Self, StudyError> {
        Ok(StudyRunner {
            label,
            sims,
            journal: cli.open()?,
        })
    }

    /// The opened journal, for studies (profile) whose replay unit is
    /// the whole report rather than per-cell.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Runs `f` under this runner's timed stage without the report
    /// protocol — the whole-payload studies drive their own replay.
    pub fn stage<T>(&self, f: impl FnOnce() -> T) -> T {
        staged(self.label, self.sims, f)
    }

    /// Surfaces every corrupt or undecodable journal entry on stderr
    /// (each was recomputed rather than replayed).
    pub fn report_corrupt(&self) {
        if let Some(j) = &self.journal {
            for e in j.corrupt() {
                eprintln!("repro: journal: {e}");
            }
        }
    }

    /// Drives one study end to end: stage `f` (handing it the journal),
    /// surface corrupt entries and the replay count on stderr, print
    /// the text report and the JSON line on stdout, and return the
    /// report's verdict for the exit status.
    pub fn run<R: StudyReport>(&self, f: impl FnOnce(Option<&Journal>) -> R) -> bool {
        let rep = self.stage(|| f(self.journal.as_ref()));
        self.report_corrupt();
        if let Some(j) = &self.journal {
            eprintln!(
                "# journal {}: {} cells replayed",
                j.path().display(),
                rep.replayed()
            );
        }
        print!("{}", rep.render_text());
        println!("{}", rep.render_json());
        rep.ok()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    struct FakeReport {
        ok: bool,
    }

    impl StudyReport for FakeReport {
        fn ok(&self) -> bool {
            self.ok
        }
        fn replayed(&self) -> usize {
            0
        }
        fn render_text(&self) -> String {
            String::new()
        }
        fn render_json(&self) -> String {
            "{}".to_string()
        }
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("spp-study-{tag}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn open_journal_enforces_the_resume_discipline() {
        let p = temp_path("discipline");
        // Resuming a journal that does not exist is a typed error.
        assert!(matches!(
            open_journal(&p, true).unwrap_err(),
            StudyError::ResumeMissingJournal(_)
        ));
        // A fresh run against a fresh path opens (and creates) it.
        open_journal(&p, false).unwrap();
        // A fresh run against an existing non-empty journal must not
        // silently mix campaigns.
        std::fs::write(&p, "x\n").unwrap();
        assert!(matches!(
            open_journal(&p, false).unwrap_err(),
            StudyError::JournalNeedsResume(_)
        ));
        // Resuming it is fine (the bogus line surfaces via corrupt()).
        let j = open_journal(&p, true).unwrap();
        assert_eq!(j.corrupt().len(), 1);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn study_cli_opens_nothing_without_a_journal_flag() {
        let cli = StudyCli::default();
        assert!(cli.open().unwrap().is_none());
        let runner = StudyRunner::new("study-test", 0, &cli).unwrap();
        assert!(runner.journal().is_none());
    }

    #[test]
    fn runner_returns_the_report_verdict() {
        let cli = StudyCli::default();
        let runner = StudyRunner::new("study-test", 0, &cli).unwrap();
        assert!(runner.run(|_| FakeReport { ok: true }));
        assert!(!runner.run(|_| FakeReport { ok: false }));
    }

    #[test]
    fn runner_hands_the_opened_journal_to_the_study() {
        let p = temp_path("handoff");
        let cli = StudyCli {
            journal: Some(p.display().to_string()),
            resume: false,
        };
        let runner = StudyRunner::new("study-test", 0, &cli).unwrap();
        let saw_journal = runner.run(|j| FakeReport { ok: j.is_some() });
        assert!(saw_journal, "the study closure must receive the journal");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn every_error_renders_as_one_line() {
        for e in [
            StudyError::ResumeMissingJournal("/tmp/x.jsonl".into()),
            StudyError::JournalNeedsResume("/tmp/x.jsonl".into()),
            StudyError::Journal("journal \"x\": denied".into()),
        ] {
            let s = e.to_string();
            assert!(!s.is_empty() && !s.contains('\n'), "{e:?} renders {s:?}");
        }
    }
}
