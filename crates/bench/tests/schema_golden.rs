//! Golden-file pinning of every `specpersist/*-v1` document.
//!
//! Each writer renders a small, fully deterministic experiment and is
//! byte-compared against a checked-in golden. This catches accidental
//! wire-format drift (field order, number formatting, envelope shape)
//! that unit tests on individual fields would miss.
//!
//! To regenerate after an *intentional* format change:
//!
//! ```text
//! BLESS=1 cargo test -p spp-bench --test schema_golden
//! ```
#![allow(clippy::unwrap_used, clippy::expect_used)]

use spp_bench::crashfuzz::{run_crashfuzz, FuzzReport, Leg};
use spp_bench::faultsim::{run_faultsim_opts, FaultReport, FaultsimOpts, WatchdogReport};
use spp_bench::journal::{CellStatus, Entry, Journal};
use spp_bench::kv::{run_kv_opts, KvReport};
use spp_bench::litmus::{run_litmus_opts, LitmusOpts, LitmusReport, ModelKnob};
use spp_bench::multicore::run_multicore_opts;
use spp_bench::optimize::{run_optimize_opts, OptCell, OptimizeCellSpec, OptimizeReport};
use spp_bench::profile::{run_profile, ProfileReport};
use spp_bench::{json, schema, Experiment, Harness, MulticoreReport};
use spp_pmem::Variant;
use spp_workloads::BenchId;

/// The one experiment every golden uses: tiny, fixed seed, fixed jobs.
fn exp() -> Experiment {
    Experiment {
        scale: 2400,
        seed: 7,
    }
}

fn harness() -> Harness {
    Harness::new(exp(), 2)
}

/// Byte-compares `actual` against `tests/goldens/<name>`, or rewrites
/// the golden when `BLESS` is set in the environment.
fn golden(name: &str, actual: &str) {
    let mut p = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.push("tests");
    p.push("goldens");
    p.push(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(p.parent().unwrap()).unwrap();
        std::fs::write(&p, actual).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&p).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with BLESS=1",
            p.display()
        )
    });
    assert_eq!(
        actual, want,
        "{name} diverged from its golden; if the format change is \
         intentional, regenerate with BLESS=1"
    );
}

/// Every golden must also pass its own schema validation — the golden
/// pins the bytes, the validator pins the envelope.
fn check(name: &str, doc: &str, s: schema::Schema) {
    schema::validate(doc, s).unwrap_or_else(|e| panic!("{name}: {e}"));
    golden(name, doc);
}

#[test]
fn suite_document_is_stable() {
    let runs = harness().run_suite();
    check("suite.json", &json::suite_json(&runs), schema::SUITE);
}

#[test]
fn crashfuzz_document_is_stable() {
    let rep = run_crashfuzz(&harness(), Leg::Log);
    check("crashfuzz.json", &rep.render_json(), schema::CRASHFUZZ);
}

#[test]
fn faultsim_document_is_stable() {
    let rep = run_faultsim_opts(&harness(), FaultsimOpts::default());
    check("faultsim.json", &rep.render_json(), schema::FAULTSIM);
}

#[test]
fn multicore_document_is_stable() {
    let rep = run_multicore_opts(&harness(), None);
    check("multicore.json", &rep.render_json(), schema::MULTICORE);
}

#[test]
fn kv_document_is_stable() {
    let rep = run_kv_opts(&harness(), None);
    check("kv.json", &rep.render_json(), schema::KV);
}

#[test]
fn litmus_document_is_stable() {
    let rep = run_litmus_opts(&harness(), LitmusOpts::default());
    check("litmus.json", &rep.render_json(), schema::LITMUS);
}

#[test]
fn optimize_document_is_stable() {
    let rep = run_optimize_opts(&harness(), BenchId::LinkedList, Variant::LogP, None);
    check("optimize.json", &rep.render_json(), schema::OPTIMIZE);
}

#[test]
fn profile_document_is_stable() {
    let rep = run_profile(&harness(), BenchId::LinkedList, Variant::LogPSf);
    check("profile.json", &rep.render_json(), schema::PROFILE);
}

#[test]
fn journal_line_is_stable() {
    let mut p = std::env::temp_dir();
    p.push(format!("spp-golden-journal-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&p);
    let journal = Journal::open(&p).unwrap();
    journal
        .append(&Entry {
            key: "golden/demo".to_string(),
            attempt: 1,
            status: CellStatus::Ok,
            payload: "{\"ok\":1}".to_string(),
        })
        .unwrap();
    let line = std::fs::read_to_string(&p).unwrap();
    std::fs::remove_file(&p).unwrap();
    // The line is itself a schema document (trailing newline aside).
    schema::validate(line.trim_end(), schema::JOURNAL).unwrap();
    golden("journal.jsonl", &line);
}

/// Seeds are `u64`s: every document writes its seed exactly, including
/// past 2^53, where an `f64` rendering would round.
#[test]
fn a_u64_max_seed_is_written_exactly_in_every_document() {
    let exp = Experiment {
        scale: 2400,
        seed: u64::MAX,
    };
    let (scale, seed) = (exp.scale, exp.seed);
    let (id, variant) = (BenchId::LinkedList, Variant::LogP);
    let docs = [
        FuzzReport {
            exp,
            seeds_per_point: 1,
            cells: Vec::new(),
            sp: Vec::new(),
        }
        .render_json(),
        FaultReport {
            exp,
            cells: Vec::new(),
            failures: Vec::new(),
            replayed: 0,
            watchdog: WatchdogReport {
                id,
                bound: 1,
                fired: false,
                cycle: 0,
                rob_len: 0,
                detail: String::new(),
                ok: false,
            },
        }
        .render_json(),
        LitmusReport {
            scale,
            seed,
            knob: ModelKnob::default(),
            programs: 0,
            cells: Vec::new(),
            replayed: 0,
        }
        .render_json(),
        MulticoreReport {
            scale,
            seed,
            ops_per_core: 1,
            cells: Vec::new(),
            replayed: 0,
        }
        .render_json(),
        ProfileReport {
            id,
            variant,
            exp,
            trace_uops: 0,
            cells: Vec::new(),
        }
        .render_json(),
        KvReport {
            scale,
            seed,
            cells: Vec::new(),
            replayed: 0,
        }
        .render_json(),
        OptimizeReport {
            id,
            variant,
            scale,
            seed,
            cells: OptimizeCellSpec::all()
                .into_iter()
                .map(|spec| OptCell {
                    spec,
                    ..OptCell::default()
                })
                .collect(),
            replayed: 0,
        }
        .render_json(),
    ];
    for doc in docs {
        assert!(doc.contains("\"seed\":18446744073709551615"), "{doc}");
    }
}
