//! Each workload at a tiny size: one seed gives one digest and one set of
//! per-layer counts, traced, layer by layer without spans, or untraced;
//! another seed gives another digest.
//! The metric lists the binary prints match `BENCHMARK.json`.

use spp_hostbench::metrics::{per_layer, Traced, END_TO_END, PER_LAYER};
use spp_hostbench::{Iteration, Size, Tracer, Workload};

fn run(w: Workload, seed: u64, mut tr: Tracer) -> (Iteration, Tracer) {
    let it = w.run(seed, Size::Tiny, &mut tr);
    assert_eq!(it.failed, 0, "{}: {:?}", w.name(), it.failures);
    assert!(
        it.attempted > 0 && it.work > 0,
        "{}: no work done",
        w.name()
    );
    (it, tr)
}

#[test]
fn one_seed_one_digest_and_one_set_of_counts() {
    for w in Workload::ALL {
        let (a, tr) = run(w, 7, Tracer::on());
        let (b, _) = run(w, 7, Tracer::on());
        let (layered, silent) = run(w, 7, Tracer::layer_by_layer());
        let (untraced, _) = run(w, 7, Tracer::off());
        let (other, _) = run(w, 8, Tracer::on());
        assert_eq!(
            a.digest,
            b.digest,
            "{}: same seed, different digest",
            w.name()
        );
        assert_eq!(
            a.counts,
            b.counts,
            "{}: same seed, different counts",
            w.name()
        );
        assert_eq!(
            a.digest,
            untraced.digest,
            "{}: traced and untraced iterations disagree",
            w.name()
        );
        assert_eq!(
            (a.digest, &a.counts),
            (layered.digest, &layered.counts),
            "{}: traced and layer-by-layer iterations disagree",
            w.name()
        );
        assert!(
            silent.spans().is_empty(),
            "{}: a layer-by-layer pass recorded spans",
            w.name()
        );
        assert_ne!(
            a.digest,
            other.digest,
            "{}: the seed does not reach the inputs",
            w.name()
        );
        assert!(
            !tr.spans().is_empty(),
            "{}: traced run recorded no spans",
            w.name()
        );

        let wall_s = 1.0;
        let layers = per_layer(
            &[Traced {
                it: a,
                tracer: tr,
                wall_s,
            }],
            &[wall_s],
        );
        let names: Vec<&str> = layers.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, expected);
        assert!(
            layers.iter().all(|m| m.value.is_finite()),
            "{}: {layers:?}",
            w.name()
        );
    }
}

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn listed_names(json: &str, section: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| {
            s.trim()
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap_or("")
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let e2e: Vec<String> = END_TO_END.iter().map(|&(n, _)| n.to_string()).collect();
    let layers: Vec<String> = PER_LAYER.iter().map(|&(n, _)| n.to_string()).collect();
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(listed_names(&json, "end_to_end"), e2e);
    assert_eq!(listed_names(&json, "per_layer"), layers);
    assert_eq!(listed_names(&json, "workloads"), workloads);
}
