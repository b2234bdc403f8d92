//! Integration: the experiment-registry API surface — backward
//! compatibility of the default text output, registry completeness,
//! typed-parameter validation, and byte-stable machine-readable goldens.
//!
//! Golden files live in `tests/golden/`. `repro_all.txt` was captured
//! from the harness *before* the registry refactor and must never drift;
//! the JSON/CSV snapshots pin the versioned serializer. Re-bless the
//! JSON/CSV snapshots (never `repro_all.txt`) after an intentional format
//! change with `BLESS_GOLDEN=1 cargo test --test experiments_registry`.

use cnt_beol::interconnect::experiments::{self, registry, RunContext};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("bless golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); run with BLESS_GOLDEN=1"));
    assert_eq!(
        actual, expected,
        "{name} drifted; if intentional, re-bless with BLESS_GOLDEN=1"
    );
}

/// The acceptance guard: for every pre-refactor id, the default text
/// output is byte-identical to what the hand-written dispatcher printed
/// (`repro_all.txt` is the captured pre-refactor `repro all` stream; the
/// `variability` study was added with the registry and is excluded).
#[test]
fn default_text_output_is_byte_identical_to_pre_refactor_harness() {
    let mut stream = String::new();
    for id in experiments::catalog().filter(|id| *id != "variability") {
        // The repro binary prints each report with println!: render + \n.
        stream.push_str(&experiments::run(id).expect(id).render());
        stream.push('\n');
    }
    let expected = std::fs::read_to_string(golden_path("repro_all.txt")).expect("golden exists");
    assert_eq!(
        stream, expected,
        "default text output drifted from the seed harness"
    );
}

#[test]
fn registry_is_complete_and_consistent() {
    let reg = registry();
    let ids: Vec<&str> = experiments::catalog().collect();
    // Every id resolves, is unique, and declares a parameter surface that
    // includes the common knobs and no execution setting: the executor
    // width and a cache directory never set a report's bytes.
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), ids.len(), "duplicate ids in the catalog");
    for exp in reg.iter() {
        assert!(ids.contains(&exp.id()));
        for key in ["trials", "seed"] {
            assert!(
                exp.params().get(key).is_some(),
                "{} lost the common knob {key}",
                exp.id()
            );
        }
        for key in ["threads", "cache_dir"] {
            assert!(
                exp.params().get(key).is_none(),
                "{} declares the execution setting {key}",
                exp.id()
            );
        }
    }
    // Extras come after the paper artefacts and never shadow them.
    let extras: Vec<&str> = reg
        .iter()
        .filter(|e| e.is_extra())
        .map(|e| e.id())
        .collect();
    assert_eq!(extras, ["stability", "variability"]);
    assert_eq!(&ids[ids.len() - 2..], &extras[..]);
    // Sweep ids are a strict subset of the catalog.
    let sweeps: Vec<&str> = experiments::sweep_catalog().collect();
    assert!(!sweeps.is_empty() && sweeps.len() < ids.len());
    for id in sweeps {
        assert!(ids.contains(&id), "sweep id {id} not runnable");
    }
}

#[test]
fn unknown_ids_and_bad_overrides_are_rejected_with_names() {
    let err = experiments::run("fig99").unwrap_err().to_string();
    assert!(err.contains("'fig99'"), "{err}");

    let exp = registry().get("fig12").unwrap();
    let bad_key =
        RunContext::with_overrides(exp.params(), &[("bogus".to_string(), "1".to_string())])
            .map(|_| ())
            .unwrap_err()
            .to_string();
    assert!(bad_key.contains("'bogus'"), "{bad_key}");

    let bad_value =
        RunContext::with_overrides(exp.params(), &[("nc".to_string(), "99".to_string())])
            .map(|_| ())
            .unwrap_err()
            .to_string();
    assert!(
        bad_value.contains("'nc'") && bad_value.contains("99"),
        "{bad_value}"
    );
}

#[test]
fn overrides_change_results_and_defaults_do_not() {
    let exp = registry().get("fig12").unwrap();
    let default_run = exp.run(&RunContext::defaults(exp.params())).unwrap();
    assert_eq!(
        default_run.render(),
        experiments::run("fig12").unwrap().render()
    );
    let moved = RunContext::with_overrides(
        exp.params(),
        &[("length_um".to_string(), "200".to_string())],
    )
    .unwrap();
    let moved_run = exp.run(&moved).unwrap();
    assert_ne!(default_run.render(), moved_run.render());
    assert!(moved_run.render().contains("L = 200 µm"));
}

/// Each golden is one `(id, overrides)` point, named `<id>` at the paper
/// point and `<id>_<key>_<value>` off it. fig08a is pinned at its
/// default and at both ends of `temp_k`, where its Landauer window is
/// narrowest and widest.
#[test]
fn json_and_csv_goldens_are_byte_stable() {
    let points: [(&str, Option<(&str, &str)>); 6] = [
        ("table1", None),
        ("fig12", None),
        ("fig10", None),
        ("fig08a", None),
        ("fig08a", Some(("temp_k", "50"))),
        ("fig08a", Some(("temp_k", "600"))),
    ];
    for (id, set) in points {
        let sets: Vec<(String, String)> = set
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let (exp, ctx) = experiments::resolve_context(id, None, &sets).unwrap();
        let report = exp.run(&ctx).unwrap();
        let name = match set {
            None => id.to_string(),
            Some((key, value)) => format!("{id}_{key}_{value}"),
        };
        let json = report.to_json();
        experiments::format::check_json_stream(&json).expect("golden JSON must be valid");
        check_golden(&format!("{name}.json"), &json);
        check_golden(&format!("{name}.csv"), &report.to_csv());
    }
}
