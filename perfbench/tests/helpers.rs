//! Unit tests of the benchmark's own helpers.

use ebtrain_obs::json::Value;
use ebtrain_perfbench::harness::{Args, Steal, WORKLOADS};
use ebtrain_perfbench::layers::{END_TO_END, PER_LAYER};
use ebtrain_perfbench::report::{
    min_samples_for_tail, percentile, samples_beyond, self_time, valid_name, Meta, Metric,
    RunResult,
};
use ebtrain_perfbench::timing::{extent, span_ns};

#[test]
fn tail_percentile_keeps_ten_samples_beyond() {
    assert_eq!(min_samples_for_tail(0.9), 100);
    assert_eq!(min_samples_for_tail(0.99), 1000);
    assert_eq!(samples_beyond(100, 0.9), 10);
    assert_eq!(samples_beyond(99, 0.9), 9);
    assert_eq!(samples_beyond(1000, 0.99), 10);
}

#[test]
fn percentile_is_nearest_rank() {
    let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(percentile(&mut v, 0.9), Some(90.0));
    assert_eq!(percentile(&mut v, 0.5), Some(50.0));
    assert_eq!(percentile(&mut v, 1.0), Some(100.0));
    assert_eq!(percentile(&mut [], 0.5), None);
}

#[test]
fn metric_names_are_validated() {
    for ok in ["setup_s", "dnn.store.save_ms", "p-99", "0ratio"] {
        assert!(valid_name(ok), "{ok}");
    }
    for bad in ["", ".x", "_x", "a b", "ms/s", "é", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad}");
    }
}

#[test]
fn self_time_subtracts_covered_children_once() {
    // No children: the whole span.
    assert_eq!(self_time((10, 110), &[]), 100);
    // Disjoint children.
    assert_eq!(self_time((0, 100), &[(10, 20), (50, 70)]), 70);
    // Overlapping children are not double counted.
    assert_eq!(self_time((0, 100), &[(10, 40), (30, 60)]), 50);
    // Children sticking out of the parent count only inside it.
    assert_eq!(self_time((0, 100), &[(90, 150), (0, 0), (200, 300)]), 90);
    // Fully covered parent.
    assert_eq!(self_time((5, 10), &[(0, 20)]), 0);
}

#[test]
fn extent_spans_first_start_to_last_end() {
    assert_eq!(extent(&[(30, 40), (10, 20), (15, 35)]), (10, 40));
    assert_eq!(span_ns(extent(&[])), 0);
}

#[test]
fn result_file_round_trips_through_obs_json() {
    let r = RunResult {
        correct: true,
        attempted: 1234,
        failed: 0,
        metrics: vec![
            Metric {
                name: "step_ms_p50".into(),
                value: 91.764_172_5,
                unit: "ms".into(),
            },
            Metric {
                name: "samples_per_s".into(),
                value: 1.0 / 3.0,
                unit: "1/s".into(),
            },
        ],
        meta: Meta {
            workload: "train_raw".into(),
            seed: 42,
            seconds: 20,
            trace: false,
            nproc: 2,
            profile: "release".into(),
            git_rev: "unknown".into(),
            rayon_threads: "unset".into(),
        },
    };
    assert_eq!(RunResult::parse_record(&r.record_json()), Ok(r.clone()));
    // The summary line has exactly the four contract keys.
    let summary = ebtrain_obs::json::parse(&r.summary_json()).unwrap();
    match summary {
        Value::Obj(members) => {
            let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
        other => panic!("summary is not an object: {other:?}"),
    }
}

#[test]
fn command_line_is_checked() {
    let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
    let a = parse("--workload dist_sz --seed 9 --seconds 3 --trace 1").unwrap();
    assert_eq!(
        (a.workload.as_str(), a.seed, a.seconds, a.trace),
        ("dist_sz", 9, 3, true)
    );
    assert!(parse("--workload all --seed 1").is_ok());
    assert!(parse("--workload nope --seed 1").is_err());
    assert!(parse("--workload train_raw --trace 2").is_err());
    assert!(parse("--workload train_raw --seconds 0").is_err());
    assert!(parse("--seed 1").is_err());
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let doc = ebtrain_obs::json::parse(&text).expect("BENCHMARK.json parses");
    let entries = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|e| {
                let field = |f: &str| e.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let catalogue = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(entries("end_to_end"), catalogue(&END_TO_END));
    assert_eq!(entries("per_layer"), catalogue(&PER_LAYER));
    let workloads: Vec<String> = entries("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
    for (name, _) in entries("end_to_end").iter().chain(&entries("per_layer")) {
        assert!(valid_name(name), "{name}");
    }
}

#[test]
fn steal_share_reads_the_cpu_line() {
    let line = "cpu  100 5 20 900 3 1 4 30 0 0";
    assert_eq!(Steal::parse_cpu_line(line), (130, 30));
    assert_eq!(Steal::parse_cpu_line("cpu0 1 2 3 4 5 6 7 8"), (0, 0));
    assert_eq!(Steal::parse_cpu_line("cpu 1 2 3"), (0, 0));
    assert_eq!(Steal::share(130, 30), 130.0 / 160.0);
    assert_eq!(Steal::share(0, 0), 1.0);
    let g = Steal::now().granted();
    assert!(g > 0.0 && g <= 1.0, "{g}");
}
