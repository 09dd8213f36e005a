//! Self-tests of the benchmark, at reduced workload size.

use magma_perfbench::layers::{
    layer_metrics, layer_self_s, row_layer, scope_layer, Layer, PER_LAYER,
};
use magma_perfbench::workload::{generate, Size, WORKLOADS};
use magma_perfbench::{hostspeed, run_once, END_TO_END};
use serde_json::Value;

fn reduced(name: &str, seed: u64) -> magma_perfbench::workload::WorkloadSpec {
    generate(name, seed, Size::Reduced).expect("known workload")
}

#[test]
fn every_workload_passes_its_output_check() {
    for name in WORKLOADS {
        let spec = reduced(name, 1);
        let run = run_once(&spec, false);
        if let Err(errs) = run.outputs.check(&spec) {
            panic!("{name}: {errs:?}\n{:?}", run.outputs);
        }
    }
}

#[test]
fn same_seed_repeats_outputs_and_counts_and_tracing_changes_nothing() {
    for name in WORKLOADS {
        let spec = reduced(name, 7);
        let untraced = run_once(&spec, false);
        let a = run_once(&spec, true);
        let b = run_once(&spec, true);
        assert_eq!(
            untraced.outputs, a.outputs,
            "{name}: traced run changed outputs"
        );
        assert_eq!(a.outputs, b.outputs, "{name}: same seed, different outputs");
        let counts = |run: &magma_perfbench::Run| -> Vec<(&'static str, f64)> {
            let traced = run.traced.as_ref().expect("traced run");
            layer_metrics(traced)
                .expect("every row and scope in a layer")
                .into_iter()
                .filter(|(n, _)| !magma_perfbench::layers::is_host_time(n))
                .collect()
        };
        assert_eq!(
            counts(&a),
            counts(&b),
            "{name}: same seed, different counts"
        );
    }
}

#[test]
fn a_different_seed_gives_a_different_config() {
    for name in WORKLOADS {
        for size in [Size::Reduced, Size::Full] {
            let a = generate(name, 1, size).expect("known workload");
            let b = generate(name, 2, size).expect("known workload");
            assert_ne!(a, b, "{name}");
            assert_eq!(
                a,
                generate(name, 1, size).expect("known workload"),
                "{name}"
            );
            // Only parameters vary with the seed, never the amount of work.
            assert_eq!(
                (a.total_ues(), a.sim_seconds, a.partition),
                (b.total_ues(), b.sim_seconds, b.partition),
                "{name}"
            );
        }
    }
    assert!(generate("no_such_workload", 1, Size::Full).is_none());
}

#[test]
fn host_speed_is_a_positive_figure_from_an_advancing_cpu_clock() {
    let t0 = hostspeed::thread_cpu_s();
    let speed = hostspeed::measure();
    assert!(speed.is_finite() && speed > 0.0, "host speed {speed}");
    assert!(
        hostspeed::thread_cpu_s() > t0,
        "on-CPU clock did not advance"
    );
}

#[test]
fn every_row_and_scope_maps_to_exactly_one_layer() {
    for name in WORKLOADS {
        let run = run_once(&reduced(name, 3), true);
        let traced = run.traced.expect("traced run");
        assert!(
            !traced.profile.host.rows.is_empty(),
            "{name}: no simprof rows"
        );
        if let Err(unmapped) = layer_self_s(&traced) {
            panic!("{name}: rows and scopes in no layer: {unmapped:?}");
        }
        // Layer self times account for the whole traced run wall.
        let total: f64 = layer_self_s(&traced)
            .expect("mapped")
            .iter()
            .map(|(_, s)| s)
            .sum();
        assert!(
            (total - traced.run_s).abs() <= 1e-6 * traced.run_s.max(1.0),
            "{name}: layers sum to {total}s of {}s",
            traced.run_s
        );
    }
}

#[test]
fn the_grouping_rules_reject_what_they_do_not_know() {
    assert_eq!(row_layer("agw3", "msg"), Some(Layer::Agw));
    assert_eq!(row_layer("agw12-metricsd", "timer"), Some(Layer::Metricsd));
    assert_eq!(row_layer("agw0", "cpu_done"), Some(Layer::Sim));
    assert_eq!(row_layer("netstack-node4", "timer"), Some(Layer::Net));
    assert_eq!(row_layer("enb-256", "msg"), Some(Layer::Ran));
    assert_eq!(row_layer("orc8r", "msg"), Some(Layer::Orc8r));
    assert_eq!(row_layer("feg", "msg"), None);
    assert_eq!(row_layer("agw", "msg"), None);
    assert_eq!(row_layer("agw0-sessiond", "msg"), None);
    assert_eq!(row_layer("new-actor", "msg"), None);
    assert_eq!(scope_layer("rpc.encode"), Some(Layer::Rpc));
    assert_eq!(scope_layer("dataplane.fluid_tick"), Some(Layer::Dataplane));
    assert_eq!(scope_layer("metricsd.snapshot"), Some(Layer::Metricsd));
    assert_eq!(scope_layer("wire.nas_decode"), None);
}

/// `BENCHMARK.json` at the repository root names exactly the workloads
/// and metrics this package measures.
#[test]
fn benchmark_json_matches_the_measured_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<String> {
        doc[key]
            .as_array()
            .expect("array")
            .iter()
            .map(|m| m["name"].as_str().expect("name").to_string())
            .collect()
    };
    assert_eq!(names("workloads"), WORKLOADS.to_vec());
    let entries = |key: &str| -> Vec<(String, String, String)> {
        doc[key]
            .as_array()
            .expect("array")
            .iter()
            .map(|m| {
                let s = |k: &str| m[k].as_str().expect("string field").to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    };
    let own = |v: Vec<(&str, &str, &str)>| -> Vec<(String, String, String)> {
        v.into_iter()
            .map(|(a, b, c)| (a.to_string(), b.to_string(), c.to_string()))
            .collect()
    };
    assert_eq!(entries("end_to_end"), own(END_TO_END.to_vec()));
    assert_eq!(
        entries("per_layer"),
        own(PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .collect())
    );
}
