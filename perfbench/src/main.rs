//! `magma-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Repeats one seeded workload for about `--seconds` host seconds and
//! prints, as the last line of stdout, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones (observers off); with `--trace 1`,
//! untraced and traced runs alternate and the metrics are the per-layer
//! ones. A human-readable summary goes to stderr.

use magma_perfbench::layers::{self, Layer, PER_LAYER};
use magma_perfbench::outputs::Outputs;
use magma_perfbench::workload::{generate, Size, WorkloadSpec, WORKLOADS};
use magma_perfbench::{hostspeed, median, run_once, setup_batch_s, Run, END_TO_END};
use magma_sim::HostStopwatch;
use serde_json::json;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(val.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds {seconds}: must be positive"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Outcome of a measured run set.
struct Tally {
    attempted: u64,
    failed: u64,
    /// Cross-run problems (nondeterminism, unmapped rows) that make the
    /// result incorrect without failing any single run's check.
    problems: Vec<String>,
}

impl Tally {
    fn new() -> Self {
        Tally {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Count a run: its output check, and equality with the first run.
    fn record(&mut self, run: &Run, first: &Outputs, spec: &WorkloadSpec) {
        self.attempted += 1;
        if let Err(errs) = run.outputs.check(spec) {
            self.failed += 1;
            for e in errs {
                eprintln!("[perfbench] output check failed: {e}");
            }
        } else if run.outputs != *first {
            self.failed += 1;
            eprintln!(
                "[perfbench] outputs differ from the first run:\n  first {first:?}\n  this  {:?}",
                run.outputs
            );
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("magma-perfbench: {e}");
            eprintln!(
                "usage: magma-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(spec) = generate(&args.workload, args.seed, Size::Full) else {
        eprintln!(
            "magma-perfbench: unknown workload `{}` (known: {})",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    eprintln!("[perfbench] {spec:?}");

    let clock = HostStopwatch::start();
    let mut tally = Tally::new();
    let mut first: Option<Outputs> = None;
    let mut untraced: Vec<Run> = Vec::new();
    let mut traced: Vec<Run> = Vec::new();
    // End-to-end mode only: the peak after the first run, and per run one
    // host-speed figure and one set-up batch.
    let mut peak_rss = None;
    let mut setups: Vec<f64> = Vec::new();
    let mut speeds: Vec<f64> = Vec::new();
    // Alternate untraced and traced runs in trace mode; stop starting runs
    // once the next one (sized by the mean so far) would overrun.
    loop {
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            // Host speed is sampled on both sides of an end-to-end run,
            // except before the first, whose peak memory must be the
            // workload's own.
            let sample_speed = !trace && !args.trace;
            let before = (sample_speed && !untraced.is_empty()).then(hostspeed::measure);
            let run = run_once(&spec, trace);
            let first = first.get_or_insert_with(|| {
                eprintln!("[perfbench] outputs {:?}", run.outputs);
                run.outputs.clone()
            });
            tally.record(&run, first, &spec);
            if trace {
                traced.push(run);
                continue;
            }
            untraced.push(run);
            if sample_speed {
                peak_rss.get_or_insert_with(magma_sim::prof::peak_rss_bytes);
                let after = hostspeed::measure();
                speeds.push(before.map_or(after, |b| (b + after) / 2.0));
                setups.push(setup_batch_s(&spec));
            }
        }
        let per_round = clock.elapsed_s() / untraced.len() as f64;
        if clock.elapsed_s() + per_round > args.seconds {
            break;
        }
    }

    let mut metrics = Vec::new();
    if args.trace {
        metrics = per_layer_metrics(&untraced, &traced, &mut tally);
    } else {
        // Rescale each run, and the set-up batch after it, by the host
        // speed sampled beside that run.
        let rates: Vec<f64> = untraced
            .iter()
            .zip(&speeds)
            .map(|(r, s)| r.sim_s / (r.run_cpu_s * s).max(1e-12))
            .collect();
        let setup: Vec<f64> = setups.iter().zip(&speeds).map(|(t, s)| t * s).collect();
        let rss_mb = peak_rss.unwrap_or(0) as f64 / (1024.0 * 1024.0);
        let wall_rate = median(
            &untraced
                .iter()
                .map(|r| r.sim_s / r.run_s)
                .collect::<Vec<_>>(),
        );
        eprintln!(
            "[perfbench] {} runs; host speed {:.3} (median, min {:.3}, max {:.3}); \
             unscaled sim_rate {wall_rate:.2} sim-s per wall s, setup_s {:.6} on-CPU s",
            untraced.len(),
            median(&speeds),
            speeds.iter().copied().fold(f64::INFINITY, f64::min),
            speeds.iter().copied().fold(0.0, f64::max),
            median(&setups),
        );
        eprintln!("[perfbench] sim_rate per run {rates:.2?}");
        let values = [median(&rates), median(&setup), rss_mb];
        for ((name, unit, _), value) in END_TO_END.iter().zip(values) {
            eprintln!("{name:<12} {value:>12.6} {unit}");
            metrics.push((*name, value, *unit));
        }
    }
    for (name, v, _) in &metrics {
        if !v.is_finite() {
            tally.problems.push(format!("metric {name} is not finite"));
        }
    }
    for p in &tally.problems {
        eprintln!("[perfbench] {p}");
    }
    let correct = tally.failed == 0 && tally.problems.is_empty();
    let metrics: serde_json::Map<String, serde_json::Value> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let value = if v.is_finite() { *v } else { 0.0 };
            (name.to_string(), json!({"value": value, "unit": unit}))
        })
        .collect();
    println!(
        "{}",
        json!({
            "correct": correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
        })
    );
    ExitCode::SUCCESS
}

/// The per-layer metrics of a traced run set, in `PER_LAYER` order, and
/// the layer table on stderr.
fn per_layer_metrics(
    untraced: &[Run],
    traced: &[Run],
    tally: &mut Tally,
) -> Vec<(&'static str, f64, &'static str)> {
    let runs: Vec<&layers::TracedRun> = traced.iter().filter_map(|r| r.traced.as_ref()).collect();
    let mut per_run = Vec::new();
    for run in &runs {
        match layers::layer_metrics(run) {
            Ok(m) => per_run.push(m),
            Err(unmapped) => {
                tally.problems.push(format!(
                    "rows and scopes in no layer: {}",
                    unmapped.join(", ")
                ));
                return Vec::new();
            }
        }
    }
    let untraced_s = median(&untraced.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let traced_s = median(&runs.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let mut out = Vec::new();
    for lm in &PER_LAYER {
        let value = if lm.name == "trace.overhead_frac" {
            traced_s / untraced_s - 1.0
        } else {
            let vals: Vec<f64> = per_run
                .iter()
                .filter_map(|m| m.iter().find(|(n, _)| *n == lm.name).map(|(_, v)| *v))
                .collect();
            if !layers::is_host_time(lm.name) && vals.iter().any(|v| *v != vals[0]) {
                tally.problems.push(format!(
                    "count {} differs across traced runs: {vals:?}",
                    lm.name
                ));
            }
            median(&vals)
        };
        out.push((lm.name, value, lm.unit));
    }

    // Layer table: median self time per layer and its share of the
    // median traced run wall.
    let tables: Vec<Vec<(Layer, f64)>> = runs
        .iter()
        .filter_map(|r| layers::layer_self_s(r).ok())
        .collect();
    eprintln!(
        "[perfbench] {} traced runs, run wall median {traced_s:.4}s (untraced {untraced_s:.4}s)",
        runs.len()
    );
    eprintln!("layer          self_s    share");
    for (i, layer) in Layer::ALL.iter().enumerate() {
        let s = median(&tables.iter().map(|t| t[i].1).collect::<Vec<_>>());
        eprintln!(
            "{:<12} {:>8.4} {:>7.1}%",
            layer.name(),
            s,
            100.0 * s / traced_s
        );
    }
    let share = |names: &[&str]| -> f64 {
        names
            .iter()
            .map(|n| {
                out.iter()
                    .find(|(m, _, _)| m == n)
                    .map(|(_, v, _)| *v)
                    .unwrap_or(0.0)
            })
            .sum::<f64>()
            / traced_s
    };
    let rpc_orc8r = share(&["rpc.encode_self_s", "rpc.decode_self_s", "orc8r.msg_self_s"]);
    let agw_cpu = share(&["agw.msg_self_s", "sim.cpu_done_self_s"]);
    eprintln!(
        "share rpc+orc8r.msg {:.1}%, agw.msg+sim.cpu_done {:.1}%",
        100.0 * rpc_orc8r,
        100.0 * agw_cpu
    );
    eprintln!("metric                          value  moves");
    for ((name, v, unit), lm) in out.iter().zip(&PER_LAYER) {
        eprintln!("{name:<28} {v:>12.4} {unit:<5} {}", lm.moves);
    }
    out
}
