//! Kernel bench — dense vs event-driven simulation kernel on the
//! low-load quick grid. The event kernel (idle-skip scheduling,
//! `RC_KERNEL=event`) must produce **byte-identical** results while
//! skipping quiescent tiles; this bench measures the wall-clock payoff
//! and re-asserts the identity on every point it times.
//!
//! Writes `BENCH_kernel.json` with one row per (app, cores, mechanism)
//! point: `dense_ms` / `event_ms` (best of [`REPS`] serial repetitions),
//! the resulting `speedup`, and the offered `load` in flits/node/cycle.

use rcsim_bench::{bench_row, cores_list, save_bench_summary, save_json, BenchSummary, PointSpec};
use rcsim_core::MechanismConfig;
use rcsim_system::{run_sim_with, KernelMode, RunResult};
use std::time::Instant;

/// Serial repetitions per (point, kernel); the minimum wall time is
/// reported to shave scheduler noise.
const REPS: u32 = 2;

/// Times `cfg` under `kernel`, returning (best wall ms, result).
fn time_kernel(spec: &PointSpec, kernel: KernelMode) -> (f64, RunResult) {
    let cfg = spec.config();
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..REPS {
        let start = Instant::now();
        let r =
            run_sim_with(&cfg, kernel).unwrap_or_else(|e| panic!("{} failed: {e}", spec.label()));
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        result = Some(r);
    }
    (best, result.expect("REPS >= 1"))
}

fn main() {
    println!("Kernel bench — dense vs event-driven (idle-skip) simulation kernel\n");
    let app = rcsim_bench::experiment_apps()
        .into_iter()
        .next()
        .expect("at least one experiment app");
    let mechanisms = [
        MechanismConfig::baseline(),
        MechanismConfig::complete_noack(),
    ];

    let mut summary = BenchSummary::new("kernel");
    println!(
        "{:<34} {:>10} {:>10} {:>9} {:>12}",
        "point", "dense ms", "event ms", "speedup", "load f/n/cyc"
    );
    for cores in cores_list() {
        for mechanism in mechanisms {
            let spec = PointSpec::new(cores, mechanism, &app, 1);
            let (dense_ms, dense) = time_kernel(&spec, KernelMode::Dense);
            let (event_ms, event) = time_kernel(&spec, KernelMode::Event);

            // The whole point of the event kernel: not one byte of the
            // report may differ. Checked on the raw results and on the
            // condensed bench rows.
            let dense_json = serde_json::to_string(&dense).expect("serialize");
            let event_json = serde_json::to_string(&event).expect("serialize");
            assert_eq!(
                dense_json,
                event_json,
                "kernels diverged on {}",
                spec.label()
            );
            let label = format!("{}/{}/{}c", app, mechanism.label(), cores);
            let dense_row = bench_row(&label, cores, std::slice::from_ref(&dense));
            let mut row = bench_row(&label, cores, std::slice::from_ref(&event));
            assert_eq!(dense_row, row, "bench rows diverged on {}", spec.label());

            let speedup = dense_ms / event_ms.max(1e-9);
            // `RunResult::load` is flits/node per 100 cycles.
            let load = dense.load / 100.0;
            println!(
                "{:<34} {:>10.2} {:>10.2} {:>8.2}x {:>12.4}",
                label, dense_ms, event_ms, speedup, load
            );
            row.extra.insert("dense_ms".into(), dense_ms);
            row.extra.insert("event_ms".into(), event_ms);
            row.extra.insert("speedup".into(), speedup);
            row.extra.insert("load_flits_per_node_cycle".into(), load);
            summary.push(row);
        }
    }

    let low_load: Vec<&rcsim_trace::BenchRow> = summary
        .rows
        .iter()
        .filter(|r| r.extra["load_flits_per_node_cycle"] <= 0.05)
        .collect();
    if let Some(best) = low_load
        .iter()
        .max_by(|a, b| a.extra["speedup"].total_cmp(&b.extra["speedup"]))
    {
        println!(
            "\nbest low-load (<= 0.05 flits/node/cycle) speedup: {:.2}x on {}",
            best.extra["speedup"], best.label
        );
    }

    save_json(
        "kernel",
        &summary
            .rows
            .iter()
            .map(|r| (r.label.clone(), r.extra.clone()))
            .collect::<Vec<_>>(),
    );
    save_bench_summary(&mut summary);
}
