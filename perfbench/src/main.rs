//! Host-speed benchmark of the rcsim simulator.
//!
//! ```text
//! rcsim-perfbench --workload <fs64-canneal|fs16-blackscholes|noc256-echo>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Repeats the workload's operation for `--seconds` and prints a report,
//! then, as the last line, one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` measures the end-to-end metrics;
//! `--trace 1` alternates untraced and traced operations and reports the
//! per-layer metrics, writing the spans to `.perfbench/`. See README.md
//! for what each workload and metric is for.

mod alloc;
mod program;
mod spans;

use program::{Op, Workload};
use spans::{Span, Tracer};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Where the checkpoint file and the span dump go, under the working
/// directory.
const OUT_DIR: &str = ".perfbench";
/// Set-ups timed on their own at the start of a run, besides the one
/// every operation does.
const EXTRA_SETUPS: usize = 5;
/// Traced operations per run at most (untraced ones fill the rest of
/// the run): spans of every call stay in memory until the run ends.
const MAX_TRACED_OPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut tiny) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        tiny,
    })
}

/// End-to-end metrics, measured with tracing off: name and unit.
const END_TO_END: [(&str, &str); 6] = [
    ("cycles_per_s", "cycles/s"),
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_net_latency_cycles", "cycles"),
    ("sim_noc_energy_nj", "nJ"),
];

/// Per-layer metrics taken from the operation's counters.
const COUNTERS: [(&str, &str); 21] = [
    ("sim_ipc", "instr/cycle/core"),
    ("noc.router.buffer_writes", "count"),
    ("noc.router.buffer_reads", "count"),
    ("noc.router.xbar_traversals", "count"),
    ("noc.router.vc_allocs", "count"),
    ("noc.router.sw_allocs", "count"),
    ("noc.link.flits", "count"),
    ("noc.link.credits", "count"),
    ("noc.ni.flits_injected", "count"),
    ("core.circuit.writes", "count"),
    ("core.circuit.lookups", "count"),
    ("core.circuit.on_circuit_share", "ratio"),
    ("core.circuit.reservations_failed", "count"),
    ("protocol.l1.accesses", "count"),
    ("protocol.l1.misses", "count"),
    ("protocol.l1.miss_rate", "ratio"),
    ("protocol.l1.warmup_tail_miss_rate", "ratio"),
    ("protocol.l1.reissues", "count"),
    ("protocol.l1.acks_elided", "count"),
    ("protocol.l2.queued_on_busy", "count"),
    ("protocol.l2.busy_wait_cycles", "count"),
];

/// Per-layer metrics measured on the host: name and unit.
const HOST_LAYERS: [(&str, &str); 21] = [
    ("system.chip.tick_us.p50", "us"),
    ("system.chip.tick_us.p999", "us"),
    ("system.chip.tick_samples", "count"),
    ("system.chip.allocs_per_cycle", "allocs/cycle"),
    ("system.host_ns_per_instruction", "ns"),
    ("system.sim.warmup_s", "s"),
    ("system.report.finish_s", "s"),
    ("system.checkpoint.snapshot_s", "s"),
    ("system.checkpoint.save_s", "s"),
    ("system.checkpoint.load_s", "s"),
    ("system.checkpoint.resume_s", "s"),
    ("system.checkpoint.bytes", "B"),
    ("noc.network.tick_us.p50", "us"),
    ("noc.network.tick_us.p999", "us"),
    ("noc.network.tick_samples", "count"),
    ("noc.network.inject_ns.p50", "ns"),
    ("noc.network.take_delivered_us.p50", "us"),
    ("noc.network.allocs_per_tick", "allocs/tick"),
    ("noc.network.drain_s", "s"),
    ("noc.host_ns_per_flit_hop", "ns"),
    ("trace.overhead_ratio", "ratio"),
];

fn main() -> ExitCode {
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("RC_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "refusing to run: {} set; the benchmark measures the default path only",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("cannot create {OUT_DIR}: {e}");
        return ExitCode::from(1);
    }
    println!(
        "perfbench {} seed {} trace {} ({}; {} host threads)",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        program::default_strategy(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let (ops, metrics) = if args.trace {
        traced(&args, out_dir)
    } else {
        untraced(&args, out_dir)
    };

    let mut failures: Vec<String> = ops.iter().flat_map(|op| op.failures.clone()).collect();
    if ops
        .iter()
        .any(|op| op.fingerprint != ops[0].fingerprint || op.figures != ops[0].figures)
    {
        failures.push("runs of one seed disagree".into());
    }
    for f in &failures {
        eprintln!("check failed: {f}");
    }
    let attempted: u64 = ops.iter().map(|op| op.attempted).sum();
    let failed: u64 = ops.iter().map(|op| op.failed).sum();
    println!("ops {attempted} count");
    println!("ops_failed {failed} count");
    println!("sim_fingerprint {:016x}", ops[0].fingerprint);
    let figures: Vec<String> = ops[0]
        .figures
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("figures {{{}}}", figures.join(", "));
    let metrics: Vec<String> = metrics
        .into_iter()
        .map(|(name, unit, mut value)| {
            if !value.is_finite() {
                eprintln!("check failed: {name} is {value}");
                failures.push(format!("{name} is not finite"));
                value = 0.0;
            }
            println!("{name} {value} {unit}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

type Metrics = Vec<(&'static str, &'static str, f64)>;

/// The end-to-end run: operations back to back until the next one would
/// overrun `--seconds`.
fn untraced(args: &Args, out_dir: &Path) -> (Vec<Op>, Metrics) {
    let start = Instant::now();
    let mut tr = Tracer::new();
    let mut setups: Vec<f64> = (0..EXTRA_SETUPS)
        .map(|_| program::setup_only(args.workload, args.seed, args.tiny, &mut tr))
        .collect();
    let mut ops = Vec::new();
    loop {
        let op = program::run_op(args.workload, args.seed, args.tiny, out_dir, &mut tr);
        setups.push(op.setup_s);
        ops.push(op);
        let per_op = median(ops.iter().map(|op| op.run_s));
        if start.elapsed().as_secs_f64() + per_op > args.seconds {
            break;
        }
    }
    // On a shared host, speed switches between a steady contended phase
    // and a faster, erratic one, each lasting tens of seconds. How much
    // of a run falls in each phase moves the median by up to a third;
    // the slow tail tracks the steady phase, so the host-time metrics
    // report it: the 10th percentile of the rate over every window slice
    // and the 90th percentile of the run time.
    let slices: Vec<f64> = ops.iter().flat_map(|op| op.slice_rates.clone()).collect();
    let cycles_per_s = quantile(slices.iter().copied(), 0.1);
    for op in &ops {
        println!(
            "op: cycles_per_s {:.0} run_s {:.4} setup_s {:.5} slices {}",
            op.window_cycles as f64 / op.window_s,
            op.run_s,
            op.setup_s,
            op.slice_rates
                .iter()
                .map(|r| format!("{r:.0}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    println!(
        "{} ops in {:.1} s; cycles_per_s is the 10th percentile of {} window slices; \
         tile_cycles_per_s {:.0} tile-cycles/s; setup_s is the median of {} set-ups",
        ops.len(),
        start.elapsed().as_secs_f64(),
        slices.len(),
        cycles_per_s * args.workload.tiles() as f64,
        setups.len(),
    );
    let values = [
        cycles_per_s,
        quantile(ops.iter().map(|op| op.run_s), 0.9),
        median(setups.into_iter()),
        peak_rss_mib(),
        figure(&ops[0], "sim_net_latency_cycles"),
        figure(&ops[0], "sim_noc_energy_nj"),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect();
    (ops, metrics)
}

/// The per-layer run: untraced and traced operations alternate, so the
/// host timings of whole phases come from untraced operations and the
/// per-call distributions and allocation counts from traced ones.
fn traced(args: &Args, out_dir: &Path) -> (Vec<Op>, Metrics) {
    let start = Instant::now();
    let mut tr = Tracer::new();
    let run = |tr: &mut Tracer| program::run_op(args.workload, args.seed, args.tiny, out_dir, tr);
    let (mut plain, mut traced) = (Vec::new(), Vec::<Op>::new());
    loop {
        plain.push(run(&mut tr));
        let mut next = plain[0].run_s;
        if traced.len() < MAX_TRACED_OPS {
            tr.set_on(true);
            traced.push(run(&mut tr));
            tr.set_on(false);
            next += traced[0].run_s;
        }
        if start.elapsed().as_secs_f64() + next > args.seconds {
            break;
        }
    }
    let path = out_dir.join(format!("spans-{}.tsv", args.workload.name()));
    match tr.write_tsv(&path) {
        Ok(()) => println!("{} spans written to {}", tr.spans().len(), path.display()),
        Err(e) => eprintln!("span dump to {} failed: {e}", path.display()),
    }

    let spans = tr.spans();
    let calls = |name: &str, parent: Option<&str>| -> Vec<&Span> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| parent.is_none_or(|p| s.parent.is_some_and(|i| spans[i].name == p)))
            .collect()
    };
    let chip_ticks = calls("system.chip.tick", None);
    let net_ticks = calls("noc.network.tick", Some("noc.window"));
    let injects = calls("noc.network.inject", None);
    let takes = calls("noc.network.take_all_delivered", Some("noc.window"));
    for (label, samples) in [
        ("system.chip.tick", &chip_ticks),
        ("noc.network.tick", &net_ticks),
        ("noc.network.inject", &injects),
    ] {
        println!("{label}: {} samples", samples.len());
    }

    let first = &plain[0];
    let instructions = figure(first, "system.instructions");
    let link_flits = figure(first, "noc.link.flits");
    let window_s = median(plain.iter().map(|op| op.window_s));
    let phase = |f: fn(&Op) -> f64| median(plain.iter().map(f));
    let ckpt = |f: fn(&program::Checkpoint) -> f64| {
        median(plain.iter().map(|op| op.checkpoint.as_ref().map_or(0.0, f)))
    };
    let is_fs = args.workload != Workload::Noc256Echo;
    let host = [
        quantile_us(&chip_ticks, 0.5),
        quantile_us(&chip_ticks, 0.999),
        chip_ticks.len() as f64,
        allocs_per_call(&chip_ticks),
        per(window_s * 1e9, instructions),
        if is_fs { phase(|op| op.warmup_s) } else { 0.0 },
        if is_fs { phase(|op| op.tail_s) } else { 0.0 },
        ckpt(|c| c.snapshot_s),
        ckpt(|c| c.save_s),
        ckpt(|c| c.load_s),
        ckpt(|c| c.resume_s),
        ckpt(|c| c.bytes as f64),
        quantile_us(&net_ticks, 0.5),
        quantile_us(&net_ticks, 0.999),
        net_ticks.len() as f64,
        quantile_us(&injects, 0.5) * 1e3,
        quantile_us(&takes, 0.5),
        allocs_per_call(&net_ticks),
        if is_fs { 0.0 } else { phase(|op| op.tail_s) },
        per(window_s * 1e9, link_flits),
        per(
            median(traced.iter().map(|op| op.run_s)),
            median(plain.iter().map(|op| op.run_s)),
        ),
    ];
    let mut metrics: Metrics = COUNTERS
        .iter()
        .map(|&(name, unit)| (name, unit, figure(first, name)))
        .collect();
    metrics.extend(HOST_LAYERS.iter().zip(host).map(|(&(n, u), v)| (n, u, v)));
    plain.extend(traced);
    (plain, metrics)
}

/// A modelled figure of `op`; 0 when the workload has no such layer.
fn figure(op: &Op, name: &str) -> f64 {
    op.figures
        .iter()
        .find(|(k, _)| *k == name)
        .map_or(0.0, |&(_, v)| v)
}

fn per(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nearest-rank quantile (0 for no values: only when every operation
/// failed).
fn quantile(values: impl Iterator<Item = f64>, q: f64) -> f64 {
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn median(values: impl Iterator<Item = f64>) -> f64 {
    quantile(values, 0.5)
}

/// Quantile of the spans' durations, in µs (0 if none).
fn quantile_us(spans: &[&Span], q: f64) -> f64 {
    quantile(spans.iter().map(|s| s.secs() * 1e6), q)
}

fn allocs_per_call(spans: &[&Span]) -> f64 {
    per(
        spans.iter().map(|s| s.allocs as f64).sum(),
        spans.len() as f64,
    )
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
