//! Serving benchmark for the SPIDER stack.
//!
//! ```text
//! spider-perfbench --workload <warm_sweep|plan_churn|tenant_open_loop>
//!                  --seed <n> --seconds <n> --trace <0|1> --scratch <dir>
//! ```
//!
//! `--trace 0` runs the untraced pass and prints the end-to-end metrics;
//! `--trace 1` runs the untraced pass, then the traced pass, and prints the
//! per-layer metrics. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`; the line before it
//! is the run's provenance. Exits non-zero when any operation or check
//! failed. `perfbench/run.py` builds this binary and confines it to one CPU;
//! see `perfbench/README.md`.

mod check;
mod closed;
mod host;
mod inputs;
mod layers;
mod openloop;
mod replica;
mod report;
mod stats;
mod tenant;
mod trace;

use std::path::PathBuf;

use report::RunReport;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    scratch: PathBuf,
}

const WORKLOADS: [&str; 3] = ["warm_sweep", "plan_churn", "tenant_open_loop"];

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut scratch) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            "--scratch" => scratch = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t}: expected 0 or 1")),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        scratch: scratch.ok_or("--scratch is required")?,
    })
}

fn run(args: &Args, out: &mut RunReport) -> Result<(), String> {
    std::fs::create_dir_all(&args.scratch)
        .map_err(|e| format!("scratch dir {}: {e}", args.scratch.display()))?;
    match args.workload.as_str() {
        "warm_sweep" => closed::run(
            &closed::warm_sweep(args.seed, args.seconds),
            args.trace,
            &args.scratch,
            out,
        ),
        "plan_churn" => closed::run(
            &closed::plan_churn(args.seed, args.seconds),
            args.trace,
            &args.scratch,
            out,
        ),
        _ => tenant::run(&tenant::spec(args.seed, args.seconds), args.trace, out),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("spider-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let steal0 = host::steal_ticks();
    let speed0 = host::speed_probe();
    let mut out = RunReport::default();
    let result = run(&args, &mut out);
    let speed1 = host::speed_probe();
    let steal = host::steal_delta(&steal0, &host::steal_ticks());
    let _ = std::fs::remove_dir_all(&args.scratch);
    if let Err(e) = result {
        eprintln!("spider-perfbench: {} aborted: {e}", args.workload);
        std::process::exit(1);
    }
    for name in out.metrics.non_finite() {
        out.check(false, || format!("metric {name} is not a finite number"));
    }

    let p = &mut out.provenance;
    p.text("workload", &args.workload);
    p.int("seed", args.seed);
    p.int("seconds", args.seconds);
    p.int("trace", args.trace as u64);
    p.int("nproc", host::nproc_online() as u64);
    p.int(
        "available_parallelism",
        std::thread::available_parallelism().map_or(0, |n| n.get()) as u64,
    );
    p.text("cpu_model", &host::cpu_model());
    p.text("cpus_allowed", &host::cpus_allowed());
    p.num("host_speed_index_start", speed0);
    p.num("host_speed_index_end", speed1);
    for (cpu, ticks) in &steal {
        p.int(format!("steal_ticks.{cpu}"), *ticks);
    }

    eprint!(
        "{} (seed {}, trace {}):\n{}",
        args.workload,
        args.seed,
        args.trace as u8,
        out.metrics.render()
    );
    for f in &out.failures {
        eprintln!("FAILED: {f}");
    }
    println!("{{\"provenance\": {}}}", out.provenance.json());
    println!("{}", out.result_line());
    if !out.correct() {
        std::process::exit(1);
    }
}
