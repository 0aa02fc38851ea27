//! End-to-end and per-layer benchmark of the skilltax service, fleet
//! executor and machine families.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <service_mix|fleet_study|machine_zoo> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: whether every
//! op passed its output gate, how many ops ran and failed, and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a
//! separate traced run (`--trace 1`).  See `README.md`.

mod fleet_study;
mod gen;
mod health;
mod libwork;
mod machine_zoo;
mod report;
mod service_mix;
mod setup;
mod stats;
mod trace;

use std::path::Path;
use std::process::ExitCode;

use report::Report;
use trace::Tracer;

/// Library-internal thread knobs, pinned so a run never depends on the
/// caller's environment.  The library workloads are single-threaded by
/// design, and the service's concurrency comes from its worker count.
const KNOBS: [(&str, &str); 2] = [("SKILLTAX_THREADS", "1"), ("SKILLTAX_FLEET_THREADS", "1")];

/// Environment the library would otherwise read for settings this
/// benchmark passes explicitly.
const CLEARED: [&str; 3] = [
    "SKILLTAX_SERVICE_QUEUE",
    "SKILLTAX_SERVICE_ADDR",
    "SKILLTAX_FLEET_MIN_PER_THREAD",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set the workload up once and report it: see [`setup`].
    probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut probe = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            setup::PROBE_FLAG => probe = number()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        probe,
    })
}

/// Keep the traced run's spans: one file per workload, next to the run.
pub fn write_spans(workload: &str, tracer: &Tracer) -> Result<(), String> {
    let name = workload.split('.').next().unwrap_or(workload);
    let path = Path::new("perfbench/out").join(format!("{name}.spans.json"));
    tracer
        .write_json(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "spans: {} written to {}",
        tracer.spans.len(),
        path.display()
    );
    Ok(())
}

fn probe(args: &Args) -> Result<setup::Probe, String> {
    match args.workload.as_str() {
        "service_mix" => service_mix::setup_once(),
        "fleet_study" => Ok(libwork::setup_once::<fleet_study::FleetStudy>(args.seed)),
        "machine_zoo" => Ok(libwork::setup_once::<machine_zoo::MachineZoo>(args.seed)),
        other => Err(format!("unknown workload {other}")),
    }
}

fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "service_mix" => service_mix::run(args.seed, args.seconds, args.trace),
        "fleet_study" => {
            libwork::run::<fleet_study::FleetStudy>(args.seed, args.seconds, args.trace)
        }
        "machine_zoo" => {
            libwork::run::<machine_zoo::MachineZoo>(args.seed, args.seconds, args.trace)
        }
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Still single-threaded here, so changing the environment is sound.
    for (key, value) in KNOBS {
        std::env::set_var(key, value);
    }
    for key in CLEARED {
        std::env::remove_var(key);
    }
    if args.probe {
        return match probe(&args) {
            Ok(probe) => {
                setup::report(&probe);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pinned = health::pin_to_one_cpu();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "knobs: workload={} seed={} seconds={} trace={} host_cpus={host_cpus} pinned_cpu={} \
         nproc={nproc} {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        pinned.map_or("none".to_string(), |c| c.to_string()),
        KNOBS.map(|(k, v)| format!("{k}={v}")).join(" ")
    );
    match run(&args).and_then(|report| report.render(args.trace)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
