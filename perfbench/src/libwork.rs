//! The shared runner of the two single-threaded library workloads: set
//! up, run ops back to back for the run's seconds, gate every op, and
//! in the traced run turn the op's spans into per-layer numbers.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::health::{
    self, calibrate_us, host_normalize, process_cpu_s, reference_us, Health, REF_NOMINAL_US,
};
use crate::report::Report;
use crate::setup::{self, Probe};
use crate::stats::{median, Blocks};
use crate::trace::{shares, Scope, Span, Tracer};

/// Cold set-up repetitions per run, one fresh process each; `setup_s`
/// is their median.
const SETUP_REPS: usize = 15;
/// Ops per block of [`Blocks`].
const P99_BLOCK: usize = 1_000;

pub trait LibWorkload {
    /// Name of the root span of one op.
    const ROOT: &'static str;
    type Inputs;
    type Out: PartialEq;
    fn generate(seed: u64) -> Self::Inputs;
    /// One op: every call into a layer goes through `scope`.
    fn op(inputs: &Self::Inputs, scope: &mut Scope) -> Self::Out;
    /// Gate one op's outputs against the reference implementations.
    fn check(inputs: &Self::Inputs, out: &Self::Out) -> bool;
    /// Simulated instructions one op executed.
    fn instructions(out: &Self::Out) -> u64;
    /// Per-layer metrics from the traced ops' spans.  `reference` is the
    /// op's output, which is the same for every op of one seed.
    fn layers(spans: &[Span], reference: &Self::Out, report: &mut Report) -> Result<(), String>;
}

/// One cold set-up, in a process of its own: input generation plus the
/// first op, gated.
pub fn setup_once<W: LibWorkload>(seed: u64) -> Probe {
    let t = Instant::now();
    let inputs = W::generate(seed);
    let out = W::op(&inputs, &mut Scope::off());
    let secs = t.elapsed().as_secs_f64();
    Probe {
        secs,
        ref_us: calibrate_us(5),
        ok: W::check(&inputs, &out),
    }
}

pub fn run<W: LibWorkload>(seed: u64, seconds: u64, trace: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let probes = if trace {
        Vec::new()
    } else {
        setup::cold(SETUP_REPS)?
    };
    for probe in &probes {
        report.op(probe.ok);
    }
    let inputs = W::generate(seed);
    let reference = W::op(&inputs, &mut Scope::off());
    report.op(W::check(&inputs, &reference));

    let budget = Duration::from_secs(seconds);
    let health = Health::start();
    let start = Instant::now();
    // The traced run first times a quarter of its ops without spans, so
    // the spans' own cost can be told apart.
    let plain_budget = if trace { budget / 4 } else { budget };
    // Host-normalized on-CPU times of ops and of the library calls they
    // make, host-normalized wall times, and raw wall times.
    let mut cpu_ms = Blocks::new(P99_BLOCK, REF_NOMINAL_US);
    let mut call_ms = Blocks::new(P99_BLOCK, REF_NOMINAL_US);
    let mut calls = Vec::new();
    let mut wall_ms = Blocks::new(P99_BLOCK, REF_NOMINAL_US);
    let mut raw_ms = Blocks::new(P99_BLOCK, 1.0);
    let mut instructions = 0u64;
    // At least one block of ops, within three budgets.
    while start.elapsed() < plain_budget
        || (cpu_ms.len() < P99_BLOCK && start.elapsed() < 3 * budget)
    {
        let cpu = process_cpu_s();
        let t = Instant::now();
        calls.clear();
        let out = black_box(W::op(black_box(&inputs), &mut Scope::timing(&mut calls)));
        let wall = t.elapsed().as_secs_f64() * 1e3;
        let cpu = (process_cpu_s() - cpu) * 1e3;
        let ref_us = reference_us();
        cpu_ms.push(cpu, ref_us)?;
        for &call in &calls {
            call_ms.push(call, ref_us)?;
        }
        wall_ms.push(wall, ref_us)?;
        raw_ms.push(wall, 1.0)?;
        instructions += W::instructions(&out);
        report.op(out == reference && W::check(&inputs, &out));
    }
    let wall_ms = wall_ms.finish()?;
    if !trace {
        let health = health.finish((0, 0));
        println!(
            "health: oncpu_frac={:.3} runqueue_frac={:.4} steal_frac={:.4} calib_us={:.1}->{:.1}",
            health.oncpu_frac,
            health.runqueue_frac,
            health.steal_frac,
            health.calib_us_start,
            health.calib_us_end
        );
        let cpu_ms = cpu_ms.finish()?;
        let call_ms = call_ms.finish()?;
        println!(
            "samples: {} ops and {} library calls in blocks of {P99_BLOCK}; {} cold set-ups; \
             worst block's call p99 {:.3} ms; p50 op: raw wall {:.3} ms, host-normalized wall \
             {:.3} ms, host-normalized on-CPU {:.3} ms",
            cpu_ms.count,
            call_ms.count,
            probes.len(),
            call_ms.worst_p99,
            raw_ms.finish()?.p50,
            wall_ms.p50,
            cpu_ms.p50
        );
        let busy_s = cpu_ms.sum / 1e3;
        let setup: Vec<(f64, f64)> = probes.iter().map(|p| (p.secs, p.ref_us)).collect();
        report.set("setup_s", median(&host_normalize(&setup, REF_NOMINAL_US)));
        report.set("lat_p50_ms", call_ms.p50);
        report.set("lat_p99_ms", call_ms.p99);
        report.set("jobs_per_s", cpu_ms.count as f64 / busy_s);
        report.set("sim_mips", instructions as f64 / busy_s / 1e6);
        report.set("peak_rss_mb", health::peak_rss_mb());
        return Ok(report);
    }

    let mut tracer = Tracer::new();
    let mut traced = Vec::new();
    let mut req = 0;
    // Enough traced ops for the per-layer p99s, within three budgets.
    while start.elapsed() < budget || (req < P99_BLOCK as u64 && start.elapsed() < 3 * budget) {
        let root = tracer.open(W::ROOT, None, req);
        let out = W::op(&inputs, &mut Scope::under(&mut tracer, root, req));
        tracer.close(root);
        traced.push((tracer.spans[root].dur() as f64 / 1e6, reference_us()));
        report.op(out == reference && W::check(&inputs, &out));
        req += 1;
    }
    let health = health.finish((0, 0));
    W::layers(&tracer.spans, &reference, &mut report)?;
    let traced_ms = host_normalize(&traced, REF_NOMINAL_US);
    report.set(
        "trace.overhead_frac",
        median(&traced_ms) / wall_ms.p50 - 1.0,
    );
    report.set("trace.share_sum", shares(&tracer.spans).values().sum());
    report.set("host.oncpu_frac", health.oncpu_frac);
    report.set("host.runqueue_frac", health.runqueue_frac);
    report.set("host.steal_frac", health.steal_frac);
    report.set("host.calib_us_start", health.calib_us_start);
    report.set("host.calib_us_end", health.calib_us_end);
    crate::write_spans(W::ROOT, &tracer)?;
    Ok(report)
}

/// Shared per-layer arithmetic: for every span named `name`, the total
/// self time, the number of calls, and the share of the op total.
pub struct Layer {
    pub self_ns: f64,
    pub calls: f64,
    pub share: f64,
    pub durs_ms: Vec<f64>,
}

pub fn layer(spans: &[Span], name: &str) -> Layer {
    let own = crate::trace::self_times(spans);
    let total = crate::trace::root_total(spans).max(1) as f64;
    let mut l = Layer {
        self_ns: 0.0,
        calls: 0.0,
        share: 0.0,
        durs_ms: Vec::new(),
    };
    for (s, own) in spans.iter().zip(own) {
        if s.name == name {
            l.self_ns += own as f64;
            l.calls += 1.0;
            l.durs_ms.push(s.dur() as f64 / 1e6);
        }
    }
    l.share = l.self_ns / total;
    l
}
