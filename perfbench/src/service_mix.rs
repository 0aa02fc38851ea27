//! `service_mix`: the job service over loopback HTTP, the only workload
//! that goes through the front end, admission, the queue and the machine
//! pool.  On the cheap job kinds the front end dominates, so a change to
//! HTTP handling or admission shows here and nowhere else.
//!
//! The timed run sends the mix one request at a time and charges each
//! request the on-CPU time the whole process (client, accept, connection
//! and worker threads, all pinned to one CPU) spent on it, host-
//! normalized by an echo round trip of the benchmark's own.  On a shared
//! VM the hypervisor steals up to a third of the CPU time in bursts, and
//! a wall-clock latency or capacity measures that theft, not the
//! program.  Wall-clock latency is printed beside it, and the traced run
//! measures it open-loop (Poisson arrivals at one fixed rate, each
//! request timed from its due time).  Every response is gated against
//! the answer a fresh in-process engine gives for the same request,
//! computed before any timer starts.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use skilltax_catalog::survey::full_survey;
use skilltax_machine::CancelToken;
use skilltax_model::dsl::print_row;
use skilltax_service::proto::{outcome_json, parse_request};
use skilltax_service::{
    serve, Engine, EngineConfig, HttpConfig, HttpServer, JobOutcome, QuotaConfig, Service,
    ServiceConfig,
};

use crate::gen::Rng;
use crate::health::{
    self, calibrate_us, process_cpu_s, thread_schedstat, EchoReference, Health, ECHO_NOMINAL_US,
};
use crate::report::Report;
use crate::setup::{self, Probe};
use crate::stats::{median, percentile, Blocks};
use crate::trace::{graft, shares, Tracer};

/// Offered load of the traced run's open loop, requests per second:
/// about a tenth of what one CPU serves, well below the knee; one client
/// is busy about a sixth of the time.
const RATE: f64 = 1_000.0;
/// Share of the schedule that reads `GET /metrics` beside the job writes.
const METRICS_SHARE: f64 = 0.02;
/// Requests per block of [`Blocks`].
const P99_BLOCK: usize = 1_000;
/// Length of the schedule, cycled over by the timed run.
const SCHEDULE_LEN: usize = 20_000;
/// Cold set-up repetitions per run, one fresh process each; `setup_s`
/// is their median.
const SETUP_REPS: usize = 15;
const TENANTS: u64 = 4;
/// Fresh fault seeds tried for a fault-seeded request that fails.
const REDRAWS: usize = 16;

/// The job pool, per 100 templates: 40 classify/estimate over the Table
/// III rows, 30 one-core simulate (pooled), 10 multi-core simulate and 5
/// fault-seeded multi-core simulate (event scheduler), 10 all-one-core
/// sweeps (the uni fleet route) and 5 fault sweeps (the array fleet
/// route).
const POOL: [(&str, usize); 7] = [
    ("classify", 20),
    ("estimate", 20),
    ("simulate_uni", 30),
    ("simulate_multi", 10),
    ("simulate_faulted", 5),
    ("sweep", 10),
    ("faultsweep", 5),
];
const POOL_COPIES: usize = 2;

/// One request of the mix, with the answer it must get.
struct Template {
    /// An [`ENGINE_LAYERS`] kind, or `"metrics"` for a `GET /metrics`.
    kind: &'static str,
    /// The wire body of `POST /jobs` (empty for a metrics read).
    body: String,
    /// The whole HTTP request, rendered once.
    wire: Vec<u8>,
    /// The outcome JSON a fresh engine returns for `body`.
    expect: String,
    /// Whether that outcome is a success (completed or degraded); a
    /// request whose right answer is a failure counts as a failed op.
    completes: bool,
    /// Text the answer must also hold: the row's Table III class for a
    /// classify request.
    must_hold: Option<String>,
    /// Simulated instructions in that outcome.
    instructions: u64,
}

impl Template {
    fn job(kind: &'static str, body: String, engine: &Engine) -> Result<Template, String> {
        let request = parse_request(&body).map_err(|e| format!("{body}: {e}"))?;
        let outcome = engine.execute(&request, &CancelToken::new());
        let (completes, instructions) = match &outcome {
            JobOutcome::Completed { stats, .. } => (true, stats.map_or(0, |s| s.instructions)),
            JobOutcome::Degraded { stats, .. } => (true, stats.instructions),
            _ => (false, 0),
        };
        let wire = format!(
            "POST /jobs HTTP/1.1\r\nHost: bench\r\nContent-Type: application/x-www-form-urlencoded\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes();
        Ok(Template {
            kind,
            body,
            wire,
            expect: outcome_json(&outcome),
            completes,
            must_hold: None,
            instructions,
        })
    }

    fn metrics() -> Template {
        Template {
            kind: "metrics",
            body: String::new(),
            wire: b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n".to_vec(),
            expect: String::new(),
            completes: true,
            must_hold: None,
            instructions: 0,
        }
    }

    /// Does `(status, body)` answer this request correctly?
    fn accepts(&self, status: u16, body: &str) -> bool {
        status == 200
            && self.completes
            && self
                .must_hold
                .as_ref()
                .is_none_or(|text| body.contains(text))
            && if self.kind == "metrics" {
                body.starts_with("{\"submitted\":")
            } else {
                body == self.expect
            }
    }
}

/// The seeded request mix: a pool of job templates, each answered once
/// by a fresh engine, and a schedule of pool indices (the last slot,
/// `pool.len() - 1`, is the metrics read).
struct Mix {
    pool: Vec<Template>,
    schedule: Vec<usize>,
}

/// `i`-th of `n` evenly spaced values in `lo..=hi`.
fn spaced(i: usize, n: usize, lo: i64, hi: i64) -> i64 {
    lo + (hi - lo) * i as i64 / (n.max(2) - 1) as i64
}

/// The wire body of the `i`-th of `n` templates of `kind`.  Work sizes
/// (iterations, cores, points, lanes, seeds) are evenly spaced over
/// their ranges, so every seed's pool holds the same amount of work;
/// the seed picks tenants, table rows, fault seeds and data.
fn job_body(
    kind: &str,
    i: usize,
    n: usize,
    rng: &mut Rng,
    survey: &[(String, String, &str)],
    offset: usize,
) -> String {
    let tenant = format!("t{}", rng.below(TENANTS));
    let cores = [4, 8, 16, 32][i % 4];
    // A second, decorrelated spacing for kinds with two sizes.
    let j = (i * 7 + 3) % n;
    match kind {
        "classify" | "estimate" => {
            let (name, row, _) = &survey[(offset + i) % survey.len()];
            let row = row.replace('|', "%7C").replace(' ', "%20");
            format!("tenant={tenant}&kind={kind}&name={name}&row={row}")
        }
        "simulate_uni" => format!(
            "tenant={tenant}&kind=simulate&cores=1&iters={}",
            spaced(i, n, 50, 400)
        ),
        "simulate_multi" => format!(
            "tenant={tenant}&kind=simulate&cores={cores}&iters={}",
            spaced(j, n, 50, 200)
        ),
        // The engine picks the fault scenario from `fault_seed % 3`.
        "simulate_faulted" => format!(
            "tenant={tenant}&kind=simulate&cores={cores}&iters={}&fault_seed={}",
            spaced(j, n, 50, 200),
            3 * rng.below(1 << 30) + (i % 3) as u64
        ),
        "sweep" => format!(
            "tenant={tenant}&kind=sweep&cores={}&iters={}",
            vec!["1"; spaced(i, n, 8, 64) as usize].join(","),
            spaced(j, n, 50, 200)
        ),
        "faultsweep" => format!(
            "tenant={tenant}&kind=faultsweep&subtype={}&lanes={}&seeds={}&fault_seed={}\
             &stall_ppm=20000&flip_ppm=2000",
            ["I", "II", "III", "IV"][i % 4],
            spaced(j, n, 4, 16),
            spaced(i, n, 16, 64),
            rng.below(1 << 32)
        ),
        other => unreachable!("unknown kind {other}"),
    }
}

impl Mix {
    fn generate(seed: u64, len: usize) -> Result<Mix, String> {
        let mut rng = Rng::new(seed);
        let survey: Vec<(String, String, &str)> = full_survey()
            .iter()
            .map(|e| (e.name().to_string(), print_row(&e.spec), e.paper_class))
            .collect();
        let engine = Engine::new(EngineConfig::default());
        let offset = rng.below(survey.len() as u64) as usize;
        let mut pool = Vec::new();
        for (kind, count) in POOL {
            let n = count * POOL_COPIES;
            for i in 0..n {
                // A fault seed whose retry budget runs out answers
                // `failed` by design; the mix holds only requests that
                // complete, so draw again.  A request of any other kind
                // whose right answer is a failure stays, and fails the
                // gate on every send.
                let mut template = Template::job(
                    kind,
                    job_body(kind, i, n, &mut rng, &survey, offset),
                    &engine,
                )?;
                for _ in 0..REDRAWS {
                    if template.completes || kind != "simulate_faulted" {
                        break;
                    }
                    println!("mix: redrawn, {} fails by design", template.body);
                    template = Template::job(
                        kind,
                        job_body(kind, i, n, &mut rng, &survey, offset),
                        &engine,
                    )?;
                }
                if kind == "classify" {
                    let (_, _, class) = &survey[(offset + i) % survey.len()];
                    template.must_hold = Some(format!(": class {class} ("));
                }
                pool.push(template);
            }
        }
        pool.push(Template::metrics());
        // Whole shuffled passes over the job pool keep every stretch of
        // the schedule at the stated mix.
        let jobs = pool.len() - 1;
        let mut schedule = Vec::with_capacity(len);
        while schedule.len() < len {
            let mut pass: Vec<usize> = (0..jobs).collect();
            rng.shuffle(&mut pass);
            for i in pass {
                if rng.unit() < METRICS_SHARE {
                    schedule.push(jobs);
                }
                schedule.push(i);
            }
        }
        schedule.truncate(len);
        Ok(Mix { pool, schedule })
    }
}

/// One HTTP/1.1 exchange on a fresh connection (the server closes every
/// connection after its response).
fn exchange(addr: SocketAddr, wire: &[u8]) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream.write_all(wire).map_err(|e| format!("write: {e}"))?;
    let mut buf = Vec::with_capacity(512);
    stream
        .read_to_end(&mut buf)
        .map_err(|e| format!("read: {e}"))?;
    let text = String::from_utf8_lossy(&buf);
    let (head, body) = text.split_once("\r\n\r\n").ok_or("no header end")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("no status")?;
    Ok((status, body.to_string()))
}

fn send(addr: SocketAddr, t: &Template) -> bool {
    matches!(exchange(addr, &t.wire), Ok((status, body)) if t.accepts(status, &body))
}

fn service_config(workers: usize) -> ServiceConfig {
    ServiceConfig {
        queue_capacity: 64,
        drr_quantum: 1,
        workers,
        // Sized so the mix is never quota-refused: quotas are the chaos
        // soak's subject, not this benchmark's.
        quota: QuotaConfig {
            capacity: 1_000_000,
            refill_num: 1_000,
            refill_den: 1,
        },
        engine: EngineConfig::default(),
        est_ms_per_job: 5,
    }
}

/// Start the service and its HTTP front end and wait until `/healthz`
/// answers.
fn start(workers: usize) -> Result<(Arc<Service>, HttpServer), String> {
    let service = Arc::new(Service::start(service_config(workers)));
    let config = HttpConfig {
        addr: "127.0.0.1:0".to_string(),
        ..HttpConfig::default()
    };
    let server = serve(Arc::clone(&service), config).map_err(|e| format!("bind: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(10);
    let probe = b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n";
    while !matches!(exchange(server.local_addr(), probe), Ok((200, _))) {
        if Instant::now() > deadline {
            return Err("/healthz never answered".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok((service, server))
}

/// One open-loop request: latency is measured from its due time, so a
/// stall also charges every request that fell due behind it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub lat_ns: u64,
    /// How late the generator sent it.
    pub late_ns: u64,
    pub ok: bool,
}

/// Send request `i` at `due_ns[i]` after the start, from `clients`
/// threads.  Returns the samples in schedule order and the summed
/// scheduler time of the client threads.
pub fn open_loop(
    due_ns: &[u64],
    clients: usize,
    send: impl Fn(usize) -> bool + Sync,
) -> (Vec<Sample>, (u64, u64)) {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(vec![None; due_ns.len()]);
    let sched = Mutex::new((0, 0));
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= due_ns.len() {
                        break;
                    }
                    let due = start + Duration::from_nanos(due_ns[i]);
                    let now = Instant::now();
                    if now < due {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    let ok = send(i);
                    let sample = Sample {
                        lat_ns: Instant::now().duration_since(due).as_nanos() as u64,
                        late_ns: sent.saturating_duration_since(due).as_nanos() as u64,
                        ok,
                    };
                    mine.push((i, sample));
                }
                let mut all = samples.lock().expect("no client panicked");
                for (i, sample) in mine {
                    all[i] = Some(sample);
                }
                let (on, rq) = thread_schedstat();
                let mut total = sched.lock().expect("no client panicked");
                *total = (total.0 + on, total.1 + rq);
            });
        }
    });
    let samples = samples
        .into_inner()
        .expect("no client panicked")
        .into_iter()
        .map(|s| s.expect("every request was sent"))
        .collect();
    (samples, sched.into_inner().expect("no client panicked"))
}

/// Poisson arrivals at `rate` per second for `secs`.
fn poisson_due(rng: &mut Rng, rate: f64, secs: f64) -> Vec<u64> {
    let mut due = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= secs {
            return due;
        }
        due.push((t * 1e9) as u64);
    }
}

/// One cold set-up, in a process of its own: start the service with its
/// pool prewarm, bind, and wait until `/healthz` answers.
pub fn setup_once() -> Result<Probe, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t = Instant::now();
    let (service, mut server) = start(nproc)?;
    let secs = t.elapsed().as_secs_f64();
    server.shutdown();
    service.shutdown();
    Ok(Probe {
        secs,
        ref_us: calibrate_us(5),
        ok: true,
    })
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<Report, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let secs = seconds as f64;
    let mix = Mix::generate(seed, SCHEDULE_LEN)?;
    let config = service_config(nproc);
    println!(
        "knobs: workers={} queue_capacity={} quota={}/{}per{}ms timed clients=1 \
         traced open-loop clients={nproc} rate={RATE}",
        config.workers,
        config.queue_capacity,
        config.quota.capacity,
        config.quota.refill_num,
        config.quota.refill_den
    );

    let mut report = Report::default();
    let probes = if trace {
        Vec::new()
    } else {
        setup::cold(SETUP_REPS)?
    };
    let (service, mut server) = start(nproc)?;
    let addr = server.local_addr();

    // Warm-up: fill caches and the engine's program cache before timing.
    let warm_until = Instant::now() + Duration::from_secs_f64(0.5_f64.min(secs / 10.0));
    for &i in mix.schedule.iter().cycle() {
        if Instant::now() >= warm_until {
            break;
        }
        report.op(send(addr, &mix.pool[i]));
    }
    let cold_after_warmup = service.engine().pool().cold_builds();

    let health = Health::start();
    if !trace {
        // One request at a time, each charged the process's on-CPU time
        // and followed by an echo round trip that sets its host speed.
        let echo = EchoReference::start().map_err(|e| format!("echo reference: {e}"))?;
        // Host-normalized on-CPU times, and raw on-CPU, wall and echo times.
        let mut cpu_ms = Blocks::new(P99_BLOCK, ECHO_NOMINAL_US);
        let mut raw_cpu_ms = Blocks::new(P99_BLOCK, 1.0);
        let mut wall_ms = Blocks::new(P99_BLOCK, 1.0);
        let mut echo_us = Blocks::new(P99_BLOCK, 1.0);
        let mut instructions = 0u64;
        let deadline = Instant::now() + Duration::from_secs(seconds);
        while Instant::now() < deadline || cpu_ms.len() < P99_BLOCK {
            let t = &mix.pool[mix.schedule[cpu_ms.len() % mix.schedule.len()]];
            let cpu = process_cpu_s();
            let wall = Instant::now();
            report.op(send(addr, t));
            let wall = wall.elapsed().as_secs_f64() * 1e3;
            let cpu = (process_cpu_s() - cpu) * 1e3;
            let echo = echo.cpu_us()?;
            cpu_ms.push(cpu, echo)?;
            raw_cpu_ms.push(cpu, 1.0)?;
            wall_ms.push(wall, 1.0)?;
            echo_us.push(echo, 1.0)?;
            instructions += t.instructions;
        }
        drop(echo);
        server.shutdown();
        service.shutdown();
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
        let wall_ms = wall_ms.finish()?;
        println!(
            "samples: {} requests one at a time, in blocks of {P99_BLOCK}; {} cold set-ups; \
             worst block's p99 {:.3} ms; raw on-CPU p50 {:.3} ms; echo reference p50 {:.1} us; \
             raw wall latency p50 {:.3} ms p99 {:.3} ms (worst block {:.3} ms)",
            cpu_ms.count,
            probes.len(),
            cpu_ms.worst_p99,
            raw_cpu_ms.finish()?.p50,
            echo_us.finish()?.p50,
            wall_ms.p50,
            wall_ms.p99,
            wall_ms.worst_p99
        );
        let busy_s = cpu_ms.sum / 1e3;
        report.set(
            "setup_s",
            median(&probes.iter().map(|p| p.secs).collect::<Vec<_>>()),
        );
        report.set("lat_p50_ms", cpu_ms.p50);
        report.set("lat_p99_ms", cpu_ms.p99);
        report.set("jobs_per_s", cpu_ms.count as f64 / busy_s);
        report.set("sim_mips", instructions as f64 / busy_s / 1e6);
        report.set("peak_rss_mb", health::peak_rss_mb());
        return Ok(report);
    }

    // Traced run: first the open loop, for wall-clock latency at a fixed
    // rate and the generator's lateness.
    let mut rng = Rng::new(seed ^ 0xD0E);
    let due = poisson_due(&mut rng, RATE, 0.25 * secs);
    let (samples, open_sched) = open_loop(&due, nproc, |i| {
        send(addr, &mix.pool[mix.schedule[i % mix.schedule.len()]])
    });
    for s in &samples {
        report.op(s.ok);
    }
    let lat_ms: Vec<f64> = samples.iter().map(|s| s.lat_ns as f64 / 1e6).collect();
    let late_ms: Vec<f64> = samples.iter().map(|s| s.late_ns as f64 / 1e6).collect();
    report.set("loadgen.lat_p50_ms", percentile(&lat_ms, 50.0)?);
    report.set("loadgen.lat_p99_ms", percentile(&lat_ms, 99.0)?);
    report.set("loadgen.late_ms_p99", percentile(&late_ms, 99.0)?);

    // Then one client, every request replayed at three depths.
    let plain_deadline = Instant::now() + Duration::from_secs_f64(0.15 * secs);
    let mut plain_us = Vec::new();
    let mut k = 0;
    while Instant::now() < plain_deadline {
        let t = &mix.pool[mix.schedule[k % mix.schedule.len()]];
        let start = Instant::now();
        let ok = send(addr, t);
        plain_us.push(start.elapsed().as_secs_f64() * 1e6);
        report.op(ok);
        k += 1;
    }
    let engine = Engine::new(EngineConfig::default());
    let epoch = Instant::now();
    let mut tracer = Tracer::new();
    let traced_deadline = Instant::now() + Duration::from_secs_f64(0.6 * secs);
    let mut traced_us = Vec::new();
    let mut req = 0u64;
    while Instant::now() < traced_deadline {
        let t = &mix.pool[mix.schedule[req as usize % mix.schedule.len()]];
        let root_name = if t.kind == "metrics" {
            "http.metrics"
        } else {
            "http.request"
        };
        let root = tracer.open(root_name, None, req);
        let reply = exchange(addr, &t.wire);
        tracer.close(root);
        traced_us.push(tracer.spans[root].dur() as f64 / 1e3);
        report.op(matches!(&reply, Ok((status, body)) if t.accepts(*status, body)));
        if t.kind != "metrics" {
            let request = parse_request(&t.body).map_err(|e| e.to_string())?;
            let inproc = tracer.open("service.inproc", None, req);
            let parsed = tracer.leaf("proto.parse", Some(inproc), req, || parse_request(&t.body));
            let now_ms = epoch.elapsed().as_millis() as u64;
            let submitted = match parsed {
                Ok(parsed) => tracer.leaf("service.submit", Some(inproc), req, || {
                    service.submit(now_ms, parsed)
                }),
                Err(e) => Err(e),
            };
            let outcome = match submitted {
                Ok(ticket) => {
                    Some(tracer.leaf("service.wait", Some(inproc), req, || ticket.wait()))
                }
                Err(_) => None,
            };
            tracer.close(inproc);
            report.op(outcome.is_some_and(|o| outcome_json(&o) == t.expect));
            let run = tracer.open(engine_span(t.kind), None, req);
            let direct = engine.execute(&request, &CancelToken::new());
            tracer.close(run);
            report.op(outcome_json(&direct) == t.expect);
            graft(&mut tracer.spans, inproc, root);
            // The job runs inside `submit` when the woken worker preempts
            // the submitting thread, and inside `wait` otherwise: graft
            // the engine replay under the longer of the two.
            let longest = (inproc + 1..run)
                .filter(|&i| matches!(tracer.spans[i].name, "service.submit" | "service.wait"))
                .max_by_key(|&i| tracer.spans[i].dur());
            if let Some(host) = longest {
                graft(&mut tracer.spans, run, host);
            }
        }
        req += 1;
    }
    let health = health.finish(open_sched);
    let metrics = service.metrics();
    let cold_builds = service.engine().pool().cold_builds() - cold_after_warmup;
    server.shutdown();
    service.shutdown();

    let spans = &tracer.spans;
    let durs_us = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur() as f64 / 1e3)
            .collect()
    };
    let share = shares(spans);
    let share_of = |name: &str| share.get(name).copied().unwrap_or(0.0);
    report.set(
        "http.request_us_p50",
        percentile(&durs_us("http.request"), 50.0)?,
    );
    report.set(
        "http.request_us_p99",
        percentile(&durs_us("http.request"), 99.0)?,
    );
    report.set(
        "http.front_end_share",
        share_of("http.request") + share_of("http.metrics"),
    );
    report.set(
        "http.metrics_read_us_p50",
        percentile(&durs_us("http.metrics"), 50.0)?,
    );
    report.set(
        "proto.parse_us_p50",
        percentile(&durs_us("proto.parse"), 50.0)?,
    );
    report.set("proto.share", share_of("proto.parse"));
    report.set(
        "service.submit_us_p50",
        percentile(&durs_us("service.submit"), 50.0)?,
    );
    report.set(
        "service.wait_us_p50",
        percentile(&durs_us("service.wait"), 50.0)?,
    );
    report.set(
        "service.queue_share",
        share_of("service.inproc") + share_of("service.submit") + share_of("service.wait"),
    );
    report.set("service.peak_depth", metrics.peak_depth as f64);
    report.set(
        "service.admit_ratio",
        metrics.admitted as f64 / metrics.submitted.max(1) as f64,
    );
    report.set("service.rejected", metrics.rejected() as f64);
    for (_, span, us_p50, share) in ENGINE_LAYERS {
        report.set(us_p50, percentile(&durs_us(span), 50.0)?);
        report.set(share, share_of(span));
    }
    report.set("pool.cold_builds", cold_builds as f64);
    report.set("host.oncpu_frac", health.oncpu_frac);
    report.set("host.runqueue_frac", health.runqueue_frac);
    report.set("host.steal_frac", health.steal_frac);
    report.set("host.calib_us_start", health.calib_us_start);
    report.set("host.calib_us_end", health.calib_us_end);
    report.set(
        "trace.overhead_frac",
        median(&traced_us) / median(&plain_us) - 1.0,
    );
    report.set("trace.share_sum", share.values().sum());
    crate::write_spans("service_mix", &tracer)?;
    Ok(report)
}

/// Per engine job kind: its span in the traced run, and its two
/// per-layer metrics.
const ENGINE_LAYERS: [(&str, &str, &str, &str); 7] = [
    (
        "classify",
        "engine.classify",
        "engine.classify.us_p50",
        "engine.classify.share",
    ),
    (
        "estimate",
        "engine.estimate",
        "engine.estimate.us_p50",
        "engine.estimate.share",
    ),
    (
        "simulate_uni",
        "engine.simulate_uni",
        "engine.simulate_uni.us_p50",
        "engine.simulate_uni.share",
    ),
    (
        "simulate_multi",
        "engine.simulate_multi",
        "engine.simulate_multi.us_p50",
        "engine.simulate_multi.share",
    ),
    (
        "simulate_faulted",
        "engine.simulate_faulted",
        "engine.simulate_faulted.us_p50",
        "engine.simulate_faulted.share",
    ),
    (
        "sweep",
        "engine.sweep",
        "engine.sweep.us_p50",
        "engine.sweep.share",
    ),
    (
        "faultsweep",
        "engine.faultsweep",
        "engine.faultsweep.us_p50",
        "engine.faultsweep.share",
    ),
];

fn engine_span(kind: &str) -> &'static str {
    ENGINE_LAYERS
        .iter()
        .find(|layer| layer.0 == kind)
        .map(|layer| layer.1)
        .expect("every job kind has an engine layer")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A server that stalls on the first request makes every request due
    /// behind it late, and the due-time accounting charges them for it.
    #[test]
    fn a_stall_inflates_the_requests_due_behind_it() {
        let due: Vec<u64> = (0..10).map(|i| i * 1_000_000).collect();
        let (samples, _) = open_loop(&due, 1, |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(30));
            }
            true
        });
        assert!(samples[0].lat_ns >= 30_000_000);
        for (i, s) in samples.iter().enumerate().skip(1) {
            // Due at i ms, sent only after the 30 ms stall ended.
            let floor = (30 - i as u64) * 1_000_000;
            assert!(s.late_ns >= floor, "request {i}: late {} ns", s.late_ns);
            assert!(s.lat_ns >= s.late_ns, "request {i}");
        }
        assert!(samples.iter().all(|s| s.ok));
    }

    #[test]
    fn the_gate_wants_the_engines_answer_and_a_success() {
        let engine = Engine::new(EngineConfig::default());
        let job = |kind, body: &str| Template::job(kind, body.to_string(), &engine).unwrap();
        let spin = job("simulate_uni", "tenant=t&kind=simulate&cores=1&iters=10");
        assert!(spin.accepts(200, &spin.expect));
        assert!(!spin.accepts(503, &spin.expect));
        assert!(!spin.accepts(200, "{}"));
        // A deadline stop is the engine's right answer, and still a failed op.
        let stopped = job(
            "simulate_uni",
            "tenant=t&kind=simulate&cores=1&iters=1000&deadline_cycles=5",
        );
        assert!(!stopped.completes);
        assert!(!stopped.accepts(200, &stopped.expect));
        // A classify answer must also name the row's Table III class.
        let mut arm = job(
            "classify",
            "tenant=t&kind=classify&name=ARM7TDMI&row=1 | 1 | none | 1-1 | 1-1 | 1-1 | none",
        );
        arm.must_hold = Some(": class IUP (".to_string());
        assert!(arm.accepts(200, &arm.expect));
        arm.must_hold = Some(": class IAP-II (".to_string());
        assert!(!arm.accepts(200, &arm.expect));
    }
}
