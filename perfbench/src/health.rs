//! Run-health readings, so a reader can tell a slow host from a slow
//! program: scheduler accounting per thread, a fixed calibration kernel
//! timed at both ends of a run, and the process's peak resident set.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// On-CPU and run-queue-wait nanoseconds of one thread, from its
/// `schedstat` file (fields 1 and 2).  `None` where the kernel has no
/// schedstat.
fn read_schedstat(path: &str) -> Option<(u64, u64)> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().ok());
    Some((fields.next()??, fields.next()??))
}

/// The calling thread's own totals since it started.
pub fn thread_schedstat() -> (u64, u64) {
    read_schedstat("/proc/thread-self/schedstat").unwrap_or((0, 0))
}

/// Every live thread of this process, by thread id.
pub fn task_schedstats() -> BTreeMap<u64, (u64, u64)> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return BTreeMap::new();
    };
    dir.filter_map(|e| {
        let e = e.ok()?;
        let tid = e.file_name().to_str()?.parse::<u64>().ok()?;
        let path = format!("/proc/self/task/{tid}/schedstat");
        Some((tid, read_schedstat(&path)?))
    })
    .collect()
}

/// Scheduler time spent between two snapshots, summed over threads: a
/// thread alive at both counts its difference, a thread born in between
/// counts whole.  Threads that exited in between are gone from
/// `/proc/self/task` and do not count; callers add those threads' own
/// [`thread_schedstat`] readings through `extra`.
pub fn sched_delta(
    before: &BTreeMap<u64, (u64, u64)>,
    after: &BTreeMap<u64, (u64, u64)>,
    extra: (u64, u64),
) -> (u64, u64) {
    let (mut on, mut rq) = extra;
    for (tid, &(a_on, a_rq)) in after {
        let (b_on, b_rq) = before.get(tid).copied().unwrap_or((0, 0));
        on += a_on.saturating_sub(b_on);
        rq += a_rq.saturating_sub(b_rq);
    }
    (on, rq)
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words of a Linux `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

/// Pin the process to one CPU, the highest-numbered it may use, and
/// return that CPU; threads started later inherit the pin.  On a shared
/// VM a handoff between threads on two vCPUs waits whenever the other
/// vCPU is stolen or its hyperthread sibling is busy, and charges that
/// wait as CPU time; on one CPU every handoff is a local context switch.
/// `None` where the kernel refuses, and the run goes on unpinned.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes, the
    // size passed, and pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } < 0 {
        return None;
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; the call only reads `one`.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// Linux's clock id for the CPU time of every thread of the process,
/// exited threads included.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// On-CPU seconds of the whole process so far.  With the hypervisor's
/// steal clock, time a vCPU was stolen is not charged to the thread that
/// was running on it, and time a thread waits for a CPU is not charged
/// either; so this is the program's own cost, on a host that stole 30%
/// of the VM's CPU time as on one that stole none.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and
    // the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// `VmHWM` (peak resident set) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The host's speed, as one reference timing in µs: the smaller of two
/// fixed kernels the program under test never touches, each scaled to
/// its time on the host at [`REF_NOMINAL_US`]'s speed.
///
/// - The column kernel ([`column_us`]) does the simulators' shape of
///   work: element-wise passes over columns that live in L2.  Over six
///   20-second runs of each it tracked the fleet op within ±3% and the
///   zoo pass within ±2%, where the interpreter alone left ±4% and ±6%.
/// - In some host states the column kernel alone slows down 2.4x while
///   the ops slow 1.5x (three runs in fifteen read 38% fast).  Taking
///   the less slowed of it and the interpreter kernel ([`interp_us`])
///   dropped those outliers: none in 35 fleet runs since.
pub fn reference_us() -> f64 {
    let column = column_us();
    let interp = interp_us() * REF_NOMINAL_US / INTERP_NOMINAL_US;
    column.min(interp)
}

/// The column kernel's time on the host its nominal speed is pinned
/// to: a 2-vCPU Xeon VM at 2.1 GHz in its faster state.
pub const REF_NOMINAL_US: f64 = 90.0;
/// The interpreter kernel's time on the same host.
const INTERP_NOMINAL_US: f64 = 80.0;

/// Words in each of the column kernel's three columns (32 KiB).
const REF_COLUMN: usize = 4096;

/// The column kernel: passes of element-wise arithmetic over three
/// 32 KiB columns, tight loops the compiler vectorizes.  One timing, in
/// µs.
fn column_us() -> f64 {
    thread_local! {
        // One buffer for the thread's whole life, so the allocator's
        // state after an op (a trimmed heap, fresh pages) cannot reach
        // the timing.
        static COLUMNS: RefCell<Vec<u64>> = RefCell::new(vec![0; 3 * REF_COLUMN]);
    }
    COLUMNS.with_borrow_mut(|columns| {
        for (i, c) in columns.iter_mut().enumerate() {
            *c = (i as u64).wrapping_mul(0x9E37_79B9);
        }
        let (x, rest) = columns.split_at_mut(REF_COLUMN);
        let (y, z) = rest.split_at_mut(REF_COLUMN);
        let t = Instant::now();
        for round in 0..black_box(20u64) {
            for ((z, x), y) in z.iter_mut().zip(x.iter()).zip(y.iter()) {
                *z = x.wrapping_add(*y).max(round);
            }
            for ((x, z), y) in x.iter_mut().zip(z.iter()).zip(y.iter()) {
                *x = z ^ y.rotate_left(3);
            }
        }
        let us = t.elapsed().as_secs_f64() * 1e6;
        black_box(&*columns);
        us
    })
}

#[derive(Clone, Copy)]
enum RefOp {
    Add(usize, usize, usize),
    AddI(usize, usize, i64),
    Load(usize, usize),
    Store(usize, usize),
    Blt(usize, usize, usize),
    Halt,
}

/// The interpreter kernel: a tiny register-machine interpreter with a
/// 32 KiB data memory, leaning on the same front end, branch predictor
/// and L1 as the machine simulators.  One timing, in µs.
fn interp_us() -> f64 {
    let program = black_box([
        RefOp::AddI(2, 0, 0),
        RefOp::Load(3, 2),
        RefOp::Add(4, 4, 3),
        RefOp::AddI(2, 2, 7),
        RefOp::Store(2, 4),
        RefOp::AddI(0, 0, 1),
        RefOp::Blt(0, 1, 1),
        RefOp::Halt,
    ]);
    let mut mem = [0i64; 4096];
    let mut regs = [0i64; 8];
    regs[1] = black_box(8_000);
    let t = Instant::now();
    let mut pc = 0;
    loop {
        match program[pc] {
            RefOp::Add(d, a, b) => regs[d] = regs[a].wrapping_add(regs[b]),
            RefOp::AddI(d, a, i) => regs[d] = regs[a].wrapping_add(i),
            RefOp::Load(d, a) => regs[d] = mem[regs[a] as usize & 4095],
            RefOp::Store(a, v) => mem[regs[a] as usize & 4095] = regs[v],
            RefOp::Blt(a, b, target) => {
                if regs[a] < regs[b] {
                    pc = target;
                    continue;
                }
            }
            RefOp::Halt => break,
        }
        pc += 1;
    }
    black_box((&mem, &regs));
    t.elapsed().as_secs_f64() * 1e6
}

/// Reference timings either side of a sample that set its host speed.
const HOST_WINDOW: usize = 8;

/// Scale times by the host speed they ran at: each `(time, ref_us)`
/// pair holds a time and a reference timed right after it.  The time is
/// scaled by `nominal_us` over the median reference timing within
/// [`HOST_WINDOW`] samples either side, so one noisy reference timing
/// does not make a noisy sample.  The result reads as the time on a host
/// where the reference takes `nominal_us`.
pub fn host_normalize(samples: &[(f64, f64)], nominal_us: f64) -> Vec<f64> {
    let refs: Vec<f64> = samples.iter().map(|s| s.1).collect();
    (0..samples.len())
        .map(|i| {
            let window =
                &refs[i.saturating_sub(HOST_WINDOW)..(i + HOST_WINDOW + 1).min(refs.len())];
            samples[i].0 * nominal_us / crate::stats::median(window)
        })
        .collect()
}

/// The reference kernel's median over `n` timings, in µs.
pub fn calibrate_us(n: usize) -> f64 {
    let times: Vec<f64> = (0..n).map(|_| reference_us()).collect();
    crate::stats::median(&times)
}

/// The echo reference's on-CPU time on the host its nominal speed is
/// pinned to: a 2-vCPU Xeon VM at 2.1 GHz in its faster state.
pub const ECHO_NOMINAL_US: f64 = 60.0;

/// A kernel-path reference for the service: a loopback server of the
/// benchmark's own that, like the service's front end, starts a thread
/// per connection, and answers every request with a fixed `200`.  A
/// round trip does the kernel work of a cheap service request (connect,
/// accept, a thread's start and exit, a read, a write, two closes) and
/// runs none of the program's code.  The interpreter reference
/// ([`reference_us`]) does not slow down when that work does: over one
/// 30-second run the service's median request moved ±27% against it and
/// ±8% against this one.
pub struct EchoReference {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl EchoReference {
    pub fn start() -> std::io::Result<EchoReference> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let accept = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stopped.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = stream {
                    std::thread::spawn(move || echo(stream));
                }
            }
        });
        Ok(EchoReference {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// On-CPU µs the whole process spent on one round trip.
    pub fn cpu_us(&self) -> Result<f64, String> {
        let cpu = process_cpu_s();
        let mut stream = TcpStream::connect(self.addr).map_err(|e| format!("echo: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .write_all(b"GET / HTTP/1.1\r\nHost: bench\r\n\r\n")
            .map_err(|e| format!("echo: {e}"))?;
        let mut reply = Vec::with_capacity(64);
        stream
            .read_to_end(&mut reply)
            .map_err(|e| format!("echo: {e}"))?;
        if !reply.starts_with(b"HTTP/1.1 200") {
            return Err("echo: no 200".into());
        }
        Ok((process_cpu_s() - cpu) * 1e6)
    }
}

impl Drop for EchoReference {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop so it sees the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

/// Read one request head and answer it.
fn echo(mut stream: TcpStream) {
    let mut head = Vec::with_capacity(64);
    let mut buf = [0u8; 256];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => head.extend_from_slice(&buf[..n]),
        }
    }
    let _ =
        stream.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok");
}

/// Ticks the hypervisor stole from this VM's CPUs (field 8 of the `cpu`
/// line of `/proc/stat`), 0 where the kernel does not say.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let line = stat.lines().next()?.to_string();
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Linux reports `/proc/stat` in USER_HZ ticks, 100 per second.
const TICKS_PER_SEC: f64 = 100.0;

/// Run-health readings taken around one timed phase.
pub struct Health {
    pub calib_us_start: f64,
    start: Instant,
    tasks: BTreeMap<u64, (u64, u64)>,
    steal: u64,
}

/// What [`Health::finish`] reports.
pub struct HealthReport {
    pub calib_us_start: f64,
    pub calib_us_end: f64,
    /// Summed on-CPU time over the phase's wall time (≈ busy threads).
    pub oncpu_frac: f64,
    /// Summed run-queue wait over the phase's wall time (≈ 0 when the
    /// host gave every runnable thread a CPU).
    pub runqueue_frac: f64,
    /// CPU time the hypervisor stole, over the phase's wall time summed
    /// over the VM's CPUs.
    pub steal_frac: f64,
}

impl Health {
    pub fn start() -> Health {
        let calib_us_start = calibrate_us(5);
        Health {
            calib_us_start,
            start: Instant::now(),
            tasks: task_schedstats(),
            steal: steal_ticks(),
        }
    }

    /// Close the phase; `exited` are the totals of threads the caller
    /// started and joined inside the phase.
    pub fn finish(self, exited: (u64, u64)) -> HealthReport {
        let wall = self.start.elapsed().as_nanos().max(1) as f64;
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        let stolen = steal_ticks().saturating_sub(self.steal) as f64 / TICKS_PER_SEC;
        let (on, rq) = sched_delta(&self.tasks, &task_schedstats(), exited);
        HealthReport {
            calib_us_start: self.calib_us_start,
            calib_us_end: calibrate_us(5),
            oncpu_frac: on as f64 / wall,
            runqueue_frac: rq as f64 / wall,
            steal_frac: stolen * 1e9 / (wall * cpus),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_normalize_cancels_a_host_slowdown_but_not_a_slow_program() {
        // The host halves its speed halfway: op and reference both double.
        let mut samples: Vec<(f64, f64)> = (0..40)
            .map(|i| if i < 20 { (2.0, 80.0) } else { (4.0, 160.0) })
            .collect();
        // One noisy reference timing.
        samples[10].1 = 400.0;
        let normalized = host_normalize(&samples, 80.0);
        assert!(normalized.iter().all(|&t| t == 2.0), "{normalized:?}");
        // A program twice as slow on the same host reads twice as slow.
        let slow: Vec<(f64, f64)> = samples.iter().map(|&(t, r)| (2.0 * t, r)).collect();
        assert!(host_normalize(&slow, 80.0).iter().all(|&t| t == 4.0));
    }

    #[test]
    fn sched_delta_counts_survivors_newborns_and_exited_threads() {
        let before = BTreeMap::from([(1, (100, 10)), (2, (50, 5))]);
        let after = BTreeMap::from([(1, (160, 12)), (3, (30, 1))]);
        assert_eq!(
            sched_delta(&before, &after, (7, 2)),
            (60 + 30 + 7, 2 + 1 + 2)
        );
    }
}
