//! Host-noise record: core count, CPU steal share and load average sampled
//! from `/proc` over the measured window, plus the process's peak RSS.
//! A run taken on a disturbed VM is recognisable from these.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::stats::Samples;

/// Aggregate `cpu` line of `/proc/stat`: (steal jiffies, total jiffies).
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user.
    let total = fields.iter().take(8).sum();
    Some((*fields.get(7)?, total))
}

fn load1() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// A `/proc/self/status` field in MiB (`VmHWM`, `VmRSS`).
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Peak resident set size of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set size of this process in MiB.
pub fn rss_now_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Samples the load average once a second until stopped.
pub struct NoiseProbe {
    start: Option<(u64, u64)>,
    loads: Arc<Mutex<Vec<f64>>>,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

/// What the probe saw over its window.
pub struct Noise {
    pub cores: usize,
    pub steal_share: f64,
    pub load_mean: f64,
    pub load_max: f64,
}

impl NoiseProbe {
    pub fn start() -> NoiseProbe {
        let loads = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (loads, stop) = (Arc::clone(&loads), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if let Some(l) = load1() {
                        loads.lock().expect("load sampler poisoned").push(l);
                    }
                    for _ in 0..20 {
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                        std::thread::sleep(Duration::from_millis(50));
                    }
                }
            })
        };
        NoiseProbe {
            start: cpu_jiffies(),
            loads,
            stop,
            thread,
        }
    }

    pub fn finish(self) -> Noise {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("load sampler panicked");
        let steal_share = match (self.start, cpu_jiffies()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => f64::NAN,
        };
        let loads = self.loads.lock().expect("load sampler poisoned");
        let load_mean = loads.iter().sum::<f64>() / loads.len().max(1) as f64;
        let load_max = loads.iter().copied().fold(0.0, f64::max);
        Noise {
            cores: std::thread::available_parallelism().map_or(1, usize::from),
            steal_share,
            load_mean,
            load_max,
        }
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on) that
    // outlives the call; the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time consumed so far by every thread of this process, in seconds.
///
/// The timings that must stay comparable across runs are taken in CPU
/// time: on a shared VM the hypervisor's steal and other tenants' load
/// stretch wall time by tens of percent from one minute to the next, while
/// the CPU time the program itself burns stays put.
pub fn process_cpu_s() -> f64 {
    clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed so far by the calling thread, in seconds.
fn thread_cpu_s() -> f64 {
    clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// Wall µs of 64-byte round trips over loopback TCP with `TCP_NODELAY`:
/// `pairs` client threads at once, each against its own echo thread, as
/// the gateway's clients are. Standard library only, like the calibration
/// task: a cache hit does this at least once, so the ratio of the two
/// keeps the wake-up latency of the host's moment out of hit latency,
/// while a stall inside the gateway still shows.
pub fn loopback_rtt_us(pairs: usize) -> Samples {
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    const ROUND_TRIPS: usize = 100;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("loopback address");
    let rtts = Mutex::new(Samples::default());
    std::thread::scope(|scope| {
        for _ in 0..pairs {
            let mut client = TcpStream::connect(addr).expect("connect loopback");
            let (mut server, _) = listener.accept().expect("accept loopback");
            client.set_nodelay(true).expect("TCP_NODELAY");
            server.set_nodelay(true).expect("TCP_NODELAY");
            scope.spawn(move || {
                let mut buf = [0u8; 64];
                while server.read_exact(&mut buf).is_ok() {
                    if server.write_all(&buf).is_err() {
                        break;
                    }
                }
            });
            let rtts = &rtts;
            scope.spawn(move || {
                let mut buf = [7u8; 64];
                let mut mine = Samples::default();
                for _ in 0..ROUND_TRIPS {
                    let t0 = std::time::Instant::now();
                    client.write_all(&buf).expect("loopback write");
                    client.read_exact(&mut buf).expect("loopback read");
                    mine.push(t0.elapsed().as_secs_f64() * 1e6);
                }
                rtts.lock().expect("rtt samples poisoned").extend(&mine);
            });
        }
    });
    rtts.into_inner().expect("rtt samples poisoned")
}

/// A fixed host-only reference task built from the standard library alone
/// (none of the program's code): spawn two threads, pass a token between
/// them `HOPS` times over rendezvous channels with a little hashing per
/// hop, join. It exercises what the simulator leans on — thread spawn,
/// blocking hand-off, wake-up — so its cost tracks the host's state.
///
/// Returns the CPU seconds of its own two threads, read from each thread's
/// own clock: the program's background threads (gateway acceptor and
/// executors, pool workers) keep running meanwhile, and process CPU time
/// would let their cost leak into the calibration.
pub fn calibration_task() -> f64 {
    use std::sync::mpsc::sync_channel;
    const HOPS: u32 = 200;
    let (to_b, at_b) = sync_channel::<u64>(0);
    let (to_a, at_a) = sync_channel::<u64>(0);
    let work = |mut x: u64| {
        for i in 0..64u64 {
            x = (x ^ i).wrapping_mul(0x100_0000_01B3);
        }
        x
    };
    let a0 = thread_cpu_s();
    let b = std::thread::spawn(move || {
        let b0 = thread_cpu_s();
        while let Ok(x) = at_b.recv() {
            if to_a.send(work(x)).is_err() {
                break;
            }
        }
        thread_cpu_s() - b0
    });
    let mut x = 0xCBF2_9CE4_8422_2325u64;
    for _ in 0..HOPS {
        to_b.send(work(x)).expect("calibration peer alive");
        x = at_a.recv().expect("calibration peer alive");
    }
    drop(to_b);
    let b_cpu = b.join().expect("calibration peer panicked");
    std::hint::black_box(x);
    thread_cpu_s() - a0 + b_cpu
}

/// A second fixed host-only reference task, for the gateway's figures:
/// bind a loopback TCP listener, connect, spawn an echo thread and make
/// 50 round trips of 64 bytes (`TCP_NODELAY`), standard library only. A
/// job through the gateway is socket I/O and wake-ups of this kind, whose
/// cost moves with the host's state more than the ping-pong of
/// `calibration_task` does.
///
/// Returns the CPU seconds of its own two threads, for the same reason as
/// `calibration_task`.
pub fn loopback_task() -> f64 {
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    const ROUND_TRIPS: usize = 50;
    let a0 = thread_cpu_s();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("loopback address");
    let mut client = TcpStream::connect(addr).expect("connect loopback");
    let (mut server, _) = listener.accept().expect("accept loopback");
    client.set_nodelay(true).expect("TCP_NODELAY");
    server.set_nodelay(true).expect("TCP_NODELAY");
    let echo = std::thread::spawn(move || {
        let b0 = thread_cpu_s();
        let mut buf = [0u8; 64];
        while server.read_exact(&mut buf).is_ok() {
            if server.write_all(&buf).is_err() {
                break;
            }
        }
        thread_cpu_s() - b0
    });
    let mut buf = [7u8; 64];
    for _ in 0..ROUND_TRIPS {
        client.write_all(&buf).expect("loopback write");
        client.read_exact(&mut buf).expect("loopback read");
    }
    drop(client);
    let b_cpu = echo.join().expect("loopback echo panicked");
    thread_cpu_s() - a0 + b_cpu
}
