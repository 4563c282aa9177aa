//! Performance regression guard for the E1 claim ("very high simulation
//! speeds become feasible"): the abstraction ladder must keep its cost
//! ordering — untimed ≪ CCATB ≪ pin-accurate.
//!
//! Kernel delta cycles are the primary, fully deterministic proxy for host
//! cost (each delta is a scheduler round trip); a very generous wall-clock
//! assertion backs it up without inviting flakes on loaded CI runners.
//!
//! Every test here takes [`serial`] first: a guard that times itself while
//! a sibling test loads the same cores measures the sibling, not the code.
//! Timed comparisons take medians of interleaved repetitions, so drift in
//! host load hits both sides alike.

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use shiptlm::prelude::*;

/// Serializes the tests of this binary (see the module doc).
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A failed guard poisons the lock; the others still measure soundly.
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `a` and `b` `reps` times each in ABBA order and returns the median
/// of each side's measurements.
fn interleaved_medians(
    reps: usize,
    mut a: impl FnMut() -> Duration,
    mut b: impl FnMut() -> Duration,
) -> (Duration, Duration) {
    let (mut xs, mut ys) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for i in 0..reps {
        if i % 2 == 0 {
            xs.push(a());
            ys.push(b());
        } else {
            ys.push(b());
            xs.push(a());
        }
    }
    let median = |mut v: Vec<Duration>| {
        v.sort();
        v[v.len() / 2]
    };
    (median(xs), median(ys))
}

fn the_app() -> AppSpec {
    workload::pipeline(6, 16, 256, SimDur::ZERO)
}

#[test]
fn abstraction_ladder_keeps_its_cost_ordering() {
    let _serial = serial();
    let app = the_app();
    let ca = run_component_assembly(&app).expect("untimed run");
    let ccatb = run_mapped(&app, &ca.roles, &ArchSpec::plb()).expect("ccatb run");
    let pin = run_pin_accurate(&app, &ca.roles, &ArchSpec::plb()).expect("pin run");

    let ca_deltas = ca.output.delta_cycles;
    let ccatb_deltas = ccatb.output.delta_cycles;
    let pin_deltas = pin.output.delta_cycles;

    // Deterministic ordering: each refinement step must cost markedly more
    // scheduler work than the last (measured ratios are ~35x and ~15x; the
    // guard only demands 2x so legitimate timing-model changes don't trip it).
    assert!(
        ccatb_deltas > ca_deltas.max(1) * 2,
        "CCATB ({ccatb_deltas} deltas) should cost well over the untimed model ({ca_deltas})"
    );
    assert!(
        pin_deltas > ccatb_deltas * 2,
        "pin-accurate ({pin_deltas} deltas) should cost well over CCATB ({ccatb_deltas})"
    );

    // All three levels still deliver the same content.
    ca.output
        .log
        .content_equivalent(&ccatb.output.log)
        .expect("ccatb content-equivalent to untimed");
    ca.output
        .log
        .content_equivalent(&pin.output.log)
        .expect("pin content-equivalent to untimed");

    // Generous wall-clock backstop: the untimed model runs hundreds of times
    // faster than the pin-accurate one, so even a heavily loaded runner
    // leaves a wide margin around this 2x bound.
    let wall = |output: RunOutput| Duration::from_secs_f64(output.wall_seconds);
    let (ca_wall, pin_wall) = interleaved_medians(
        3,
        || wall(run_component_assembly(&app).expect("untimed run").output),
        || {
            let pin = run_pin_accurate(&app, &ca.roles, &ArchSpec::plb()).expect("pin run");
            wall(pin.output)
        },
    );
    assert!(
        ca_wall <= pin_wall * 2,
        "untimed run ({ca_wall:?}) should not be slower than 2x the pin-accurate run ({pin_wall:?})"
    );
}

#[test]
fn ahb_model_keeps_untimed_far_cheaper_than_ccatb() {
    // Same E1 ordering for the AHB family: SPLIT/RETRY add arbitration
    // round trips on top of the plain shared bus, so the untimed model
    // must stay far cheaper than the AHB CCATB — and content-identical.
    let _serial = serial();
    let app = workload::uniform_traffic(6, 8, 128, 0xE1);
    let ca = run_component_assembly(&app).expect("untimed run");
    let ahb = run_mapped(&app, &ca.roles, &ArchSpec::ahb().with_split(true)).expect("ahb run");

    let ca_deltas = ca.output.delta_cycles;
    let ahb_deltas = ahb.output.delta_cycles;
    assert!(
        ahb_deltas > ca_deltas.max(1) * 2,
        "AHB CCATB ({ahb_deltas} deltas) should cost well over the untimed model ({ca_deltas})"
    );
    ca.output
        .log
        .content_equivalent(&ahb.output.log)
        .expect("AHB CCATB content-equivalent to untimed");
}

#[test]
fn sweep_throughput_stays_interactive() {
    // A whole 8-candidate sweep of a small workload must stay interactive
    // (E2: "fast ... exploration"). The bound is enormous relative to the
    // measured cost (tens of milliseconds in release builds) so it only
    // catches order-of-magnitude regressions, not scheduler noise.
    let _serial = serial();
    let app = workload::parallel_streams(3, 12, 256);
    let archs = vec![
        ArchSpec::plb(),
        ArchSpec::plb().with_burst(16),
        ArchSpec::plb().with_burst(128),
        ArchSpec::opb(),
        ArchSpec::opb().with_burst(16),
        ArchSpec::crossbar(),
        ArchSpec::crossbar().with_burst(16),
        ArchSpec::crossbar().with_burst(128),
    ];
    let t0 = Instant::now();
    let report = Sweep::new(app).archs(archs).run().expect("sweep");
    let elapsed = t0.elapsed();
    assert_eq!(report.rows().len(), 8);
    assert!(
        elapsed < Duration::from_secs(60),
        "8-candidate sweep took {elapsed:?} — exploration is no longer interactive"
    );
}

#[test]
fn kernel_wait_costs_a_fraction_of_a_channel_round_trip() {
    // Hand-off floor of the DE kernel. A process that yields runs the
    // scheduler on its own thread, so a process that only waits on itself
    // never switches OS threads: a `wait_for` must cost well under one
    // rendezvous round trip between two threads (`sync_channel(0)`), the
    // price every wait paid when the scheduler lived on a thread of its own.
    // The ratio is taken on the same host in the same test, so it holds
    // whatever the host's wake-up latency.
    let _serial = serial();
    const WAITS: u32 = 2000;
    const ROUND_TRIPS: u32 = 200;
    let kernel_wait = || {
        let t0 = Instant::now();
        let sim = Simulation::new();
        sim.spawn_thread("waiter", |ctx| {
            for _ in 0..WAITS {
                ctx.wait_for(SimDur::ns(10));
            }
        });
        let r = sim.run();
        assert_eq!(r.time, SimTime::ZERO + SimDur::ns(10) * u64::from(WAITS));
        drop(sim);
        t0.elapsed() / WAITS
    };
    let channel_round_trip = || {
        let (to_echo, echo_in) = std::sync::mpsc::sync_channel::<u32>(0);
        let (echo_out, from_echo) = std::sync::mpsc::sync_channel::<u32>(0);
        let echo = std::thread::spawn(move || {
            for v in echo_in {
                if echo_out.send(v).is_err() {
                    break;
                }
            }
        });
        let t0 = Instant::now();
        for i in 0..ROUND_TRIPS {
            to_echo.send(i).expect("echo thread alive");
            assert_eq!(from_echo.recv().expect("echo thread alive"), i);
        }
        let per_trip = t0.elapsed() / ROUND_TRIPS;
        drop(to_echo);
        echo.join().expect("echo thread");
        per_trip
    };
    let (wait, trip) = interleaved_medians(7, kernel_wait, channel_round_trip);
    let ratio = wait.as_secs_f64() / trip.as_secs_f64();
    assert!(
        ratio < 0.1,
        "kernel wait_for {wait:?} vs sync_channel(0) round trip {trip:?}: \
         ratio {ratio:.3}, required < 0.1"
    );
}

#[test]
fn large_sweep_parallel_beats_serial() {
    // The ROADMAP-1 scaling guard: on a 1k-candidate sweep the 8-thread
    // persistent-pool path must beat the serial path by a margin that grows
    // with the cores actually available. The margins are conservative
    // (measured speedups are well above them) so scheduler noise on loaded
    // CI runners does not flake the build; what they pin down is the *bug*
    // this guard was written against — a parallel sweep that is SLOWER than
    // serial because per-sweep thread churn dominates cheap candidates.
    let _serial = serial();
    let archs = ArchGrid::exploration_default().generate_n(1024);
    let app = || workload::parallel_streams(2, 4, 64);

    // Warm up the global pool and the allocator so neither run pays
    // first-use costs the other doesn't.
    Sweep::new(app())
        .archs(archs.iter().take(32).cloned().collect::<Vec<_>>())
        .run_parallel(8)
        .expect("warm-up sweep");

    // Every report, serial or parallel, must be byte-identical.
    let reports = std::cell::RefCell::new(Vec::new());
    let (serial_time, parallel_time) = interleaved_medians(
        3,
        || {
            let t0 = Instant::now();
            let serial = Sweep::new(app())
                .archs(archs.clone())
                .run()
                .expect("serial");
            let elapsed = t0.elapsed();
            assert_eq!(serial.rows().len(), 1024);
            reports.borrow_mut().push(serial.to_string());
            elapsed
        },
        || {
            let t0 = Instant::now();
            let parallel = Sweep::new(app())
                .archs(archs.clone())
                .run_parallel(8)
                .expect("parallel");
            let elapsed = t0.elapsed();
            assert_eq!(parallel.rows().len(), 1024);
            reports.borrow_mut().push(parallel.to_string());
            elapsed
        },
    );
    let reports = reports.into_inner();
    assert!(
        reports.iter().all(|r| *r == reports[0]),
        "parallel report must stay byte-identical to serial"
    );

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Required speedup (serial_time / parallel_time), scaled to the host:
    // ≥ 8 cores must show real scaling; a single-core host can only show
    // that pool overhead is small, so the bound flips to "not much slower".
    let min_speedup = match cores {
        n if n >= 8 => 2.5,
        n if n >= 4 => 1.8,
        2 | 3 => 1.2,
        _ => 1.0 / 1.35,
    };
    let speedup = serial_time.as_secs_f64() / parallel_time.as_secs_f64();
    assert!(
        speedup >= min_speedup,
        "1024-candidate sweep: serial {serial_time:?}, 8 threads {parallel_time:?} \
         (medians of 3; speedup {speedup:.2}x, required {min_speedup:.2}x on {cores} cores)"
    );
}
