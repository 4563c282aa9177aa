//! The shiptlm benchmark: one command that runs a named workload from a
//! single load-generating process, checks the program's outputs, and
//! prints every end-to-end metric (or, with `--trace 1`, every per-layer
//! metric) by name and unit. The last stdout line is the JSON result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload levels --seed 1 --seconds 30 --trace 0
//! ```
//!
//! See README.md beside this crate for the metrics and workloads.

mod gateway;
mod host;
mod layers;
mod levels;
mod report;
mod seed;
mod spans;
mod stats;
mod sweep;

use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use gateway::GatewayBench;
use levels::{Levels, LEVELS};
use report::{Metrics, Tally};
use spans::SpanStore;
use stats::Samples;
use sweep::{SweepBench, FAMILIES};

/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 9;

/// Median CPU ms of `host::calibration_task` on the reference host (the
/// 2-core VM the bounds were set on; median over runs at 1–13 % steal).
/// End-to-end CPU timings are scaled by this over the run's own median,
/// which takes the host's speed of the moment out of them (see README.md).
const CAL_REF_CPU_MS: f64 = 2.43;

/// Median CPU ms of `host::loopback_task` on the reference host, measured
/// while `host::calibration_task` took 2.44 ms. The gateway's CPU timings
/// are scaled by this over the run's own median instead (see README.md).
const LOOP_REF_CPU_MS: f64 = 1.334;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Levels,
    Sweep,
    Gateway,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload levels|sweep|gateway --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = match get("--workload")?.as_str() {
        "levels" => Workload::Levels,
        "sweep" => Workload::Sweep,
        "gateway" => Workload::Gateway,
        other => return Err(format!("unknown workload '{other}'")),
    };
    let num = |flag: &str, v: String| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
    let seed = num("--seed", get("--seed")?)?;
    let seconds = num("--seconds", get("--seconds")?)?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
    };
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Everything set-up produces: generated inputs, detected roles, a started
/// gateway with a warm cache.
struct World {
    levels: Levels,
    sweep: SweepBench,
    gateway: GatewayBench,
}

impl World {
    fn setup(seed: u64, trace: bool) -> World {
        World {
            levels: Levels::setup(),
            sweep: SweepBench::setup(seed),
            gateway: GatewayBench::setup(seed, trace),
        }
    }
}

/// Share of the measured window each activity gets. Every workload runs
/// all three activities, so every run reports every metric; the workload
/// names the one that gets most of the window. The sweep never gets less
/// than 0.35: its CPU rates spread most from run to run (see README.md).
fn shares(w: Workload) -> [f64; 3] {
    match w {
        Workload::Levels => [0.4, 0.35, 0.25],
        Workload::Sweep => [0.25, 0.5, 0.25],
        Workload::Gateway => [0.25, 0.35, 0.4],
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = format!("{:?}", args.workload).to_lowercase();
    println!(
        "workload {name} seed {} seconds {} trace {}",
        args.seed, args.seconds, args.trace as u8
    );

    // Set-up time is taken in process CPU seconds, like the end-to-end CPU
    // timings (see `host::process_cpu_s`); wall time is printed beside it.
    let (mut setup_s, mut setup_wall_s) = (Samples::default(), Samples::default());
    let mut world = None;
    for _ in 0..SETUP_REPS {
        drop(world.take());
        let (t0, cpu0) = (Instant::now(), host::process_cpu_s());
        world = Some(World::setup(args.seed, args.trace));
        setup_s.push(host::process_cpu_s() - cpu0);
        setup_wall_s.push(t0.elapsed().as_secs_f64());
    }
    println!("setup wall: {}", setup_wall_s.describe("s"));
    let mut w = world.expect("set-up ran");
    println!("rss after set-up: peak {:.2} MiB", host::peak_rss_mb());

    let mut layer = Metrics::default();
    let mut rss_growth = [f64::NAN; 4];
    if args.trace {
        layers::probe_all(&mut layer);
        rss_growth = w.levels.rss_probe();
    }

    // Warm-up, a fixed amount of work whatever the host's speed, after
    // which the gated peak RSS is read: two level rounds and one sweep of
    // each kind. The gateway's miss path has run in set-up (the pre-warm);
    // its steps are left out because they are time slices, and the fresh
    // models they cache grow with the host's speed. The end-of-run peak is
    // printed too, but not gated: the pin-accurate level also grows the
    // heap by tens of KiB per run (see `explore.rss_growth_kb.pin`). The
    // warm-up steps count like any others.
    for _ in 0..2 {
        w.levels.step(None);
    }
    for _ in 0..3 {
        w.sweep.step(None);
    }
    let peak_rss = host::peak_rss_mb();

    let store = args.trace.then(|| Mutex::new(SpanStore::new()));
    let noise = host::NoiseProbe::start();
    let share = shares(args.workload);
    let mut spent = [Duration::ZERO; 3];
    let mut steps = [0u64; 3];
    let (mut cal_cpu, mut loop_cpu) = (Samples::default(), Samples::default());
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while Instant::now() < deadline {
        // The activity furthest below its share of the time so far.
        let i = (0..3)
            .min_by(|&a, &b| {
                (spent[a].as_secs_f64() / share[a]).total_cmp(&(spent[b].as_secs_f64() / share[b]))
            })
            .expect("three activities");
        // A traced run traces every other pair of steps of each activity
        // (pairs, so each of the sweep's three kinds of step is traced in
        // turn: twice in every twelve steps); the untraced steps beside
        // them give the overhead.
        let traced = store.as_ref().filter(|_| steps[i] / 2 % 2 == 1);
        let t0 = Instant::now();
        match i {
            0 => w.levels.step(traced.map(lock).as_deref_mut()),
            1 => w.sweep.step(traced.map(lock).as_deref_mut()),
            _ => w.gateway.step(traced),
        }
        spent[i] += t0.elapsed();
        steps[i] += 1;
        cal_cpu.push(host::calibration_task() * 1e3);
        loop_cpu.push(host::loopback_task() * 1e3);
    }
    println!(
        "rss: peak {peak_rss:.2} MiB after the warm-up, {:.2} MiB at the end",
        host::peak_rss_mb()
    );
    let speed = CAL_REF_CPU_MS / cal_cpu.median();
    let net_speed = LOOP_REF_CPU_MS / loop_cpu.median();
    println!(
        "calibration: {} (host speed {speed:.4} of reference)",
        cal_cpu.describe("ms")
    );
    println!(
        "loopback calibration: {} (host speed {net_speed:.4} of reference)",
        loop_cpu.describe("ms")
    );
    let noise = noise.finish();
    w.sweep.finish();
    w.gateway.finish();

    let mut tally = Tally::default();
    tally.merge(&w.levels.tally);
    tally.merge(&w.sweep.tally);
    tally.merge(&w.gateway.tally.lock().expect("tally poisoned"));

    println!(
        "window: levels {} rounds {:.1}s, sweep {} sweeps {:.1}s, gateway {} slices {:.1}s",
        steps[0],
        spent[0].as_secs_f64(),
        steps[1],
        spent[1].as_secs_f64(),
        steps[2],
        spent[2].as_secs_f64()
    );
    println!(
        "host: cores {} steal {:.2}% load1 mean {:.2} max {:.2}",
        noise.cores,
        noise.steal_share * 100.0,
        noise.load_mean,
        noise.load_max
    );
    print_fingerprint(&w);
    for r in &tally.reasons {
        println!("failure: {r}");
    }

    let metrics = if args.trace {
        per_layer(&w, rss_growth, &mut layer);
        print_overhead_and_attribution(&w, &layer);
        if let Some(store) = store {
            let store = store.into_inner().expect("span store poisoned");
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("trace-{name}-{}.json", args.seed));
            let n = store.len();
            match store.write(&path) {
                Ok(()) => println!("spans: {n} written to {}", path.display()),
                Err(e) => println!("spans: could not write {}: {e}", path.display()),
            }
        }
        layer
    } else {
        end_to_end(&w, &setup_s, &tally, [speed, net_speed], peak_rss)
    };
    for (n, v, unit) in &metrics.0 {
        println!("metric {n} = {v:.6} {unit}");
    }
    let correct = tally.failed == 0 && metrics.all_finite() && tally.attempted > 0;
    println!("{}", metrics.result_line(correct, &tally));
    ExitCode::SUCCESS
}

fn lock(store: &Mutex<SpanStore>) -> std::sync::MutexGuard<'_, SpanStore> {
    store.lock().expect("span store poisoned")
}

/// The end-to-end metrics. CPU timings are multiplied (rates divided) by
/// the reference host's calibration time over this run's: `speed` from
/// the ping-pong task, `net_speed` from the loopback task for the
/// gateway's figures. The human-readable lines show the raw figures. The
/// two wall-time ratios, `pool_busy_share` and `hit_rtt_x`, need no
/// scaling.
fn end_to_end(
    w: &World,
    setup_s: &Samples,
    tally: &Tally,
    [speed, net_speed]: [f64; 2],
    peak_rss: f64,
) -> Metrics {
    let mut m = Metrics::default();
    let gw = &w.gateway;
    println!("raw setup_s: {}", setup_s.describe("s"));
    for (l, name) in LEVELS.iter().enumerate() {
        println!(
            "raw {name}_ms: {}",
            w.levels.round_ms[l].plain.describe("ms")
        );
    }
    println!(
        "raw candidates_per_s: {}",
        w.sweep.cand_per_s.plain.describe("1/s")
    );
    println!(
        "raw pruned_points_per_s: {}",
        w.sweep.pruned_pts_per_s.plain.describe("1/s")
    );
    println!(
        "pool_busy_share: {}",
        w.sweep.pool_share.plain.describe("share")
    );
    println!("raw jobs_per_s: {}", gw.jobs_per_s.plain.describe("1/s"));
    println!("hit_rtt_x: {}", gw.hit_rtt_x.plain.describe("x"));
    println!("raw hit_cpu_us: {}", gw.hit_cpu_us.plain.describe("us"));
    println!("raw miss_cpu_ms: {}", gw.miss_cpu_ms.plain.describe("ms"));
    println!(
        "hit wall latency per slice, p50: {}",
        gw.hit_p50_us.plain.describe("us")
    );
    println!(
        "hit wall latency per slice, p99: {}",
        gw.hit_p99_us.plain.describe("us")
    );
    println!(
        "miss wall latency per slice, p50: {}",
        gw.miss_p50_ms.plain.describe("ms")
    );
    println!(
        "miss wall latency per slice, p90: {}",
        gw.miss_p90_ms.plain.describe("ms")
    );

    m.put("setup_s", setup_s.median() * speed, "s");
    m.put(
        "ok_share",
        1.0 - tally.failed as f64 / tally.attempted.max(1) as f64,
        "share",
    );
    m.put("peak_rss_mb", peak_rss, "MiB");
    for (l, name) in LEVELS.iter().enumerate() {
        m.put(
            format!("{name}_ms"),
            w.levels.round_ms[l].plain.median() * speed,
            "ms",
        );
    }
    m.put(
        "candidates_per_s",
        w.sweep.cand_per_s.plain.median() / speed,
        "1/s",
    );
    m.put(
        "pruned_points_per_s",
        w.sweep.pruned_pts_per_s.plain.median() / speed,
        "1/s",
    );
    m.put(
        "jobs_per_s",
        gw.jobs_per_s.plain.median() / net_speed,
        "1/s",
    );
    m.put("hit_cpu_us", gw.hit_cpu_us.plain.median() * net_speed, "us");
    m.put(
        "miss_cpu_ms",
        gw.miss_cpu_ms.plain.median() * net_speed,
        "ms",
    );
    m.put(
        "pool_busy_share",
        w.sweep.pool_share.plain.median(),
        "share",
    );
    m.put("hit_rtt_x", gw.hit_rtt_x.plain.median(), "x");
    m
}

fn per_layer(w: &World, rss_growth: [f64; 4], m: &mut Metrics) {
    let lv = &w.levels;
    let print = lv.print.unwrap_or_default();
    for (l, name) in LEVELS.iter().enumerate() {
        m.put(format!("kernel.run_ms.{name}"), lv.run_ms[l].median(), "ms");
        m.put(
            format!("kernel.delta_cycles.{name}"),
            print[l].delta_cycles as f64,
            "count",
        );
        m.put(format!("ship.msgs.{name}"), print[l].recvs as f64, "count");
        m.put(
            format!("explore.elaborate_ms.{name}"),
            lv.elaborate_ms[l].median(),
            "ms",
        );
    }
    m.put("cam.bus_txns.ccatb", print[1].bus_txns as f64, "count");
    m.put(
        "cam.wait_cycles_p50.ccatb",
        lv.ccatb_wait_p50 as f64,
        "cycles",
    );
    m.put("ocp.host_us_per_txn.pin", lv.pin_us_per_txn.median(), "us");
    for (l, name) in LEVELS.iter().enumerate() {
        m.put(
            format!("explore.rss_growth_kb.{name}"),
            rss_growth[l],
            "KiB",
        );
    }
    m.put("hwsw.ctx_switches", print[3].ctx_switches as f64, "count");
    m.put("hwsw.host_us_per_rpc", lv.hwsw_us_per_rpc.median(), "us");
    m.put("explore.auto_fallbacks", lv.auto_fallbacks as f64, "count");

    let sw = &w.sweep;
    for fam in FAMILIES {
        let (us, txns) = sw.family_cost.get(fam).copied().unwrap_or((0.0, 0));
        m.put(format!("cam.host_us_per_txn.{fam}"), us / txns as f64, "us");
    }
    m.put("explore.role_detect_ms", sw.role_detect_ms.median(), "ms");
    m.put("explore.candidate_ms_p50", sw.candidate_ms.median(), "ms");
    m.put("explore.pool_busy_share", sw.busy_share.median(), "share");
    m.put("explore.chunk_gap_us", sw.chunk_gap_us.median(), "us");
    let pruned = sw.print.map_or(f64::NAN, |p| p.pruned as f64);
    m.put("explore.prune_ratio", pruned / sw.points() as f64, "share");

    let gw = &w.gateway;
    let st = gw.stages.lock().expect("stages poisoned");
    m.put("gateway.admission_us", st.admission_us.median(), "us");
    m.put("gateway.cache_wait_us", st.cache_wait_us.median(), "us");
    m.put("gateway.queue_wait_us", st.queue_wait_us.median(), "us");
    m.put("gateway.exec_ms", st.exec_ms.median(), "ms");
    m.put("gateway.sweep_ms", st.sweep_ms.median(), "ms");
    m.put("gateway.client_us", st.client_hit_us.median(), "us");
    m.put("gateway.hit_p50_us", gw.hit_p50_us.all().median(), "us");
    m.put("gateway.hit_p99_us", gw.hit_p99_us.all().median(), "us");
    m.put("gateway.miss_p50_ms", gw.miss_p50_ms.all().median(), "ms");
    m.put("gateway.miss_p90_ms", gw.miss_p90_ms.all().median(), "ms");
    m.put("gateway.hit_ratio", gw.hit_ratio(), "share");
    m.put("gateway.retry_share", gw.retry_share(), "share");
}

/// Traced minus untraced median of every end-to-end timing, and the share
/// of each that the per-layer self times leave unattributed.
fn print_overhead_and_attribution(w: &World, m: &Metrics) {
    let get = |name: &str| {
        m.0.iter()
            .find(|(n, _, _)| n == name)
            .map_or(f64::NAN, |(_, v, _)| *v)
    };
    let overhead = |name: &str, ab: &report::Ab, unit: &str| {
        let (t, p) = (ab.traced.median(), ab.plain.median());
        println!(
            "trace overhead {name}: traced {t:.4} - untraced {p:.4} = {:.4} {unit} ({:+.1}%)",
            t - p,
            (t / p - 1.0) * 100.0
        );
    };
    let attribute = |name: &str, e2e: f64, parts: &[(&str, f64)]| {
        let sum: f64 = parts.iter().map(|(_, v)| v).sum();
        let list: Vec<String> = parts.iter().map(|(n, v)| format!("{n} {v:.4}")).collect();
        println!(
            "attribution {name}: e2e {e2e:.4} = [{}] + unattributed {:.1}%",
            list.join(" + "),
            (1.0 - sum / e2e) * 100.0
        );
    };
    let lv = &w.levels;
    for (l, name) in LEVELS.iter().enumerate() {
        overhead(&format!("{name}_ms"), &lv.round_ms[l], "ms");
        attribute(
            &format!("{name}_ms"),
            lv.round_wall_ms[l].median(),
            &[
                ("kernel.run_ms", get(&format!("kernel.run_ms.{name}"))),
                (
                    "explore.elaborate_ms",
                    get(&format!("explore.elaborate_ms.{name}")),
                ),
            ],
        );
    }
    let sw = &w.sweep;
    overhead("candidates_per_s", &sw.cand_per_s, "1/s");
    overhead("pruned_points_per_s", &sw.pruned_pts_per_s, "1/s");
    attribute(
        "sweep_ms (wall of one unpruned sweep on the pool)",
        sw.sweep_ms.traced.median(),
        &[
            ("explore.role_detect_ms", sw.role_detect_ms.median()),
            ("sweep self", sw.self_ms.median()),
            ("candidate spans / threads", sw.lane_ms.median()),
        ],
    );
    let gw = &w.gateway;
    overhead("pool_busy_share", &sw.pool_share, "share");
    overhead("jobs_per_s", &gw.jobs_per_s, "1/s");
    overhead("hit_rtt_x", &gw.hit_rtt_x, "x");
    overhead("hit_cpu_us", &gw.hit_cpu_us, "us");
    overhead("miss_cpu_ms", &gw.miss_cpu_ms, "ms");
    overhead("gateway.hit_p50_us (wall)", &gw.hit_p50_us, "us");
    overhead("gateway.miss_p50_ms (wall)", &gw.miss_p50_ms, "ms");
    let st = gw.stages.lock().expect("stages poisoned");
    let (adm, queue, gself) = (
        st.admission_us.median(),
        st.queue_wait_us.median(),
        st.gateway_self_us.median(),
    );
    attribute(
        "gateway.hit_p50_us (wall, traced)",
        gw.hit_p50_us.traced.median(),
        &[
            ("gateway.client_us", st.client_hit_us.median()),
            ("gateway.admission_us", adm),
            ("gateway.queue_wait_us", queue),
            ("gateway.cache_wait_us", st.cache_wait_us.median()),
            ("gateway self", gself),
        ],
    );
    attribute(
        "gateway.miss_p50_ms (wall, traced)",
        gw.miss_p50_ms.traced.median(),
        &[
            ("client", st.client_miss_ms.median()),
            ("gateway.admission_us", adm / 1e3),
            ("gateway.queue_wait_us", queue / 1e3),
            ("gateway self", gself / 1e3),
            ("gateway.exec_ms", st.exec_ms.median()),
            ("gateway.sweep_ms", st.sweep_ms.median()),
        ],
    );
}

fn print_fingerprint(w: &World) {
    if let Some(p) = w.levels.print {
        for (l, name) in LEVELS.iter().enumerate() {
            let q = p[l];
            println!(
                "fingerprint levels.{name}: sim_time_ps {} delta_cycles {} bus_txns {} ctx_switches {} recvs {}",
                q.sim_time_ps, q.delta_cycles, q.bus_txns, q.ctx_switches, q.recvs
            );
        }
    }
    if let Some(p) = w.sweep.print {
        println!(
            "fingerprint sweep: digest {:016x} sim_time_ps {} delta_cycles {} bus_txns {} recvs {} pruned {}",
            p.digest, p.sim_time_ps, p.delta_cycles, p.bus_txns, p.recvs, p.pruned
        );
    }
    if let Some(p) = w.gateway.print {
        println!(
            "fingerprint gateway.hot: sim_time_ps {} delta_cycles {} recvs {}",
            p.sim_time_ps, p.delta_cycles, p.recvs
        );
    }
}
