//! `levels`: the paper's abstraction-speed claim. One thread runs the
//! repository's E1 pipeline and rpc apps (`workload::pipeline`,
//! `workload::rpc`, no compute delay) at every abstraction level — untimed
//! (`Backend::Auto`, the `DesignFlow`/`Sweep` default), CCATB on PLB,
//! pin-accurate on PLB and HW/SW-partitioned with one PE in software —
//! round-robin, so host drift hits every level alike. The apps do not
//! depend on the seed.

use std::time::{Duration, Instant};

use shiptlm::prelude::*;
use shiptlm_kernel::causal::TraceCtx;

use crate::report::{guarded, Ab, Tally};
use crate::spans::SpanStore;
use crate::stats::Samples;

pub const LEVELS: [&str; 4] = ["untimed", "ccatb", "pin", "hwsw"];

/// Pipeline: 6 PEs as in the E1 bench, 4 blocks × 64 B so that a round of
/// all four levels (pin-accurate dominates) stays near 100 ms.
const PIPE: (usize, u32, usize) = (6, 4, 64);
/// RPC: 2 client/server pairs × 4 requests × 64 B.
const RPC: (usize, u32, usize) = (2, 4, 64);
/// The simulated statistics of one round, per level. They do not depend on
/// the seed; a simulator-only change must reproduce them.
const PINNED: [LevelPrint; 4] = [
    LevelPrint {
        sim_time_ps: 0,
        delta_cycles: 0,
        bus_txns: 0,
        ctx_switches: 0,
        recvs: 28,
    },
    LevelPrint {
        sim_time_ps: 6_140_000,
        delta_cycles: 482,
        bus_txns: 180,
        ctx_switches: 0,
        recvs: 28,
    },
    LevelPrint {
        sim_time_ps: 7_730_000,
        delta_cycles: 2672,
        bus_txns: 180,
        ctx_switches: 0,
        recvs: 28,
    },
    LevelPrint {
        sim_time_ps: 8_530_000,
        delta_cycles: 540,
        bus_txns: 180,
        ctx_switches: 2,
        recvs: 28,
    },
];
/// Rounds of the traced run's resident-set probe.
const PROBE_RUNS: usize = 20;

struct BenchApp {
    app: AppSpec,
    roles: RoleMap,
    /// The PE moved into software for the HW/SW level.
    sw_pe: &'static str,
    /// Request/reply round trips one run performs.
    requests: u64,
}

/// Simulated statistics of one level summed over both apps. A change that only
/// speeds up the simulator must leave these identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LevelPrint {
    pub sim_time_ps: u64,
    pub delta_cycles: u64,
    pub bus_txns: u64,
    pub ctx_switches: u64,
    pub recvs: u64,
}

struct LevelRun {
    outside_s: f64,
    /// Process CPU seconds the call consumed.
    cpu_s: f64,
    out: RunOutput,
    bus: Option<BusStats>,
    ctx_switches: u64,
    fallback: bool,
}

pub struct Levels {
    apps: Vec<BenchApp>,
    /// Process CPU ms of one round of both apps at each level.
    pub round_ms: [Ab; 4],
    /// Wall ms of the same calls (what the per-layer figures add up to).
    pub round_wall_ms: [Samples; 4],
    /// `RunOutput.wall_seconds` of the round, in ms.
    pub run_ms: [Samples; 4],
    /// Outside-timed call minus `wall_seconds`, in ms.
    pub elaborate_ms: [Samples; 4],
    pub pin_us_per_txn: Samples,
    pub hwsw_us_per_rpc: Samples,
    pub print: Option<[LevelPrint; 4]>,
    pub ccatb_wait_p50: u64,
    pub auto_fallbacks: u64,
    pub tally: Tally,
}

impl Levels {
    /// Generates the apps and detects their channel roles.
    pub fn setup() -> Levels {
        let pipe = workload::pipeline(PIPE.0, PIPE.1, PIPE.2, SimDur::ZERO);
        let rpc = workload::rpc(RPC.0, RPC.1, RPC.2, SimDur::ZERO);
        let roles = |app: &AppSpec| {
            run_component_assembly(app)
                .expect("benchmark apps have unique channel roles")
                .roles
        };
        let apps = vec![
            BenchApp {
                roles: roles(&pipe),
                app: pipe,
                sw_pe: "source",
                requests: 0,
            },
            BenchApp {
                roles: roles(&rpc),
                app: rpc,
                sw_pe: "client0",
                requests: RPC.0 as u64 * u64::from(RPC.1),
            },
        ];
        Levels {
            apps,
            round_ms: Default::default(),
            round_wall_ms: Default::default(),
            run_ms: Default::default(),
            elaborate_ms: Default::default(),
            pin_us_per_txn: Samples::default(),
            hwsw_us_per_rpc: Samples::default(),
            print: None,
            ccatb_wait_p50: 0,
            auto_fallbacks: 0,
            tally: Tally::default(),
        }
    }

    /// One round: both apps at all four levels, each refined run checked
    /// against the same round's untimed log.
    pub fn step(&mut self, spans: Option<&mut SpanStore>) {
        let round_t0 = Instant::now();
        let mut runs: Vec<Vec<Result<LevelRun, String>>> = Vec::new();
        for level in 0..LEVELS.len() {
            runs.push(self.apps.iter().map(|a| self.run(level, a)).collect());
        }
        let round_t1 = Instant::now();

        let mut print = [LevelPrint::default(); 4];
        let mut ccatb_wait = shiptlm_kernel::stats::Histogram::new();
        let mut fallbacks = 0;
        let mut ok_round = true;
        for (level, per_app) in runs.iter().enumerate() {
            let (mut outside, mut cpu, mut wall, mut txns) = (0.0, 0.0, 0.0, 0);
            for (i, run) in per_app.iter().enumerate() {
                self.tally.attempted += 1;
                let run = match run {
                    Ok(run) => run,
                    Err(why) => {
                        ok_round = false;
                        self.tally.fail(format!("{} app {i}: {why}", LEVELS[level]));
                        continue;
                    }
                };
                if let Some(why) = self.check(level, i, run, &runs[0][i]) {
                    ok_round = false;
                    self.tally.fail(why);
                }
                outside += run.outside_s;
                cpu += run.cpu_s;
                wall += run.out.wall_seconds;
                let p = &mut print[level];
                p.sim_time_ps += run.out.sim_time.as_ps();
                p.delta_cycles += run.out.delta_cycles;
                p.recvs += run
                    .out
                    .log
                    .with_records(|r| r.iter().filter(|r| r.op == ShipOp::Recv).count())
                    as u64;
                p.ctx_switches += run.ctx_switches;
                if let Some(bus) = &run.bus {
                    p.bus_txns += bus.transactions;
                    txns += bus.transactions;
                    if level == 1 {
                        ccatb_wait.merge(&bus.wait_cycles);
                    }
                }
                fallbacks += u64::from(run.fallback);
                if level == 3 && self.apps[i].requests > 0 {
                    self.hwsw_us_per_rpc
                        .push(run.cpu_s * 1e6 / self.apps[i].requests as f64);
                }
            }
            if !ok_round {
                continue;
            }
            self.round_ms[level].push(spans.is_some(), cpu * 1e3);
            self.round_wall_ms[level].push(outside * 1e3);
            self.run_ms[level].push(wall * 1e3);
            self.elaborate_ms[level].push((outside - wall) * 1e3);
            if level == 2 && txns > 0 {
                self.pin_us_per_txn.push(cpu * 1e6 / txns as f64);
            }
        }
        if ok_round {
            match self.print {
                None => {
                    if print != PINNED {
                        self.tally.fail(format!(
                            "simulated statistics {print:?} differ from the pinned {PINNED:?}"
                        ));
                    }
                    self.print = Some(print);
                    self.ccatb_wait_p50 = ccatb_wait.quantile_upper_bound(0.5);
                    self.auto_fallbacks = fallbacks;
                }
                Some(first) if first != print => self
                    .tally
                    .fail("simulated statistics changed between rounds".into()),
                Some(_) => {}
            }
        }

        if let Some(store) = spans {
            // One span per level call, laid end to end as they ran, each
            // with the kernel's `wall_seconds` as its child.
            let root = SpanStore::open(TraceCtx::mint(), "levels", "round");
            let root_ctx = root.ctx();
            store.close_at(root.span, round_t0, round_t1);
            let mut at = round_t0;
            for (level, per_app) in runs.iter().enumerate() {
                for run in per_app.iter().flatten() {
                    let end = at + Duration::from_secs_f64(run.outside_s);
                    let call = SpanStore::open(root_ctx, "level", LEVELS[level]);
                    let call_ctx = call.ctx();
                    store.close_at(call.span, at, end);
                    let kernel = SpanStore::open(call_ctx, "kernel-run", LEVELS[level]);
                    store.close_at(
                        kernel.span,
                        end - Duration::from_secs_f64(run.out.wall_seconds),
                        end,
                    );
                    at = end;
                }
            }
        }
    }

    /// Resident-set growth per run at each level, in KiB: `PROBE_RUNS`
    /// back-to-back runs of both apps. Probed before the window while the
    /// heap is still compact — memory a level keeps shows in the RSS only
    /// once it outgrows the free chunks other work left behind.
    pub fn rss_probe(&self) -> [f64; 4] {
        let mut growth = [0.0; 4];
        for (level, kb) in growth.iter_mut().enumerate() {
            let rss0 = crate::host::rss_now_mb();
            for _ in 0..PROBE_RUNS {
                for a in &self.apps {
                    // Failures are counted by the measured rounds.
                    let _ = self.run(level, a);
                }
            }
            let runs = PROBE_RUNS * self.apps.len();
            *kb = (crate::host::rss_now_mb() - rss0) * 1024.0 / runs as f64;
        }
        growth
    }

    fn run(&self, level: usize, a: &BenchApp) -> Result<LevelRun, String> {
        let (t0, cpu0) = (Instant::now(), crate::host::process_cpu_s());
        let res = guarded(|| {
            let e = |x: &dyn std::fmt::Display| x.to_string();
            let plb = ArchSpec::plb();
            Ok(match level {
                0 => {
                    let opts = RunOptions::default().with_backend(Backend::Auto);
                    let ca = run_component_assembly_with(&a.app, &opts).map_err(|x| e(&x))?;
                    (ca.output, None, 0, ca.backend.fallback.is_some())
                }
                1 => {
                    let m = run_mapped(&a.app, &a.roles, &plb).map_err(|x| e(&x))?;
                    (m.output, Some(m.bus), 0, false)
                }
                2 => {
                    let m = run_pin_accurate(&a.app, &a.roles, &plb).map_err(|x| e(&x))?;
                    (m.output, Some(m.bus), 0, false)
                }
                _ => {
                    let part = Partition::software([a.sw_pe]);
                    let p = run_partitioned(&a.app, &a.roles, &plb, &part).map_err(|x| e(&x))?;
                    let switches = p.rtos.ctx_switches;
                    (p.mapped.output, Some(p.mapped.bus), switches, false)
                }
            })
        });
        let outside_s = t0.elapsed().as_secs_f64();
        let cpu_s = crate::host::process_cpu_s() - cpu0;
        let (out, bus, ctx_switches, fallback) = res?;
        Ok(LevelRun {
            outside_s,
            cpu_s,
            out,
            bus,
            ctx_switches,
            fallback,
        })
    }

    /// Correctness of one run: the untimed reference finished with no
    /// process left blocked; each refined level is content-equivalent to
    /// it. (Refined levels legitimately leave clocked accessor and RTOS polling
    /// processes parked when the traffic ends, so only equivalence — every
    /// message delivered with the same content — is checked there.)
    fn check(
        &self,
        level: usize,
        app: usize,
        run: &LevelRun,
        untimed: &Result<LevelRun, String>,
    ) -> Option<String> {
        if level == 0 {
            return run
                .out
                .diagnosis
                .as_ref()
                .map(|d| format!("untimed app {app} blocked: {d}"));
        }
        let reference = untimed.as_ref().ok()?;
        reference
            .out
            .log
            .content_equivalent(&run.out.log)
            .err()
            .map(|e| format!("{} app {app} diverged from untimed: {e}", LEVELS[level]))
    }
}
