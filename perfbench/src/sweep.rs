//! `sweep`: architecture exploration on the worker pool. A tiny app, so
//! per-candidate `Simulation` spawn/teardown, mapper elaboration, CAM
//! construction and pool chunk claiming dominate. Three kinds of sweep
//! over the same candidates take turns: unpruned on the pool, pruned
//! (`PruneConfig::sim_time()`) and unpruned serially.
//!
//! The pool's sweep gives the parallel efficiency; the two serial sweeps
//! give the CPU rates. Pruned sweeps run serially because in a parallel
//! sweep the pruned set depends on completion order, so the work done —
//! and the rate — would vary from sweep to sweep; serially it is fixed per
//! seed. Unpruned candidates are costed serially because the CPU time of
//! two sweep workers busy at once on a two-core VM moves with where the
//! hypervisor places the two vCPUs (see README.md).

use std::collections::BTreeMap;
use std::time::Instant;

use shiptlm::prelude::*;
use shiptlm_kernel::causal::{SpanSink, TraceCtx, TRACK_HOST};
use shiptlm_ship::record::fnv1a;

use crate::report::{guarded, Ab, Tally};
use crate::seed::mix;
use crate::spans::{covered_ns, SpanStore};
use crate::stats::Samples;

/// Candidates per sweep: a stride sample of the 3024-point
/// `ArchGrid::interconnect_families()` grid, which visits every topology
/// family in equal measure. 256 points keep the pruned share close to the
/// same value for every seed.
const SAMPLE: usize = 256;
/// Concurrent candidates per sweep (the host has two cores).
pub const THREADS: usize = 2;

/// Report digests pinned per seed: the default seed and the held-out seed
/// (see README.md). A simulator-only change must reproduce them.
const PINNED: &[(u64, u64)] = &[(1, 0xc24f_cc92_ed36_efd9), (9001, 0x5487_b88d_a60e_196f)];

/// Families `cam.host_us_per_txn.*` is reported for, keyed by the
/// topology prefix of `ArchSpec::label`.
pub const FAMILIES: [&str; 5] = ["plb", "opb", "xbar", "ahb", "noc"];

fn family(label: &str) -> &'static str {
    let bus = label.split('/').next().unwrap_or("");
    FAMILIES
        .into_iter()
        .find(|f| bus.starts_with(f))
        .unwrap_or("other")
}

/// The kinds of sweep, run in turn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Unpruned, `run_parallel(THREADS)`: `pool_busy_share`.
    Pool,
    /// Pruned, serially: `pruned_points_per_s`.
    Pruned,
    /// Unpruned, serially: `candidates_per_s`.
    Serial,
}

impl Kind {
    fn next(self) -> Kind {
        match self {
            Kind::Pool => Kind::Pruned,
            Kind::Pruned => Kind::Serial,
            Kind::Serial => Kind::Pool,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Pool => "pool",
            Kind::Pruned => "pruned",
            Kind::Serial => "serial",
        }
    }
}

/// Runs `sweep` on `threads` (1 = serially).
fn run(sweep: Sweep, threads: usize) -> Result<Report, String> {
    guarded(|| sweep.run_parallel(threads).map_err(|e| e.to_string()))
}

/// Deterministic digest of a report: every simulated figure of every row
/// (host wall-clock excluded).
fn digest(report: &Report) -> u64 {
    let mut s = String::new();
    for r in report.rows() {
        let (txns, bytes) = r.bus.as_ref().map_or((0, 0), |b| (b.transactions, b.bytes));
        s.push_str(&format!(
            "{}|{}|{}|{}|{}|{}|{}\n",
            r.label,
            r.sim_time.as_ps(),
            r.messages,
            r.bytes,
            r.delta_cycles,
            txns,
            bytes
        ));
    }
    fnv1a(s.as_bytes())
}

/// Digest of the Pareto front under the pruning objective (simulated time).
fn front(report: &Report) -> u64 {
    let rows = report.rows();
    let idx = pareto_front(rows, |r| [r.sim_time.as_ps() as f64]);
    let mut labels: Vec<String> = idx
        .into_iter()
        .map(|i| format!("{}|{}", rows[i].label, rows[i].sim_time.as_ps()))
        .collect();
    labels.sort();
    fnv1a(labels.join("\n").as_bytes())
}

/// Exact simulated statistics of the sweep's candidates.
#[derive(Debug, Clone, Copy)]
pub struct SweepPrint {
    pub digest: u64,
    pub sim_time_ps: u64,
    pub delta_cycles: u64,
    pub bus_txns: u64,
    pub recvs: u64,
    pub pruned: u64,
}

pub struct SweepBench {
    seed: u64,
    app: AppSpec,
    archs: Vec<ArchSpec>,
    next: Kind,
    /// Unpruned candidates per process CPU second, serial sweeps.
    pub cand_per_s: Ab,
    /// Grid points resolved per process CPU second in pruned sweeps.
    pub pruned_pts_per_s: Ab,
    /// Wall ms of one sweep on the pool.
    pub sweep_ms: Ab,
    /// Σ candidate host time (`RunMetrics::wall_seconds`) ÷ (threads ×
    /// wall time) of one sweep on the pool.
    pub pool_share: Ab,
    digests: Vec<u64>,
    fronts: Vec<u64>,
    pruned_counts: Vec<u64>,
    // Traced sweeps on the pool only:
    pub role_detect_ms: Samples,
    pub candidate_ms: Samples,
    pub busy_share: Samples,
    pub chunk_gap_us: Samples,
    pub self_ms: Samples,
    /// Σ candidate span time ÷ threads per sweep, in ms.
    pub lane_ms: Samples,
    /// Per family: (Σ candidate span µs, Σ bus transactions).
    pub family_cost: BTreeMap<&'static str, (f64, u64)>,
    pub print: Option<SweepPrint>,
    pub tally: Tally,
}

impl SweepBench {
    pub fn setup(seed: u64) -> SweepBench {
        let grid = ArchGrid::interconnect_families().generate();
        let stride = grid.len() / SAMPLE;
        let offset = (mix(seed, 7) % stride as u64) as usize;
        let archs = (0..SAMPLE)
            .map(|i| grid[offset + i * stride].clone())
            .collect();
        SweepBench {
            seed,
            app: workload::pipeline(3, 4, 64, SimDur::ZERO),
            archs,
            next: Kind::Pool,
            cand_per_s: Ab::default(),
            pruned_pts_per_s: Ab::default(),
            sweep_ms: Ab::default(),
            pool_share: Ab::default(),
            digests: Vec::new(),
            fronts: Vec::new(),
            pruned_counts: Vec::new(),
            role_detect_ms: Samples::default(),
            candidate_ms: Samples::default(),
            busy_share: Samples::default(),
            chunk_gap_us: Samples::default(),
            self_ms: Samples::default(),
            lane_ms: Samples::default(),
            family_cost: BTreeMap::new(),
            print: None,
            tally: Tally::default(),
        }
    }

    fn sweep(&self, pruned: bool) -> Sweep {
        let s = Sweep::new(self.app.clone()).archs(self.archs.iter().cloned());
        if pruned {
            s.with_pruning(PruneConfig::sim_time())
        } else {
            s
        }
    }

    /// One sweep of the next kind.
    pub fn step(&mut self, spans: Option<&mut SpanStore>) {
        let kind = self.next;
        self.next = kind.next();
        let traced = spans.is_some();
        self.tally.attempted += 1;
        let root = SpanStore::open(TraceCtx::mint(), "sweep", kind.name());
        let sink = SpanSink::new();
        let mut sweep = self.sweep(kind == Kind::Pruned);
        if traced {
            sweep = sweep.with_causal(root.ctx(), sink.clone());
        }
        let threads = if kind == Kind::Pool { THREADS } else { 1 };
        let (t0, cpu0) = (Instant::now(), crate::host::process_cpu_s());
        let result = run(sweep, threads);
        let secs = t0.elapsed().as_secs_f64();
        let cpu = crate::host::process_cpu_s() - cpu0;
        let report = match result {
            Ok(r) => r,
            Err(e) => return self.tally.fail(format!("sweep failed: {e}")),
        };
        let points = self.archs.len() as f64;
        match kind {
            Kind::Pruned => {
                self.pruned_pts_per_s.push(traced, points / cpu);
                self.pruned_counts.push(report.pruned().len() as u64);
                self.fronts.push(front(&report));
            }
            Kind::Serial => {
                self.cand_per_s.push(traced, points / cpu);
                self.digests.push(digest(&report));
            }
            Kind::Pool => {
                let candidate_s: f64 = report.rows().iter().map(|r| r.wall_seconds).sum();
                self.pool_share
                    .push(traced, candidate_s / (THREADS as f64 * secs));
                self.sweep_ms.push(traced, secs * 1e3);
                self.digests.push(digest(&report));
            }
        }
        if let Some(store) = spans {
            let offset = store.ns(root.t0);
            let program = sink.take();
            if kind == Kind::Pool {
                self.attribute(&report, &program, root.span.span_id, secs);
            }
            store.close(root);
            store.keep(program, offset);
        }
    }

    /// Per-layer figures of one traced sweep on the pool from its spans.
    fn attribute(
        &mut self,
        report: &Report,
        spans: &[shiptlm_kernel::causal::CausalSpan],
        root: u64,
        secs: f64,
    ) {
        let txns: BTreeMap<&str, u64> = report
            .rows()
            .iter()
            .map(|r| {
                (
                    r.label.as_str(),
                    r.bus.as_ref().map_or(0, |b| b.transactions),
                )
            })
            .collect();
        let mut busy_ns = 0u64;
        let mut chunks = Vec::new();
        for s in spans.iter().filter(|s| s.track == TRACK_HOST) {
            match s.stage.as_str() {
                "role-detect" => self.role_detect_ms.push(s.dur_ns as f64 / 1e6),
                "chunk" => chunks.push((s.ts_ns, s.dur_ns)),
                "candidate" if !s.args.iter().any(|(k, _)| k == "pruned") => {
                    busy_ns += s.dur_ns;
                    self.candidate_ms.push(s.dur_ns as f64 / 1e6);
                    let fam = self.family_cost.entry(family(&s.name)).or_default();
                    fam.0 += s.dur_ns as f64 / 1e3;
                    fam.1 += txns.get(s.name.as_str()).copied().unwrap_or(0);
                }
                _ => {}
            }
        }
        let wall_ns = secs * 1e9;
        self.busy_share
            .push(busy_ns as f64 / (THREADS as f64 * wall_ns));
        self.lane_ms.push(busy_ns as f64 / THREADS as f64 / 1e6);
        let roots: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.parent_id == root && s.track == TRACK_HOST && s.stage != "candidate")
            .map(|s| (s.ts_ns, s.dur_ns))
            .collect();
        let wall = wall_ns as u64;
        self.self_ms
            .push((wall - covered_ns(0, wall, roots).min(wall)) as f64 / 1e6);
        // Chunks carry no worker id: lay them onto THREADS lanes greedily
        // (each onto the lane that went idle last before it started) and
        // take the idle gap in front of every chunk after a lane's first.
        chunks.sort_unstable();
        let mut lanes: Vec<Option<u64>> = vec![None; THREADS];
        for (ts, dur) in chunks {
            let lane = (0..THREADS)
                .filter(|&l| lanes[l].is_none_or(|end| end <= ts))
                .max_by_key(|&l| lanes[l])
                .unwrap_or_else(|| (0..THREADS).min_by_key(|&l| lanes[l]).expect("lanes"));
            if let Some(end) = lanes[lane] {
                self.chunk_gap_us.push(ts.saturating_sub(end) as f64 / 1e3);
            }
            lanes[lane] = Some(ts + dur);
        }
    }

    /// Serial reference sweeps: every measured unpruned report must match
    /// the reference, every pruned sweep its pruned count and the unpruned
    /// front, and the reference the digest pinned for this seed.
    pub fn finish(&mut self) {
        let full = match run(self.sweep(false), 1) {
            Ok(r) => r,
            Err(e) => return self.tally.fail(format!("reference sweep failed: {e}")),
        };
        let pruned = match run(self.sweep(true), 1) {
            Ok(r) => r,
            Err(e) => {
                return self
                    .tally
                    .fail(format!("reference pruned sweep failed: {e}"))
            }
        };
        let (want, want_front) = (digest(&full), front(&full));
        if front(&pruned) != want_front {
            self.tally
                .fail("serial pruned front differs from the unpruned front".into());
        }
        if let Some((_, pinned)) = PINNED.iter().find(|(s, _)| *s == self.seed) {
            if *pinned != want {
                self.tally.fail(format!(
                    "report digest {want:016x} differs from the pinned {pinned:016x}"
                ));
            }
        }
        for d in std::mem::take(&mut self.digests) {
            if d != want {
                self.tally
                    .fail(format!("parallel report digest {d:016x} != {want:016x}"));
            }
        }
        for f in std::mem::take(&mut self.fronts) {
            if f != want_front {
                self.tally
                    .fail("pruned front differs from the unpruned front".into());
            }
        }
        let want_pruned = pruned.pruned().len() as u64;
        for n in std::mem::take(&mut self.pruned_counts) {
            if n != want_pruned {
                self.tally.fail(format!(
                    "pruned {n} candidates, the reference {want_pruned}"
                ));
            }
        }
        let rows = full.rows();
        self.print = Some(SweepPrint {
            digest: want,
            sim_time_ps: rows.iter().map(|r| r.sim_time.as_ps()).sum(),
            delta_cycles: rows.iter().map(|r| r.delta_cycles).sum(),
            bus_txns: rows
                .iter()
                .filter_map(|r| r.bus.as_ref())
                .map(|b| b.transactions)
                .sum(),
            recvs: rows.iter().map(|r| r.messages).sum(),
            pruned: want_pruned,
        });
    }

    pub fn points(&self) -> usize {
        self.archs.len()
    }
}
