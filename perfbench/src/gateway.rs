//! `gateway`: simulation as a service. An in-process `Gateway` (default
//! config, two executors) serves two closed-loop `GatewayClient`s on the
//! BIN codec. About ¾ of jobs repeat a model already served (cache hits:
//! codec, frame, cache and admission only); about ¼ are fresh
//! `ModelSpec::random` models (misses: kernel-dominated). Some repeats name
//! the most recent fresh models, so the two clients share models and meet
//! in the cache's single-flight wait.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use shiptlm::prelude::*;
use shiptlm_gateway::prelude::*;
use shiptlm_kernel::causal::{CausalSpan, TRACK_HOST};
use shiptlm_ship::record::fnv1a;
use shiptlm_testkit::model::{GenConfig, ModelSpec};

use crate::report::{guarded, Ab, Tally};
use crate::seed::mix;
use crate::spans::{covered_ns, SpanStore};
use crate::stats::Samples;

/// Models pre-warmed into the cache at set-up; hits repeat these.
const HOT: u64 = 16;
/// Fresh models the shared repeats choose from.
const RECENT: usize = 4;
/// Closed-loop clients (= connections), one per core.
const CLIENTS: usize = 2;
/// Pre-warm jobs count down from here; window jobs count up from 0.
const PREWARM_ID: u64 = u64::MAX;
/// One timed slice of the mixed job stream.
const SLICE: Duration = Duration::from_millis(500);
/// The hit-only phase that follows each slice.
const HIT_PHASE: Duration = Duration::from_millis(200);

/// Hot-model statistics pinned per seed: the default seed and the held-out
/// seed (see README.md). A simulator-only change must reproduce them.
const PINNED: &[(u64, GatewayPrint)] = &[
    (
        1,
        GatewayPrint {
            sim_time_ps: 150_307_000,
            delta_cycles: 4544,
            recvs: 292,
        },
    ),
    (
        9001,
        GatewayPrint {
            sim_time_ps: 117_151_000,
            delta_cycles: 4164,
            recvs: 326,
        },
    ),
];

/// What a job was generated as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A pre-warmed model: must be served from cache.
    Hot,
    /// A model never requested before.
    Fresh,
    /// A recent fresh model, possibly still in flight on the other client.
    Shared,
}

/// What the jobs of one cache key — (model id, traced) — returned. Model
/// ids `0..HOT` are hot, `HOT..` fresh. Kept per key rather than per job so
/// the benchmark's own memory does not grow with throughput.
#[derive(Default)]
struct KeySeen {
    uncached: u64,
    /// Row digest → number of jobs that returned it.
    rows: BTreeMap<u64, u64>,
}

/// Per-layer figures from traced jobs' stage spans.
#[derive(Default)]
pub struct Stages {
    pub admission_us: Samples,
    pub queue_wait_us: Samples,
    /// Cache stage of hot hits.
    pub cache_wait_us: Samples,
    /// Self time of the exec stage of misses.
    pub exec_ms: Samples,
    /// Time the sweep spans under exec cover, per miss.
    pub sweep_ms: Samples,
    /// Client root minus server residency (codec, frames, network).
    pub client_hit_us: Samples,
    pub client_miss_ms: Samples,
    pub gateway_self_us: Samples,
}

/// Exact simulated statistics of the hot models' rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatewayPrint {
    pub sim_time_ps: u64,
    pub delta_cycles: u64,
    pub recvs: u64,
}

pub struct GatewayBench {
    seed: u64,
    gateway: Option<Gateway>,
    /// Behind a mutex only so the bench can be shared with client threads.
    clients: Mutex<Vec<GatewayClient>>,
    archs: Vec<ArchSpec>,
    hot: Vec<ModelSpec>,
    next_job: AtomicU64,
    next_fresh: AtomicU64,
    recent: Mutex<VecDeque<u64>>,
    seen: Mutex<BTreeMap<(u64, bool), KeySeen>>,
    /// Jobs completed per process CPU second, per slice.
    pub jobs_per_s: Ab,
    /// Process CPU per hot hit (hit-only phase) and per uncached job.
    pub hit_cpu_us: Ab,
    pub miss_cpu_ms: Ab,
    /// Hot-hit wall latency over loopback round-trip time, per hit-only
    /// phase (medians of both).
    pub hit_rtt_x: Ab,
    /// Per-slice percentiles of hot-hit and miss latency (wall time).
    pub hit_p50_us: Ab,
    pub hit_p99_us: Ab,
    pub miss_p50_ms: Ab,
    pub miss_p90_ms: Ab,
    /// Every latency sample of the current slice.
    hit_us: Mutex<Samples>,
    miss_ms: Mutex<Samples>,
    pub stages: Mutex<Stages>,
    /// Window jobs submitted, refused and computed (not served from cache).
    submitted: AtomicU64,
    rejected: AtomicU64,
    uncached_jobs: AtomicU64,
    /// Jobs and uncached jobs of the mixed slices (hit-only phases aside).
    mixed_jobs: u64,
    mixed_uncached: u64,
    pub print: Option<GatewayPrint>,
    pub tally: Mutex<Tally>,
}

fn rows_digest(rows: &[ReportRow]) -> u64 {
    let mut bytes = Vec::new();
    for r in rows {
        bytes.extend(to_wire(r));
    }
    fnv1a(&bytes)
}

impl GatewayBench {
    /// Starts the gateway, connects the clients and pre-warms the cache
    /// with every hot model (traced variants too for a traced run, since
    /// tracing is part of the cache key).
    pub fn setup(seed: u64, traced: bool) -> GatewayBench {
        let gateway = Gateway::start(GatewayConfig::default()).expect("start gateway");
        let mut clients: Vec<GatewayClient> = (0..CLIENTS)
            .map(|_| GatewayClient::connect(gateway.addr(), &BIN).expect("connect to gateway"))
            .collect();
        let mut bench = GatewayBench {
            seed,
            gateway: Some(gateway),
            clients: Mutex::default(),
            archs: vec![ArchSpec::plb(), ArchSpec::crossbar()],
            hot: (0..HOT).map(|i| Self::model(seed, i)).collect(),
            next_job: AtomicU64::new(0),
            next_fresh: AtomicU64::new(0),
            recent: Mutex::new(VecDeque::new()),
            seen: Mutex::default(),
            jobs_per_s: Ab::default(),
            hit_cpu_us: Ab::default(),
            miss_cpu_ms: Ab::default(),
            hit_rtt_x: Ab::default(),
            hit_p50_us: Ab::default(),
            hit_p99_us: Ab::default(),
            miss_p50_ms: Ab::default(),
            miss_p90_ms: Ab::default(),
            hit_us: Mutex::default(),
            miss_ms: Mutex::default(),
            stages: Mutex::new(Stages::default()),
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            uncached_jobs: AtomicU64::new(0),
            mixed_jobs: 0,
            mixed_uncached: 0,
            print: None,
            tally: Mutex::new(Tally::default()),
        };
        for model in 0..HOT {
            bench.submit(
                &mut clients[0],
                PREWARM_ID - model,
                model,
                Kind::Fresh,
                false,
                None,
            );
            if traced {
                bench.submit(
                    &mut clients[0],
                    PREWARM_ID - model,
                    model,
                    Kind::Fresh,
                    true,
                    None,
                );
            }
        }
        bench.clients = Mutex::new(clients);
        bench
    }

    /// Model `id`: hot ids and fresh ids draw from disjoint seed streams.
    /// Two motifs of 3–4 blocks each keep the cost of one model — and so
    /// the miss latency and the pre-warm's share of set-up — close to the
    /// same for every seed; the motif kinds, sizes and delays stay random.
    fn model(seed: u64, id: u64) -> ModelSpec {
        let cfg = GenConfig {
            motifs: (2, 2),
            blocks: (3, 4),
            ..GenConfig::default()
        };
        ModelSpec::random(mix(seed, 1 << 40 | id), &cfg)
    }

    /// The next job of the seeded stream: (job id, model, kind).
    fn next(&self, hits_only: bool) -> (u64, u64, Kind) {
        let j = self.next_job.fetch_add(1, Ordering::Relaxed);
        let h = mix(self.seed, j);
        if hits_only {
            return (j, (h >> 8) % HOT, Kind::Hot);
        }
        let fresh = || {
            let model = HOT + self.next_fresh.fetch_add(1, Ordering::Relaxed);
            let mut recent = self.recent.lock().expect("recent models poisoned");
            recent.push_back(model);
            if recent.len() > RECENT {
                recent.pop_front();
            }
            model
        };
        match h % 8 {
            0 | 1 => (j, fresh(), Kind::Fresh),
            2 => {
                let recent = self.recent.lock().expect("recent models poisoned");
                match recent.len() {
                    0 => (j, (h >> 8) % HOT, Kind::Hot),
                    n => (j, recent[((h >> 8) % n as u64) as usize], Kind::Shared),
                }
            }
            _ => (j, (h >> 8) % HOT, Kind::Hot),
        }
    }

    /// Submits one job and records its outcome.
    fn submit(
        &self,
        client: &mut GatewayClient,
        id: u64,
        model: u64,
        kind: Kind,
        traced: bool,
        store: Option<&Mutex<SpanStore>>,
    ) {
        let spec = if model < HOT {
            self.hot[model as usize].clone()
        } else {
            Self::model(self.seed, model)
        };
        let req = JobRequest {
            id,
            spec,
            archs: self.archs.clone(),
            backend: BackendChoice::De,
            want_trace: false,
            trace: None,
            want_progress: false,
        };
        let window = id <= PREWARM_ID - HOT;
        if window {
            self.submitted.fetch_add(1, Ordering::Relaxed);
        }
        let t0 = Instant::now();
        let result = if traced {
            client.run_job_traced(&req).map(|(o, t)| (o, Some(t)))
        } else {
            client.run_job(&req).map(|o| (o, None))
        };
        let secs = t0.elapsed().as_secs_f64();
        let mut tally = self.tally.lock().expect("tally poisoned");
        tally.attempted += 1;
        let (outcome, trace) = match result {
            Ok(r) => r,
            Err(e) => return tally.fail(format!("job {id} transport error: {e}")),
        };
        let cached = match outcome.status {
            JobStatus::Done { cached } => cached,
            JobStatus::Rejected { .. } => {
                self.rejected
                    .fetch_add(u64::from(window), Ordering::Relaxed);
                return tally.fail(format!("job {id} refused"));
            }
            JobStatus::Failed { message } => {
                return tally.fail(format!("job {id} failed: {message}"))
            }
        };
        drop(tally);
        if window {
            self.uncached_jobs
                .fetch_add(u64::from(!cached), Ordering::Relaxed);
            if kind == Kind::Hot && cached {
                self.hit_us
                    .lock()
                    .expect("hit samples poisoned")
                    .push(secs * 1e6);
            } else if !cached {
                self.miss_ms
                    .lock()
                    .expect("miss samples poisoned")
                    .push(secs * 1e3);
            }
        }
        {
            let mut seen = self.seen.lock().expect("seen keys poisoned");
            let key = seen.entry((model, traced)).or_default();
            key.uncached += u64::from(!cached);
            *key.rows.entry(rows_digest(&outcome.rows)).or_default() += 1;
        }
        if let (Some(trace), Some(store)) = (trace, store) {
            self.attribute(&trace.spans, kind, cached);
            let mut store = store.lock().expect("span store poisoned");
            let offset = store.ns(t0);
            store.keep(trace.spans, offset);
        }
    }

    /// Stage self times of one traced job.
    fn attribute(&self, spans: &[CausalSpan], kind: Kind, cached: bool) {
        let find = |stage: &str| {
            spans
                .iter()
                .find(|s| s.stage == stage && s.track == TRACK_HOST)
        };
        let (Some(job), Some(gw)) = (find("job"), find("gateway")) else {
            return;
        };
        let children = |id: u64| {
            spans
                .iter()
                .filter(move |s| s.parent_id == id && s.track == TRACK_HOST)
                .map(|s| (s.ts_ns, s.dur_ns))
                .collect::<Vec<_>>()
        };
        let mut st = self.stages.lock().expect("stages poisoned");
        let client_ns = job.dur_ns.saturating_sub(gw.dur_ns) as f64;
        st.gateway_self_us
            .push((gw.dur_ns - covered_ns(gw.ts_ns, gw.dur_ns, children(gw.span_id))) as f64 / 1e3);
        if let Some(s) = find("admission") {
            st.admission_us.push(s.dur_ns as f64 / 1e3);
        }
        if let Some(s) = find("queue-wait") {
            st.queue_wait_us.push(s.dur_ns as f64 / 1e3);
        }
        if cached {
            if kind == Kind::Hot {
                // Spans replayed under a hit's cache stage are the original
                // execution's, not work done now: the stage's time is all
                // its own.
                if let Some(s) = find("cache") {
                    st.cache_wait_us.push(s.dur_ns as f64 / 1e3);
                }
                st.client_hit_us.push(client_ns / 1e3);
            }
        } else if let Some(exec) = find("exec") {
            let swept = covered_ns(exec.ts_ns, exec.dur_ns, children(exec.span_id));
            st.exec_ms.push((exec.dur_ns - swept) as f64 / 1e6);
            st.sweep_ms.push(swept as f64 / 1e6);
            st.client_miss_ms.push(client_ns / 1e6);
        }
    }

    /// Both clients run the job stream closed-loop until `until`; returns
    /// (jobs, uncached jobs, process CPU seconds).
    fn phase(
        &self,
        clients: &mut [GatewayClient],
        until: Duration,
        hits_only: bool,
        store: Option<&Mutex<SpanStore>>,
    ) -> (u64, u64, f64) {
        let (jobs0, uncached0) = (
            self.next_job.load(Ordering::Relaxed),
            self.uncached_jobs.load(Ordering::Relaxed),
        );
        let cpu0 = crate::host::process_cpu_s();
        let deadline = Instant::now() + until;
        std::thread::scope(|scope| {
            for client in clients.iter_mut() {
                scope.spawn(move || {
                    while Instant::now() < deadline {
                        let (id, model, kind) = self.next(hits_only);
                        self.submit(client, id, model, kind, store.is_some(), store);
                    }
                });
            }
        });
        (
            self.next_job.load(Ordering::Relaxed) - jobs0,
            self.uncached_jobs.load(Ordering::Relaxed) - uncached0,
            crate::host::process_cpu_s() - cpu0,
        )
    }

    /// One slice of the seeded mixed stream, then a short hit-only phase,
    /// every job traced when `store` is given. Costs are taken in process
    /// CPU time: throughput and CPU per uncached job from the mixed slice
    /// (misses take ~95 % of its CPU: a hit costs under 2 % of a miss), CPU per
    /// hit from the hit-only phase. Wall latencies are recorded too, and
    /// the hit-only phase's median hit latency is divided by the median of
    /// loopback round trips timed right after it (`hit_rtt_x`).
    pub fn step(&mut self, store: Option<&Mutex<SpanStore>>) {
        let traced = store.is_some();
        let mut clients = std::mem::take(&mut *self.clients.lock().expect("clients poisoned"));
        let (jobs, uncached, cpu) = self.phase(&mut clients, SLICE, false, store);
        self.jobs_per_s.push(traced, jobs as f64 / cpu);
        self.mixed_jobs += jobs;
        self.mixed_uncached += uncached;
        if uncached > 0 {
            self.miss_cpu_ms.push(traced, cpu * 1e3 / uncached as f64);
        }
        // Wall latency percentiles are taken per slice and their median
        // reported: a burst of host steal then spoils a slice, not the tail.
        let hits = std::mem::take(&mut *self.hit_us.lock().expect("hit samples poisoned"));
        let misses = std::mem::take(&mut *self.miss_ms.lock().expect("miss samples poisoned"));
        if hits.len() > 0 {
            self.hit_p50_us.push(traced, hits.median());
            self.hit_p99_us.push(traced, hits.percentile(99.0));
        }
        if misses.len() > 0 {
            self.miss_p50_ms.push(traced, misses.median());
            self.miss_p90_ms.push(traced, misses.percentile(90.0));
        }
        let (hit_jobs, _, cpu) = self.phase(&mut clients, HIT_PHASE, true, store);
        self.hit_cpu_us.push(traced, cpu * 1e6 / hit_jobs as f64);
        let hits = std::mem::take(&mut *self.hit_us.lock().expect("hit samples poisoned"));
        let rtt = crate::host::loopback_rtt_us(CLIENTS);
        self.hit_rtt_x.push(traced, hits.median() / rtt.median());
        *self.clients.lock().expect("clients poisoned") = clients;
    }

    /// Checks every served job: rows byte-equal (by digest) to an
    /// in-process `Sweep` of the same model, and exactly one uncached job
    /// per (model, traced) cache key — the pre-warm for hot models, the
    /// first request for fresh ones.
    pub fn finish(&mut self) {
        self.shutdown();
        let seen = std::mem::take(&mut *self.seen.lock().expect("seen keys poisoned"));
        let mut models: Vec<u64> = seen.keys().map(|k| k.0).collect();
        models.dedup();
        let expected = self.expected_rows(&models);
        let mut tally = self.tally.lock().expect("tally poisoned");
        for ((model, _), key) in &seen {
            if key.uncached != 1 {
                tally.fail(format!(
                    "model {model}: {} uncached jobs, expected 1",
                    key.uncached
                ));
            }
            let want = expected.get(model).copied().flatten();
            for (&rows, &jobs) in &key.rows {
                if Some(rows) != want {
                    for _ in 0..jobs {
                        tally.fail(format!(
                            "model {model}: rows differ from an in-process sweep"
                        ));
                    }
                }
            }
        }
        let mut print = GatewayPrint {
            sim_time_ps: 0,
            delta_cycles: 0,
            recvs: 0,
        };
        for spec in &self.hot {
            if let Ok(report) = self.in_process(spec) {
                for r in report.rows() {
                    print.sim_time_ps += r.sim_time.as_ps();
                    print.delta_cycles += r.delta_cycles;
                    print.recvs += r.messages;
                }
            }
        }
        if let Some((_, pinned)) = PINNED.iter().find(|(s, _)| *s == self.seed) {
            if *pinned != print {
                tally.fail(format!(
                    "hot-model statistics {print:?} differ from the pinned {pinned:?}"
                ));
            }
        }
        self.print = Some(print);
    }

    fn shutdown(&mut self) {
        // Also runs from `Drop`, so a poisoned lock is skipped, not raised.
        if let Ok(mut clients) = self.clients.lock() {
            clients.clear();
        }
        if let Some(g) = self.gateway.take() {
            g.shutdown();
        }
    }

    /// The request's sweep run in-process, the reference for its rows; a
    /// panicking model is an error here, as the gateway makes it one too.
    fn in_process(&self, spec: &ModelSpec) -> Result<Report, String> {
        let sweep = Sweep::new(spec.to_app())
            .archs(self.archs.iter().cloned())
            .with_options(RunOptions::default());
        guarded(|| sweep.run().map_err(|e| e.to_string()))
    }

    /// Row digests of in-process sweeps of `models`, on two threads.
    fn expected_rows(&self, models: &[u64]) -> BTreeMap<u64, Option<u64>> {
        let next = AtomicU64::new(0);
        let out = Mutex::new(BTreeMap::new());
        std::thread::scope(|scope| {
            for _ in 0..CLIENTS {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                    let Some(&model) = models.get(i) else { return };
                    let spec = if model < HOT {
                        self.hot[model as usize].clone()
                    } else {
                        Self::model(self.seed, model)
                    };
                    let digest = self.in_process(&spec).ok().map(|r| {
                        let rows: Vec<ReportRow> =
                            r.rows().iter().map(ReportRow::from_metrics).collect();
                        rows_digest(&rows)
                    });
                    out.lock()
                        .expect("expected rows poisoned")
                        .insert(model, digest);
                });
            }
        });
        out.into_inner().expect("expected rows poisoned")
    }

    /// Share of the mixed stream's jobs served from cache.
    pub fn hit_ratio(&self) -> f64 {
        1.0 - self.mixed_uncached as f64 / self.mixed_jobs as f64
    }

    /// Share of window jobs refused by admission (`Rejected`).
    pub fn retry_share(&self) -> f64 {
        self.rejected.load(Ordering::Relaxed) as f64 / self.submitted.load(Ordering::Relaxed) as f64
    }
}

impl Drop for GatewayBench {
    fn drop(&mut self) {
        self.shutdown();
    }
}
