//! Single-layer probes of the traced run: each times one public operation
//! of one crate in isolation, in several batches, and reports the median
//! per-operation cost.

use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use shiptlm::prelude::*;
use shiptlm_gateway::prelude::*;
use shiptlm_testkit::model::{GenConfig, ModelSpec};

use crate::report::Metrics;
use crate::stats::Samples;

/// Wall time each probe gets; it always runs at least `MIN_BATCHES`.
const PROBE_BUDGET: Duration = Duration::from_millis(200);
const MIN_BATCHES: usize = 5;

/// Median over batches of (batch time ÷ `ops`), scaled by `scale`.
fn probe(ops: u64, scale: f64, mut batch: impl FnMut()) -> f64 {
    let mut per_op = Samples::default();
    let start = Instant::now();
    while per_op.len() < MIN_BATCHES || start.elapsed() < PROBE_BUDGET {
        let t0 = Instant::now();
        batch();
        per_op.push(t0.elapsed().as_secs_f64() * scale / ops as f64);
    }
    per_op.median()
}

const US: f64 = 1e6;

fn delta_pingpong(rounds: u32) {
    let sim = Simulation::new();
    let (ping, pong) = (sim.event("ping"), sim.event("pong"));
    let (ping2, pong2) = (ping.clone(), pong.clone());
    sim.spawn_thread("a", move |ctx| {
        for _ in 0..rounds {
            pong.notify_delta();
            ctx.wait(&ping);
        }
    });
    sim.spawn_thread("b", move |ctx| {
        for _ in 0..rounds {
            ctx.wait(&pong2);
            ping2.notify_delta();
        }
    });
    sim.run();
}

fn timed_waits(waits: u32) {
    let sim = Simulation::new();
    sim.spawn_thread("w", move |ctx| {
        for _ in 0..waits {
            ctx.wait_for(SimDur::ns(10));
        }
    });
    sim.run();
}

fn spawn_teardown() {
    let sim = Simulation::new();
    for i in 0..8 {
        sim.spawn_thread(&format!("t{i}"), |_ctx| {});
    }
    sim.run();
}

fn pairs(
    a: ShipPort,
    b: ShipPort,
    n: u32,
) -> (impl FnOnce(&mut ThreadCtx), impl FnOnce(&mut ThreadCtx)) {
    let msg = vec![0xA5u8; 256];
    (
        move |ctx: &mut ThreadCtx| {
            for _ in 0..n {
                a.send(ctx, &msg).unwrap();
            }
        },
        move |ctx: &mut ThreadCtx| {
            for _ in 0..n {
                let got: Vec<u8> = b.recv(ctx).unwrap();
                black_box(got);
            }
        },
    )
}

fn rendezvous_de(n: u32) {
    let sim = Simulation::new();
    let ch = ShipChannel::new(&sim.handle(), "c", ShipConfig::default());
    let (a, b) = ch.ports("tx", "rx");
    let (tx, rx) = pairs(a, b, n);
    sim.spawn_thread("tx", tx);
    sim.spawn_thread("rx", rx);
    sim.run();
}

fn rendezvous_direct(n: u32) {
    let sim = shiptlm_kernel::direct::DirectSim::new();
    let ch = DirectChannel::new(sim.core(), "c", ShipConfig::default()).expect("untimed channel");
    let (a, b) = ch.ports("tx", "rx");
    let (tx, rx) = pairs(a, b, n);
    sim.spawn_thread("tx", tx);
    sim.spawn_thread("rx", rx);
    sim.run();
}

/// Runs every probe and adds its metric.
pub fn probe_all(m: &mut Metrics) {
    m.put(
        "kernel.delta_pingpong_us",
        probe(500, US, || delta_pingpong(500)),
        "us",
    );
    m.put(
        "kernel.timed_wait_us",
        probe(1000, US, || timed_waits(1000)),
        "us",
    );
    m.put(
        "kernel.spawn_teardown_us",
        probe(1, US, spawn_teardown),
        "us",
    );
    m.put(
        "ship.rendezvous_de_us",
        probe(500, US, || rendezvous_de(500)),
        "us",
    );
    m.put(
        "ship.rendezvous_direct_us",
        probe(500, US, || rendezvous_direct(500)),
        "us",
    );
    let block = vec![0x3Cu8; 256];
    m.put(
        "ship.wire_roundtrip_256_ns",
        probe(10_000, 1e9, || {
            for _ in 0..10_000 {
                let wire = to_wire(black_box(&block));
                black_box(from_wire::<Vec<u8>>(&wire).expect("round trip"));
            }
        }),
        "ns",
    );

    let req = JobRequest {
        id: 7,
        spec: ModelSpec::random(7, &GenConfig::default()),
        archs: vec![ArchSpec::plb(), ArchSpec::crossbar()],
        backend: BackendChoice::De,
        want_trace: false,
        trace: None,
        want_progress: false,
    };
    let row = Reply::Row {
        id: 7,
        row: ReportRow {
            label: ArchSpec::plb().label(),
            sim_time_ps: 123_456_789,
            messages: 42,
            bytes: 4096,
            delta_cycles: 1234,
        },
    };
    let enc = |n: u32| {
        for _ in 0..n {
            black_box(BIN.encode_request(black_box(&req)).expect("encode request"));
            black_box(BIN.encode_reply(black_box(&row)).expect("encode reply"));
        }
    };
    m.put(
        "gateway.codec_encode_us",
        probe(1000, US, || enc(1000)),
        "us",
    );
    let (req_b, row_b) = (
        BIN.encode_request(&req).expect("encode request"),
        BIN.encode_reply(&row).expect("encode reply"),
    );
    let dec = |n: u32| {
        for _ in 0..n {
            black_box(
                BIN.decode_request(black_box(&req_b))
                    .expect("decode request"),
            );
            black_box(BIN.decode_reply(black_box(&row_b)).expect("decode reply"));
        }
    };
    m.put(
        "gateway.codec_decode_us",
        probe(1000, US, || dec(1000)),
        "us",
    );

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let mut tx = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
    let (mut rx, _) = listener.accept().expect("accept");
    tx.set_nodelay(true).ok();
    let frame = vec![0x5Au8; 1024];
    m.put(
        "gateway.frame_rt_us",
        probe(200, US, || {
            for _ in 0..200 {
                write_frame(&mut tx, &frame).expect("write frame");
                black_box(read_frame(&mut rx, 4096).expect("read frame"));
            }
        }),
        "us",
    );

    let cache = ResultCache::new();
    let key = req.cache_key();
    let output = JobOutput {
        rows: vec![ReportRow {
            label: "plb".into(),
            sim_time_ps: 1,
            messages: 1,
            bytes: 1,
            delta_cycles: 1,
        }],
        trace: Vec::new(),
        spans: Vec::new(),
        txn_dropped: 0,
    };
    let _ = cache.get_or_compute(key.clone(), || Ok(output));
    m.put(
        "gateway.cache_hit_us",
        probe(1000, US, || {
            for _ in 0..1000 {
                let (r, outcome) =
                    cache.get_or_compute(key.clone(), || unreachable!("key is resident"));
                assert_eq!(outcome, CacheOutcome::Hit);
                black_box(r).expect("cached output");
            }
        }),
        "us",
    );
}
