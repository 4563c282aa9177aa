//! Direct-execution backend: equivalence with the DE kernel on qualifying
//! models, and fallback coverage — every disqualifying construct must push
//! `Backend::Auto` onto the DE path with a log-able reason, and the fallback
//! run must be indistinguishable from an explicit DE run.

use shiptlm::prelude::*;

fn de() -> RunOptions {
    RunOptions::default()
}

fn direct() -> RunOptions {
    RunOptions::default().with_backend(Backend::Direct)
}

fn auto() -> RunOptions {
    RunOptions::default().with_backend(Backend::Auto)
}

type NamedApp = (&'static str, fn() -> AppSpec);

#[test]
fn direct_matches_de_on_qualifying_models() {
    let apps: Vec<NamedApp> = vec![
        ("pipeline", || workload::pipeline(5, 12, 128, SimDur::ZERO)),
        // The E1 pipeline shape the direct/DE comparisons time.
        ("pipeline_e1", || {
            workload::pipeline(6, 64, 256, SimDur::ZERO)
        }),
        ("streams", || workload::parallel_streams(3, 10, 96)),
        ("rpc", || workload::rpc(2, 8, 64, SimDur::ZERO)),
        ("hotspot", || workload::hotspot(3, 4, 64)),
    ];
    for (name, app) in apps {
        let base = run_component_assembly_with(&app(), &de()).expect(name);
        let fast = run_component_assembly_with(&app(), &direct()).expect(name);
        assert_eq!(fast.backend.requested, Backend::Direct, "{name}");
        assert_eq!(fast.backend.used, Backend::Direct, "{name}");
        assert_eq!(fast.backend.fallback, None, "{name}");
        assert_eq!(fast.output.reason, StopReason::Starved, "{name}");
        assert!(fast.output.diagnosis.is_none(), "{name}");
        assert_eq!(fast.output.delta_cycles, 0, "{name}");
        assert_eq!(fast.roles, base.roles, "{name}: detected roles differ");
        base.output
            .log
            .content_equivalent(&fast.output.log)
            .unwrap_or_else(|e| panic!("{name}: direct diverged from DE: {e}"));
    }
}

#[test]
fn auto_uses_direct_when_the_model_qualifies() {
    let app = workload::pipeline(4, 8, 64, SimDur::ZERO);
    let run = run_component_assembly_with(&app, &auto()).expect("auto run");
    assert_eq!(run.backend.requested, Backend::Auto);
    assert_eq!(run.backend.used, Backend::Direct);
    assert_eq!(run.backend.fallback, None);
}

#[test]
fn auto_falls_back_on_timed_wait() {
    let app = || workload::pipeline(4, 8, 64, SimDur::ns(10));
    let run = run_component_assembly_with(&app(), &auto()).expect("auto run");
    assert_eq!(run.backend.requested, Backend::Auto);
    assert_eq!(run.backend.used, Backend::De);
    let reason = run.backend.fallback.expect("fallback reason");
    assert!(
        reason.contains("timed wait"),
        "reason should name the construct: {reason}"
    );

    // The fallback run is indistinguishable from an explicit DE run: the
    // DE kernel is deterministic, so the record sequence matches exactly.
    let base = run_component_assembly_with(&app(), &de()).expect("de run");
    assert_eq!(run.output.log.to_vec(), base.output.log.to_vec());
    assert_eq!(run.output.sim_time, base.output.sim_time);
    assert_eq!(run.output.delta_cycles, base.output.delta_cycles);
    assert_eq!(run.roles, base.roles);
}

#[test]
fn auto_falls_back_on_signal_update() {
    let mut app = AppSpec::new("signals");
    app.add_pe("writer", || {
        Box::new(|ctx, ports: Vec<ShipPort>| {
            let sig = ctx.sim().signal("level", 0u32);
            sig.write(1);
            ports[0].send(ctx, &7u32).unwrap();
        })
    });
    app.add_pe("reader", || {
        Box::new(|ctx, ports: Vec<ShipPort>| {
            let _: u32 = ports[0].recv(ctx).unwrap();
        })
    });
    app.connect("link", "writer", "reader");

    let run = run_component_assembly_with(&app, &auto()).expect("auto run");
    assert_eq!(run.backend.used, Backend::De);
    let reason = run.backend.fallback.expect("fallback reason");
    assert!(
        reason.contains("signal"),
        "reason should name the construct: {reason}"
    );
    assert!(reason.contains("writer"), "reason should name the process");
}

#[test]
fn auto_falls_back_on_notify_after() {
    let mut app = AppSpec::new("timers");
    app.add_pe("timer", || {
        Box::new(|ctx, ports: Vec<ShipPort>| {
            let ev = ctx.sim().event("tick");
            ev.notify_after(SimDur::ns(5));
            ports[0].send(ctx, &1u8).unwrap();
        })
    });
    app.add_pe("sink", || {
        Box::new(|ctx, ports: Vec<ShipPort>| {
            let _: u8 = ports[0].recv(ctx).unwrap();
        })
    });
    app.connect("t", "timer", "sink");

    let run = run_component_assembly_with(&app, &auto()).expect("auto run");
    assert_eq!(run.backend.used, Backend::De);
    let reason = run.backend.fallback.expect("fallback reason");
    assert!(
        reason.contains("notify_after"),
        "reason should name the construct: {reason}"
    );
}

#[test]
fn forced_direct_fails_loudly_on_disqualified_models() {
    let app = workload::pipeline(4, 8, 64, SimDur::ns(10));
    let err = run_component_assembly_with(&app, &direct()).expect_err("must disqualify");
    let MapError::Backend { reason } = &err else {
        panic!("expected MapError::Backend, got {err:?}");
    };
    assert!(reason.contains("timed wait"), "bad reason: {reason}");
    let msg = err.to_string();
    assert!(
        msg.contains("disqualified from direct execution"),
        "bad message: {msg}"
    );
}

#[test]
fn direct_reports_ship_timeouts_like_de() {
    // A sink that never drains: the source's send must time out with the
    // same error shape on both backends.
    let stuck = |opts: &RunOptions| {
        let mut app = AppSpec::new("stuck");
        app.add_pe("source", || {
            Box::new(|ctx, ports: Vec<ShipPort>| {
                let mut sent = 0u32;
                loop {
                    if ports[0].send(ctx, &sent).is_err() {
                        break;
                    }
                    sent += 1;
                }
                assert!(sent >= 16, "capacity worth of sends should succeed");
            })
        });
        app.add_pe("sink", || {
            Box::new(|ctx, ports: Vec<ShipPort>| {
                // Observe the channel as slave, then stop draining.
                let _: u32 = ports[0].recv(ctx).unwrap();
            })
        });
        app.connect("full", "source", "sink");
        run_component_assembly_with(&app, opts).expect("run completes via timeout")
    };
    let base = stuck(&de().with_ship_timeout(SimDur::us(1)));
    let fast = stuck(&direct().with_ship_timeout(SimDur::us(1)));
    assert_eq!(fast.backend.used, Backend::Direct);
    base.output
        .log
        .content_equivalent(&fast.output.log)
        .expect("timeout paths record the same successful operations");
}

#[test]
fn direct_deadlock_is_diagnosed() {
    // Two PEs each waiting to receive first: a rendezvous deadlock. Without
    // a ship timeout the direct core must detect the stall and produce a
    // diagnosis naming both processes instead of hanging.
    let mut app = AppSpec::new("deadlock");
    for (me, _other) in [("left", "right"), ("right", "left")] {
        app.add_pe(me, || {
            Box::new(move |ctx, ports: Vec<ShipPort>| {
                let got: Result<u32, _> = ports[0].recv(ctx);
                // Unblocked only if the peer sends, which it never does.
                let _ = got;
            })
        });
    }
    app.connect("lr", "left", "right");

    let err = run_component_assembly_with(&app, &direct());
    // Both ends only ever recv → roles cannot be derived; what matters is
    // that we got *here* (the run terminated) rather than hanging, and the
    // role error mirrors the DE backend's.
    let de_err = run_component_assembly_with(&app, &de());
    match (err, de_err) {
        (Err(a), Err(b)) => assert_eq!(a, b, "direct and DE disagree on the failure"),
        (a, b) => panic!("expected matching role errors, got {a:?} / {b:?}"),
    }
}

#[test]
fn sweep_report_is_identical_across_backends() {
    // Sweep::new defaults to Backend::Auto; the report it produces must be
    // byte-identical to one computed with the DE backend forced, because
    // mapped rows are DE either way and the untimed run only contributes
    // roles (plus the optional baseline row, which reports no timing).
    let app = || workload::parallel_streams(2, 6, 64);
    let archs = || vec![ArchSpec::plb(), ArchSpec::crossbar()];
    let auto_report = Sweep::new(app()).archs(archs()).run().expect("auto sweep");
    let de_report = Sweep::new(app())
        .archs(archs())
        .with_options(RunOptions::default())
        .run()
        .expect("de sweep");
    assert_eq!(auto_report.to_string(), de_report.to_string());
}
