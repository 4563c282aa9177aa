//! Kernel internals: event arena, process table and the scheduler loop.
//!
//! The scheduler follows SystemC semantics:
//!
//! 1. **Evaluate** — run every runnable process until the runnable set drains
//!    (immediate notifications extend the current evaluate phase).
//! 2. **Update** — apply channel update requests ([`Signal`](crate::signal::Signal)
//!    writes become visible here).
//! 3. **Delta notify** — promote delta notifications; if any process woke,
//!    start the next delta cycle at the same simulated time.
//! 4. **Time advance** — otherwise pop the earliest timed notifications and
//!    advance [`SimTime`].
//!
//! Thread processes are real OS threads, but exactly one thread holds the
//! *baton* — the right to run the scheduler or a process body — at any
//! instant, so the simulation is fully deterministic. `run` starts the
//! scheduler on the calling thread. When a thread process is due, the
//! baton holder posts a [`Resume`] into that process's [`WakeSlot`],
//! unparks its thread and parks itself. A process that yields (or
//! terminates) runs the scheduler inline on its own thread — methods,
//! updates, delta and time-advance phases included — until the next thread
//! process is due: it resumes that one and parks, or simply returns when
//! the next process is itself. A switch between two threads therefore
//! costs one OS wake, and a re-dispatch of the same thread or a method
//! costs none. Whoever ends the run hands the outcome (a [`RunResult`] or
//! a panic payload) to the thread blocked in `run`, which returns it or
//! re-raises the panic there.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

use crate::liveness::{
    BlockedProcess, DeadlockReport, EndpointId, Registry, WaitDesc, WaitForGraph,
};
use crate::metrics::{
    HostProfiler, MetricsShared, PHASE_ADVANCE, PHASE_DELTA, PHASE_EVALUATE, PHASE_UPDATE,
};
use crate::time::{SimDur, SimTime};
use crate::trace::VcdTracer;
use crate::txn::TxnShared;

/// Identifies an event inside the kernel arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub(crate) usize);

/// Identifies a process (thread or method) inside the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessId(pub(crate) usize);

/// Why [`Simulation::run`](crate::sim::Simulation::run) returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// No future activity exists: every process is blocked and the timed
    /// queue is empty.
    Starved,
    /// `stop()` was called from a process or handle.
    Stopped,
    /// The requested time limit was reached.
    TimeLimit,
    /// The wall-clock watchdog expired while the simulation was still
    /// making (possibly unbounded) progress. Diagnose with
    /// [`Simulation::diagnose`](crate::sim::Simulation::diagnose).
    Watchdog,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StopReason::Starved => "event starvation",
            StopReason::Stopped => "explicit stop",
            StopReason::TimeLimit => "time limit",
            StopReason::Watchdog => "wall-clock watchdog",
        };
        f.write_str(s)
    }
}

/// Outcome of a scheduler run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Simulated time when the run ended.
    pub time: SimTime,
    /// Why the run ended.
    pub reason: StopReason,
}

/// What a parked process thread is woken with.
pub(crate) enum Resume {
    /// Run on; carries the event that woke the process, if any.
    Go(Option<EventId>),
    /// The simulation is being dropped: unwind the body.
    Kill,
}

/// The one-message mailbox a process thread parks on. The baton holder
/// stores a [`Resume`] and unparks the thread; the thread re-checks the
/// slot after every wake-up, so early or spurious unparks are harmless.
#[derive(Default)]
pub(crate) struct WakeSlot(Mutex<Option<Resume>>);

impl WakeSlot {
    fn post(&self, msg: Resume, thread: &Thread) {
        *self.0.lock().unwrap_or_else(|e| e.into_inner()) = Some(msg);
        thread.unpark();
    }

    /// Parks the calling thread until a message is posted, and takes it.
    pub(crate) fn wait(&self) -> Resume {
        loop {
            let msg = self.0.lock().unwrap_or_else(|e| e.into_inner()).take();
            if let Some(msg) = msg {
                return msg;
            }
            std::thread::park();
        }
    }
}

/// Where the scheduler stopped.
enum Next {
    /// A thread process is due; resume it with the wake cause.
    Thread(ProcessId, Option<EventId>),
    /// The run is over: its result, or the payload of the panic that
    /// ended it.
    Done(std::thread::Result<RunResult>),
}

/// Marker panic payload used to unwind a process thread when the simulation
/// is dropped. Caught by the process wrapper, never observed by user code.
pub(crate) struct KillToken;

struct EventRec {
    /// Interned: handed out as `Arc` clones, never re-allocated per query.
    name: Arc<str>,
    /// Threads dynamically waiting on this event.
    waiters: Vec<ProcessId>,
    /// Methods statically sensitive to this event.
    static_sensitive: Vec<ProcessId>,
    /// Pending delta notification?
    delta_pending: bool,
    /// Earliest pending timed notification, if any.
    timed_at: Option<SimTime>,
}

enum ProcKind {
    Thread(ThreadLink),
    Method(Option<MethodFn>),
}

pub(crate) type MethodFn = Box<dyn FnMut(&mut MethodApi) + Send>;

struct ThreadLink {
    slot: Arc<WakeSlot>,
    /// `None` once teardown has taken it to join the thread.
    join: Option<JoinHandle<()>>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PState {
    Ready,
    Waiting,
    Terminated,
}

struct ProcRec {
    /// Interned: handed out as `Arc` clones, never re-allocated per query.
    name: Arc<str>,
    kind: ProcKind,
    state: PState,
    /// Events this process is dynamically registered on (for `wait_any`).
    waiting_on: Vec<EventId>,
    wake_cause: Option<EventId>,
    /// Private timer event backing `wait_for` / `wait_delta`.
    timer: EventId,
}

/// Min-heap entry for timed notifications; `seq` keeps FIFO order among
/// identical timestamps.
type TimedEntry = Reverse<(SimTime, u64, EventId)>;

/// A deferred update callback, run in the update phase (SystemC
/// `request_update` / `update` pattern).
pub(crate) type UpdateFn = Box<dyn FnOnce(&KernelShared) + Send>;

pub(crate) struct Inner {
    now: SimTime,
    delta_count: u64,
    started: bool,
    stop_requested: bool,
    events: Vec<EventRec>,
    processes: Vec<ProcRec>,
    runnable: VecDeque<ProcessId>,
    /// Events with a pending delta notification (promoted in phase 3).
    delta_queue: Vec<EventId>,
    timed: BinaryHeap<TimedEntry>,
    timed_seq: u64,
    update_requests: Vec<UpdateFn>,
    // --- State of the `run` call in progress, read by whichever thread
    // holds the baton.
    limit: Option<SimTime>,
    deadline: Option<Instant>,
    /// Swapped with `delta_queue` each delta cycle so both allocations are
    /// reused for the whole run.
    delta_scratch: Vec<EventId>,
    /// The thread blocked in `run` once it handed the baton on, and the
    /// outcome it waits for.
    caller: Option<Thread>,
    outcome: Option<std::thread::Result<RunResult>>,
    /// Profiler probes left open across thread dispatches.
    eval_probe: Option<Instant>,
    dispatch_probe: Option<(ProcessId, Instant)>,
}

/// Kernel state shared between the scheduler, process contexts and channels.
pub(crate) struct KernelShared {
    pub(crate) inner: Mutex<Inner>,
    pub(crate) tracer: Mutex<Option<VcdTracer>>,
    /// Liveness edge metadata (endpoints, event annotations).
    pub(crate) liveness: Mutex<Registry>,
    /// Wall-clock budget for a single `run` call, if configured.
    pub(crate) watchdog: Mutex<Option<Duration>>,
    /// Transaction-level trace recorder (disabled by default).
    pub(crate) txn: TxnShared,
    /// Time-resolved metrics registry (disabled by default).
    pub(crate) metrics: MetricsShared,
    /// Host wall-clock profiler (disabled by default).
    pub(crate) profiler: HostProfiler,
    /// Set when this kernel is the dormant companion of a direct-execution
    /// run: constructs the direct backend cannot honour (timed
    /// notifications, signal updates, dynamic processes) disqualify the
    /// run instead of silently queueing into a kernel that never runs.
    pub(crate) direct_guard: OnceLock<std::sync::Weak<crate::direct::DirectCore>>,
}

impl KernelShared {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(KernelShared {
            inner: Mutex::new(Inner {
                now: SimTime::ZERO,
                delta_count: 0,
                started: false,
                stop_requested: false,
                events: Vec::new(),
                processes: Vec::new(),
                runnable: VecDeque::new(),
                delta_queue: Vec::new(),
                timed: BinaryHeap::new(),
                timed_seq: 0,
                update_requests: Vec::new(),
                limit: None,
                deadline: None,
                delta_scratch: Vec::new(),
                caller: None,
                outcome: None,
                eval_probe: None,
                dispatch_probe: None,
            }),
            tracer: Mutex::new(None),
            liveness: Mutex::new(Registry::default()),
            watchdog: Mutex::new(None),
            txn: TxnShared::new(),
            metrics: MetricsShared::new(),
            profiler: HostProfiler::new(),
            direct_guard: OnceLock::new(),
        })
    }

    /// Aborts the surrounding direct-execution run when this kernel is a
    /// direct run's dormant companion (no-op otherwise).
    fn disqualify_if_direct(&self, construct: crate::direct::Construct) {
        if let Some(weak) = self.direct_guard.get() {
            if let Some(core) = weak.upgrade() {
                core.disqualify(construct);
            }
        }
    }

    pub(crate) fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn now(&self) -> SimTime {
        self.lock().now
    }

    pub(crate) fn delta_count(&self) -> u64 {
        self.lock().delta_count
    }

    pub(crate) fn request_stop(&self) {
        self.disqualify_if_direct(crate::direct::Construct::ExplicitStop);
        self.lock().stop_requested = true;
    }

    pub(crate) fn new_event(&self, name: &str) -> EventId {
        let mut g = self.lock();
        let id = EventId(g.events.len());
        g.events.push(EventRec {
            name: Arc::from(name),
            waiters: Vec::new(),
            static_sensitive: Vec::new(),
            delta_pending: false,
            timed_at: None,
        });
        id
    }

    pub(crate) fn event_name(&self, id: EventId) -> Arc<str> {
        Arc::clone(&self.lock().events[id.0].name)
    }

    /// Immediate notification: wakes waiters into the *current* evaluate
    /// phase. Outside a run this degrades to a delta notification.
    pub(crate) fn notify_now(&self, id: EventId) {
        let mut g = self.lock();
        if !g.started {
            Self::mark_delta(&mut g, id);
            return;
        }
        Self::fire(&mut g, id);
    }

    pub(crate) fn notify_delta(&self, id: EventId) {
        let mut g = self.lock();
        Self::mark_delta(&mut g, id);
    }

    pub(crate) fn notify_after(&self, id: EventId, d: SimDur) {
        if d.is_zero() {
            self.notify_delta(id);
            return;
        }
        self.disqualify_if_direct(crate::direct::Construct::NotifyAfter);
        let mut g = self.lock();
        Self::mark_timed(&mut g, id, d);
    }

    /// Cancels any pending (delta or timed) notification.
    pub(crate) fn cancel(&self, id: EventId) {
        let mut g = self.lock();
        g.events[id.0].delta_pending = false;
        g.events[id.0].timed_at = None;
        // Stale heap entries are skipped during time advance.
        g.delta_queue.retain(|e| *e != id);
    }

    fn mark_delta(g: &mut Inner, id: EventId) {
        if !g.events[id.0].delta_pending {
            g.events[id.0].delta_pending = true;
            g.delta_queue.push(id);
        }
    }

    /// Schedules a timed notification of `id` after a non-zero `d`.
    fn mark_timed(g: &mut Inner, id: EventId, d: SimDur) {
        // Saturate instead of panicking: SimTime::MAX is the documented
        // "infinite horizon", so an overflowing notification simply lands
        // there (and never fires within any finite run).
        let at = g.now.checked_add(d).unwrap_or(SimTime::MAX);
        // SystemC keeps a single pending notification per event; an earlier
        // one overrides a later one.
        match g.events[id.0].timed_at {
            Some(t) if t <= at => return,
            _ => g.events[id.0].timed_at = Some(at),
        }
        let seq = g.timed_seq;
        g.timed_seq += 1;
        g.timed.push(Reverse((at, seq, id)));
    }

    /// Fires `id`: wakes dynamic waiters and triggers static-sensitive
    /// methods, moving them into the runnable set.
    ///
    /// Allocation-free on the hot path: both process lists are moved out,
    /// iterated, and moved back so their capacity is reused across fires.
    /// This is sound because `wake` only touches process state, `waiters`
    /// lists and the runnable queue — never `static_sensitive` — and the
    /// kernel lock is held throughout, so nothing else can repopulate the
    /// vectors mid-loop.
    fn fire(g: &mut Inner, id: EventId) {
        let mut waiters = std::mem::take(&mut g.events[id.0].waiters);
        for pid in waiters.drain(..) {
            Self::wake(g, pid, Some(id));
        }
        // `wake` may have re-registered nothing on this event (it only
        // deregisters), so the slot is empty and takes the capacity back.
        let slot = &mut g.events[id.0].waiters;
        if slot.is_empty() {
            *slot = waiters;
        }

        let methods = std::mem::take(&mut g.events[id.0].static_sensitive);
        for &pid in &methods {
            Self::wake(g, pid, Some(id));
        }
        let slot = &mut g.events[id.0].static_sensitive;
        if slot.is_empty() {
            *slot = methods;
        } else {
            // A method registered itself mid-fire (not possible today, but
            // cheap to stay correct about): keep both sets.
            let appended = std::mem::replace(slot, methods);
            slot.extend(appended);
        }
    }

    fn wake(g: &mut Inner, pid: ProcessId, cause: Option<EventId>) {
        let p = &mut g.processes[pid.0];
        if p.state != PState::Waiting {
            return;
        }
        p.state = PState::Ready;
        p.wake_cause = cause;
        let mut waiting = std::mem::take(&mut p.waiting_on);
        // Deregister from every other event of a `wait_any` group.
        for eid in waiting.drain(..) {
            g.events[eid.0].waiters.retain(|w| *w != pid);
        }
        // Hand the allocation back for the process's next wait.
        g.processes[pid.0].waiting_on = waiting;
        g.runnable.push_back(pid);
    }

    /// Registers a dynamic wait of `pid` on each event in `ids`.
    pub(crate) fn register_wait(&self, pid: ProcessId, ids: &[EventId]) {
        Self::register(&mut self.lock(), pid, ids);
    }

    fn register(g: &mut Inner, pid: ProcessId, ids: &[EventId]) {
        g.processes[pid.0].state = PState::Waiting;
        g.processes[pid.0].wake_cause = None;
        for id in ids {
            g.processes[pid.0].waiting_on.push(*id);
            g.events[id.0].waiters.push(pid);
        }
    }

    /// Arms the private timer of `pid` to fire after `d` (next delta when
    /// `d` is zero) and registers the wait on it, under one lock.
    pub(crate) fn wait_timer(&self, pid: ProcessId, d: SimDur) {
        if !d.is_zero() {
            self.disqualify_if_direct(crate::direct::Construct::NotifyAfter);
        }
        let mut g = self.lock();
        let timer = g.processes[pid.0].timer;
        if d.is_zero() {
            Self::mark_delta(&mut g, timer);
        } else {
            Self::mark_timed(&mut g, timer, d);
        }
        Self::register(&mut g, pid, &[timer]);
    }

    pub(crate) fn request_update(&self, f: UpdateFn) {
        self.disqualify_if_direct(crate::direct::Construct::SignalUpdate);
        self.lock().update_requests.push(f);
    }

    pub(crate) fn spawn_thread(
        self: &Arc<Self>,
        name: &str,
        body: Box<dyn FnOnce(&mut crate::process::ThreadCtx) + Send>,
    ) -> ProcessId {
        self.disqualify_if_direct(crate::direct::Construct::DynamicProcess);
        let timer = self.new_event(&format!("{name}.timer"));
        let slot = Arc::new(WakeSlot::default());
        let mut g = self.lock();
        let pid = ProcessId(g.processes.len());
        let kernel = Arc::clone(self);
        let thread_slot = Arc::clone(&slot);
        // Spawned under the lock so the handle is in the table before any
        // dispatch can look for it; the new thread only parks on its slot.
        let join = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                // Park until the first dispatch before running the body.
                if let Resume::Kill = thread_slot.wait() {
                    return;
                }
                let mut ctx = crate::process::ThreadCtx::new(Arc::clone(&kernel), pid, thread_slot);
                let result = panic::catch_unwind(AssertUnwindSafe(|| body(&mut ctx)));
                let panicked = match result {
                    Ok(()) => None,
                    // The simulation is tearing down and nobody is
                    // listening: exit quietly.
                    Err(payload) if payload.is::<KillToken>() => return,
                    Err(payload) => {
                        // `&payload` would coerce the Box itself to
                        // `&dyn Any` and never downcast; deref first.
                        let msg = panic_message(&*payload);
                        let name = kernel.process_name(pid);
                        let payload: Box<dyn std::any::Any + Send> =
                            Box::new(format!("process '{name}' panicked: {msg}"));
                        Some(payload)
                    }
                };
                kernel.exit_process(pid, panicked);
            })
            .expect("failed to spawn process thread");
        g.processes.push(ProcRec {
            name: Arc::from(name),
            kind: ProcKind::Thread(ThreadLink {
                slot,
                join: Some(join),
            }),
            // Newly spawned processes start runnable (SystemC default
            // initialization); during a run they join the current
            // evaluate phase.
            state: PState::Ready,
            waiting_on: Vec::new(),
            wake_cause: None,
            timer,
        });
        g.runnable.push_back(pid);
        pid
    }

    pub(crate) fn spawn_method(
        self: &Arc<Self>,
        name: &str,
        sensitivity: &[EventId],
        initialize: bool,
        f: MethodFn,
    ) -> ProcessId {
        self.disqualify_if_direct(crate::direct::Construct::DynamicProcess);
        let timer = self.new_event(&format!("{name}.timer"));
        let mut g = self.lock();
        let pid = ProcessId(g.processes.len());
        g.processes.push(ProcRec {
            name: Arc::from(name),
            kind: ProcKind::Method(Some(f)),
            state: if initialize {
                PState::Ready
            } else {
                PState::Waiting
            },
            waiting_on: Vec::new(),
            wake_cause: None,
            timer,
        });
        for eid in sensitivity {
            g.events[eid.0].static_sensitive.push(pid);
        }
        if initialize {
            g.runnable.push_back(pid);
        }
        pid
    }

    pub(crate) fn process_timer(&self, pid: ProcessId) -> EventId {
        self.lock().processes[pid.0].timer
    }

    pub(crate) fn process_name(&self, pid: ProcessId) -> Arc<str> {
        Arc::clone(&self.lock().processes[pid.0].name)
    }

    /// Runs the scheduler until `limit`, stop, starvation or watchdog
    /// expiry. The calling thread schedules until the first thread process
    /// is due, then sleeps until whichever thread ends the run hands it the
    /// outcome; a panic that ended the run is re-raised here.
    pub(crate) fn run(self: &Arc<Self>, limit: Option<SimTime>) -> RunResult {
        let deadline = self
            .watchdog
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map(|budget| Instant::now() + budget);
        {
            let mut g = self.lock();
            g.started = true;
            g.stop_requested = false;
            g.limit = limit;
            g.deadline = deadline;
            g.eval_probe = self.profiler.start();
        }
        let outcome = match self.schedule() {
            Next::Done(outcome) => outcome,
            Next::Thread(pid, cause) => {
                self.lock().caller = Some(std::thread::current());
                self.resume(pid, cause);
                loop {
                    let outcome = self.lock().outcome.take();
                    if let Some(outcome) = outcome {
                        break outcome;
                    }
                    std::thread::park();
                }
            }
        };
        outcome.unwrap_or_else(|payload| panic::resume_unwind(payload))
    }

    /// Called on a process thread right after its process registered a
    /// wait: passes the baton on and returns the wake cause once the
    /// process is resumed. Unwinds with [`KillToken`] on teardown.
    pub(crate) fn yield_process(
        self: &Arc<Self>,
        pid: ProcessId,
        slot: &WakeSlot,
    ) -> Option<EventId> {
        match self.schedule() {
            Next::Thread(next, cause) if next == pid => return cause,
            Next::Thread(next, cause) => self.resume(next, cause),
            Next::Done(outcome) => self.finish(outcome),
        }
        match slot.wait() {
            Resume::Go(cause) => cause,
            // `resume_unwind` skips the panic hook, so teardown is quiet.
            Resume::Kill => panic::resume_unwind(Box::new(KillToken)),
        }
    }

    /// Called on a process thread whose body returned (`panicked` is
    /// `None`) or panicked: passes the baton on, or ends the run with the
    /// panic.
    fn exit_process(
        self: &Arc<Self>,
        pid: ProcessId,
        panicked: Option<Box<dyn std::any::Any + Send>>,
    ) {
        self.lock().processes[pid.0].state = PState::Terminated;
        let next = match panicked {
            Some(payload) => Next::Done(Err(payload)),
            None => self.schedule(),
        };
        match next {
            Next::Thread(next, cause) => self.resume(next, cause),
            Next::Done(outcome) => self.finish(outcome),
        }
    }

    /// Wakes thread process `pid` with `cause`.
    fn resume(&self, pid: ProcessId, cause: Option<EventId>) {
        let (slot, thread) = match &self.lock().processes[pid.0].kind {
            ProcKind::Thread(ThreadLink {
                slot,
                join: Some(join),
            }) => (Arc::clone(slot), join.thread().clone()),
            _ => unreachable!("only live thread processes are resumed"),
        };
        slot.post(Resume::Go(cause), &thread);
    }

    /// Ends the run from a process thread: hands `outcome` to the thread
    /// blocked in `run` and wakes it.
    fn finish(&self, outcome: std::thread::Result<RunResult>) {
        let caller = {
            let mut g = self.lock();
            g.outcome = Some(outcome);
            g.caller.take()
        };
        caller
            .expect("a run handed to a process thread has a waiting caller")
            .unpark();
    }

    /// Runs the scheduler from the current point of the evaluate phase until
    /// a thread process is due or the run ends. Executed by whichever thread
    /// holds the baton. A panic in a method, an update callback or the
    /// kernel itself ends the run with that panic's payload.
    fn schedule(self: &Arc<Self>) -> Next {
        panic::catch_unwind(AssertUnwindSafe(|| self.schedule_phases()))
            .unwrap_or_else(|payload| Next::Done(Err(payload)))
    }

    /// The scheduler loop proper. The kernel lock is held throughout except
    /// around method bodies and update callbacks, which may take it.
    fn schedule_phases(self: &Arc<Self>) -> Next {
        let mut g = self.lock();
        if let Some((pid, t0)) = g.dispatch_probe.take() {
            let name = Arc::clone(&g.processes[pid.0].name);
            self.profiler.record_process(name, t0.elapsed());
        }
        loop {
            // --- Phase 1: evaluate (re-entered after every thread dispatch)
            loop {
                if g.deadline.is_some_and(|dl| Instant::now() >= dl) {
                    return Next::Done(Ok(RunResult {
                        time: g.now,
                        reason: StopReason::Watchdog,
                    }));
                }
                let Some(pid) = g.runnable.pop_front() else {
                    break;
                };
                let p = &mut g.processes[pid.0];
                if p.state == PState::Terminated {
                    continue;
                }
                let cause = p.wake_cause.take();
                // The process is "waiting" unless it re-registers; a thread
                // always registers a new wait before yielding.
                p.state = PState::Waiting;
                let f = match &mut p.kind {
                    ProcKind::Thread(_) => {
                        g.dispatch_probe = self.profiler.start().map(|t0| (pid, t0));
                        return Next::Thread(pid, cause);
                    }
                    ProcKind::Method(slot) => slot.take(),
                };
                let Some(mut f) = f else { continue };
                drop(g);
                let probe = self.profiler.start();
                f(&mut MethodApi {
                    kernel: Arc::clone(self),
                    cause,
                });
                g = self.lock();
                let p = &mut g.processes[pid.0];
                if let ProcKind::Method(slot) = &mut p.kind {
                    *slot = Some(f);
                }
                if let Some(t0) = probe {
                    let name = Arc::clone(&p.name);
                    self.profiler.record_process(name, t0.elapsed());
                }
            }
            let probe = g.eval_probe.take();
            self.profiler.record_phase(PHASE_EVALUATE, probe);

            // --- Phase 2: update ------------------------------------------
            let probe = self.profiler.start();
            if !g.update_requests.is_empty() {
                let updates = std::mem::take(&mut g.update_requests);
                drop(g);
                for u in updates {
                    u(self);
                }
                g = self.lock();
            }
            self.profiler.record_phase(PHASE_UPDATE, probe);

            // --- Phase 3: delta notification ------------------------------
            let probe = self.profiler.start();
            let mut batch = std::mem::take(&mut g.delta_scratch);
            std::mem::swap(&mut g.delta_queue, &mut batch);
            for id in batch.drain(..) {
                if g.events[id.0].delta_pending {
                    g.events[id.0].delta_pending = false;
                    Self::fire(&mut g, id);
                }
            }
            g.delta_scratch = batch;
            let woke = !g.runnable.is_empty();
            self.profiler.record_phase(PHASE_DELTA, probe);
            if woke {
                g.delta_count += 1;
                g.eval_probe = self.profiler.start();
                continue;
            }

            if g.stop_requested {
                return Next::Done(Ok(RunResult {
                    time: g.now,
                    reason: StopReason::Stopped,
                }));
            }

            // --- Phase 4: time advance ------------------------------------
            // Early returns (starvation / time limit) skip the probe close;
            // a final partial phase is noise for a profile anyway.
            let probe = self.profiler.start();
            let target = loop {
                match g.timed.peek() {
                    None => {
                        return Next::Done(Ok(RunResult {
                            time: g.now,
                            reason: StopReason::Starved,
                        }))
                    }
                    Some(Reverse((t, _, id))) => {
                        // Skip entries whose notification was cancelled or
                        // overridden by an earlier one.
                        if g.events[id.0].timed_at == Some(*t) {
                            break *t;
                        }
                        let _ = g.timed.pop();
                    }
                }
            };
            if let Some(lim) = g.limit {
                if target > lim {
                    g.now = lim;
                    return Next::Done(Ok(RunResult {
                        time: lim,
                        reason: StopReason::TimeLimit,
                    }));
                }
            }
            g.now = target;
            g.delta_count += 1;
            while let Some(Reverse((t, _, id))) = g.timed.peek().copied() {
                if t > target {
                    break;
                }
                let _ = g.timed.pop();
                if g.events[id.0].timed_at == Some(t) {
                    g.events[id.0].timed_at = None;
                    Self::fire(&mut g, id);
                }
            }
            self.profiler.record_phase(PHASE_ADVANCE, probe);
            g.eval_probe = self.profiler.start();
        }
    }

    /// Kills and joins every live process thread and drops every method
    /// and pending update. Called on simulation drop.
    ///
    /// Each thread is parked on its wake slot, either before its first
    /// dispatch or inside a yield; `Resume::Kill` unwinds it via the
    /// `KillToken` panic payload. Method closures and update callbacks
    /// often own an `Event` or `Signal`, i.e. an `Arc` of this kernel:
    /// left in the table they would keep the kernel alive forever.
    pub(crate) fn teardown(&self) {
        let mut threads = Vec::new();
        let mut methods = Vec::new();
        let updates = {
            let mut g = self.lock();
            for p in &mut g.processes {
                p.state = PState::Terminated;
                match &mut p.kind {
                    ProcKind::Thread(link) => {
                        if let Some(join) = link.join.take() {
                            threads.push((Arc::clone(&link.slot), join));
                        }
                    }
                    ProcKind::Method(f) => methods.extend(f.take()),
                }
            }
            std::mem::take(&mut g.update_requests)
        };
        // Dropped outside the lock: a closure may hold the last handle of
        // an object whose drop takes it.
        drop(methods);
        drop(updates);
        // Post every kill before joining any thread, so sibling processes
        // are all unblocked before we wait on any of them.
        for (slot, join) in &threads {
            slot.post(Resume::Kill, join.thread());
        }
        for (_, join) in threads {
            let _ = join.join();
        }
    }

    // --- Liveness: edge metadata and diagnosis ---------------------------

    /// Registers a blocking endpoint (one side of a channel / adapter).
    pub(crate) fn register_endpoint(&self, resource: &str, side: &str) -> EndpointId {
        self.liveness
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .register_endpoint(resource, side)
    }

    /// Records the process currently using `ep`.
    pub(crate) fn endpoint_user(&self, ep: EndpointId, pid: ProcessId) {
        let mut g = self.liveness.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(e) = g.endpoints.get_mut(ep.0) {
            e.last_user = Some(pid);
        }
    }

    /// Records the *name* of the process expected to use `ep` before any
    /// call happens (resolved against the process table during diagnosis).
    pub(crate) fn endpoint_owner_hint(&self, ep: EndpointId, name: &str) {
        let mut g = self.liveness.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(e) = g.endpoints.get_mut(ep.0) {
            e.owner_hint = Some(name.to_string());
        }
    }

    /// Attaches live detail text (e.g. pending reply counts) to `ep`.
    pub(crate) fn endpoint_note(&self, ep: EndpointId, note: Option<String>) {
        let mut g = self.liveness.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(e) = g.endpoints.get_mut(ep.0) {
            e.note = note;
        }
    }

    /// Annotates an event with the meaning of waiting on it and, when
    /// known, the endpoint responsible for firing it.
    pub(crate) fn annotate_wait(
        &self,
        event: EventId,
        description: &str,
        notifier: Option<EndpointId>,
    ) {
        let mut g = self.liveness.lock().unwrap_or_else(|e| e.into_inner());
        g.edges.insert(
            event,
            crate::liveness::EdgeRec {
                description: description.to_string(),
                notifier,
            },
        );
    }

    /// Snapshots every blocked process, builds the wait-for graph from the
    /// registered edge metadata and runs cycle detection.
    pub(crate) fn diagnose(&self) -> DeadlockReport {
        let g = self.lock();
        let reg = self.liveness.lock().unwrap_or_else(|e| e.into_inner());
        let mut blocked = Vec::new();
        let mut graph = WaitForGraph::new();
        for (i, p) in g.processes.iter().enumerate() {
            if p.state != PState::Waiting || p.waiting_on.is_empty() {
                continue;
            }
            let pid = ProcessId(i);
            let mut waits = Vec::new();
            for eid in &p.waiting_on {
                let edge = reg.edges.get(eid);
                let notifier_pid = edge
                    .and_then(|e| e.notifier)
                    .and_then(|ep| reg.endpoints.get(ep.0))
                    .and_then(|e| {
                        // Prefer the observed user; fall back to resolving
                        // the owner name against the process table (the
                        // owner may deadlock before its first call).
                        e.last_user.or_else(|| {
                            e.owner_hint.as_ref().and_then(|name| {
                                g.processes
                                    .iter()
                                    .position(|p| p.name.as_ref() == name.as_str())
                                    .map(ProcessId)
                            })
                        })
                    });
                if let Some(q) = notifier_pid {
                    graph.add_edge(pid, q);
                }
                waits.push(WaitDesc {
                    event: g.events[eid.0].name.to_string(),
                    description: edge.map(|e| e.description.clone()),
                    notifier: edge
                        .and_then(|e| e.notifier)
                        .and_then(|ep| reg.describe_endpoint(ep)),
                    notifier_pid,
                });
            }
            blocked.push(BlockedProcess {
                pid,
                name: p.name.to_string(),
                waits,
            });
        }
        let name_of = |pid: ProcessId| g.processes[pid.0].name.to_string();
        let cycles = graph
            .cycles()
            .into_iter()
            .map(|c| c.into_iter().map(name_of).collect())
            .collect();
        DeadlockReport {
            time: g.now,
            blocked,
            cycles,
        }
    }

    /// Sets (or clears) the wall-clock watchdog budget for subsequent runs.
    pub(crate) fn set_watchdog(&self, budget: Option<Duration>) {
        *self.watchdog.lock().unwrap_or_else(|e| e.into_inner()) = budget;
    }
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

/// API handed to method-process callbacks.
pub struct MethodApi {
    kernel: Arc<KernelShared>,
    cause: Option<EventId>,
}

impl MethodApi {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.kernel.now()
    }

    /// The event that triggered this activation, if any (none on the
    /// initialization call).
    pub fn cause(&self) -> Option<EventId> {
        self.cause
    }
}

impl fmt::Debug for MethodApi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MethodApi")
            .field("now", &self.now())
            .field("cause", &self.cause)
            .finish()
    }
}
