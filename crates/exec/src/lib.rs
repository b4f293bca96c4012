//! # nexus-exec
//!
//! A std-only async executor for the NEXUS scale harness (DESIGN.md §14).
//!
//! An OS thread per simulated client caps a rig at tens of clients. This
//! crate multiplexes *tens of thousands* of client state machines over the one
//! thread that calls [`Executor::run_until_idle`], using nothing but
//! `std`: hand-rolled `Future` polling — no tokio, per the hermetic
//! zero-dependency policy — with
//!
//! - a **run queue** of waker-schedulable tasks ([`Executor::spawn`]),
//!   drained in FIFO order by the driver thread;
//! - a **virtual-time reactor**: one ordered map of wakeups keyed by
//!   `(deadline, seq)` in [`SimClock`] nanoseconds. When every task is
//!   parked the driver advances the shared clock straight to the earliest
//!   deadline and wakes that batch — simulated time never waits for
//!   wall-clock sleeps;
//! - **issue-time ordering** ([`Timer::schedule_at`]): a client parks at
//!   its lane's local time before each operation, so cross-client
//!   operations execute in global issue-time order and in-flight RPCs
//!   genuinely overlap in simulated time (`nexus_core::async_fs` parks
//!   every fs operation this way).
//!
//! ## Determinism
//!
//! Execution is fully deterministic: the reactor fires `(deadline,
//! seq)`-ordered batches into a FIFO queue that one thread drains, so a
//! multi-client run replays bit for bit from its seed and an
//! async-interleaved run equals the serial oracle event-for-event (pinned
//! by the `exec_differential` suite in `nexus-workloads`). A waker may
//! still fire on another OS thread; it only queues the task, which the
//! driver polls.
//!
//! A task's waker is its task handle: wakers are stable across polls, so
//! futures in this crate register once and never re-register on spurious
//! polls.

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::future::Future;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

use nexus_storage::SimClock;
use nexus_sync::Mutex;

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

struct Task {
    /// In the run queue. Cleared just before each poll, so a wakeup during
    /// the poll queues the task again, once; set, a wakeup coalesces. A
    /// waker sets it with a release swap and the driver clears it with an
    /// acquire swap, so what a coalesced waker's thread wrote before it
    /// woke the task is visible to the poll that follows.
    queued: AtomicBool,
    future: Mutex<Option<BoxFuture>>,
    shared: Arc<Shared>,
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        Shared::schedule(self);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        Shared::schedule(self.clone());
    }
}

/// One parked wakeup: the task to wake, and the flag its [`Sleep`] reads
/// once the driver has fired it.
type Wakeup = (Waker, Arc<AtomicBool>);

/// Wakeups by `(deadline, seq)`: the map's order is the firing order.
type Wakeups = BTreeMap<(u64, u64), Wakeup>;

/// The virtual-time reactor. `seq` counts registrations, so equal
/// deadlines fire in registration order.
#[derive(Default)]
struct Reactor {
    timers: Wakeups,
    next_seq: u64,
    /// The deadline of the last batch fired. A wakeup registered at or
    /// below it (a `schedule_at` whose lane is behind the shared clock)
    /// fires with the next batch, in key order with the rest of it.
    fired_to: u64,
}

impl Reactor {
    fn register(&mut self, deadline: u64, wakeup: Wakeup) {
        self.timers.insert((deadline, self.next_seq), wakeup);
        self.next_seq += 1;
    }

    /// Takes the next batch: every wakeup at or below the earliest
    /// deadline or `fired_to`, whichever is later, in `(deadline, seq)`
    /// order. Returns the earliest deadline with it; `None` when nothing
    /// is registered.
    fn fire(&mut self) -> Option<(u64, Wakeups)> {
        let (&(deadline, _), _) = self.timers.first_key_value()?;
        self.fired_to = self.fired_to.max(deadline);
        let later = match self.fired_to.checked_add(1) {
            Some(after) => self.timers.split_off(&(after, 0)),
            None => Wakeups::new(),
        };
        Some((deadline, std::mem::replace(&mut self.timers, later)))
    }
}

struct Shared {
    runnable: Mutex<VecDeque<Arc<Task>>>,
    clock: SimClock,
    reactor: Mutex<Reactor>,
    /// First panic payload captured from a task; re-raised (with the
    /// original payload) on the driver when `run_until_idle` finishes.
    panics: Mutex<Vec<Box<dyn Any + Send>>>,
}

impl Shared {
    fn schedule(task: Arc<Task>) {
        if !task.queued.swap(true, Ordering::AcqRel) {
            let shared = task.shared.clone();
            shared.runnable.lock().push_back(task);
        }
    }

    /// The next runnable task; the queue's lock is released on return.
    fn pop(&self) -> Option<Arc<Task>> {
        self.runnable.lock().pop_front()
    }

    /// Polls one task on the driver.
    fn run_task(&self, task: Arc<Task>) {
        task.queued.swap(false, Ordering::AcqRel);
        let Some(mut fut) = task.future.lock().take() else {
            // Completed task woken by a stale timer entry: nothing to do.
            return;
        };
        let waker = Waker::from(task.clone());
        let mut cx = Context::from_waker(&waker);
        match catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx))) {
            Ok(Poll::Ready(())) => {}
            Ok(Poll::Pending) => *task.future.lock() = Some(fut),
            Err(payload) => self.panics.lock().push(payload),
        }
    }
}

/// Result slot shared between a spawned task and its [`JoinHandle`].
struct JoinSlot<T> {
    result: Option<T>,
    waker: Option<Waker>,
}

/// Handle to a spawned task's output.
///
/// Await it from another task, or call [`JoinHandle::try_take`] after
/// [`Executor::run_until_idle`] returns.
pub struct JoinHandle<T> {
    slot: Arc<Mutex<JoinSlot<T>>>,
}

impl<T> JoinHandle<T> {
    /// The task's output, if it has completed.
    pub fn try_take(&self) -> Option<T> {
        self.slot.lock().result.take()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut guard = self.slot.lock();
        match guard.result.take() {
            Some(out) => Poll::Ready(out),
            None => {
                guard.waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

/// The executor. See the crate docs for the model.
pub struct Executor {
    shared: Arc<Shared>,
}

impl Executor {
    /// An executor over `clock` whose tasks are all polled on the thread
    /// that calls [`Executor::run_until_idle`].
    pub fn single(clock: SimClock) -> Executor {
        Executor {
            shared: Arc::new(Shared {
                runnable: Mutex::new(VecDeque::new()),
                clock,
                reactor: Mutex::new(Reactor::default()),
                panics: Mutex::new(Vec::new()),
            }),
        }
    }

    /// [`Executor::single`], for callers that still pass a thread count.
    /// Every task runs on the driver thread, so any count but 1 is a
    /// caller's mistake and panics.
    pub fn new(clock: SimClock, threads: usize) -> Executor {
        assert_eq!(threads, 1, "the executor polls every task on the driver thread");
        Executor::single(clock)
    }

    /// The virtual clock driving the reactor.
    pub fn clock(&self) -> &SimClock {
        &self.shared.clock
    }

    /// A handle for creating timer futures; cheap to clone into tasks.
    pub fn timer(&self) -> Timer {
        Timer { shared: self.shared.clone() }
    }

    /// Spawns a future onto the run queue.
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let slot = Arc::new(Mutex::new(JoinSlot { result: None, waker: None }));
        let inner = slot.clone();
        let wrapped = async move {
            let out = fut.await;
            let joiner = {
                let mut guard = inner.lock();
                guard.result = Some(out);
                guard.waker.take()
            };
            if let Some(w) = joiner {
                w.wake();
            }
        };
        let task = Arc::new(Task {
            queued: AtomicBool::new(false),
            future: Mutex::new(Some(Box::pin(wrapped))),
            shared: self.shared.clone(),
        });
        Shared::schedule(task);
        JoinHandle { slot }
    }

    /// Drives the executor until no task is runnable and no timer is
    /// pending, advancing the virtual clock to each earliest deadline as
    /// the run queue quiesces. Returns the clock's final reading.
    ///
    /// A task that parks on something other than a timer or a join (i.e. a
    /// deadlock) is abandoned when the reactor drains. If any task panicked,
    /// the first captured payload is re-raised here — after all other
    /// tasks have run.
    pub fn run_until_idle(&self) -> Duration {
        loop {
            while let Some(task) = self.shared.pop() {
                self.shared.run_task(task);
            }
            // Quiescent: all tasks parked. Jump virtual time to the next
            // deadline and wake that batch, earliest-(deadline, seq) first.
            let Some((deadline, batch)) = self.shared.reactor.lock().fire() else {
                break;
            };
            self.shared.clock.advance_to(Duration::from_nanos(deadline));
            for (waker, fired) in batch.into_values() {
                fired.store(true, Ordering::Release);
                waker.wake();
            }
        }
        let payload = self.shared.panics.lock().drain(..).next();
        if let Some(p) = payload {
            resume_unwind(p);
        }
        self.shared.clock.now()
    }
}

/// Factory for timer futures on an executor's reactor.
#[derive(Clone)]
pub struct Timer {
    shared: Arc<Shared>,
}

impl Timer {
    /// Current virtual time.
    pub fn now(&self) -> Duration {
        self.shared.clock.now()
    }

    /// The shared clock behind this timer.
    pub fn clock(&self) -> &SimClock {
        &self.shared.clock
    }

    /// Completes when virtual time reaches `deadline`. Resolves
    /// immediately (no registration) if the clock is already there.
    pub fn sleep_until(&self, deadline: Duration) -> Sleep {
        self.make(deadline, false)
    }

    /// Completes after `d` more virtual time.
    pub fn sleep(&self, d: Duration) -> Sleep {
        self.sleep_until(self.now() + d)
    }

    /// Parks in the reactor at `at` and yields **even if already due**.
    ///
    /// This is the ordering primitive of the simulation: the shared clock
    /// is the max over all lanes, so "now" may have run past a slower
    /// client's issue time. `schedule_at(lane.local_now())` re-enters the
    /// task through the reactor, which fires in `(deadline, seq)` order —
    /// cross-client operations therefore execute in global issue-time
    /// order no matter how far individual lanes have drifted apart.
    pub fn schedule_at(&self, at: Duration) -> Sleep {
        self.make(at, true)
    }

    fn make(&self, deadline: Duration, always_yield: bool) -> Sleep {
        Sleep {
            shared: self.shared.clone(),
            deadline_nanos: u64::try_from(deadline.as_nanos()).unwrap_or(u64::MAX),
            fired: Arc::new(AtomicBool::new(false)),
            registered: false,
            always_yield,
        }
    }
}

/// Future returned by [`Timer::sleep`], [`Timer::sleep_until`], and
/// [`Timer::schedule_at`].
pub struct Sleep {
    shared: Arc<Shared>,
    deadline_nanos: u64,
    fired: Arc<AtomicBool>,
    registered: bool,
    always_yield: bool,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.fired.load(Ordering::Acquire) {
            return Poll::Ready(());
        }
        if !self.registered {
            if !self.always_yield
                && self.shared.clock.now() >= Duration::from_nanos(self.deadline_nanos)
            {
                return Poll::Ready(());
            }
            self.registered = true;
            let wakeup = (cx.waker().clone(), self.fired.clone());
            self.shared.reactor.lock().register(self.deadline_nanos, wakeup);
        }
        // Registered and not fired: a spurious poll. Wakers are stable on
        // this executor (the waker IS the task), so no re-registration.
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_sync::Mutex;

    /// A waker that does nothing — the reactor tests inspect batches
    /// directly.
    fn noop_waker() -> Waker {
        struct Noop;
        impl Wake for Noop {
            fn wake(self: Arc<Self>) {}
        }
        Waker::from(Arc::new(Noop))
    }

    fn register(r: &mut Reactor, deadline: u64) -> Arc<AtomicBool> {
        let fired = Arc::new(AtomicBool::new(false));
        r.register(deadline, (noop_waker(), fired.clone()));
        fired
    }

    /// The next batch's earliest deadline and every `(deadline, seq)` in it.
    fn fire(r: &mut Reactor) -> Option<(u64, Vec<(u64, u64)>)> {
        r.fire().map(|(deadline, batch)| (deadline, batch.into_keys().collect()))
    }

    #[test]
    fn fires_in_deadline_order_regardless_of_insertion_order() {
        let mut r = Reactor::default();
        for d in [5_000_000u64, 1_000, 3_000_000_000, 40, 777_777] {
            register(&mut r, d);
        }
        let mut fired = Vec::new();
        while let Some((deadline, batch)) = fire(&mut r) {
            assert_eq!(batch, [(deadline, batch[0].1)], "one deadline per batch");
            fired.push(deadline);
        }
        assert_eq!(fired, [40, 1_000, 777_777, 5_000_000, 3_000_000_000]);
    }

    #[test]
    fn equal_deadlines_fire_in_registration_order() {
        let mut r = Reactor::default();
        for _ in 0..3 {
            register(&mut r, 10_000);
        }
        assert_eq!(fire(&mut r), Some((10_000, vec![(10_000, 0), (10_000, 1), (10_000, 2)])));
        assert_eq!(fire(&mut r), None);
    }

    #[test]
    fn past_deadlines_fire_in_the_next_batch_in_order() {
        let mut r = Reactor::default();
        register(&mut r, 1_000_000);
        assert_eq!(fire(&mut r), Some((1_000_000, vec![(1_000_000, 0)])));
        // Lanes behind the last fired deadline register in the past: they
        // all fire in the next batch, in deadline order, and nothing later.
        register(&mut r, 400_000);
        register(&mut r, 20_000);
        register(&mut r, 1_500_000);
        assert_eq!(fire(&mut r), Some((20_000, vec![(20_000, 2), (400_000, 1)])));
        assert_eq!(fire(&mut r), Some((1_500_000, vec![(1_500_000, 3)])));
    }

    #[test]
    fn fired_flag_plumbing() {
        let mut r = Reactor::default();
        let flag = register(&mut r, 9);
        let (_, batch) = r.fire().expect("one wakeup");
        let (_, fired) = batch.into_values().next().expect("in the batch");
        assert!(Arc::ptr_eq(&fired, &flag));
        assert!(!flag.load(Ordering::Relaxed), "the driver, not the reactor, marks firing");
    }

    #[test]
    fn spawn_and_join() {
        let ex = Executor::single(SimClock::new());
        let h = ex.spawn(async { 6 * 7 });
        ex.run_until_idle();
        assert_eq!(h.try_take(), Some(42));
    }

    #[test]
    fn join_handle_awaitable_from_another_task() {
        let ex = Executor::single(SimClock::new());
        let t = ex.timer();
        let inner = ex.spawn(async move {
            t.sleep(Duration::from_millis(5)).await;
            "done"
        });
        let outer = ex.spawn(async move { inner.await.len() });
        ex.run_until_idle();
        assert_eq!(outer.try_take(), Some(4));
    }

    #[test]
    fn virtual_time_jumps_instead_of_sleeping() {
        let clock = SimClock::new();
        let ex = Executor::single(clock.clone());
        let t = ex.timer();
        ex.spawn(async move { t.sleep(Duration::from_secs(3600)).await });
        let wall = std::time::Instant::now();
        ex.run_until_idle();
        assert_eq!(clock.now(), Duration::from_secs(3600));
        assert!(wall.elapsed() < std::time::Duration::from_secs(5), "no real sleeping");
    }

    #[test]
    fn sleepers_wake_in_deadline_order() {
        let ex = Executor::single(SimClock::new());
        let order = Arc::new(Mutex::new(Vec::new()));
        for (label, ms) in [("c", 30u64), ("a", 10), ("b", 20)] {
            let t = ex.timer();
            let order = order.clone();
            ex.spawn(async move {
                t.sleep_until(Duration::from_millis(ms)).await;
                order.lock().push(label);
            });
        }
        ex.run_until_idle();
        assert_eq!(*order.lock(), vec!["a", "b", "c"]);
    }

    #[test]
    fn schedule_at_yields_even_when_due() {
        // The clock has run ahead; schedule_at must still park and fire in
        // deadline order relative to other past-time registrations.
        let clock = SimClock::new();
        clock.advance(Duration::from_millis(100));
        let ex = Executor::single(clock.clone());
        let order = Arc::new(Mutex::new(Vec::new()));
        for (label, ms) in [("late", 90u64), ("early", 10)] {
            let t = ex.timer();
            let order = order.clone();
            ex.spawn(async move {
                t.schedule_at(Duration::from_millis(ms)).await;
                order.lock().push(label);
            });
        }
        ex.run_until_idle();
        assert_eq!(*order.lock(), vec!["early", "late"]);
        assert_eq!(clock.now(), Duration::from_millis(100), "past deadlines move no time");
    }

    #[test]
    fn ten_thousand_tasks_on_bounded_threads() {
        let clock = SimClock::new();
        let ex = Executor::single(clock.clone());
        let handles: Vec<_> = (0..10_000u64)
            .map(|i| {
                let t = ex.timer();
                ex.spawn(async move {
                    t.sleep(Duration::from_micros(i % 97)).await;
                    (i, std::thread::current().id())
                })
            })
            .collect();
        ex.run_until_idle();
        let driver = std::thread::current().id();
        let mut sum = 0;
        for h in &handles {
            let (i, polled_on) = h.try_take().expect("completed");
            assert_eq!(polled_on, driver, "every task is polled on the driver thread");
            sum += i;
        }
        assert_eq!(sum, (0..10_000u64).sum());
        assert_eq!(clock.now(), Duration::from_micros(96));
    }

    #[test]
    #[should_panic(expected = "driver thread")]
    fn a_thread_count_other_than_one_is_refused() {
        Executor::new(SimClock::new(), 2);
    }

    #[test]
    fn task_panic_payload_resurfaces_on_driver() {
        let ex = Executor::single(SimClock::new());
        let survivor = ex.spawn(async { 1u32 });
        ex.spawn(async { panic!("task exploded: {}", 99) });
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| ex.run_until_idle()))
            .expect_err("panic must resurface");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("original string payload");
        assert_eq!(msg, "task exploded: 99");
        // Other tasks still ran to completion first.
        assert_eq!(survivor.try_take(), Some(1));
    }

    #[test]
    fn run_until_idle_is_reentrant() {
        let clock = SimClock::new();
        let ex = Executor::single(clock.clone());
        let t = ex.timer();
        ex.spawn(async move { t.sleep(Duration::from_millis(1)).await });
        ex.run_until_idle();
        let t = ex.timer();
        let h = ex.spawn(async move {
            t.sleep(Duration::from_millis(2)).await;
            7
        });
        ex.run_until_idle();
        assert_eq!(h.try_take(), Some(7));
        assert_eq!(clock.now(), Duration::from_millis(3));
    }
}
