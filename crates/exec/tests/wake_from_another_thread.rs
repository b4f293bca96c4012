//! A waker may fire on any OS thread, also while the driver is polling
//! the task it wakes. The task must then be queued again exactly once: a
//! lost wakeup would strand it, a second queue entry would poll it once
//! more for nothing.

use std::future::{poll_fn, Future};
use std::sync::{Arc, Mutex};
use std::task::Poll;
use std::time::Duration;

use nexus_exec::Executor;
use nexus_storage::SimClock;

#[test]
fn a_wake_from_another_thread_mid_poll_requeues_the_task_once() {
    let clock = SimClock::new();
    let ex = Executor::single(clock.clone());
    let timer = ex.timer();
    // The virtual time of every poll.
    let polls = Arc::new(Mutex::new(Vec::new()));
    let seen = polls.clone();
    let mut sleep = None;
    let h = ex.spawn(poll_fn(move |cx| {
        let mut polls = seen.lock().unwrap();
        polls.push(clock.now());
        match polls.len() {
            1 => {
                // Two wakeups land on another thread while this poll runs.
                let waker = cx.waker().clone();
                std::thread::spawn(move || {
                    waker.wake_by_ref();
                    waker.wake();
                })
                .join()
                .expect("waking thread");
                Poll::Pending
            }
            // The requeued poll parks on a timer and arranges no other
            // wakeup: a duplicate queue entry would poll it again at once.
            _ => {
                let sleep =
                    sleep.get_or_insert_with(|| Box::pin(timer.sleep(Duration::from_millis(1))));
                sleep.as_mut().poll(cx).map(|()| polls.len())
            }
        }
    }));
    ex.run_until_idle();
    assert_eq!(h.try_take(), Some(3), "woken mid-poll, requeued once, then fired by the timer");
    assert_eq!(
        *polls.lock().unwrap(),
        [Duration::ZERO, Duration::ZERO, Duration::from_millis(1)]
    );
}
