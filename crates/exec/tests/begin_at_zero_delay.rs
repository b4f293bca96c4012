//! Regression gate: an open-loop arrival at (or before) the lane's
//! current time must not spin. An arrival parks with
//! `Timer::schedule_at(arrival.max(lane.local_now()))` and then raises
//! the lane to the arrival (what `AsyncVolume::begin_at` does for the
//! scale harness); the reactor's `schedule_at` is specified to yield
//! exactly once even when the deadline is already due. If a refactor
//! ever turns that into a ready-poll loop or a double wakeup, open-loop
//! clients that have fallen behind their arrival schedule — the common
//! case under overload — would burn a poll per spin on every queued
//! operation.
//!
//! The probe counts raw `Future::poll` calls on the client task around
//! the arrival's await. The poll that registers in the reactor is the
//! one already running when the await starts, so a correct arrival
//! suspends the task exactly once: precisely one further poll (the
//! wakeup) completes it. Zero would mean the yield was skipped; two or
//! more means the reactor re-queued the task — a spin.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::Duration;

use nexus_exec::Executor;
use nexus_storage::afs::{AfsClient, AfsServer};
use nexus_storage::{LatencyModel, SimClock, StorageBackend};

/// Wraps a future and counts every `poll` the executor issues to it.
struct CountPolls<F> {
    inner: Pin<Box<F>>,
    polls: Arc<AtomicUsize>,
}

impl<F: Future> Future for CountPolls<F> {
    type Output = F::Output;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        self.polls.fetch_add(1, Ordering::SeqCst);
        self.inner.as_mut().poll(cx)
    }
}

fn polls_for(arrival_offset: Option<Duration>) -> usize {
    let server = AfsServer::new();
    let clock = SimClock::new();
    // Single-threaded executor: the poll count is exact, not racy.
    let ex = Executor::single(clock.clone());
    let afs = AfsClient::connect(&server, clock.clone(), LatencyModel::paper_calibrated());
    let timer = ex.timer();
    let polls = Arc::new(AtomicUsize::new(0));
    let counted = CountPolls {
        polls: polls.clone(),
        inner: Box::pin(async move {
            let lane = afs.lane();
            // Give the lane some history so "now" is not the epoch.
            timer.schedule_at(lane.local_now()).await;
            afs.put("warm", b"x").expect("warm put");
            let arrival = match arrival_offset {
                // Arrival exactly at the lane's current time.
                None => lane.local_now(),
                // Arrival strictly in the past: client is behind schedule.
                Some(back) => lane.local_now().saturating_sub(back),
            };
            let before = polls.load(Ordering::SeqCst);
            timer.schedule_at(arrival.max(lane.local_now())).await;
            lane.raise_to(arrival);
            polls.load(Ordering::SeqCst) - before
        }),
    };
    let inner_polls = counted.polls.clone();
    let handle = ex.spawn(counted);
    ex.run_until_idle();
    let arrival_polls = handle.try_take().expect("client completed");
    // Sanity: the wrapper really observed the polls it reports on.
    assert!(inner_polls.load(Ordering::SeqCst) >= arrival_polls);
    arrival_polls
}

#[test]
fn begin_at_with_zero_delay_yields_exactly_once() {
    // An arrival at local_now(): already due. The await must suspend the
    // task exactly once — one wakeup poll, no spin. Zero would skip the
    // yield and break the global issue-time ordering the differential
    // suites rely on; two or more is the spin this gate exists to catch.
    assert_eq!(polls_for(None), 1);
}

#[test]
fn begin_at_in_the_past_yields_exactly_once() {
    // A client behind its open-loop arrival schedule: same bound.
    assert_eq!(polls_for(Some(Duration::from_millis(3))), 1);
}
