//! Per-request tickets: the consumer side of the scheduler's request lane.
//!
//! A [`Ticket`] is the handle a [`KernelClient`](crate::KernelClient)
//! request returns immediately; the scheduler resolves it once the pair's
//! kernel value is known (solved, answered from the cache, or failed). The
//! cell behind it is the same Mutex + Condvar discipline as the snapshot
//! watch ([`crate::watch`]): one slot, resolved exactly once, waiters
//! blocked on the condvar and woken by the resolution — and, like the
//! watch's closed-on-publisher-drop contract, a ticket can never hang:
//!
//! * The scheduler-side [`TicketResolver`] resolves
//!   [`RequestError::Closed`] **on drop** when it was never resolved
//!   explicitly — a scheduler that shuts down (or unwinds on a panic) with
//!   requests still queued closes every outstanding ticket instead of
//!   wedging its waiters.
//! * Dropping the [`Ticket`] marks the request **cancelled**; the
//!   scheduler checks the flag before starting the solve and skips the
//!   work (nobody can observe the answer anymore).
//! * An expired deadline resolves the ticket with
//!   [`RequestError::Expired`] *before* its solve starts, so a stale
//!   request never occupies the solve lane.
//!
//! **After a panicking holder.** Every acquisition goes through the
//! crate's poison-tolerant `lock` — each critical section leaves the cell
//! either pending or resolved — so a poisoned cell still resolves, still
//! closes on resolver drop (also mid-unwind, where a second panic would
//! abort) and parks and wakes its waiters like a healthy one. The one
//! difference: std's `wait_while` hands a poisoned guard back at the first
//! wakeup, so a *spurious* one reads as [`RequestError::Closed`] from
//! `wait` and as pending from `wait_timeout`.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use mgk_core::SolverError;

use crate::lock;

/// Why a request resolved without a kernel value.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestError {
    /// The ticket's deadline passed before its solve started.
    Expired,
    /// The scheduler shut down (or its thread died) before answering.
    Closed,
    /// The solve itself failed (empty graph or non-convergence).
    Solver(SolverError),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Expired => write!(f, "request deadline expired before the solve"),
            RequestError::Closed => write!(f, "scheduler closed before answering the request"),
            RequestError::Solver(e) => write!(f, "solve failed: {e}"),
        }
    }
}

impl std::error::Error for RequestError {}

/// The shared one-shot cell: `Mutex<Option<result>>` + Condvar, plus the
/// cancellation flag the ticket's drop raises.
#[derive(Debug)]
struct TicketCell<R> {
    state: Mutex<Option<Result<R, RequestError>>>,
    ready: Condvar,
    cancelled: AtomicBool,
}

/// The consumer handle of one request. Await it with [`wait`](Ticket::wait)
/// / [`wait_timeout`](Ticket::wait_timeout) / [`try_get`](Ticket::try_get);
/// drop it to cancel the request (a solve that has not started yet is
/// skipped).
#[derive(Debug)]
pub struct Ticket<R> {
    cell: Arc<TicketCell<R>>,
}

impl<R: Clone> Ticket<R> {
    /// The resolution, if one has arrived — never blocks.
    pub fn try_get(&self) -> Option<Result<R, RequestError>> {
        lock(&self.cell.state).clone()
    }

    /// Block until the request resolves. Cannot hang: the scheduler-side
    /// resolver closes the ticket on drop if it never answers.
    pub fn wait(&self) -> Result<R, RequestError> {
        let state = lock(&self.cell.state);
        let state = self.cell.ready.wait_while(state, |s| s.is_none());
        // `None` only after a spurious wakeup of a poisoned cell
        state.unwrap_or_else(PoisonError::into_inner).clone().unwrap_or(Err(RequestError::Closed))
    }

    /// Block until the request resolves or `timeout` elapses; `None` means
    /// the request is still pending (the ticket stays valid — wait again,
    /// poll, or drop it to cancel). A timeout too large for the clock to
    /// hold waits without a deadline.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<R, RequestError>> {
        let state = lock(&self.cell.state);
        let waited = self.cell.ready.wait_timeout_while(state, timeout, |s| s.is_none());
        waited.unwrap_or_else(PoisonError::into_inner).0.clone()
    }
}

impl<R> Drop for Ticket<R> {
    fn drop(&mut self) {
        // cancellation: the scheduler skips unstarted solves whose ticket
        // is gone — nobody can observe the answer
        self.cell.cancelled.store(true, Ordering::Release);
    }
}

/// The scheduler-side handle of one request: resolves the ticket exactly
/// once, and closes it ([`RequestError::Closed`]) on drop when it never
/// got answered — the no-hang guarantee of the request lane.
#[derive(Debug)]
pub struct TicketResolver<R> {
    cell: Arc<TicketCell<R>>,
    resolved: bool,
}

impl<R> TicketResolver<R> {
    /// Whether the consumer dropped its ticket (the request is cancelled
    /// and its solve can be skipped).
    pub(crate) fn is_cancelled(&self) -> bool {
        self.cell.cancelled.load(Ordering::Acquire)
    }

    /// Resolve the ticket, waking every waiter.
    pub(crate) fn resolve(mut self, result: Result<R, RequestError>) {
        self.resolved = true;
        let mut state = lock(&self.cell.state);
        debug_assert!(state.is_none(), "a ticket resolves exactly once");
        *state = Some(result);
        drop(state);
        self.cell.ready.notify_all();
    }
}

impl<R> Drop for TicketResolver<R> {
    fn drop(&mut self) {
        if self.resolved {
            return;
        }
        // may run mid-unwind, where a second panic would abort: `lock` cannot panic
        lock(&self.cell.state).get_or_insert(Err(RequestError::Closed));
        self.cell.ready.notify_all();
    }
}

/// Create a connected ticket/resolver pair.
pub(crate) fn ticket<R>() -> (Ticket<R>, TicketResolver<R>) {
    let cell = Arc::new(TicketCell {
        state: Mutex::new(None),
        ready: Condvar::new(),
        cancelled: AtomicBool::new(false),
    });
    (Ticket { cell: Arc::clone(&cell) }, TicketResolver { cell, resolved: false })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_wakes_a_blocked_waiter() {
        let (t, r) = ticket::<u32>();
        let waiter = std::thread::spawn(move || t.wait());
        std::thread::sleep(Duration::from_millis(10));
        r.resolve(Ok(7));
        assert_eq!(waiter.join().unwrap(), Ok(7));
    }

    #[test]
    fn try_get_is_none_until_resolved_then_repeats_the_answer() {
        let (t, r) = ticket::<u32>();
        assert!(t.try_get().is_none());
        r.resolve(Ok(3));
        assert_eq!(t.try_get(), Some(Ok(3)));
        assert_eq!(t.wait(), Ok(3), "wait after resolution returns immediately");
        assert_eq!(t.try_get(), Some(Ok(3)), "the answer is repeatable");
    }

    #[test]
    fn dropping_the_resolver_closes_the_ticket() {
        let (t, r) = ticket::<u32>();
        let waiter = std::thread::spawn(move || t.wait());
        std::thread::sleep(Duration::from_millis(10));
        drop(r);
        assert_eq!(waiter.join().unwrap(), Err(RequestError::Closed));
    }

    #[test]
    fn dropping_the_ticket_raises_the_cancellation_flag() {
        let (t, r) = ticket::<u32>();
        assert!(!r.is_cancelled());
        drop(t);
        assert!(r.is_cancelled());
        // resolving a cancelled ticket is harmless (nobody observes it)
        r.resolve(Ok(1));
    }

    #[test]
    fn an_unrepresentable_timeout_waits_without_a_deadline() {
        let (t, r) = ticket::<u32>();
        r.resolve(Ok(9));
        assert_eq!(t.wait_timeout(Duration::MAX), Some(Ok(9)));
    }

    #[test]
    fn wait_timeout_reports_pending_then_the_resolution() {
        let (t, r) = ticket::<u32>();
        assert_eq!(t.wait_timeout(Duration::from_millis(5)), None, "pending request times out");
        r.resolve(Err(RequestError::Expired));
        assert_eq!(
            t.wait_timeout(Duration::from_millis(5)),
            Some(Err(RequestError::Expired)),
            "a resolved ticket answers within the timeout"
        );
    }
}
