//! A background reporter that periodically snapshots a registry and hands
//! the capture to a user hook (print it, push it, diff it — the hook
//! decides).

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

use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::registry::{MetricsRegistry, TelemetrySnapshot};

/// Periodically snapshots a [`MetricsRegistry`] on a background thread.
///
/// The hook runs on the reporter thread every `interval`; [`stop`] (or
/// drop) wakes the thread immediately, delivers one final snapshot so no
/// tail activity is lost, and joins it. A hook that panics ends the
/// reporter thread there; the panic does not reach the owner, whose
/// [`stop`] or drop still returns.
///
/// [`stop`]: TelemetryReporter::stop
#[derive(Debug)]
pub struct TelemetryReporter {
    signal: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

impl TelemetryReporter {
    /// Spawn the reporter thread.
    pub fn spawn<F>(
        registry: Arc<MetricsRegistry>,
        interval: Duration,
        mut hook: F,
    ) -> TelemetryReporter
    where
        F: FnMut(TelemetrySnapshot) + Send + 'static,
    {
        let signal = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_signal = Arc::clone(&signal);
        let handle = std::thread::spawn(move || {
            let (stop, wake) = &*thread_signal;
            let mut stopped = stop.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if *stopped {
                    break;
                }
                let (next, timeout) =
                    wake.wait_timeout(stopped, interval).unwrap_or_else(PoisonError::into_inner);
                stopped = next;
                if *stopped {
                    break;
                }
                if timeout.timed_out() {
                    hook(registry.snapshot());
                }
            }
            // final capture so the stop edge never swallows tail activity
            hook(registry.snapshot());
        });
        TelemetryReporter { signal, handle: Some(handle) }
    }

    /// Stop the reporter: delivers one final snapshot and joins the
    /// thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(handle) = self.handle.take() {
            let (stop, wake) = &*self.signal;
            // the hook runs under this lock, so one that panicked poisoned
            // it; the flag is a plain bool, valid whatever happened
            *stop.lock().unwrap_or_else(PoisonError::into_inner) = true;
            wake.notify_all();
            let _ = handle.join();
        }
    }
}

impl Drop for TelemetryReporter {
    fn drop(&mut self) {
        self.shutdown();
    }
}
