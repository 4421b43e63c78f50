//! Deterministic fault injection for the statistics layer.
//!
//! Tests arm a named site with [`arm`]; the next time the corresponding
//! code path runs (on the same thread) it returns
//! [`StatsError::FaultInjected`] instead of its normal result. Hooks are
//! thread-local so parallel test threads cannot interfere, and
//! [`ScopedFault`] disarms on drop so a panicking test cannot poison later
//! tests on the same thread.
//!
//! Production code never arms a fault; the per-call check is a
//! thread-local read, negligible next to the statistics it guards.
//!
//! # Interaction with parallel CAD builds
//!
//! Hooks fire **only on the arming thread** — this is a deliberate design
//! decision, not an accident. With `CadConfig::threads == 1` (the default)
//! the whole pipeline runs on the caller's thread and every armed site is
//! honored, which is what the robustness suite exercises. With
//! `threads > 1`, per-partition and per-attribute work runs on short-lived
//! pool workers (`dbex_par::par_map`) whose fresh thread-locals are never
//! armed, so those stages proceed at full fidelity; stages that stay on the
//! caller's thread (e.g. the pivot codec build) still see the fault.
//! `tests/parallel_determinism.rs` pins down both behaviors.

use crate::error::StatsError;
use std::cell::Cell;

thread_local! {
    static ARMED: Cell<Option<&'static str>> = const { Cell::new(None) };
}

/// Arms `site` on this thread: the next [`check`] for it fails.
pub fn arm(site: &'static str) {
    ARMED.with(|a| a.set(Some(site)));
}

/// Disarms any armed fault on this thread.
pub fn disarm() {
    ARMED.with(|a| a.set(None));
}

/// Arms `site` for the lifetime of the returned guard.
pub fn scoped(site: &'static str) -> ScopedFault {
    arm(site);
    ScopedFault { _private: () }
}

/// Guard that disarms the thread's fault on drop.
#[must_use = "the fault is disarmed when this guard drops"]
pub struct ScopedFault {
    _private: (),
}

impl Drop for ScopedFault {
    fn drop(&mut self) {
        disarm();
    }
}

/// Whether any site is armed on this thread. Memoized results (see
/// [`crate::CodedColumns`]) are bypassed while one is, so an armed fault
/// fires as it would in a cold session.
pub(crate) fn armed() -> bool {
    ARMED.with(|a| a.get().is_some())
}

/// Returns the injected error if `site` is armed on this thread.
/// The fault stays armed until [`disarm`] (or the scope guard drops), so a
/// caller that retries the same site keeps failing.
pub fn check(site: &'static str) -> Result<(), StatsError> {
    let armed = ARMED.with(|a| a.get());
    if armed == Some(site) {
        return Err(StatsError::FaultInjected { site });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_only_when_armed_and_matching() {
        assert!(check("histogram::build").is_ok());
        assert!(!armed());
        let guard = scoped("histogram::build");
        assert!(armed());
        assert!(check("codec::build").is_ok());
        assert_eq!(
            check("histogram::build"),
            Err(StatsError::FaultInjected {
                site: "histogram::build"
            })
        );
        // Stays armed until the guard drops.
        assert!(check("histogram::build").is_err());
        drop(guard);
        assert!(check("histogram::build").is_ok());
    }
}
