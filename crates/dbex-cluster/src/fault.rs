//! Deterministic fault injection for the clustering layer.
//!
//! Mirrors `dbex_stats::fault`: tests arm a named site on their thread and
//! the matching code path returns [`ClusterError::FaultInjected`] until the
//! guard drops. The one known site is `"cluster::kmeans"`.
//!
//! # Interaction with parallel CAD builds
//!
//! As in `dbex_stats::fault`, hooks fire **only on the arming thread**.
//! The CAD builder's default `CadConfig::threads == 1` clusters every
//! partition on the caller's thread, so an armed `"cluster::kmeans"` is
//! honored and the partition falls back to a single IUnit. With `threads > 1` the
//! per-partition clustering runs on `dbex_par::par_map` pool workers whose
//! fresh thread-locals are never armed — those partitions cluster at full
//! fidelity. `tests/parallel_determinism.rs` pins down both behaviors.

use crate::error::ClusterError;
use std::cell::Cell;

thread_local! {
    static ARMED: Cell<Option<&'static str>> = const { Cell::new(None) };
}

/// Arms `site` on this thread: subsequent [`check`]s for it fail.
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

/// Returns the injected error if `site` is armed on this thread.
pub fn check(site: &'static str) -> Result<(), ClusterError> {
    let armed = ARMED.with(|a| a.get());
    if armed == Some(site) {
        return Err(ClusterError::FaultInjected { site });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_arm_and_release() {
        assert!(check("cluster::kmeans").is_ok());
        {
            let _g = scoped("cluster::kmeans");
            assert!(check("cluster::kmeans").is_err());
            assert!(check("cluster::other").is_ok());
        }
        assert!(check("cluster::kmeans").is_ok());
    }
}
