//! Process-wide memoisation of expensive deterministic builds.
//!
//! Workload synthesis is deterministic in its configuration (a trace is
//! a pure function of `(config, seed)`), yet experiment sweeps used to
//! regenerate the same RuneScape-like trace and the same Table I
//! emulated data sets dozens of times per run. A [`Memo`] keys the
//! finished artefact by a caller-chosen string (typically the `Debug`
//! rendering of the full configuration) and shares it behind an `Arc`,
//! so every later request — from any thread — gets the cached value.
//! Users: `mmog_workload::cache` (traces), `GameEmulator::run_cached`
//! (Table I data sets) and `PredictorKind::build_seeded` (trained
//! neural predictors).
//!
//! Concurrency: the map lock is held only to look up or insert the
//! per-key cell, never while building. Concurrent requests for the
//! *same* key block on that key's [`OnceLock`] and the build runs
//! exactly once; requests for different keys build in parallel.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// A process-wide cache of `Arc<V>` values keyed by string.
///
/// `const`-constructible, so instances can live in `static`s:
///
/// ```
/// use mmog_util::memo::Memo;
/// static SQUARES: Memo<u64> = Memo::new();
/// let nine = SQUARES.get_or_build("3", || 9);
/// assert_eq!(*SQUARES.get_or_build("3", || unreachable!()), *nine);
/// ```
pub struct Memo<V> {
    #[allow(clippy::type_complexity)]
    map: Mutex<BTreeMap<String, Arc<OnceLock<Arc<V>>>>>,
}

impl<V> Memo<V> {
    /// Creates an empty memo.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            map: Mutex::new(BTreeMap::new()),
        }
    }

    /// Returns the cached value for `key`, building it with `build` on
    /// first use. The build runs outside the map lock; concurrent
    /// callers with the same key wait for the first builder instead of
    /// duplicating the work.
    pub fn get_or_build(&self, key: &str, build: impl FnOnce() -> V) -> Arc<V> {
        let cell = {
            let mut map = self
                .map
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(cell) = map.get(key) {
                Arc::clone(cell)
            } else {
                let cell = Arc::new(OnceLock::new());
                map.insert(key.to_owned(), Arc::clone(&cell));
                cell
            }
        };
        Arc::clone(cell.get_or_init(|| Arc::new(build())))
    }

    /// Number of cached entries (including ones still being built).
    #[must_use]
    pub fn len(&self) -> usize {
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// Whether the memo holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached entry (outstanding `Arc`s stay valid).
    pub fn clear(&self) {
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
    }
}

impl<V> Default for Memo<V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn builds_once_per_key() {
        let memo: Memo<u64> = Memo::new();
        let builds = AtomicUsize::new(0);
        let mk = |v: u64| {
            builds.fetch_add(1, Ordering::Relaxed);
            v * 10
        };
        assert_eq!(*memo.get_or_build("a", || mk(1)), 10);
        assert_eq!(*memo.get_or_build("a", || mk(1)), 10);
        assert_eq!(*memo.get_or_build("b", || mk(2)), 20);
        assert_eq!(builds.load(Ordering::Relaxed), 2);
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn concurrent_same_key_builds_once() {
        static MEMO: Memo<u64> = Memo::new();
        static BUILDS: AtomicUsize = AtomicUsize::new(0);
        let values: Vec<u64> = std::thread::scope(|s| {
            // The intermediate collect is the point: all spawns must
            // happen before the first join or the race disappears.
            #[allow(clippy::needless_collect)]
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        *MEMO.get_or_build("key", || {
                            BUILDS.fetch_add(1, Ordering::Relaxed);
                            // Widen the race window.
                            std::thread::sleep(std::time::Duration::from_millis(5));
                            77
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(values.iter().all(|&v| v == 77));
        assert_eq!(BUILDS.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn clear_resets() {
        let memo: Memo<String> = Memo::new();
        let kept = memo.get_or_build("x", || "v".to_owned());
        memo.clear();
        assert!(memo.is_empty());
        // Outstanding Arc survives the clear; the next get rebuilds.
        assert_eq!(*kept, "v");
        let rebuilt = memo.get_or_build("x", || "w".to_owned());
        assert_eq!(*rebuilt, "w");
    }
}
