//! Region bookkeeping for the dynamic disjointness checker.
//!
//! Every parallel region dispatched by a [`crate::ThreadPool`] gets a
//! process-unique *region id*, and every thread executing inside one carries
//! that id plus its stable worker id (0 for the dispatching thread,
//! `1..nthreads` for pool workers) in thread-local state. In debug builds
//! the shadow table in [`crate::DisjointWriter`] combines the two into a
//! write tag: two different workers tagging the same index with the same
//! region id is exactly an overlapping write within one `parallel_for`
//! region.
//!
//! Region ids are allocated from one global counter rather than a single
//! monotonically bumped epoch so that concurrently running pools (e.g. tests
//! in one binary) can never blur each other's region boundaries: ids are
//! unique per region instance, not merely increasing.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};

/// Source of process-unique region ids; 0 is reserved for "outside any
/// region".
static REGION_COUNTER: AtomicU32 = AtomicU32::new(0);

thread_local! {
    /// `(region id, worker id)` for the region this thread is currently
    /// executing, or `(0, usize::MAX)` outside any region.
    static CURRENT: Cell<(u32, usize)> = const { Cell::new((0, usize::MAX)) };
}

/// Allocates a fresh nonzero region id for one parallel-region dispatch.
pub(crate) fn next_region_id() -> u32 {
    loop {
        let id = REGION_COUNTER.fetch_add(1, Ordering::Relaxed).wrapping_add(1);
        if id != 0 {
            return id;
        }
    }
}

/// The region id the calling thread is executing inside, or 0 when outside
/// every parallel region.
#[cfg_attr(not(debug_assertions), allow(dead_code))]
pub(crate) fn current_region() -> u32 {
    CURRENT.with(|c| c.get().0)
}

/// The stable worker id of the calling thread within its current parallel
/// region: 0 for the thread that dispatched the region, `1..nthreads` for
/// pool workers. `None` outside any region.
pub fn current_worker_id() -> Option<usize> {
    CURRENT.with(|c| {
        let (region, worker) = c.get();
        if region == 0 {
            None
        } else {
            Some(worker)
        }
    })
}

/// RAII scope marking the calling thread as executing `worker` within
/// `region`; restores the previous state on drop (regions never nest today —
/// the pool asserts that — but restoring keeps the bookkeeping correct if a
/// region body drives another pool).
pub(crate) struct RegionScope {
    prev: (u32, usize),
}

pub(crate) fn enter_region(region: u32, worker: usize) -> RegionScope {
    let prev = CURRENT.with(|c| c.replace((region, worker)));
    RegionScope { prev }
}

impl Drop for RegionScope {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outside_any_region_there_is_no_worker_id() {
        assert_eq!(current_worker_id(), None);
        assert_eq!(current_region(), 0);
    }

    #[test]
    fn scope_sets_and_restores() {
        let r = next_region_id();
        {
            let _scope = enter_region(r, 3);
            assert_eq!(current_worker_id(), Some(3));
            assert_eq!(current_region(), r);
            {
                let inner = next_region_id();
                let _nested = enter_region(inner, 0);
                assert_eq!(current_worker_id(), Some(0));
                assert_eq!(current_region(), inner);
            }
            assert_eq!(current_worker_id(), Some(3));
        }
        assert_eq!(current_worker_id(), None);
    }

    #[test]
    fn region_ids_are_unique_and_nonzero() {
        let a = next_region_id();
        let b = next_region_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }
}
