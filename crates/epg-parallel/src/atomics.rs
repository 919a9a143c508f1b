//! Atomic floating-point and min helpers.
//!
//! Graph kernels relax distances and accumulate ranks concurrently; C++
//! engines use `compare_exchange` loops over bit-punned floats for this, and
//! we provide the same primitives (cf. "Rust Atomics and Locks", ch. 2-3).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Failure ordering for a compare-exchange derived from the caller's
/// success ordering: the strongest *load* ordering not exceeding it.
/// Hardcoding `Relaxed` would silently drop the acquire a caller asked for
/// on the retry path; hardcoding the success ordering is illegal (failure
/// cannot be `Release`/`AcqRel`). This is the workspace's memory-ordering
/// policy, enforced by `epg-lint`.
#[inline]
fn cas_failure_order(success: Ordering) -> Ordering {
    match success {
        Ordering::SeqCst => Ordering::SeqCst,
        Ordering::Acquire | Ordering::AcqRel => Ordering::Acquire,
        _ => Ordering::Relaxed,
    }
}

/// An `f32` with atomic `load`/`store`/`fetch_add`/`fetch_min` built on a
/// compare-exchange loop over the bit pattern.
#[derive(Debug, Default)]
pub struct AtomicF32 {
    bits: AtomicU32,
}

impl AtomicF32 {
    /// Creates a new atomic with the given value.
    pub fn new(v: f32) -> Self {
        AtomicF32 { bits: AtomicU32::new(v.to_bits()) }
    }

    /// Atomic load.
    #[inline]
    pub fn load(&self, order: Ordering) -> f32 {
        f32::from_bits(self.bits.load(order))
    }

    /// Atomic store.
    #[inline]
    pub fn store(&self, v: f32, order: Ordering) {
        self.bits.store(v.to_bits(), order);
    }

    /// Atomically adds `v`, returning the previous value.
    #[inline]
    pub fn fetch_add(&self, v: f32, order: Ordering) -> f32 {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f32::from_bits(cur) + v).to_bits();
            match self.bits.compare_exchange_weak(cur, next, order, cas_failure_order(order)) {
                Ok(prev) => return f32::from_bits(prev),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Atomically lowers the value to `min(self, v)`, returning the value
    /// `v` displaced, or `None` when the stored value did not decrease.
    /// This is the SSSP relaxation primitive; the displaced value tells
    /// Δ-stepping which bin the vertex was filed in before.
    #[inline]
    pub fn fetch_min(&self, v: f32, order: Ordering) -> Option<f32> {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            if f32::from_bits(cur) <= v {
                return None;
            }
            match self.bits.compare_exchange_weak(cur, v.to_bits(), order, cas_failure_order(order))
            {
                Ok(prev) => return Some(f32::from_bits(prev)),
                Err(actual) => cur = actual,
            }
        }
    }
}

/// An `f64` with atomic `fetch_add`, for rank accumulation.
#[derive(Debug, Default)]
pub struct AtomicF64 {
    bits: AtomicU64,
}

impl AtomicF64 {
    /// Creates a new atomic with the given value.
    pub fn new(v: f64) -> Self {
        AtomicF64 { bits: AtomicU64::new(v.to_bits()) }
    }

    /// Atomic load.
    #[inline]
    pub fn load(&self, order: Ordering) -> f64 {
        f64::from_bits(self.bits.load(order))
    }

    /// Atomic store.
    #[inline]
    pub fn store(&self, v: f64, order: Ordering) {
        self.bits.store(v.to_bits(), order);
    }

    /// Atomically adds `v`, returning the previous value.
    #[inline]
    pub fn fetch_add(&self, v: f64, order: Ordering) -> f64 {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.bits.compare_exchange_weak(cur, next, order, cas_failure_order(order)) {
                Ok(prev) => return f64::from_bits(prev),
                Err(actual) => cur = actual,
            }
        }
    }
}

/// Atomically lowers `a` to `min(a, v)`, returning whether it decreased.
/// Used for label propagation (CDLP/WCC take the minimum label).
#[inline]
pub fn atomic_min_u32(a: &AtomicU32, v: u32, order: Ordering) -> bool {
    let mut cur = a.load(Ordering::Relaxed);
    loop {
        if cur <= v {
            return false;
        }
        match a.compare_exchange_weak(cur, v, order, cas_failure_order(order)) {
            Ok(_) => return true,
            Err(actual) => cur = actual,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_add_and_min() {
        let a = AtomicF32::new(1.0);
        assert_eq!(a.fetch_add(2.5, Ordering::Relaxed), 1.0);
        assert_eq!(a.load(Ordering::Relaxed), 3.5);
        assert_eq!(a.fetch_min(2.0, Ordering::Relaxed), Some(3.5));
        assert_eq!(a.fetch_min(2.0, Ordering::Relaxed), None);
        assert_eq!(a.fetch_min(9.0, Ordering::Relaxed), None);
        assert_eq!(a.load(Ordering::Relaxed), 2.0);
    }

    #[test]
    fn cas_failure_order_never_exceeds_success() {
        assert_eq!(cas_failure_order(Ordering::SeqCst), Ordering::SeqCst);
        assert_eq!(cas_failure_order(Ordering::AcqRel), Ordering::Acquire);
        assert_eq!(cas_failure_order(Ordering::Acquire), Ordering::Acquire);
        assert_eq!(cas_failure_order(Ordering::Release), Ordering::Relaxed);
        assert_eq!(cas_failure_order(Ordering::Relaxed), Ordering::Relaxed);
    }

    #[test]
    fn stronger_orderings_are_accepted() {
        // Exercise every derived failure-ordering path under contention.
        for order in [Ordering::Relaxed, Ordering::Release, Ordering::AcqRel, Ordering::SeqCst] {
            let a = AtomicF32::new(0.0);
            assert_eq!(a.fetch_add(1.5, order), 0.0);
            let b = AtomicF64::new(0.0);
            assert_eq!(b.fetch_add(2.5, order), 0.0);
            let c = AtomicU32::new(9);
            assert!(atomic_min_u32(&c, 3, order));
        }
    }

    #[test]
    fn f32_min_from_infinity() {
        let a = AtomicF32::new(f32::INFINITY);
        assert_eq!(a.fetch_min(7.0, Ordering::Relaxed), Some(f32::INFINITY));
        assert_eq!(a.load(Ordering::Relaxed), 7.0);
    }

    #[test]
    fn f64_accumulates_under_contention() {
        let a = AtomicF64::new(0.0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        a.fetch_add(0.5, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(a.load(Ordering::Relaxed), 2000.0);
    }

    #[test]
    fn u32_min_under_contention_settles_at_global_min() {
        let a = AtomicU32::new(u32::MAX);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let a = &a;
                s.spawn(move || {
                    for i in (100 * t..100 * (t + 1)).rev() {
                        atomic_min_u32(a, i, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(a.load(Ordering::Relaxed), 0);
    }
}
