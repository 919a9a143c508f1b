//! Cooperative trial cancellation.
//!
//! A [`CancelToken`] is a shared flag + optional deadline that long
//! kernels poll at natural boundaries (pool chunk claims, engine
//! iteration tops). Nothing is ever interrupted preemptively: a trial
//! past its budget *unwinds cooperatively*, which is what keeps partial
//! [`Counters`](../epg_engine_api) intact and the pool reusable — the
//! paper's harness needs exactly this because systems like PowerGraph
//! "do not complete in a reasonable time" on some cells and the row
//! must become a DNF, not a wedged process.
//!
//! There is deliberately no watchdog thread. The deadline is evaluated
//! (and latched into the flag) inside [`CancelToken::is_cancelled`], so
//! any poller past the deadline observes cancellation; a kernel that
//! never polls is outside the cooperative contract and the supervisor
//! will still classify the trial by re-checking the token it holds.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sentinel meaning "no deadline armed".
const NO_DEADLINE: u64 = u64::MAX;

#[derive(Debug)]
struct Inner {
    /// Latched cancel flag. Once true, stays true.
    cancelled: AtomicBool,
    /// Deadline in nanoseconds since `epoch`, or [`NO_DEADLINE`].
    deadline_ns: AtomicU64,
    /// Per-token time origin; deadlines are stored relative to it so a
    /// single `u64` atomic suffices.
    epoch: Instant,
}

/// Shared cooperative-cancellation handle (clone-cheap: `Arc` inside).
///
/// Cancellation is *monotone*: [`cancel`](CancelToken::cancel) and a
/// passed deadline both latch the flag permanently, so a poller can
/// cache a `true` answer but never a `false` one.
#[derive(Clone, Debug)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// Fresh token: not cancelled, no deadline.
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline_ns: AtomicU64::new(NO_DEADLINE),
                epoch: Instant::now(),
            }),
        }
    }

    /// Token that trips `budget` from now.
    pub fn with_deadline(budget: Duration) -> CancelToken {
        let t = CancelToken::new();
        t.set_deadline(budget);
        t
    }

    /// Arms (or re-arms) the deadline `from_now` in the future.
    pub fn set_deadline(&self, from_now: Duration) {
        let now = self.inner.epoch.elapsed();
        let ns = now
            .checked_add(from_now)
            .map(|d| u64::try_from(d.as_nanos()).unwrap_or(NO_DEADLINE - 1))
            .unwrap_or(NO_DEADLINE - 1)
            .min(NO_DEADLINE - 1);
        self.inner.deadline_ns.store(ns, Ordering::Relaxed);
    }

    /// Latches the cancel flag.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether the trial should unwind. Evaluates the deadline and
    /// latches it into the flag, so cancellation observed once is
    /// observed forever — including by the supervisor after the kernel
    /// returns.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Acquire) {
            return true;
        }
        let deadline = self.inner.deadline_ns.load(Ordering::Relaxed);
        if deadline != NO_DEADLINE {
            let now = u64::try_from(self.inner.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
            if now >= deadline {
                self.inner.cancelled.store(true, Ordering::Release);
                return true;
            }
        }
        false
    }

    /// Time left before the deadline trips, `None` when no deadline is
    /// armed. Zero once the deadline has passed.
    pub fn remaining(&self) -> Option<Duration> {
        let deadline = self.inner.deadline_ns.load(Ordering::Relaxed);
        if deadline == NO_DEADLINE {
            return None;
        }
        let now = u64::try_from(self.inner.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        Some(Duration::from_nanos(deadline.saturating_sub(now)))
    }
}

impl Default for CancelToken {
    fn default() -> CancelToken {
        CancelToken::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.remaining(), None);
    }

    #[test]
    fn cancel_latches_across_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        c.cancel();
        assert!(t.is_cancelled());
        assert!(c.is_cancelled());
    }

    #[test]
    fn deadline_trips_and_latches() {
        let t = CancelToken::with_deadline(Duration::from_millis(5));
        assert!(!t.is_cancelled(), "deadline must not fire early");
        thread::sleep(Duration::from_millis(20));
        assert!(t.is_cancelled());
    }

    #[test]
    fn remaining_counts_down_to_zero() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        let r = t.remaining().expect("deadline armed");
        assert!(r <= Duration::from_secs(3600));
        assert!(r > Duration::from_secs(3500));
        let expired = CancelToken::with_deadline(Duration::ZERO);
        thread::sleep(Duration::from_millis(1));
        assert_eq!(expired.remaining(), Some(Duration::ZERO));
        assert!(expired.is_cancelled());
    }

    #[test]
    fn cancellation_is_visible_from_other_threads() {
        let t = CancelToken::new();
        let seen = {
            let t = t.clone();
            thread::spawn(move || {
                while !t.is_cancelled() {
                    thread::yield_now();
                }
                true
            })
        };
        t.cancel();
        assert!(seen.join().unwrap());
    }
}
