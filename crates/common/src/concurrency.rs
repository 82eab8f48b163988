//! Contention-free concurrency primitives for the serving hot path.
//!
//! The serving tier counts things on every cost-model invocation: cache
//! hits/misses, model invocations, routing outcomes.  A single shared
//! `AtomicU64` turns each of those counts into a read-modify-write on one
//! cacheline that every serving thread fights over — enough, at millions of
//! predictions per second, to flatten multicore scaling on its own.
//! [`StripedCounter`] spreads the traffic across cacheline-padded stripes:
//! each thread picks a home stripe once (round-robin over threads) and
//! increments only that stripe, so concurrent counting stays core-local;
//! reads sum the stripes.  Totals are exact whenever the counting threads
//! have quiesced (joined or otherwise happens-before the read), which is how
//! every report and test in this repository reads them.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Lock a mutex, recovering the data if a panicking holder poisoned it.
///
/// Only for mutexes whose guarded state is valid at every instant (caches
/// that may lose entries, append-only logs and maps, queues of whole tasks):
/// a poisoned lock then carries no torn state, and the standard `expect`
/// would turn one caught panic into a permanently failing lock.
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One counter stripe, padded to a cacheline so neighbouring stripes never
/// share one (64 bytes covers every mainstream x86/ARM configuration).
#[repr(align(64))]
#[derive(Debug, Default)]
struct Stripe(AtomicU64);

/// Number of stripes per counter: enough that threads assigned round-robin
/// rarely collide at realistic core counts, small enough that summing stays
/// trivial.  A power of two so the home-stripe pick is a mask.
const STRIPES: usize = 16;

/// Monotonically assigns each OS thread a distinct stripe-selection seed.
static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's round-robin slot (assigned on first use, then fixed).
    static THREAD_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's round-robin slot (assigned on first use, then fixed
/// for the thread's lifetime).  Exposed so other striped structures — the
/// observability trace buffers in [`crate::obs`] — shard by the same
/// assignment as the counter stripes and stay core-local together.
#[inline]
pub fn thread_slot() -> usize {
    THREAD_SLOT.with(|slot| {
        let mut s = slot.get();
        if s == usize::MAX {
            s = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed);
            slot.set(s);
        }
        s
    })
}

/// This thread's stripe index.
#[inline]
fn home_stripe() -> usize {
    thread_slot() & (STRIPES - 1)
}

/// A cacheline-striped monotone counter: contention-free increments, exact
/// sums once the incrementing threads have quiesced.
#[derive(Debug)]
pub struct StripedCounter {
    stripes: [Stripe; STRIPES],
}

impl Default for StripedCounter {
    fn default() -> Self {
        StripedCounter::new()
    }
}

impl StripedCounter {
    /// A zeroed counter.
    pub fn new() -> Self {
        StripedCounter {
            stripes: Default::default(),
        }
    }

    /// Add `n` to this thread's home stripe.
    #[inline]
    pub fn add(&self, n: u64) {
        self.stripes[home_stripe()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Sum of all stripes.
    pub fn sum(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Reset every stripe to zero.
    pub fn reset(&self) {
        for s in &self.stripes {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_exactly_across_threads() {
        let counter = StripedCounter::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..10_000 {
                        counter.add(1);
                    }
                });
            }
        });
        assert_eq!(counter.sum(), 80_000);
        counter.reset();
        assert_eq!(counter.sum(), 0);
    }

    #[test]
    fn add_supports_bulk_increments() {
        let counter = StripedCounter::new();
        counter.add(5);
        counter.add(7);
        assert_eq!(counter.sum(), 12);
    }

    #[test]
    fn stripes_are_cacheline_sized() {
        assert_eq!(std::mem::align_of::<Stripe>(), 64);
        assert!(std::mem::size_of::<StripedCounter>() >= STRIPES * 64);
    }
}
