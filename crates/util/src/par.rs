//! A minimal data-parallel executor over scoped threads.
//!
//! The batched slicing engine fans independent queries out across cores.
//! `rayon` would be the natural dependency, but the build must work without
//! network access, so this module provides the one primitive the engine
//! needs: [`map_with`], an order-preserving parallel map with per-worker
//! state, built on `std::thread::scope`.
//!
//! Query costs are wildly skewed (a context-sensitive thin slice can cost
//! 30× a context-insensitive one), so a static partition idles workers.
//! Instead every worker claims the next unclaimed item from one shared
//! atomic cursor, one item at a time: no locks, and no worker idles while
//! an item remains unclaimed.
//!
//! Results are returned in input order regardless of completion order, so
//! parallel callers observe exactly the sequential output.
//!
//! # Examples
//!
//! ```
//! use thinslice_util::par;
//!
//! let squares = par::map_with(&[1u64, 2, 3, 4], 2, || (), |(), _i, x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding [`default_threads`] (and therefore every
/// CLI and benchmark default). Must be a positive integer when set; an
/// unparsable or zero value is rejected with a diagnostic rather than
/// silently ignored (see [`try_default_threads`]).
pub const THREADS_ENV: &str = "THINSLICE_THREADS";

/// Validates one `THINSLICE_THREADS` value: a positive (non-zero) integer,
/// surrounding whitespace tolerated.
///
/// # Examples
///
/// ```
/// use thinslice_util::par::parse_threads_env;
///
/// assert_eq!(parse_threads_env(" 4 "), Ok(4));
/// assert!(parse_threads_env("0").is_err());
/// assert!(parse_threads_env("two").is_err());
/// ```
pub fn parse_threads_env(raw: &str) -> Result<usize, String> {
    let token = raw.trim();
    match token.parse::<usize>() {
        Ok(0) => Err(format!("{THREADS_ENV} must be at least 1, got \"{token}\"")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "{THREADS_ENV} must be a positive integer, got \"{token}\""
        )),
    }
}

/// The number of worker threads to use by default: the `THINSLICE_THREADS`
/// environment override when set, otherwise the machine's available
/// parallelism (1 when it cannot be determined).
///
/// A set-but-invalid override is an error, so a typo degrades loudly
/// instead of silently running on a different thread count than asked.
pub fn try_default_threads() -> Result<usize, String> {
    match std::env::var(THREADS_ENV) {
        Ok(v) => parse_threads_env(&v),
        Err(std::env::VarError::NotUnicode(_)) => Err(format!(
            "{THREADS_ENV} must be a positive integer, got non-unicode bytes"
        )),
        Err(std::env::VarError::NotPresent) => Ok(std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)),
    }
}

/// [`try_default_threads`], panicking with its diagnostic on an invalid
/// `THINSLICE_THREADS`. Callers with a cleaner error channel (the CLI, the
/// server) should prefer [`try_default_threads`].
pub fn default_threads() -> usize {
    match try_default_threads() {
        Ok(n) => n,
        Err(e) => panic!("{e}"),
    }
}

/// Maps `f` over `items` on up to `threads` worker threads, giving each
/// worker a private scratch state built by `init`; returns the results in
/// input order.
///
/// With `threads <= 1` (or one item) everything runs on the calling thread
/// with no spawning, so single-threaded behaviour is exactly a `for` loop —
/// useful both for determinism tests and for machines without spare cores.
pub fn map_with<T, R, S, I, F>(items: &[T], threads: usize, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        let mut scratch = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut scratch, i, t))
            .collect();
    }

    // Workers claim the next unclaimed index one at a time, so an
    // expensive item delays only the worker that drew it.
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let (cursor, init, f) = (&cursor, &init, &f);
                scope.spawn(move || {
                    let mut scratch = init();
                    let mut produced = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        produced.push((i, f(&mut scratch, i, item)));
                    }
                    produced
                })
            })
            .collect();
        let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        for w in workers {
            // A panic in a worker propagates here, matching sequential
            // behaviour (the panic surfaces to the caller).
            for (i, r) in w.join().expect("parallel map worker panicked") {
                slots[i] = Some(r);
            }
        }
        slots
    });
    slots
        .iter_mut()
        .map(|s| s.take().expect("every index produced"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..500).collect();
        let out = map_with(&items, 4, || (), |(), _, &x| x * 2);
        assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_matches_parallel() {
        let items: Vec<u64> = (0..100).collect();
        let seq = map_with(&items, 1, || (), |(), i, &x| x.wrapping_mul(i as u64 + 1));
        let par = map_with(&items, 8, || (), |(), i, &x| x.wrapping_mul(i as u64 + 1));
        assert_eq!(seq, par);
    }

    #[test]
    fn worker_state_is_reused_not_shared() {
        // Each worker counts how many items it saw; totals must add up.
        let total = AtomicUsize::new(0);
        let items: Vec<u32> = (0..200).collect();
        let out = map_with(
            &items,
            3,
            || 0usize,
            |count, _, &x| {
                *count += 1;
                total.fetch_add(1, Ordering::Relaxed);
                x
            },
        );
        assert_eq!(out, items);
        assert_eq!(total.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(map_with(&empty, 4, || (), |(), _, &x| x).is_empty());
        assert_eq!(map_with(&[9u8], 4, || (), |(), _, &x| x + 1), vec![10]);
    }

    #[test]
    fn oversubscribed_thread_count_is_clamped() {
        let items = [1, 2, 3];
        assert_eq!(map_with(&items, 64, || (), |(), _, &x| x), vec![1, 2, 3]);
    }

    #[test]
    fn skewed_workloads_complete_every_item() {
        // A few expensive items among cheap ones: every result must still
        // land in its slot exactly once.
        let items: Vec<u64> = (0..137).collect();
        let out = map_with(
            &items,
            4,
            || (),
            |(), _, &x| {
                let spin = if x % 37 == 0 { 20_000 } else { 10 };
                let mut acc = x;
                for i in 0..spin {
                    acc = std::hint::black_box(acc.wrapping_mul(31).wrapping_add(i));
                }
                (acc, x).1
            },
        );
        assert_eq!(out, items);
    }

    #[test]
    fn threads_env_values_are_validated_not_ignored() {
        assert_eq!(parse_threads_env("1"), Ok(1));
        assert_eq!(parse_threads_env("  16\n"), Ok(16));
        for bad in ["0", "", "  ", "two", "-3", "1.5", "4x", "0x4"] {
            let err = parse_threads_env(bad).unwrap_err();
            assert!(
                err.contains(THREADS_ENV) && err.contains(bad.trim()),
                "diagnostic must name the variable and the offending \
                 token: {err:?}"
            );
        }
    }
}
