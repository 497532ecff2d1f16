//! Chunk-parallel execution helpers (§6: "Casper naturally supports
//! multi-threaded execution since the column layouts create regions of the
//! data that can be processed in parallel without any interference").
//!
//! Built on `std::thread::scope` with no `unsafe`: a shared atomic cursor
//! distributes uneven work (the per-chunk solver calls of Fig. 11 vary
//! with chunk content), and results come back through join handles.

/// Run `f(index, &mut item)` over all items, using up to `threads` workers.
/// Items are split into contiguous stripes — ideal when work per item is
/// uniform (scans).
pub fn parallel_for_each_mut<T, F>(items: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let stripe = items.len().div_ceil(threads);
    std::thread::scope(|s| {
        for (t, chunk) in items.chunks_mut(stripe).enumerate() {
            let f = &f;
            s.spawn(move || {
                for (i, item) in chunk.iter_mut().enumerate() {
                    f(t * stripe + i, item);
                }
            });
        }
    });
}

/// Map `f(index, &item)` over all items with work stealing via a shared
/// atomic cursor — used when per-item work varies wildly (per-chunk layout
/// solving). Results come back in input order.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    // Each worker claims indices from a shared cursor and hands its
    // `(index, result)` pairs back through its join handle; the caller
    // puts them in input order.
    let cursor = &std::sync::atomic::AtomicUsize::new(0);
    let f = &f;
    let mut done: Vec<(usize, R)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(move || {
                    let claim = || {
                        let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        (i < items.len()).then(|| (i, f(i, &items[i])))
                    };
                    std::iter::from_fn(claim).collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_each_mut_touches_every_item_once() {
        let mut items = vec![0u64; 103];
        parallel_for_each_mut(&mut items, 8, |i, x| *x = i as u64 + 1);
        for (i, &x) in items.iter().enumerate() {
            assert_eq!(x, i as u64 + 1);
        }
    }

    #[test]
    fn for_each_mut_single_thread_path() {
        let mut items = vec![1u32, 2, 3];
        parallel_for_each_mut(&mut items, 1, |_, x| *x *= 10);
        assert_eq!(items, vec![10, 20, 30]);
    }

    #[test]
    fn map_preserves_order() {
        let items: Vec<usize> = (0..500).collect();
        let out = parallel_map(&items, 7, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..500).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_handles_empty_and_tiny() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[42u32], 4, |_, &x| x + 1), vec![43]);
    }

    #[test]
    fn map_slot_writes_handle_droppable_results() {
        // Results that own heap memory (and run Drop) must be written
        // exactly once per slot and dropped exactly once overall.
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        static LIVE: AtomicUsize = AtomicUsize::new(0);
        struct Tracked(String);
        impl Tracked {
            fn new(s: String) -> Self {
                LIVE.fetch_add(1, Ordering::SeqCst);
                Tracked(s)
            }
        }
        impl Drop for Tracked {
            fn drop(&mut self) {
                LIVE.fetch_sub(1, Ordering::SeqCst);
            }
        }

        let items: Vec<usize> = (0..257).collect();
        let shared = Arc::new(());
        let shared2 = Arc::clone(&shared);
        let out = parallel_map(&items, 8, move |_, &x| {
            let _keep = Arc::clone(&shared2);
            format!("item-{x}")
        });
        assert_eq!(out.len(), 257);
        assert_eq!(out[256], "item-256");
        drop(out);

        let tracked = parallel_map(&items, 8, |_, &x| Tracked::new(format!("v{x}")));
        assert_eq!(LIVE.load(Ordering::SeqCst), 257);
        for (i, t) in tracked.iter().enumerate() {
            assert_eq!(t.0, format!("v{i}"));
        }
        drop(tracked);
        assert_eq!(
            LIVE.load(Ordering::SeqCst),
            0,
            "each result dropped exactly once"
        );
        assert_eq!(Arc::strong_count(&shared), 1);
    }

    #[test]
    fn map_propagates_a_worker_panic_with_its_payload() {
        // Callers above (the governor's panic isolation) see the worker's
        // own message, not a generic scope failure.
        let items: Vec<u32> = (0..64).collect();
        let caught = std::panic::catch_unwind(|| {
            parallel_map(&items, 4, |_, &x| {
                assert!(x != 37, "injected fault at item {x}");
                x
            })
        });
        let payload = caught.expect_err("the worker panic must surface");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(
            msg.contains("injected fault at item 37"),
            "payload: {msg:?}"
        );
    }

    #[test]
    fn map_more_threads_than_items() {
        let items = vec![1u32, 2, 3];
        let out = parallel_map(&items, 64, |_, &x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn for_each_mut_more_threads_than_items_and_empty() {
        let mut items: Vec<u8> = Vec::new();
        parallel_for_each_mut(&mut items, 8, |_, _| unreachable!("no items"));
        let mut items = vec![5u64; 3];
        parallel_for_each_mut(&mut items, 100, |i, x| *x += i as u64);
        assert_eq!(items, vec![5, 6, 7]);
    }

    #[test]
    fn for_each_mut_striping_keeps_global_indices() {
        // Stripe boundaries must not reset the index: item i always sees i.
        for threads in [2usize, 3, 5, 7, 13] {
            let mut items = vec![usize::MAX; 101];
            parallel_for_each_mut(&mut items, threads, |i, x| *x = i);
            for (i, &x) in items.iter().enumerate() {
                assert_eq!(x, i, "threads={threads}");
            }
        }
    }

    #[test]
    fn map_with_uneven_work() {
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(&items, 8, |_, &x| {
            // Simulate skewed work.
            let mut acc = 0u64;
            for i in 0..(x % 7) * 1000 {
                acc = acc.wrapping_add(i);
            }
            std::hint::black_box(acc);
            x
        });
        assert_eq!(out, items);
    }
}
