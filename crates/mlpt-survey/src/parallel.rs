//! Deterministic fork-join over scenario indices.
//!
//! Survey runs process thousands of independent scenarios; this helper
//! fans indices out over a fixed number of worker threads and returns
//! results *in index order*, so parallel runs are bit-identical to
//! sequential ones.
//!
//! Its role has narrowed as the surveys moved onto the concurrent sweep
//! engine: the IP-level survey, the evaluation and (since the alias
//! phase was sessionized) the router-level survey all use it only to
//! fan *chunks* out across workers — each chunk drives one
//! `SweepEngine` over one shared `MultiNetwork`. No probing phase
//! depends on thread-per-scenario concurrency anymore;
//! within a chunk, concurrency is the engine's streaming admission, not
//! threads.
//!
//! The implementation is safe Rust on `std::thread::scope`: the result
//! vector is split into disjoint mutable chunks up front, and workers
//! claim whole chunks from a shared worklist **front to back** (a
//! `VecDeque` drained from the head). Claiming from the head matters:
//! chunks were previously popped off the back of a `Vec`, which handed
//! work out back-to-front — the head of the index range was processed
//! *last*, so early results (the ones a consumer typically streams or a
//! progress meter reports first) materialised at the very end of the
//! run. Each slot is owned by exactly one chunk, so exclusive access is
//! enforced by the borrow checker instead of a raw-pointer argument.
//! Chunks are deliberately finer-grained than the worker count so
//! stragglers (expensive scenarios cluster) still load-balance.

use std::collections::VecDeque;
use std::sync::Mutex;

/// One claimable unit of work: the chunk's base index plus its slots.
type Chunk<'a, T> = (usize, &'a mut [Option<T>]);

/// Maps `f` over `0..count` using `workers` threads, preserving order.
///
/// `f` must be `Sync` (it is called concurrently from several threads) and
/// is given the scenario index.
pub fn ordered_parallel_map<T, F>(count: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    assert!(workers >= 1);
    if count == 0 {
        return Vec::new();
    }
    let workers = workers.min(count);
    if workers == 1 {
        return (0..count).map(f).collect();
    }
    chunked_parallel_map(count, workers, f)
}

/// The chunked worklist implementation behind [`ordered_parallel_map`]
/// (separate so the claim discipline is testable even with one worker).
fn chunked_parallel_map<T, F>(count: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();

    // Aim for several chunks per worker so dynamic claiming evens out
    // skewed per-index costs without per-index synchronization.
    let chunk_size = count.div_ceil(workers * 8).max(1);
    let worklist: Mutex<VecDeque<Chunk<'_, T>>> = Mutex::new(
        slots
            .chunks_mut(chunk_size)
            .enumerate()
            .map(|(c, chunk)| (c * chunk_size, chunk))
            .collect(),
    );

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // Front-to-back: the head of the index range is handed
                // out (and therefore finished) first.
                let claimed = worklist.lock().expect("worklist poisoned").pop_front();
                let Some((base, chunk)) = claimed else {
                    break;
                };
                for (offset, slot) in chunk.iter_mut().enumerate() {
                    *slot = Some(f(base + offset));
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|s| s.expect("every index processed"))
        .collect()
}

/// A sensible worker count for survey workloads.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = ordered_parallel_map(100, 8, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn matches_sequential() {
        let seq = ordered_parallel_map(50, 1, |i| i * i);
        let par = ordered_parallel_map(50, 7, |i| i * i);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = ordered_parallel_map(0, 4, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(ordered_parallel_map(1, 8, |i| i + 1), vec![1]);
    }

    #[test]
    fn heavy_closure_state() {
        // Closures may capture shared read-only state.
        let table: Vec<u64> = (0..1000).map(|i| i as u64 * 7).collect();
        let out = ordered_parallel_map(1000, 6, |i| table[i] + 1);
        assert_eq!(out[999], 999 * 7 + 1);
    }

    #[test]
    fn more_workers_than_items() {
        assert_eq!(ordered_parallel_map(3, 64, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn uneven_chunk_tail_covered() {
        // Exercise chunk sizes that don't divide the count evenly.
        for count in [1usize, 7, 17, 97, 129] {
            let out = ordered_parallel_map(count, 5, |i| i + 10);
            assert_eq!(out, (0..count).map(|i| i + 10).collect::<Vec<_>>());
        }
    }

    /// Regression: a single worker draining the chunked worklist must
    /// claim indices front to back. With the old `Vec::pop` discipline
    /// the chunks were handed out back to front, so index 0 was
    /// processed in the *last* chunk.
    #[test]
    fn single_worker_claims_front_to_back() {
        let order: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        // 97 indices over one worker: many chunks, one claimant, so the
        // observed call order *is* the claim order.
        let out = chunked_parallel_map(97, 1, |i| {
            order.lock().expect("order poisoned").push(i);
            i
        });
        assert_eq!(out, (0..97).collect::<Vec<_>>());
        let order = order.into_inner().expect("order poisoned");
        assert_eq!(
            order,
            (0..97).collect::<Vec<_>>(),
            "chunks must be claimed head first"
        );
    }
}
