//! Deterministic fork-join over scenario indices, and the one sweep
//! driver every survey runs on.
//!
//! Survey runs process thousands of independent scenarios; this helper
//! fans indices out over a fixed number of worker threads and returns
//! results *in index order*, so parallel runs are bit-identical to
//! sequential ones.
//!
//! The IP-level survey, the evaluation and the router-level survey all
//! use it only to fan *chunks* out across workers (`sweep_chunks`):
//! each chunk drives one `SweepEngine` (`sweep_engine`) over one shared
//! `MultiNetwork` whose lanes are the chunk's per-scenario simulators.
//! Within a chunk, concurrency is the engine's streaming admission, not
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

use crate::generator::TraceScenario;
use mlpt_core::{SweepConfig, SweepEngine};
use mlpt_sim::MultiNetwork;
use std::collections::VecDeque;
use std::ops::Range;
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

/// Runs a survey's sweep: splits `0..scenarios` into chunks of
/// `min(chunk_cap, ceil(scenarios / workers))` scenario ids, hands each
/// chunk's id range to `chunk` on `workers` threads (`0` runs as one),
/// and returns the rows flattened in scenario order.
///
/// The `ceil(scenarios / workers)` cap spreads a small sweep over the
/// workers instead of leaving it in one chunk. Chunking is pure scheduling: every
/// survey's report is identical however the sweep is sliced.
pub(crate) fn sweep_chunks<R, F>(
    scenarios: usize,
    workers: usize,
    chunk_cap: usize,
    chunk: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> Vec<R> + Sync,
{
    let workers = workers.max(1);
    let size = chunk_cap.min(scenarios.div_ceil(workers)).max(1);
    let chunks = scenarios.div_ceil(size);
    ordered_parallel_map(chunks, workers, |c| {
        chunk(c * size..((c + 1) * size).min(scenarios))
    })
    .into_iter()
    .flatten()
    .collect()
}

/// One streaming sweep engine over one lane per `(scenario, seed)`
/// pair, each lane that scenario's simulator built from `seed`, under a
/// fixed in-flight probe budget (default retry policy, no stall
/// watchdog, no stop set).
///
/// The engine probes every lane from one vantage point; the generator
/// pins a single source today, so this asserts that holds rather than
/// silently mis-sourcing a chunk if it changes.
pub(crate) fn sweep_engine<'a>(
    lanes: impl IntoIterator<Item = (&'a TraceScenario, u64)>,
    max_in_flight: usize,
) -> SweepEngine<MultiNetwork> {
    let mut source = None;
    let lanes = lanes
        .into_iter()
        .map(|(scenario, seed)| {
            let first = *source.get_or_insert(scenario.source);
            assert_eq!(
                first, scenario.source,
                "sweep chunks assume a single vantage point"
            );
            scenario.build_network(seed)
        })
        .collect();
    let net = MultiNetwork::new(lanes).expect("sweep lanes have unique destinations");
    SweepEngine::new(net, source.expect("a sweep has at least one lane")).with_config(SweepConfig {
        max_in_flight,
        ..SweepConfig::default()
    })
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

    /// Chunks are `min(cap, ceil(scenarios / workers))` ids, cover
    /// `0..scenarios` in order, and zero workers run as one.
    #[test]
    fn sweep_chunks_cover_ids_in_order() {
        let ranges = |scenarios: usize, workers: usize, cap: usize| {
            sweep_chunks(scenarios, workers, cap, |ids| vec![ids])
        };
        assert_eq!(
            ranges(40, 6, 128),
            vec![0..7, 7..14, 14..21, 21..28, 28..35, 35..40]
        );
        assert_eq!(ranges(10, 1, 4), vec![0..4, 4..8, 8..10]);
        assert_eq!(ranges(10, 0, 4), ranges(10, 1, 4));
        assert!(ranges(0, 3, 4).is_empty());
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
