//! The benchmark's own arithmetic: percentiles, tail utilization, self
//! time and shard balance. Kept free of timing and I/O so the rules are
//! unit-tested exactly.

/// Samples that must lie strictly above a reported percentile.
const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `p`-th percentile (0 < p < 1) of `samples` by nearest rank, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it: a
/// percentile is only reported where the sample supports it.
pub fn supported_percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile rank {p} outside (0, 1)");
    let n = samples.len();
    // The epsilon keeps float error (0.95 * 200 = 190.00000000000003)
    // from pushing an exact rank up by one.
    let rank = ((p * n as f64 - 1e-9).ceil() as usize).max(1);
    if n < rank + MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Probes per crossing over the last `fraction` of all probes sent:
/// walks the per-crossing batch sizes backwards until that share of the
/// probes is covered, and divides by the crossings it took.
pub fn tail_probes_per_crossing(batches: &[u32], fraction: f64) -> f64 {
    let total: u64 = batches.iter().map(|&b| u64::from(b)).sum();
    if total == 0 {
        return 0.0;
    }
    let want = ((total as f64 * fraction).ceil() as u64).max(1);
    let (mut probes, mut crossings) = (0u64, 0u64);
    for &batch in batches.iter().rev() {
        probes += u64::from(batch);
        crossings += 1;
        if probes >= want {
            break;
        }
    }
    probes as f64 / crossings as f64
}

/// Length of the union of `intervals` (`[start, end)` pairs, any order,
/// possibly overlapping) clipped to `window`.
pub fn covered(window: (u64, u64), intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(window.0), e.min(window.1)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0u64;
    let mut open: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match open {
            Some((os, oe)) if s <= oe => open = Some((os, oe.max(e))),
            Some((os, oe)) => {
                total += oe - os;
                open = Some((s, e));
            }
            None => open = Some((s, e)),
        }
    }
    if let Some((os, oe)) = open {
        total += oe - os;
    }
    total
}

/// A parent span's self time: its duration minus the part of it that
/// its children's spans cover.
pub fn self_time(window: (u64, u64), children: &[(u64, u64)]) -> u64 {
    (window.1 - window.0) - covered(window, children)
}

/// The largest share of the work any one shard carried (1.0 when one
/// shard did everything; `1 / shards` when perfectly balanced).
pub fn max_share(per_shard: &[u64]) -> f64 {
    let total: u64 = per_shard.iter().sum();
    if total == 0 {
        return 0.0;
    }
    per_shard.iter().copied().max().unwrap_or(0) as f64 / total as f64
}

/// The most intervals open at any one instant (`[start, end]`, both
/// ends inclusive: a destination reported at the instant another is
/// pulled counts as overlapping).
pub fn max_overlap(intervals: &[(u64, u64)]) -> usize {
    let mut events: Vec<(u64, i8)> = Vec::with_capacity(intervals.len() * 2);
    for &(s, e) in intervals {
        events.push((s, 1));
        events.push((e, -1));
    }
    // Opens sort before closes at the same instant.
    events.sort_unstable_by_key(|&(t, delta)| (t, -delta));
    let (mut open, mut peak) = (0i64, 0i64);
    for (_, delta) in events {
        open += i64::from(delta);
        peak = peak.max(open);
    }
    peak as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 200 samples: p95 is rank 190, ten samples above it.
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(supported_percentile(&samples, 0.95), Some(190.0));
        // 199 samples: rank 190 leaves only nine above.
        assert_eq!(supported_percentile(&samples[..199], 0.95), None);
        // The median of 21 samples has ten above it; of 20, rank 10 has
        // ten above; of 19, rank 10 has nine.
        let small: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(supported_percentile(&small, 0.5), Some(11.0));
        assert_eq!(supported_percentile(&small[..20], 0.5), Some(10.0));
        assert_eq!(supported_percentile(&small[..19], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (1..=100).map(f64::from).collect();
        samples.reverse();
        assert_eq!(supported_percentile(&samples, 0.5), Some(50.0));
        assert_eq!(supported_percentile(&samples, 0.9), Some(90.0));
        assert_eq!(supported_percentile(&samples, 0.95), None);
    }

    #[test]
    fn tail_walks_back_over_the_last_tenth_of_probes() {
        // 100 probes; the last 10 arrive in crossings of 4, 3, 2, 1
        // (read backwards: 1, 2, 3, 4 reach 10 after four crossings).
        let batches = [90, 4, 3, 2, 1];
        assert_eq!(tail_probes_per_crossing(&batches, 0.10), 2.5);
        // A tail inside one big final crossing is that crossing.
        assert_eq!(tail_probes_per_crossing(&[10, 90], 0.10), 90.0);
        assert_eq!(tail_probes_per_crossing(&[], 0.10), 0.0);
        // The whole series at fraction 1 is the plain average.
        assert_eq!(tail_probes_per_crossing(&[6, 2, 4], 1.0), 4.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent [0, 100); children cover [10, 30) and [20, 50) (overlap
        // counted once) and [90, 120) (clipped to 90..100).
        let children = [(10, 30), (20, 50), (90, 120)];
        assert_eq!(covered((0, 100), &children), 50);
        assert_eq!(self_time((0, 100), &children), 50);
        // Adjacent children do not double count; no children = all self.
        assert_eq!(self_time((0, 10), &[(0, 5), (5, 10)]), 0);
        assert_eq!(self_time((5, 25), &[]), 20);
        // Children entirely outside the parent count for nothing.
        assert_eq!(self_time((100, 200), &[(0, 50), (300, 400)]), 100);
    }

    #[test]
    fn max_share_of_shards() {
        assert_eq!(max_share(&[577_033, 0]), 1.0);
        assert_eq!(max_share(&[50, 50]), 0.5);
        assert_eq!(max_share(&[30, 10]), 0.75);
        assert_eq!(max_share(&[0, 0]), 0.0);
    }

    #[test]
    fn overlap_counts_open_intervals() {
        assert_eq!(max_overlap(&[(0, 10), (5, 15), (20, 30)]), 2);
        assert_eq!(max_overlap(&[(0, 10), (10, 20)]), 2);
        assert_eq!(max_overlap(&[(0, 1); 5]), 5);
        assert_eq!(max_overlap(&[]), 0);
    }
}
