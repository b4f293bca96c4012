//! The statistics every reported number goes through: exact nearest-rank
//! percentiles over raw samples, medians over rounds, interval-union self
//! time, and the quartile spread the acceptance rule is stated in.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values when even). `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Exact nearest-rank percentile of an ascending `sorted` slice: the
/// smallest sample with at least `pct` percent of the samples at or below
/// it. Never below the minimum sample, never interpolated.
pub fn nearest_rank(sorted: &[u32], pct: f64) -> Option<u32> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest whole percentile not above `wanted` that still has at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median has
/// too few (fewer than 20 samples).
pub fn supported_percentile(samples: usize, wanted: u32) -> Option<u32> {
    (50..=wanted).rev().find(|p| {
        let rank = (f64::from(*p) / 100.0 * samples as f64).ceil() as usize;
        samples.saturating_sub(rank) >= MIN_BEYOND
    })
}

/// A tail latency and the percentile it was read at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (≤ the one asked for).
    pub percentile: u32,
    /// Its value, in the samples' unit.
    pub value: u32,
}

/// Tail of an ascending `sorted` slice at `wanted`, dropped to the highest
/// percentile the sample count supports.
pub fn tail(sorted: &[u32], wanted: u32) -> Option<Tail> {
    let percentile = supported_percentile(sorted.len(), wanted)?;
    Some(Tail {
        percentile,
        value: nearest_rank(sorted, f64::from(percentile))?,
    })
}

/// Total length covered by the union of `[start, end)` intervals; sorts
/// `spans` in place. Overlapping children (a prefetch running beside a
/// decrypt) are counted once, so `parent − union(children)` is self time.
pub fn union_len(spans: &mut [(u64, u64)]) -> u64 {
    spans.sort_unstable();
    let mut total = 0u64;
    let mut reach = 0u64;
    for &(start, end) in spans.iter() {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is the rule the benchmark is
/// accepted by. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_rounds() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        // One slow round does not move it.
        assert_eq!(median(&[10.0, 10.0, 10.0, 10.0, 900.0]), Some(10.0));
    }

    #[test]
    fn nearest_rank_is_exact_and_never_below_the_minimum() {
        let s: Vec<u32> = (1..=100).collect();
        assert_eq!(nearest_rank(&s, 50.0), Some(50));
        assert_eq!(nearest_rank(&s, 99.0), Some(99));
        assert_eq!(nearest_rank(&s, 100.0), Some(100));
        assert_eq!(nearest_rank(&s, 0.0), Some(1));
        assert_eq!(nearest_rank(&[7, 7, 9], 1.0), Some(7));
        assert_eq!(nearest_rank(&[], 50.0), None);
        // Always a sample, never a bucket floor or an interpolation.
        let gaps = [10, 20, 1000, 5000];
        for p in [1.0, 25.0, 50.0, 75.0, 99.0] {
            assert!(gaps.contains(&nearest_rank(&gaps, p).unwrap()));
        }
        for n in 1..60usize {
            let s: Vec<u32> = (0..n as u32).map(|i| i * i).collect();
            assert!(nearest_rank(&s, 99.0) >= nearest_rank(&s, 50.0));
            assert!(nearest_rank(&s, 1.0).unwrap() >= s[0]);
        }
    }

    #[test]
    fn tail_drops_to_the_highest_supported_percentile() {
        // 1000 samples leave exactly 10 beyond p99.
        assert_eq!(supported_percentile(1000, 99), Some(99));
        assert_eq!(supported_percentile(999, 99), Some(98));
        // 640 whole-file writes: 6 beyond p99, 12 beyond p98.
        assert_eq!(supported_percentile(640, 99), Some(98));
        assert_eq!(supported_percentile(20, 99), Some(50));
        assert_eq!(supported_percentile(19, 99), None);
        let s: Vec<u32> = (1..=640).collect();
        let t = tail(&s, 99).unwrap();
        assert_eq!(t.percentile, 98);
        assert_eq!(t.value, 628);
        assert!(s.len() - t.value as usize >= MIN_BEYOND);
        assert_eq!(tail(&s[..5], 99), None);
    }

    #[test]
    fn union_counts_overlapping_children_once() {
        assert_eq!(union_len(&mut []), 0);
        assert_eq!(union_len(&mut [(0, 10), (20, 30)]), 20);
        // A prefetch (5..25) overlapping two sequential fetches.
        assert_eq!(union_len(&mut [(0, 10), (5, 25), (20, 30)]), 30);
        // Nested and unsorted.
        assert_eq!(union_len(&mut [(40, 50), (0, 100), (10, 20)]), 100);
        // Empty and inverted intervals add nothing.
        assert_eq!(union_len(&mut [(5, 5), (9, 3)]), 0);
        // Self time of a 100-unit parent with those children.
        let mut kids = [(10, 30), (20, 60)];
        assert_eq!(100 - union_len(&mut kids), 50);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(quartile_spread(&v), Some(1.0));
    }
}
