//! Order statistics that always travel with their sample count.

/// Median and tail of one sample set, with the number of samples behind
/// them (a p99 over twelve samples is a maximum, and says so).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples summarized.
    pub n: usize,
    /// Median (nearest-rank 50th percentile).
    pub p50: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Summarizes `samples`; an empty set gives zeros with `n == 0`.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            p50: nearest_rank(&sorted, 50.0),
            p99: nearest_rank(&sorted, 99.0),
        }
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `pct` percent of the samples at or below it. Zero when empty.
pub fn nearest_rank(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `samples` (nearest rank). Zero when empty.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).p50
}

/// Lower decile (nearest rank) of `samples`: the minimum for ten samples or
/// fewer. Zero when empty.
///
/// Host timings on a shared machine are slowed, never sped up, by other
/// tenants, in swings of tens of percent that last seconds; the lower
/// decile of short timed units tracks the machine's unloaded speed.
pub fn floor(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 10.0)
}

/// Host time of one repetition built from its parts: `reps[r][u]` is the
/// time of unit `u` (a model step, a call) in repetition `r`; each unit
/// contributes its [`floor`] over the repetitions. Units missing from some
/// repetitions count over the repetitions that have them.
pub fn floor_sum(reps: &[Vec<f64>]) -> f64 {
    let units = reps.iter().map(Vec::len).max().unwrap_or(0);
    (0..units)
        .map(|u| {
            floor(
                &reps
                    .iter()
                    .filter_map(|r| r.get(u).copied())
                    .collect::<Vec<_>>(),
            )
        })
        .sum()
}

/// SplitMix64: a small seeded generator for generated inputs.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }

    /// Shuffles `items` (Fisher-Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i));
        }
    }
}

/// Minimum and maximum of a non-empty iterator of counts.
pub fn range(values: impl IntoIterator<Item = usize>) -> (usize, usize) {
    values
        .into_iter()
        .fold((usize::MAX, 0), |(lo, hi), v| (lo.min(v), hi.max(v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_reports_its_sample_count() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!(s.n, 3);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.p99, 3.0);
        let empty = Summary::of(&[]);
        assert_eq!((empty.n, empty.p50, empty.p99), (0, 0.0, 0.0));
    }

    #[test]
    fn nearest_rank_picks_a_sample() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 100.0);
        assert_eq!(nearest_rank(&v, 99.0), 198.0);
        assert_eq!(nearest_rank(&v, 100.0), 200.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
        assert_eq!(median(&[5.0, 1.0, 4.0, 2.0]), 2.0);
    }

    #[test]
    fn floor_takes_each_units_lower_decile() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(floor(&v), 2.0);
        assert_eq!(floor(&[3.0, 1.0]), 1.0);
        // Unit 0 is fastest in rep 1, unit 1 in rep 0.
        let reps = vec![vec![5.0, 1.0], vec![2.0, 4.0, 7.0]];
        assert_eq!(floor_sum(&reps), 2.0 + 1.0 + 7.0);
        assert_eq!(floor_sum(&[]), 0.0);
    }

    #[test]
    fn range_spans_the_values() {
        assert_eq!(range([4usize, 9, 2]), (2, 9));
    }
}
