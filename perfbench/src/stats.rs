//! Nearest-rank percentiles over one run's samples, and the host's steal
//! share per slice of the window. The spread across runs is `repeat.py`'s
//! job, with Python's `statistics.quantiles`.

use crate::drive::HostSample;

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of the samples are at or below it. `None` on no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The nearest-rank median.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The share of the host's CPU time the hypervisor stole between `from`
/// and `to` (seconds from the start of the run), from the samples nearest
/// outside that interval. `None` without two distinct samples.
pub fn steal_share(host: &[HostSample], from: f64, to: f64) -> Option<f64> {
    let before = host.iter().rev().find(|h| h.at <= from).or(host.first())?;
    let after = host.iter().find(|h| h.at >= to).or(host.last())?;
    stolen(before, after)
}

/// The host's steal share between two samples; `None` when no CPU time
/// passed between them.
pub fn stolen(from: &HostSample, to: &HostSample) -> Option<f64> {
    let total = to.total.checked_sub(from.total).filter(|&t| t > 0)?;
    Some(to.steal.saturating_sub(from.steal) as f64 / total as f64)
}

/// Which slices count: those whose steal share is at most the median
/// slice's (so at least half), and those without a reading. All slices
/// count when none has a reading.
pub fn least_disturbed(shares: &[Option<f64>]) -> Vec<bool> {
    let known: Vec<f64> = shares.iter().flatten().copied().collect();
    let Some(limit) = median(&known) else {
        return vec![true; shares.len()];
    };
    shares
        .iter()
        .map(|s| s.is_none_or(|s| s <= limit))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_known_samples() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(50.0));
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        assert_eq!(percentile(&samples, 99.0), Some(99.0));
        assert_eq!(percentile(&samples, 100.0), Some(100.0));
        // Order of the input does not matter.
        let shuffled = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&shuffled), Some(3.0));
        // Rank ceil(0.9 * 5) = 5: the largest of five.
        assert_eq!(percentile(&shuffled, 90.0), Some(5.0));
        // Rank ceil(0.5 * 4) = 2: the lower middle, never an average.
        assert_eq!(median(&[10.0, 40.0, 20.0, 30.0]), Some(20.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 0.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    fn sample(at: f64, steal: u64, total: u64) -> HostSample {
        HostSample { at, steal, total }
    }

    #[test]
    fn steal_share_between_the_nearest_outside_samples() {
        let host = [
            sample(0.0, 0, 0),
            sample(1.0, 10, 200),
            sample(2.0, 60, 400),
            sample(3.0, 60, 600),
        ];
        assert_eq!(steal_share(&host, 1.0, 2.0), Some(0.25));
        // An interval between samples widens to the ones around it.
        assert_eq!(steal_share(&host, 1.5, 2.5), Some(50.0 / 400.0));
        assert_eq!(steal_share(&host, 0.0, 3.0), Some(0.1));
        // Past the last sample: clamped to the ends.
        assert_eq!(steal_share(&host, 2.0, 9.0), Some(0.0));
        assert_eq!(steal_share(&host[..1], 0.0, 1.0), None);
        assert_eq!(steal_share(&[], 0.0, 1.0), None);
    }

    #[test]
    fn the_least_disturbed_half_counts() {
        let kept = least_disturbed(&[Some(0.3), Some(0.0), Some(0.1), Some(0.2)]);
        assert_eq!(kept, [false, true, true, false]);
        // Ties at the median all count: no steal anywhere keeps everything.
        assert_eq!(least_disturbed(&[Some(0.0); 3]), [true; 3]);
        assert_eq!(
            least_disturbed(&[Some(0.5), None, Some(0.0)]),
            [false, true, true]
        );
        assert_eq!(least_disturbed(&[None, None]), [true, true]);
    }
}
