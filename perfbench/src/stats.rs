//! Small statistics helpers: medians, exact order-statistic quantiles, and
//! the exact admission-wait distribution of a run's journal.

use desim::SimTime;
use fabricd::{Journal, JournalEntry};
use std::collections::BTreeMap;
use workloads::JobRequest;

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile of `xs` (`q` in `[0, 1]`): the smallest sample
/// with at least `q` of the samples at or below it. Exact — no binning.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// Simulated arrival → admit waits, in seconds, one per admitted trace
/// job. Admission instants come from the journal's `Admit` records (plain
/// trace job ids) and `MultiGroupAdmit` records (stitched jobs, whose leg
/// `Admit`s carry high-bit leg ids and are skipped); arrival instants come
/// from the regenerated trace, where job id = trace index. A job admitted
/// twice (impossible today) would count once, at its first admission.
pub fn admission_waits(journal: &Journal, trace: &[JobRequest]) -> Vec<f64> {
    let mut admitted: BTreeMap<u32, SimTime> = BTreeMap::new();
    for r in journal.records() {
        let job = match &r.entry {
            JournalEntry::Admit { job, .. } | JournalEntry::MultiGroupAdmit { job, .. } => *job,
            _ => continue,
        };
        if (job as usize) < trace.len() {
            admitted.entry(job).or_insert(r.at);
        }
    }
    admitted
        .iter()
        .filter_map(|(&job, &at)| {
            trace
                .get(job as usize)
                .map(|req| at.saturating_since(req.arrival).as_secs_f64())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_are_exact() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), Some(50.0));
        assert_eq!(quantile(&xs, 0.99), Some(99.0));
        assert_eq!(quantile(&xs, 1.0), Some(100.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    /// The program's own admission-wait histogram reports the midpoint of
    /// its first 56.25 s bin for a run whose every wait is zero; the exact
    /// order statistic reports zero. The benchmark uses the latter.
    #[test]
    fn histogram_midpoint_differs_from_exact_wait_quantile() {
        let mut m = fabricd::Metrics::new();
        let waits = [0.0; 64];
        for w in waits {
            m.record_wait(w);
        }
        let binned = m.admission_wait().quantile(0.5);
        assert_eq!(binned, Some(28.125));
        assert_eq!(quantile(&waits, 0.5), Some(0.0));
        assert_eq!(quantile(&waits, 0.99), Some(0.0));
    }
}
