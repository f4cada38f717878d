//! Small measurement helpers: medians, percentiles, the process's peak
//! resident set, and the loop that repeats whole units of work.

use std::time::Instant;

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank `p`-th percentile of `xs` (0 for an empty sample).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// `x / by`, or 0 when nothing was counted.
pub fn per(x: f64, by: u64) -> f64 {
    if by == 0 {
        0.0
    } else {
        x / by as f64
    }
}

/// The process's high-water resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Timed seconds of each unit a run repeated.
#[derive(Debug, Default)]
pub struct Units {
    /// Timed seconds, one per unit.
    pub wall: Vec<f64>,
}

impl Units {
    /// Repeats `unit` (which returns its timed seconds) until at least
    /// `seconds` of timed work and `min_units` units were measured, or
    /// `max_units` units ran. Every unit is the same work, so the count
    /// only changes how many samples the medians see.
    pub fn repeat(
        seconds: f64,
        min_units: usize,
        max_units: usize,
        mut unit: impl FnMut(usize) -> f64,
    ) -> Units {
        let mut units = Units::default();
        while units.wall.len() < max_units
            && (units.wall.len() < min_units || units.wall.iter().sum::<f64>() < seconds)
        {
            let wall = unit(units.wall.len());
            units.wall.push(wall);
        }
        units
    }

    /// Units run.
    pub fn count(&self) -> u64 {
        self.wall.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn repeat_runs_whole_units_until_both_limits_are_met() {
        let u = Units::repeat(1.0, 2, 10, |_| 0.3);
        assert_eq!(u.count(), 4);
        let u = Units::repeat(0.1, 3, 10, |_| 1.0);
        assert_eq!(u.count(), 3);
        let u = Units::repeat(100.0, 1, 5, |_| 1.0);
        assert_eq!(u.count(), 5);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mib() > 0.0);
    }
}
