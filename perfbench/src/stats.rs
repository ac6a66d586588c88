//! Order statistics the benchmark reports.

use std::collections::BTreeMap;

/// Nearest-rank percentile of an ascending `sorted` sample: the value at
/// rank `ceil(p/100 · n)` (1-based, clamped to `1..=n`). `None` when empty.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// The tail of an ascending sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample at the tail rank.
    pub value: f64,
    /// The nearest-rank percentile that rank stands for.
    pub pct: f64,
    /// How many samples lie beyond it.
    pub beyond: usize,
}

/// Highest percentile [`tail`] reports. Beyond it, the tenth-slowest of
/// thousands of requests is one scheduler stall on a shared 2-CPU host and
/// does not repeat from run to run.
pub const TAIL_MAX_PCT: f64 = 95.0;

/// The highest nearest-rank percentile, up to [`TAIL_MAX_PCT`], with at
/// least ten samples beyond it: rank `min(n − 10, ⌈0.95·n⌉)`. A sample too
/// small to put ten beyond its median reports the median instead, so the
/// tail never reads below the median. `None` when empty.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let median_rank = n.div_ceil(2);
    let cap_rank = ((TAIL_MAX_PCT / 100.0) * n as f64).ceil() as usize;
    let rank = n.saturating_sub(10).min(cap_rank).max(median_rank);
    Some(Tail {
        value: sorted[rank - 1],
        pct: 100.0 * rank as f64 / n as f64,
        beyond: n - rank,
    })
}

/// Sorts a copy of `xs` ascending (NaN-free input assumed).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (nearest rank) of an unsorted sample; 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    nearest_rank(&sorted(xs), 50.0).unwrap_or(0.0)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Median over `window_ns` windows of `stat` applied to each window's
/// ascending values; `points` are (time in ns, value). Empty windows are
/// skipped; 0 when there are no points.
pub fn median_of_windows(
    points: &[(u64, f64)],
    window_ns: u64,
    stat: impl Fn(&[f64]) -> f64,
) -> f64 {
    let mut windows: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for &(t, v) in points {
        windows.entry(t / window_ns.max(1)).or_default().push(v);
    }
    let per_window: Vec<f64> = windows.values().map(|v| stat(&sorted(v))).collect();
    median(&per_window)
}

/// Events per second: how many of `times` (ns from the start) fall in
/// each whole `window_ns` window of `[0, span_ns)`, median over those
/// windows. A span shorter than one window gives the plain mean rate.
pub fn window_rate(times: &[u64], span_ns: u64, window_ns: u64) -> f64 {
    let window_ns = window_ns.max(1);
    let whole = span_ns / window_ns;
    if whole == 0 {
        return if span_ns == 0 {
            0.0
        } else {
            times.len() as f64 * 1e9 / span_ns as f64
        };
    }
    let mut counts = vec![0u64; whole as usize];
    for &t in times {
        if let Some(c) = counts.get_mut((t / window_ns) as usize) {
            *c += 1;
        }
    }
    let per_s: Vec<f64> = counts
        .iter()
        .map(|&c| c as f64 * 1e9 / window_ns as f64)
        .collect();
    median(&per_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&xs, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&xs, 91.0), Some(10.0));
        assert_eq!(nearest_rank(&xs, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&xs, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert!((t.pct - 90.0).abs() < 1e-12);
        // The value is itself that nearest-rank percentile.
        assert_eq!(nearest_rank(&xs, t.pct), Some(t.value));
    }

    #[test]
    fn tail_stops_at_the_cap() {
        // From 200 samples on, p95 has at least ten beyond and is reported.
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().value, 190.0);
        assert_eq!(tail(&xs).unwrap().beyond, 10);
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 9_500.0);
        assert_eq!(t.beyond, 500);
        assert_eq!(nearest_rank(&xs, TAIL_MAX_PCT), Some(t.value));
    }

    #[test]
    fn median_of_windows_outvotes_a_stalled_window() {
        let second = 1_000_000_000u64;
        // Three seconds at 1..=100 ms, one second stalled at 1000 ms.
        let mut points: Vec<(u64, f64)> = Vec::new();
        for w in 0..4u64 {
            for i in 1..=100u64 {
                let v = if w == 2 { 1000.0 } else { i as f64 };
                points.push((w * second + i * 1000, v));
            }
        }
        let p95 = |v: &[f64]| nearest_rank(v, 95.0).unwrap();
        assert_eq!(median_of_windows(&points, second, p95), 95.0);
        // Over the whole sample the stall owns the top quarter.
        let all: Vec<f64> = points.iter().map(|p| p.1).collect();
        assert_eq!(p95(&sorted(&all)), 1000.0);
        assert_eq!(median_of_windows(&[], second, p95), 0.0);
    }

    #[test]
    fn small_samples_fall_back_to_the_median() {
        let xs: Vec<f64> = (1..=15).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 8.0);
        assert_eq!(t.beyond, 7);
        assert_eq!(Some(t.value), nearest_rank(&xs, 50.0));
        // At 20 samples rank n − 10 is the median rank itself.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().value, 10.0);
        assert_eq!(tail(&xs).unwrap().beyond, 10);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn window_rate_takes_the_median_whole_window() {
        let second = 1_000_000_000u64;
        // 100, 100, 10 (a stall) and 100 events in four seconds, plus a
        // partial fifth second that is left out.
        let mut times = Vec::new();
        for (w, n) in [(0u64, 100u64), (1, 100), (2, 10), (3, 100), (4, 3)] {
            times.extend((0..n).map(|i| w * second + i * 1000));
        }
        assert_eq!(window_rate(&times, 4 * second + second / 2, second), 100.0);
        // Half-second windows report per second.
        assert_eq!(window_rate(&[0, 1, 2], second / 2, second / 2), 6.0);
        // Shorter than one window: the mean rate.
        assert_eq!(window_rate(&[0, 1], second / 4, second), 8.0);
        assert_eq!(window_rate(&[], 0, second), 0.0);
    }
}
