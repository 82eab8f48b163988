//! Order statistics for the reported timings.
//!
//! A timing is reported as its median and the highest percentile that has at
//! least ten samples beyond it (see [`tail_rank`]); the sample count travels
//! with it so a reader can tell how far the tail is supported.

/// Percentiles the tail rule may report, lowest first.
pub const TAIL_CANDIDATES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile in [`TAIL_CANDIDATES`] with at least
/// [`MIN_BEYOND`] samples beyond it among `n`, or `None` when even the
/// median lacks that support.
pub fn tail_rank(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .rev()
        .find(|p| beyond(n, *p) >= MIN_BEYOND)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
fn beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples, in
/// integer arithmetic on thousandths of a percent (`99.9 / 100 * 10000` is
/// not exactly 9990 in floating point).
fn nearest_rank(n: usize, p: f64) -> usize {
    let milli = (p * 1000.0).round() as u128;
    let rank = (milli * n as u128).div_ceil(100_000) as usize;
    rank.clamp(1, n.max(1))
}

/// Nearest-rank percentile of `values` (sorted in place).  `NaN` when empty.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    values[nearest_rank(values.len(), p) - 1]
}

/// The `p`-th percentile of `values`, but only when the tail rule supports
/// it; an unsupported request is an error naming the sample count.
pub fn supported_percentile(values: &mut [f64], p: f64, what: &str) -> Result<f64, String> {
    match tail_rank(values.len()) {
        Some(max) if p <= max => Ok(percentile(values, p)),
        _ => Err(format!(
            "{what}: p{p} needs {MIN_BEYOND} samples beyond it, only {} samples",
            values.len()
        )),
    }
}

/// Median of `values` (sorted in place); `NaN` when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Arithmetic mean; `NaN` when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The median, over consecutive windows of about `window` samples (in
/// arrival order), of each window's `p`-th percentile, with the number of
/// windows.  A stall of the host lifts the tail of the windows it hits; the
/// median window shows the tail the system itself produces.  Every window
/// must support `p` by the tail rule.
pub fn windowed_percentile(values: &[f64], window: usize, p: f64) -> Result<(f64, usize), String> {
    let windows = (values.len() / window.max(1)).max(1);
    let mut tails = Vec::with_capacity(windows);
    for w in 0..windows {
        let mut chunk =
            values[w * values.len() / windows..(w + 1) * values.len() / windows].to_vec();
        tails.push(supported_percentile(&mut chunk, p, "window")?);
    }
    Ok((median(&mut tails), windows))
}
