//! Order statistics, process memory, the same-run reference kernel, and the
//! result line.

use elp2im_core::BitVec;
use std::hint::black_box;
use std::time::Instant;

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The `p`-th percentile (nearest rank); 0 for no samples.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * s.len() as f64).ceil() as usize;
    s.get(rank.saturating_sub(1)).copied().unwrap_or(0.0)
}

/// The highest percentile with at least ten samples beyond it:
/// `(value, percentile, samples)`. With ten or fewer samples it is the
/// maximum.
pub fn tail(v: &[f64]) -> (f64, f64, usize) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n <= 10 {
        return (s.last().copied().unwrap_or(0.0), 100.0, n);
    }
    (s[n - 11], 100.0 * (n - 10) as f64 / n as f64, n)
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set (VmHWM) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host ns per 64-bit word of `BitVec::and_assign` on 4 Mbit operands:
/// the median of 31 timed passes. Host-time ratios are normalized by this
/// figure from the same run, never by numbers from another host.
pub fn ref_and_ns_per_word() -> f64 {
    const BITS: usize = 1 << 22;
    let a = BitVec::ones(BITS);
    let mut acc = BitVec::ones(BITS);
    let words = BITS / 64;
    let samples: Vec<f64> = (0..31)
        .map(|_| {
            let t = Instant::now();
            acc.and_assign(black_box(&a));
            black_box(&acc);
            t.elapsed().as_nanos() as f64 / words as f64
        })
        .collect();
    median(&samples)
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
