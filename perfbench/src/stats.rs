//! Summary statistics over latency samples.

/// The `q`-quantile (0..=1) of `xs`, interpolating between order
/// statistics; `NaN` when `xs` is empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The tail percentile reported as `*_p95`: 0.95, or the highest
/// percentile that still leaves at least ten samples beyond it.
pub fn tail_q(n: usize) -> f64 {
    if n == 0 {
        return 0.95;
    }
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.95)
}

pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.max(1e-9).ln()).sum::<f64>() / xs.len() as f64).exp()
}
