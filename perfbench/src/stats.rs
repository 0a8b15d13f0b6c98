//! Order statistics over measured samples.

/// Nearest-rank quantile of `values` (`0 < q <= 1`); sorts in place.
/// Returns `None` for an empty sample.
pub fn quantile(values: &mut [f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    Some(values[rank - 1])
}

/// Median (nearest-rank p50; the mean of the middle pair for even counts,
/// so two repetitions report their mean rather than the faster one).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Time `reps` batches of `per_batch` calls of `f` and return the median
/// per-call time in microseconds. Batching keeps clock-read overhead out
/// of sub-microsecond calls.
pub fn per_call_us(reps: usize, per_batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut batches = Vec::with_capacity(reps);
    let mut i = 0;
    for _ in 0..reps {
        let t = std::time::Instant::now();
        for _ in 0..per_batch {
            f(i);
            i += 1;
        }
        batches.push(t.elapsed().as_secs_f64() * 1e6 / per_batch as f64);
    }
    median(&batches).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), Some(50.0));
        assert_eq!(quantile(&mut v, 0.99), Some(99.0));
        assert_eq!(quantile(&mut v, 1.0), Some(100.0));
        assert_eq!(quantile(&mut [], 0.5), None);
    }

    #[test]
    fn median_even_is_mid_mean() {
        assert_eq!(median(&[3.0, 1.0]), Some(2.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }
}
