//! Order statistics over raw samples (no bucketing).

/// The `q`-quantile of `v` by linear interpolation between closest ranks;
/// `0.0` when `v` is empty. Sorts `v` in place.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `v` (sorts in place).
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// The arithmetic mean of `v`; `0.0` when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Keeps the values whose steal share is at most the lower quartile of
/// all steal shares: the calmest quarter of a run's samples. On a shared
/// host the hypervisor steals CPU in bursts, and a sample taken during a
/// burst measures the neighbours, not the code. With no steal every
/// sample is kept.
pub fn calmest(samples: &[(f64, f64)]) -> Vec<f64> {
    let mut steal: Vec<f64> = samples.iter().map(|s| s.0).collect();
    let cut = quantile(&mut steal, 0.25);
    samples.iter().filter(|s| s.0 <= cut).map(|s| s.1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calmest_drops_stolen_samples_and_keeps_all_when_calm() {
        let s = [(0.0, 1.0), (0.3, 9.0), (0.0, 2.0), (0.2, 8.0), (0.1, 5.0)];
        assert_eq!(calmest(&s), vec![1.0, 2.0]);
        let calm = [(0.0, 1.0), (0.0, 2.0), (0.0, 3.0)];
        assert_eq!(calmest(&calm), vec![1.0, 2.0, 3.0]);
    }
}
