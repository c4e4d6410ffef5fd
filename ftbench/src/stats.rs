//! Order statistics over timing samples.

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The median (mean of the two middle values for an even count); `None`
/// for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The highest percentile that leaves at least [`TAIL_BEYOND`] samples
/// strictly above its rank, as `(percentile, value)`: with `n` samples that
/// is the sample of 0-based rank `n - 1 - TAIL_BEYOND`, i.e. percentile
/// `100 (n - TAIL_BEYOND) / n`. `None` when there are not more than
/// [`TAIL_BEYOND`] samples.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - 1 - TAIL_BEYOND;
    let percentile = 100.0 * (n - TAIL_BEYOND) as f64 / n as f64;
    Some((percentile, sorted[rank]))
}

/// One rung of an offered-rate ladder: the rate and whether it met the
/// latency limit, with its tail latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    pub rate: f64,
    pub tail_ms: f64,
    /// No failures and no send lateness beyond its bound.
    pub clean: bool,
}

/// The highest rate on the ladder (sorted by rate) that meets the latency
/// limit `slo_ms`. Between the last rung that meets it and the first that
/// misses it on latency alone, the rate is interpolated linearly on the
/// tail latency, so the figure moves smoothly as the system speeds up or
/// slows down. If the first rung already misses, it is scaled down by the
/// latency overshoot; if every rung meets the limit, the top rate stands.
pub fn max_rate_within(rungs: &[Rung], slo_ms: f64) -> f64 {
    let meets = |r: &Rung| r.clean && r.tail_ms <= slo_ms;
    let Some(first_miss) = rungs.iter().position(|r| !meets(r)) else {
        return rungs.last().map_or(0.0, |r| r.rate);
    };
    let miss = rungs[first_miss];
    if first_miss == 0 {
        return miss.rate * (slo_ms / miss.tail_ms).min(1.0);
    }
    let last = rungs[first_miss - 1];
    if !miss.clean || miss.tail_ms <= last.tail_ms {
        return last.rate;
    }
    last.rate + (miss.rate - last.rate) * (slo_ms - last.tail_ms) / (miss.tail_ms - last.tail_ms)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let (percentile, value) = tail(&samples).unwrap();
        assert_eq!(value, 90.0);
        assert_eq!(percentile, 90.0);
        assert_eq!(samples.iter().filter(|&&s| s > value).count(), 10);

        let samples: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let (percentile, value) = tail(&samples).unwrap();
        assert_eq!(value, 989.0);
        assert_eq!(percentile, 99.0);
    }

    fn rung(rate: f64, tail_ms: f64, clean: bool) -> Rung {
        Rung {
            rate,
            tail_ms,
            clean,
        }
    }

    #[test]
    fn max_rate_interpolates_between_the_rungs_around_the_limit() {
        let rungs = [
            rung(100.0, 20.0, true),
            rung(200.0, 40.0, true),
            rung(300.0, 140.0, true),
            // A later rung that meets the limit again does not count.
            rung(400.0, 30.0, true),
        ];
        assert_eq!(max_rate_within(&rungs, 90.0), 250.0);
        assert_eq!(max_rate_within(&rungs, 40.0), 200.0);
        assert_eq!(max_rate_within(&rungs[..2], 90.0), 200.0);
        // Failures or lateness void a rung whatever its latency.
        let rungs = [rung(100.0, 20.0, true), rung(200.0, 30.0, false)];
        assert_eq!(max_rate_within(&rungs, 90.0), 100.0);
        // Missing on the first rung scales it down.
        assert_eq!(max_rate_within(&[rung(100.0, 180.0, true)], 90.0), 50.0);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&eleven), Some((100.0 / 11.0, 0.0)));
    }
}
