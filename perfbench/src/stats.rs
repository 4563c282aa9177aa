//! Sample statistics: medians and the tail percentile the output reports
//! beside every timing.

/// Raw samples of one measured quantity, kept whole so every figure is
/// derived from the same data.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

/// Percentile ladder the tail figure is chosen from, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 90.0, 75.0, 50.0];

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The `p`-th percentile (0–100), nearest-rank on the sorted samples.
    pub fn percentile(&self, p: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return f64::NAN;
        }
        // The epsilon keeps float error (0.9 × 100 = 90.000…01) from
        // bumping an exact rank up by one.
        let rank = ((p / 100.0) * v.len() as f64 - 1e-9).ceil().max(1.0) as usize;
        v[rank.min(v.len()) - 1]
    }

    /// The median; the mean of the two middle samples for even counts.
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => f64::NAN,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    /// The highest percentile of the ladder that still has at least ten
    /// samples above it, with its value.
    pub fn tail(&self) -> (f64, f64) {
        let n = self.0.len() as f64;
        let p = TAIL_LADDER
            .into_iter()
            .find(|p| n - ((p / 100.0) * n - 1e-9).ceil() >= 10.0)
            .unwrap_or(50.0);
        (p, self.percentile(p))
    }

    /// `median (pXX value, n samples)` for the human-readable report.
    pub fn describe(&self, unit: &str) -> String {
        let (p, v) = self.tail();
        format!(
            "median {:.4} {unit}  p{p} {:.4} {unit}  n={}",
            self.median(),
            v,
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(v: &[f64]) -> Samples {
        let mut s = Samples::default();
        v.iter().for_each(|x| s.push(*x));
        s
    }

    #[test]
    fn median_and_percentiles() {
        let s = of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.median(), 3.0);
        assert_eq!(of(&[1.0, 2.0, 3.0, 4.0]).median(), 2.5);
        assert_eq!(s.percentile(100.0), 5.0);
        assert_eq!(s.percentile(20.0), 1.0);
        let hundred = of(&(1..=100).map(f64::from).collect::<Vec<_>>());
        assert_eq!(hundred.percentile(90.0), 90.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let s = of(&(0..1000).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.tail().0, 99.0);
        let s = of(&(0..100).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.tail().0, 90.0);
        let s = of(&(0..12).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.tail().0, 50.0);
    }
}
