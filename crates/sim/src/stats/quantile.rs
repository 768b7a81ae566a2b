//! Streaming quantile estimation (the P² algorithm).

use serde::{Deserialize, Serialize};

/// Streaming estimator of a single quantile using the P² algorithm
/// (Jain & Chlamtac, CACM 1985): five markers track the quantile with
/// O(1) memory and per-observation cost, no sample storage.
///
/// Used for tail statistics (e.g. P95/P99 tardiness) over millions of
/// task completions, where storing samples is not an option.
///
/// # Examples
///
/// ```
/// use sda_sim::stats::P2Quantile;
///
/// let mut p90 = P2Quantile::new(0.9)?;
/// for i in 1..=1_000 {
///     p90.add(f64::from(i));
/// }
/// let est = p90.estimate().unwrap();
/// assert!((est - 900.0).abs() < 20.0, "P90 of 1..=1000 ≈ 900, got {est}");
/// # Ok::<(), sda_sim::stats::QuantileError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct P2Quantile {
    p: f64,
    /// Marker heights (the 5 tracked order statistics).
    q: [f64; 5],
    /// Marker positions (1-based ranks).
    n: [f64; 5],
    /// Desired marker positions.
    np: [f64; 5],
    /// Desired position increments.
    dn: [f64; 5],
    count: u64,
    /// First five observations, collected before the markers initialize.
    warmup: Vec<f64>,
}

/// Error constructing a [`P2Quantile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantileError;

impl std::fmt::Display for QuantileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "quantile must lie strictly between 0 and 1")
    }
}

impl std::error::Error for QuantileError {}

impl P2Quantile {
    /// An estimator for the `p`-quantile, `0 < p < 1`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantileError`] if `p` is outside `(0, 1)`.
    pub fn new(p: f64) -> Result<P2Quantile, QuantileError> {
        if !(p > 0.0 && p < 1.0) {
            return Err(QuantileError);
        }
        Ok(P2Quantile {
            p,
            q: [0.0; 5],
            n: [1.0, 2.0, 3.0, 4.0, 5.0],
            np: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            dn: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
            count: 0,
            warmup: Vec::with_capacity(5),
        })
    }

    /// The target quantile.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Records one observation.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        if self.warmup.len() < 5 {
            self.warmup.push(x);
            if self.warmup.len() == 5 {
                self.warmup
                    .sort_by(|a, b| a.partial_cmp(b).expect("no NaN observations"));
                for (i, &v) in self.warmup.iter().enumerate() {
                    self.q[i] = v;
                }
            }
            return;
        }

        // Find the cell k such that q[k] ≤ x < q[k+1], adjusting extremes.
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x >= self.q[4] {
            self.q[4] = x;
            3
        } else {
            let mut k = 0;
            for i in 0..4 {
                if self.q[i] <= x && x < self.q[i + 1] {
                    k = i;
                    break;
                }
            }
            k
        };

        for item in self.n.iter_mut().skip(k + 1) {
            *item += 1.0;
        }
        for i in 0..5 {
            self.np[i] += self.dn[i];
        }

        // Adjust interior markers with parabolic (or linear) moves.
        for i in 1..4 {
            let d = self.np[i] - self.n[i];
            if (d >= 1.0 && self.n[i + 1] - self.n[i] > 1.0)
                || (d <= -1.0 && self.n[i - 1] - self.n[i] < -1.0)
            {
                let d = d.signum();
                let qp = self.parabolic(i, d);
                self.q[i] = if self.q[i - 1] < qp && qp < self.q[i + 1] {
                    qp
                } else {
                    self.linear(i, d)
                };
                self.n[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let q = &self.q;
        let n = &self.n;
        q[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.q[i] + d * (self.q[j] - self.q[i]) / (self.n[j] - self.n[i])
    }

    /// The current estimate; `None` before any observation. With fewer
    /// than five observations this is the exact sample quantile.
    pub fn estimate(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if self.warmup.len() < 5 {
            let mut sorted = self.warmup.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN observations"));
            let rank = (self.p * (sorted.len() - 1) as f64).round() as usize;
            return Some(sorted[rank.min(sorted.len() - 1)]);
        }
        Some(self.q[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngFactory;
    use rand::Rng;

    #[test]
    fn rejects_degenerate_quantiles() {
        assert!(P2Quantile::new(0.0).is_err());
        assert!(P2Quantile::new(1.0).is_err());
        assert!(P2Quantile::new(-0.5).is_err());
        assert!(P2Quantile::new(0.5).is_ok());
    }

    #[test]
    fn empty_and_tiny_streams() {
        let mut q = P2Quantile::new(0.5).unwrap();
        assert_eq!(q.estimate(), None);
        q.add(3.0);
        assert_eq!(q.estimate(), Some(3.0));
        q.add(1.0);
        q.add(2.0);
        assert_eq!(q.count(), 3);
        let est = q.estimate().unwrap();
        assert!((1.0..=3.0).contains(&est));
    }

    #[test]
    fn median_of_uniform_stream() {
        let mut q = P2Quantile::new(0.5).unwrap();
        let mut rng = RngFactory::new(1).stream("p2");
        for _ in 0..100_000 {
            q.add(rng.gen::<f64>());
        }
        let est = q.estimate().unwrap();
        assert!((est - 0.5).abs() < 0.01, "median {est}");
    }

    #[test]
    fn p99_of_exponential_stream() {
        use crate::dist::Exponential;
        let exp = Exponential::with_mean(1.0).unwrap();
        let mut q = P2Quantile::new(0.99).unwrap();
        let mut rng = RngFactory::new(2).stream("p2-exp");
        for _ in 0..200_000 {
            q.add(exp.sample_with(&mut rng));
        }
        // True P99 of Exp(1) = ln(100) ≈ 4.605.
        let est = q.estimate().unwrap();
        assert!((est - 4.605).abs() < 0.35, "P99 {est}");
    }

    #[test]
    fn monotone_quantiles() {
        let mut q25 = P2Quantile::new(0.25).unwrap();
        let mut q75 = P2Quantile::new(0.75).unwrap();
        let mut rng = RngFactory::new(3).stream("p2-mono");
        for _ in 0..50_000 {
            let x: f64 = rng.gen();
            q25.add(x);
            q75.add(x);
        }
        assert!(q25.estimate().unwrap() < q75.estimate().unwrap());
    }

    #[test]
    fn constant_stream_collapses() {
        let mut q = P2Quantile::new(0.9).unwrap();
        for _ in 0..1000 {
            q.add(7.0);
        }
        assert_eq!(q.estimate(), Some(7.0));
    }

    #[test]
    fn huge_outliers_keep_the_estimate_finite() {
        // Heavy-traffic sojourn streams: mostly moderate values with
        // rare outliers up to 1e300. The marker arithmetic (parabolic
        // interpolation) must not produce NaN or lose finiteness.
        let mut q = P2Quantile::new(0.99).unwrap();
        let mut rng = RngFactory::new(9).stream("p2-outlier");
        for i in 0..50_000u64 {
            let x: f64 = rng.gen();
            let v = match i % 1000 {
                0 => 1.0e300,
                1 => 1.0e12,
                _ => x * 10.0,
            };
            q.add(v);
            if i % 7777 == 0 {
                let est = q.estimate().unwrap();
                assert!(!est.is_nan(), "NaN estimate at i={i}");
            }
        }
        let est = q.estimate().unwrap();
        assert!(est.is_finite(), "estimate not finite: {est}");
        // P99 of the bulk (U[0,10]) is ~9.9; outliers pull it up but it
        // must stay a real number below the largest observation.
        assert!(est <= 1.0e300 && est > 0.0);
    }

    #[test]
    fn adversarial_warmup_order_is_handled() {
        // Descending and mixed-magnitude warmups exercise the initial
        // marker sort and the first adjustment steps.
        for warmup in [
            [1.0e300, 1.0e12, 5.0, 1.0e-12, 0.0],
            [5.0, 4.0, 3.0, 2.0, 1.0],
            [1.0, 1.0, 1.0e15, 1.0, 1.0],
        ] {
            let mut q = P2Quantile::new(0.95).unwrap();
            for v in warmup {
                q.add(v);
            }
            for i in 0..1000 {
                q.add(f64::from(i % 13));
            }
            let est = q.estimate().unwrap();
            assert!(!est.is_nan(), "NaN after warmup {warmup:?}");
            assert!(est >= 0.0);
        }
    }
}
