//! Probability distributions for the workload model.
//!
//! The paper's stochastic model needs exponential interarrival and service
//! times, uniform slack, and (implicitly, for global task totals) Erlang
//! sums. These are implemented via inverse-transform / convolution sampling
//! over any [`rand::RngCore`] source rather than pulling in `rand_distr`,
//! keeping the sampling code in-tree and auditable.
//!
//! All constructors validate their parameters ([`DistError`]); all types
//! report their analytic mean, which the workload crate uses to derive
//! arrival rates from a target utilization. Each type draws through an
//! inlinable `sample_with`; [`Sampler`] is the closed sum that hot paths
//! hold.
//!
//! ```
//! use sda_sim::dist::Exponential;
//! use sda_sim::rng::RngFactory;
//!
//! let exp = Exponential::with_mean(2.0)?;
//! let mut rng = RngFactory::new(1).stream("svc");
//! let x = exp.sample_with(&mut rng);
//! assert!(x >= 0.0);
//! assert_eq!(exp.mean(), 2.0);
//! # Ok::<(), sda_sim::dist::DistError>(())
//! ```

use std::fmt;

use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

/// Error returned when a distribution is constructed with invalid
/// parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum DistError {
    /// A parameter that must be strictly positive was zero, negative, NaN
    /// or infinite.
    NonPositive {
        /// Which parameter was invalid.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A range `[lo, hi]` with `lo > hi`, or a non-finite bound.
    BadRange {
        /// Lower bound supplied.
        lo: f64,
        /// Upper bound supplied.
        hi: f64,
    },
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::NonPositive { what, value } => {
                write!(f, "{what} must be positive and finite, got {value}")
            }
            DistError::BadRange { lo, hi } => {
                write!(f, "invalid range [{lo}, {hi}]")
            }
        }
    }
}

impl std::error::Error for DistError {}

fn require_positive(what: &'static str, value: f64) -> Result<f64, DistError> {
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(DistError::NonPositive { what, value })
    }
}

/// The degenerate distribution: always returns the same value.
///
/// Used for deterministic-service sensitivity studies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Constant(f64);

impl Constant {
    /// A constant distribution at `value` (must be finite).
    pub fn new(value: f64) -> Result<Constant, DistError> {
        if value.is_finite() {
            Ok(Constant(value))
        } else {
            Err(DistError::NonPositive {
                what: "constant value",
                value,
            })
        }
    }

    /// The constant value.
    pub fn value(&self) -> f64 {
        self.0
    }

    /// The analytic mean: the constant itself.
    pub fn mean(&self) -> f64 {
        self.0
    }

    /// Draws one variate from any RNG.
    #[inline]
    pub fn sample_with<R: RngCore + ?Sized>(&self, _rng: &mut R) -> f64 {
        self.0
    }
}

/// Continuous uniform on `[lo, hi]`.
///
/// The paper draws task *slack* from `U[Smin, Smax]` (baseline
/// `[0.25, 2.5]`; PSP experiments `[1.25, 5.0]`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Uniform on `[lo, hi]`; requires finite bounds with `lo ≤ hi`.
    pub fn new(lo: f64, hi: f64) -> Result<Uniform, DistError> {
        if lo.is_finite() && hi.is_finite() && lo <= hi {
            Ok(Uniform { lo, hi })
        } else {
            Err(DistError::BadRange { lo, hi })
        }
    }

    /// Lower bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// The analytic mean `(lo + hi) / 2`.
    pub fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// Returns a copy with both bounds multiplied by `factor ≥ 0`.
    ///
    /// Used to scale slack ranges by `rel_flex` and by the expected task
    /// size ratio (see `sda-workload`).
    pub fn scaled(&self, factor: f64) -> Result<Uniform, DistError> {
        if !(factor.is_finite() && factor >= 0.0) {
            return Err(DistError::NonPositive {
                what: "scale factor",
                value: factor,
            });
        }
        Uniform::new(self.lo * factor, self.hi * factor)
    }

    /// Draws one variate from any RNG.
    #[inline]
    pub fn sample_with<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen();
        self.lo + (self.hi - self.lo) * u
    }
}

/// Exponential distribution, parameterized by its mean `1/λ`.
///
/// Interarrival times of the paper's Poisson task streams and all service
/// times are exponential.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Exponential with the given mean (must be positive and finite).
    pub fn with_mean(mean: f64) -> Result<Exponential, DistError> {
        Ok(Exponential {
            mean: require_positive("exponential mean", mean)?,
        })
    }

    /// Exponential with the given rate `λ` (must be positive and finite).
    pub fn with_rate(rate: f64) -> Result<Exponential, DistError> {
        let rate = require_positive("exponential rate", rate)?;
        Ok(Exponential { mean: 1.0 / rate })
    }

    /// The rate `λ = 1/mean`.
    pub fn rate(&self) -> f64 {
        1.0 / self.mean
    }

    /// The analytic mean `1/λ`.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Draws one variate from any RNG.
    #[inline]
    pub fn sample_with<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse transform: -mean · ln(1 - U), with U ∈ [0, 1).
        let u: f64 = rng.gen();
        -self.mean * (1.0 - u).ln()
    }
}

/// Erlang-k distribution: the sum of `k` i.i.d. exponentials.
///
/// The total execution time of a serial global task with `m` subtasks is
/// m-stage Erlang with mean `m/μ_subtask` (paper §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Erlang {
    stages: u32,
    stage_mean: f64,
}

impl Erlang {
    /// Erlang with `stages ≥ 1` phases, each of mean `stage_mean`.
    pub fn new(stages: u32, stage_mean: f64) -> Result<Erlang, DistError> {
        if stages == 0 {
            return Err(DistError::NonPositive {
                what: "erlang stages",
                value: 0.0,
            });
        }
        Ok(Erlang {
            stages,
            stage_mean: require_positive("erlang stage mean", stage_mean)?,
        })
    }

    /// Number of phases.
    pub fn stages(&self) -> u32 {
        self.stages
    }

    /// The analytic mean `stages · stage_mean`.
    pub fn mean(&self) -> f64 {
        f64::from(self.stages) * self.stage_mean
    }

    /// Draws one variate from any RNG.
    #[inline]
    pub fn sample_with<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        // Product-of-uniforms trick: Σ Exp(m) = -m · ln(Π Uᵢ).
        let mut prod: f64 = 1.0;
        for _ in 0..self.stages {
            let u: f64 = rng.gen();
            prod *= 1.0 - u;
        }
        -self.stage_mean * prod.ln()
    }
}

/// Lognormal distribution parameterized by its *actual* mean and
/// squared coefficient of variation (CV² = Var/mean²).
///
/// Used for moderately heavy-tailed service times in sensitivity
/// studies. Internally `exp(μ + σZ)` with `σ² = ln(1 + CV²)` and
/// `μ = ln(mean) − σ²/2`, sampled via Box-Muller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogNormal {
    mean: f64,
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Lognormal with the given mean (> 0) and CV² (> 0).
    pub fn with_mean_cv2(mean: f64, cv2: f64) -> Result<LogNormal, DistError> {
        let mean = require_positive("lognormal mean", mean)?;
        let cv2 = require_positive("lognormal cv²", cv2)?;
        let sigma2 = (1.0 + cv2).ln();
        Ok(LogNormal {
            mean,
            mu: mean.ln() - sigma2 / 2.0,
            sigma: sigma2.sqrt(),
        })
    }

    /// The squared coefficient of variation.
    pub fn cv2(&self) -> f64 {
        (self.sigma * self.sigma).exp_m1()
    }

    /// The analytic mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Draws one variate from any RNG.
    #[inline]
    pub fn sample_with<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        // Box-Muller; u1 nudged away from 0 to keep ln() finite.
        let u1: f64 = rng.gen::<f64>().max(1e-300);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (self.mu + self.sigma * z).exp()
    }
}

/// Pareto (Lomax / shifted-Pareto) distribution with the given mean and
/// tail index `alpha > 1` — genuinely heavy-tailed service times
/// (infinite variance for `alpha ≤ 2`).
///
/// Density `f(x) = α·x_m^α / x^(α+1)` for `x ≥ x_m`, with
/// `x_m = mean·(α−1)/α` so the mean comes out as requested.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Pareto {
    xm: f64,
    alpha: f64,
}

impl Pareto {
    /// Pareto with the given mean (> 0) and tail index `alpha > 1`.
    pub fn with_mean(mean: f64, alpha: f64) -> Result<Pareto, DistError> {
        let mean = require_positive("pareto mean", mean)?;
        if !(alpha.is_finite() && alpha > 1.0) {
            return Err(DistError::NonPositive {
                what: "pareto tail index − 1",
                value: alpha - 1.0,
            });
        }
        Ok(Pareto {
            xm: mean * (alpha - 1.0) / alpha,
            alpha,
        })
    }

    /// The tail index α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The analytic mean `x_m α / (α − 1)`.
    pub fn mean(&self) -> f64 {
        self.xm * self.alpha / (self.alpha - 1.0)
    }

    /// Draws one variate from any RNG.
    #[inline]
    pub fn sample_with<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen::<f64>().min(1.0 - 1e-16);
        self.xm / (1.0 - u).powf(1.0 / self.alpha)
    }
}

/// A closed sum of every in-tree distribution.
///
/// Hot paths that draw millions of variates per run (service times,
/// interarrival gaps) hold a `Sampler`, so every draw is a direct,
/// inlinable call: no vtable, no heap allocation, no `&mut dyn RngCore`
/// indirection. Each variant delegates to its type's `sample_with`, so a
/// `Sampler` draws exactly the sequence the wrapped distribution would.
///
/// ```
/// use sda_sim::dist::{Exponential, Sampler};
/// use sda_sim::rng::RngFactory;
///
/// let s = Sampler::Exponential(Exponential::with_mean(2.0)?);
/// let mut rng = RngFactory::new(1).stream("svc");
/// assert!(s.sample_with(&mut rng) >= 0.0);
/// assert_eq!(s.mean(), 2.0);
/// # Ok::<(), sda_sim::dist::DistError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Sampler {
    /// See [`Constant`].
    Constant(Constant),
    /// See [`Uniform`].
    Uniform(Uniform),
    /// See [`Exponential`].
    Exponential(Exponential),
    /// See [`Erlang`].
    Erlang(Erlang),
    /// See [`LogNormal`].
    LogNormal(LogNormal),
    /// See [`Pareto`].
    Pareto(Pareto),
}

impl Sampler {
    /// Draws one variate via a direct, inlinable call.
    #[inline]
    pub fn sample_with<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        match self {
            Sampler::Constant(d) => d.sample_with(rng),
            Sampler::Uniform(d) => d.sample_with(rng),
            Sampler::Exponential(d) => d.sample_with(rng),
            Sampler::Erlang(d) => d.sample_with(rng),
            Sampler::LogNormal(d) => d.sample_with(rng),
            Sampler::Pareto(d) => d.sample_with(rng),
        }
    }

    /// The analytic mean of the wrapped distribution.
    pub fn mean(&self) -> f64 {
        match self {
            Sampler::Constant(d) => d.mean(),
            Sampler::Uniform(d) => d.mean(),
            Sampler::Exponential(d) => d.mean(),
            Sampler::Erlang(d) => d.mean(),
            Sampler::LogNormal(d) => d.mean(),
            Sampler::Pareto(d) => d.mean(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngFactory;

    fn rng() -> crate::rng::Stream {
        RngFactory::new(2024).stream("dist-tests")
    }

    fn sample_mean(d: &Sampler, n: usize) -> f64 {
        let mut r = rng();
        (0..n).map(|_| d.sample_with(&mut r)).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_returns_value() {
        let c = Constant::new(3.5).unwrap();
        let mut r = rng();
        assert_eq!(c.sample_with(&mut r), 3.5);
        assert_eq!(c.mean(), 3.5);
        assert_eq!(Sampler::Constant(c).sample_with(&mut r), 3.5);
        assert_eq!(Sampler::Constant(c).mean(), 3.5);
        assert!(Constant::new(f64::NAN).is_err());
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let u = Uniform::new(0.25, 2.5).unwrap();
        let mut r = rng();
        for _ in 0..10_000 {
            let x = u.sample_with(&mut r);
            assert!((0.25..=2.5).contains(&x));
        }
        assert_eq!(u.mean(), 1.375);
        assert!((sample_mean(&Sampler::Uniform(u), 100_000) - 1.375).abs() < 0.01);
        assert!(Uniform::new(2.0, 1.0).is_err());
        assert!(Uniform::new(f64::NEG_INFINITY, 1.0).is_err());
    }

    #[test]
    fn uniform_scaled() {
        let u = Uniform::new(0.25, 2.5).unwrap().scaled(4.0).unwrap();
        assert_eq!(u.lo(), 1.0);
        assert_eq!(u.hi(), 10.0);
        assert!(Uniform::new(0.0, 1.0).unwrap().scaled(-1.0).is_err());
    }

    #[test]
    fn exponential_mean_and_positivity() {
        let e = Exponential::with_mean(2.0).unwrap();
        let mut r = rng();
        for _ in 0..1000 {
            assert!(e.sample_with(&mut r) >= 0.0);
        }
        assert!((sample_mean(&Sampler::Exponential(e), 200_000) - 2.0).abs() < 0.05);
        assert_eq!(e.rate(), 0.5);
        assert!(Exponential::with_mean(0.0).is_err());
        assert!(Exponential::with_rate(-1.0).is_err());
    }

    #[test]
    fn exponential_with_rate_matches_mean() {
        let e = Exponential::with_rate(4.0).unwrap();
        assert_eq!(e.mean(), 0.25);
    }

    #[test]
    fn erlang_mean_and_shape() {
        let e = Erlang::new(4, 1.0).unwrap();
        assert_eq!(e.mean(), 4.0);
        assert!((sample_mean(&Sampler::Erlang(e), 100_000) - 4.0).abs() < 0.1);
        // Erlang-4 has CV² = 1/4; check the variance is clearly below the
        // exponential's (which would be mean² = 16).
        let mut r = rng();
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| e.sample_with(&mut r)).collect();
        let m = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (n - 1) as f64;
        assert!(
            (var - 4.0).abs() < 0.3,
            "Erlang-4(1) variance ≈ 4, got {var}"
        );
        assert!(Erlang::new(0, 1.0).is_err());
    }

    #[test]
    fn lognormal_mean_and_cv2() {
        let ln = LogNormal::with_mean_cv2(2.0, 4.0).unwrap();
        assert_eq!(ln.mean(), 2.0);
        assert!((ln.cv2() - 4.0).abs() < 1e-9);
        let m = sample_mean(&Sampler::LogNormal(ln), 400_000);
        assert!((m - 2.0).abs() < 0.1, "lognormal sample mean {m}");
        let mut r = rng();
        for _ in 0..1000 {
            assert!(ln.sample_with(&mut r) > 0.0);
        }
        assert!(LogNormal::with_mean_cv2(0.0, 1.0).is_err());
        assert!(LogNormal::with_mean_cv2(1.0, -1.0).is_err());
    }

    #[test]
    fn pareto_mean_and_tail() {
        let p = Pareto::with_mean(1.0, 2.5).unwrap();
        assert!((p.mean() - 1.0).abs() < 1e-12);
        assert_eq!(p.alpha(), 2.5);
        let m = sample_mean(&Sampler::Pareto(p), 400_000);
        assert!((m - 1.0).abs() < 0.05, "pareto sample mean {m}");
        // Support starts at x_m = 1·1.5/2.5 = 0.6.
        let mut r = rng();
        for _ in 0..1000 {
            assert!(p.sample_with(&mut r) >= 0.6 - 1e-12);
        }
        assert!(Pareto::with_mean(1.0, 1.0).is_err());
        assert!(Pareto::with_mean(1.0, 0.5).is_err());
        assert!(Pareto::with_mean(-1.0, 3.0).is_err());
    }

    #[test]
    fn errors_display_nonempty() {
        let e = Uniform::new(2.0, 1.0).unwrap_err();
        assert!(!e.to_string().is_empty());
        let e = Exponential::with_mean(0.0).unwrap_err();
        assert!(e.to_string().contains("positive"));
    }
}
