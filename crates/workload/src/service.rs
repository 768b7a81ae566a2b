//! Service-time distribution shapes (an extension axis beyond the
//! paper's exponential-only model).

use serde::{Deserialize, Serialize};

use sda_sim::dist::{Constant, DistError, Erlang, Exponential, LogNormal, Pareto, Sampler};

/// The distributional *shape* of execution times around a configured
/// mean. The paper uses exponential times throughout (CV² = 1); the
/// other variants probe how the deadline-assignment conclusions react to
/// lower or higher service variability.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum ServiceVariability {
    /// Exponential, CV² = 1 — the paper's baseline.
    #[default]
    Exponential,
    /// Deterministic, CV² = 0.
    Deterministic,
    /// Erlang with `stages` phases, CV² = 1/stages.
    Erlang {
        /// Number of phases (≥ 1).
        stages: u32,
    },
    /// Lognormal with the given CV² (> 0); moderately heavy tail.
    LogNormal {
        /// Squared coefficient of variation.
        cv2: f64,
    },
    /// Pareto with tail index `alpha` (> 1); genuinely heavy tail
    /// (infinite variance for `alpha ≤ 2`).
    Pareto {
        /// Tail index.
        alpha: f64,
    },
}

impl ServiceVariability {
    /// Builds the [`Sampler`] for this shape with the given mean.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation from the underlying distribution.
    pub fn build_sampler(&self, mean: f64) -> Result<Sampler, DistError> {
        Ok(match *self {
            ServiceVariability::Exponential => Sampler::Exponential(Exponential::with_mean(mean)?),
            ServiceVariability::Deterministic => Sampler::Constant(Constant::new(mean)?),
            ServiceVariability::Erlang { stages } => {
                Sampler::Erlang(Erlang::new(stages, mean / f64::from(stages.max(1)))?)
            }
            ServiceVariability::LogNormal { cv2 } => {
                Sampler::LogNormal(LogNormal::with_mean_cv2(mean, cv2)?)
            }
            ServiceVariability::Pareto { alpha } => {
                Sampler::Pareto(Pareto::with_mean(mean, alpha)?)
            }
        })
    }

    /// The squared coefficient of variation this shape implies
    /// (`None` for Pareto with `alpha ≤ 2`, where the variance is
    /// infinite).
    pub fn cv2(&self) -> Option<f64> {
        match *self {
            ServiceVariability::Exponential => Some(1.0),
            ServiceVariability::Deterministic => Some(0.0),
            ServiceVariability::Erlang { stages } => Some(1.0 / f64::from(stages.max(1))),
            ServiceVariability::LogNormal { cv2 } => Some(cv2),
            ServiceVariability::Pareto { alpha } => {
                if alpha > 2.0 {
                    Some(1.0 / (alpha * (alpha - 2.0)))
                } else {
                    None
                }
            }
        }
    }

    /// The third raw moment `E[S³]` of this shape at the given mean
    /// (`None` for Pareto with `alpha ≤ 3`, where it is infinite).
    ///
    /// Per-shape normalized values `E[S³]/mean³`: exponential 6,
    /// deterministic 1, Erlang-k `(k+1)(k+2)/k²`, lognormal
    /// `(1+cv²)³`, Pareto `(α−1)³ / (α² (α−3))`.
    pub fn third_moment(&self, mean: f64) -> Option<f64> {
        let ratio = match *self {
            ServiceVariability::Exponential => 6.0,
            ServiceVariability::Deterministic => 1.0,
            ServiceVariability::Erlang { stages } => {
                let k = f64::from(stages.max(1));
                (k + 1.0) * (k + 2.0) / (k * k)
            }
            ServiceVariability::LogNormal { cv2 } => {
                let b = 1.0 + cv2;
                b * b * b
            }
            ServiceVariability::Pareto { alpha } => {
                if alpha > 3.0 {
                    let a1 = alpha - 1.0;
                    a1 * a1 * a1 / (alpha * alpha * (alpha - 3.0))
                } else {
                    return None;
                }
            }
        };
        Some(ratio * mean * mean * mean)
    }

    /// Picks the natural shape for a target CV²: deterministic at 0,
    /// Erlang below 1, exponential at 1, lognormal above 1.
    pub fn from_cv2(cv2: f64) -> ServiceVariability {
        if cv2 <= 0.0 {
            ServiceVariability::Deterministic
        } else if cv2 < 1.0 {
            ServiceVariability::Erlang {
                stages: (1.0 / cv2).round().max(1.0) as u32,
            }
        } else if (cv2 - 1.0).abs() < 1e-9 {
            ServiceVariability::Exponential
        } else {
            ServiceVariability::LogNormal { cv2 }
        }
    }

    /// Short label for experiment output.
    pub fn label(&self) -> String {
        match *self {
            ServiceVariability::Exponential => "exp".to_string(),
            ServiceVariability::Deterministic => "det".to_string(),
            ServiceVariability::Erlang { stages } => format!("erlang-{stages}"),
            ServiceVariability::LogNormal { cv2 } => format!("lognormal(cv2={cv2})"),
            ServiceVariability::Pareto { alpha } => format!("pareto(α={alpha})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sda_sim::rng::RngFactory;

    #[test]
    fn builders_match_requested_mean() {
        let mut rng = RngFactory::new(7).stream("svc");
        for shape in [
            ServiceVariability::Exponential,
            ServiceVariability::Deterministic,
            ServiceVariability::Erlang { stages: 4 },
            ServiceVariability::LogNormal { cv2: 4.0 },
            ServiceVariability::Pareto { alpha: 2.5 },
        ] {
            let d = shape.build_sampler(2.0).unwrap();
            assert!((d.mean() - 2.0).abs() < 1e-9, "{shape:?}");
            let n = 200_000;
            let m: f64 = (0..n).map(|_| d.sample_with(&mut rng)).sum::<f64>() / n as f64;
            assert!((m - 2.0).abs() < 0.15, "{shape:?} sample mean {m}");
        }
    }

    #[test]
    fn sampled_cv2_matches_the_analytic_shape_moment() {
        // The predictor takes its moments from `cv2`, so it must describe
        // what the sampler actually draws. Pareto α = 6 keeps the fourth
        // moment finite, so the sample variance converges.
        let mut rng = RngFactory::new(11).stream("svc-cv2");
        for shape in [
            ServiceVariability::Exponential,
            ServiceVariability::Deterministic,
            ServiceVariability::Erlang { stages: 4 },
            ServiceVariability::LogNormal { cv2: 0.8 },
            ServiceVariability::Pareto { alpha: 6.0 },
        ] {
            let d = shape.build_sampler(1.5).unwrap();
            let t: sda_sim::stats::Tally = (0..400_000).map(|_| d.sample_with(&mut rng)).collect();
            let sampled = t.variance() / (t.mean() * t.mean());
            let want = shape.cv2().unwrap();
            assert!(
                (sampled - want).abs() < 0.1 * want.max(0.1),
                "{shape:?}: sampled CV² {sampled} vs analytic {want}"
            );
        }
    }

    #[test]
    fn cv2_values() {
        assert_eq!(ServiceVariability::Exponential.cv2(), Some(1.0));
        assert_eq!(ServiceVariability::Deterministic.cv2(), Some(0.0));
        assert_eq!(ServiceVariability::Erlang { stages: 4 }.cv2(), Some(0.25));
        assert_eq!(ServiceVariability::LogNormal { cv2: 9.0 }.cv2(), Some(9.0));
        assert_eq!(ServiceVariability::Pareto { alpha: 1.5 }.cv2(), None);
    }

    #[test]
    fn third_moment_values() {
        assert_eq!(ServiceVariability::Exponential.third_moment(1.0), Some(6.0));
        assert_eq!(
            ServiceVariability::Deterministic.third_moment(2.0),
            Some(8.0)
        );
        // Erlang-2: (3·4)/4 = 3.
        assert_eq!(
            ServiceVariability::Erlang { stages: 2 }.third_moment(1.0),
            Some(3.0)
        );
        // Lognormal: (1+cv²)³.
        assert_eq!(
            ServiceVariability::LogNormal { cv2: 1.0 }.third_moment(1.0),
            Some(8.0)
        );
        // Pareto: finite only above alpha = 3.
        assert_eq!(
            ServiceVariability::Pareto { alpha: 2.5 }.third_moment(1.0),
            None
        );
        assert_eq!(
            ServiceVariability::Pareto { alpha: 3.0 }.third_moment(1.0),
            None
        );
        let p4 = ServiceVariability::Pareto { alpha: 4.0 }
            .third_moment(1.0)
            .unwrap();
        // (α−1)³/(α²(α−3)) = 27/16 at α = 4.
        assert!((p4 - 27.0 / 16.0).abs() < 1e-12);
        // Erlang-1 is exponential.
        assert_eq!(
            ServiceVariability::Erlang { stages: 1 }.third_moment(3.0),
            ServiceVariability::Exponential.third_moment(3.0)
        );
    }

    #[test]
    fn from_cv2_picks_natural_shapes() {
        assert_eq!(
            ServiceVariability::from_cv2(0.0),
            ServiceVariability::Deterministic
        );
        assert_eq!(
            ServiceVariability::from_cv2(0.25),
            ServiceVariability::Erlang { stages: 4 }
        );
        assert_eq!(
            ServiceVariability::from_cv2(1.0),
            ServiceVariability::Exponential
        );
        assert_eq!(
            ServiceVariability::from_cv2(4.0),
            ServiceVariability::LogNormal { cv2: 4.0 }
        );
    }

    #[test]
    fn invalid_parameters_error() {
        assert!(ServiceVariability::LogNormal { cv2: -1.0 }
            .build_sampler(1.0)
            .is_err());
        assert!(ServiceVariability::Pareto { alpha: 1.0 }
            .build_sampler(1.0)
            .is_err());
    }

    #[test]
    fn labels() {
        assert_eq!(ServiceVariability::Exponential.label(), "exp");
        assert_eq!(ServiceVariability::Erlang { stages: 2 }.label(), "erlang-2");
        assert_eq!(
            ServiceVariability::default(),
            ServiceVariability::Exponential
        );
    }
}
