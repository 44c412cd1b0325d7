//! Poisson distribution utilities.
//!
//! The coverage probability in the paper's LP (2) is
//! `θ^t = E_{d ~ Poisson(λ)}[ B^t / (V^t · d) ]`, i.e. linear in the allocated
//! budget `B^t` with slope `E[1/d] / V^t`. A literal `1/d` is undefined at
//! `d = 0`; we follow the natural reading that with no other future alerts the
//! allocated budget covers the single prospective (attacked) alert, so the
//! expectation is taken over `1/max(d, 1)`.
//!
//! [`expected_inverse_positive`] sums that expectation, the coverage rate ρ,
//! as the series `Σ_k P(k)/max(k, 1)` cut after `λ + 10√λ + 20` terms,
//! where the Poisson tail left out is far below `1e-12`. Above `λ = 600`,
//! where `e^{−λ}` nears underflow, it takes three terms of the asymptotic
//! expansion instead, `1/λ + 1/λ² + 2/λ³`, good to about `3e-8` relative.

/// Probability mass function of `Poisson(lambda)` at `k`.
///
/// Computed in log space to stay finite for large rates.
#[must_use]
pub fn poisson_pmf(lambda: f64, k: u64) -> f64 {
    if lambda < 0.0 {
        return 0.0;
    }
    if lambda == 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    let kf = k as f64;
    let log_p = kf * lambda.ln() - lambda - ln_factorial(k);
    log_p.exp()
}

/// `E[1 / max(d, 1)]` for `d ~ Poisson(lambda)`.
///
/// This is the per-unit-budget coverage rate used to linearise LP (2):
/// allocating budget `B` to a type with audit cost `V` and future-count rate
/// `lambda` yields marginal coverage `B · expected_inverse_positive(lambda) / V`
/// (clamped to `[0, 1]` by the LP's bounds).
#[must_use]
pub fn expected_inverse_positive(lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return 1.0;
    }
    // This sits on the per-alert hot path (one call per type per solve). The
    // pmf recurrence `P(k) = P(k-1)·λ/k` spares a log-gamma per term, but a
    // call still costs `λ + 10√λ + 20` terms of two divisions each, which
    // is most of a solve on the paper's 7-type game.
    if lambda > 600.0 {
        // e^{-λ} would underflow; use the asymptotic expansion
        // E[1/max(d,1)] ≈ 1/λ + 1/λ² + 2/λ³. The terms left out start at
        // 6/λ⁴, so the relative error is about 6/λ³: 2.8e-8 at λ = 600.
        let inv = 1.0 / lambda;
        return (inv * (1.0 + inv + 2.0 * inv * inv)).clamp(0.0, 1.0);
    }
    // Truncate where the remaining Poisson tail is negligible.
    let k_max = (lambda + 10.0 * lambda.sqrt() + 20.0).ceil() as u64;
    let mut pmf = (-lambda).exp();
    let mut total = pmf; // d = 0 contributes 1/1
    for k in 1..=k_max {
        pmf *= lambda / k as f64;
        total += pmf / k as f64;
    }
    total.clamp(0.0, 1.0)
}

/// Natural log of `k!` via the log-gamma function (Lanczos approximation).
fn ln_factorial(k: u64) -> f64 {
    ln_gamma(k as f64 + 1.0)
}

/// Lanczos approximation of `ln Γ(x)` for `x > 0`.
fn ln_gamma(x: f64) -> f64 {
    // Coefficients for g = 7, n = 9 (Numerical Recipes style). Quoted at full
    // published precision even where f64 rounds the trailing digits.
    #[allow(clippy::excessive_precision)]
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_571_6e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEFFS[0];
    let t = x + 7.5;
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmf_sums_to_one() {
        for &lambda in &[0.1f64, 1.0, 5.0, 40.0, 200.0] {
            let k_max = (lambda + 12.0 * lambda.sqrt() + 30.0) as u64;
            let total: f64 = (0..=k_max).map(|k| poisson_pmf(lambda, k)).sum();
            assert!((total - 1.0).abs() < 1e-9, "lambda {lambda}: total {total}");
        }
    }

    #[test]
    fn pmf_known_values() {
        // Poisson(1): P(0) = e^-1.
        assert!((poisson_pmf(1.0, 0) - (-1.0f64).exp()).abs() < 1e-12);
        // Poisson(2): P(2) = 2 e^-2.
        assert!((poisson_pmf(2.0, 2) - 2.0 * (-2.0f64).exp()).abs() < 1e-12);
        // Degenerate rate.
        assert_eq!(poisson_pmf(0.0, 0), 1.0);
        assert_eq!(poisson_pmf(0.0, 3), 0.0);
        assert_eq!(poisson_pmf(-1.0, 0), 0.0);
    }

    #[test]
    fn expected_inverse_matches_monte_carlo() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(17);
        for &lambda in &[0.5, 2.0, 10.0, 80.0] {
            let n = 200_000;
            let mc: f64 = (0..n)
                .map(|_| {
                    let d = sag_sim::rng::poisson(&mut rng, lambda).max(1);
                    1.0 / d as f64
                })
                .sum::<f64>()
                / n as f64;
            let analytic = expected_inverse_positive(lambda);
            assert!(
                (mc - analytic).abs() < 0.01,
                "lambda {lambda}: MC {mc} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn expected_inverse_limits() {
        // Zero rate: always exactly one "alert" (the prospective attack).
        assert_eq!(expected_inverse_positive(0.0), 1.0);
        assert_eq!(expected_inverse_positive(-3.0), 1.0);
        // Large rates: approaches 1/lambda from above.
        let lambda = 500.0;
        let v = expected_inverse_positive(lambda);
        assert!(v > 1.0 / lambda && v < 1.3 / lambda, "value {v}");
        // Monotone decreasing in lambda.
        let mut prev = 1.0;
        for &l in &[0.5, 1.0, 2.0, 5.0, 20.0, 100.0] {
            let v = expected_inverse_positive(l);
            assert!(v < prev);
            prev = v;
        }
    }

    #[test]
    fn expected_inverse_recurrence_matches_log_space_reference() {
        // The fast recurrence must agree with the straightforward log-space
        // series it replaced.
        for &lambda in &[0.01, 0.5, 1.0, 7.3, 42.0, 150.0, 420.0, 599.0] {
            let k_max = (lambda + 10.0 * f64::sqrt(lambda) + 20.0).ceil() as u64;
            let mut reference = poisson_pmf(lambda, 0);
            for k in 1..=k_max {
                reference += poisson_pmf(lambda, k) / k as f64;
            }
            let fast = expected_inverse_positive(lambda);
            assert!(
                (fast - reference).abs() < 1e-10,
                "lambda {lambda}: fast {fast} vs reference {reference}"
            );
        }
        // The asymptotic branch agrees with the log-space series where the
        // log-space pmf is still finite.
        for &lambda in &[600.1, 650.0, 700.0] {
            let k_max = (lambda + 10.0 * f64::sqrt(lambda) + 20.0).ceil() as u64;
            let mut reference = 0.0;
            for k in 1..=k_max {
                reference += poisson_pmf(lambda, k) / k as f64;
            }
            let fast = expected_inverse_positive(lambda);
            assert!(
                (fast - reference).abs() < 1e-9,
                "lambda {lambda}: asymptotic {fast} vs series {reference}"
            );
        }
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        for k in 0u64..15 {
            let fact: f64 = (1..=k).map(|i| i as f64).product::<f64>().max(1.0);
            assert!((super::ln_factorial(k) - fact.ln()).abs() < 1e-9, "k = {k}");
        }
    }
}
