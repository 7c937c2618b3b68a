//! Generation sizing and the paper's analytic cost model (§3.4).
//!
//! Equation (1) of the paper gives the total communication complexity as a
//! function of the generation size `D`:
//!
//! ```text
//! C_con(L) = ( n(n-1)/(n-2t) · D  +  n(n-1)·B  +  t·B ) · L/D
//!          + t(t+1) · ( (n-t)/(n-2t) · D  +  n(n-t) ) · B
//! ```
//!
//! where `B` is the cost of one `Broadcast_Single_Bit` instance.
//!
//! Running generations in windows of up to `W` (see [`GENERATION_WINDOW`])
//! adds one worst-case term: one execution discards at most
//! `R(W) = Σₖ((W >> k) − 1) < 2W` generations whose matching and checking
//! stages already ran ([`rerun_bound`]), whatever `t` is, so for `t > 0`
//!
//! ```text
//! C_con,W(L) = C_con(L) + R(W) · ( n(n-1)/(n-2t) · D  +  n(n-1)·B  +  t·B )
//! ```
//!
//! A fault-free run pays nothing for the window.
//!
//! Minimising Eq. (1) over `D` yields Equation (2)'s optimum
//!
//! ```text
//! D* = sqrt( (n² - n + t)(n - 2t) L / ( t(t+1)(n-t) ) )
//! ```
//!
//! These functions power both the automatic `D` selection in
//! [`ConsensusConfig`](crate::ConsensusConfig) and the model curves that
//! the benchmark harness prints next to measured bit counts (experiments
//! E1/E2/E5).

use crate::{rerun_bound, GENERATION_WINDOW};

/// The paper's Eq. (2): the `D` (in bits) minimising Eq. (1).
///
/// For `t = 0` no diagnosis stage can ever run and the `D`-proportional
/// term of Eq. (1) vanishes, so the whole value is processed in one
/// generation (`D = L`).
pub fn optimal_d_bits(n: usize, t: usize, l_bits: u64) -> u64 {
    if t == 0 {
        return l_bits.max(1);
    }
    let n = n as f64;
    let t = t as f64;
    let l = l_bits as f64;
    let num = (n * n - n + t) * (n - 2.0 * t) * l;
    let den = t * (t + 1.0) * (n - t);
    let d = (num / den).sqrt();
    (d.round() as u64).clamp(1, l_bits.max(1))
}

/// Eq. (1)'s per-generation matching and checking cost:
/// `n(n-1)/(n-2t)·D + n(n-1)·B + t·B`.
fn per_generation_bits(n: usize, t: usize, d_bits: u64, b_bits: f64) -> f64 {
    let nf = n as f64;
    let k = nf - 2.0 * t as f64;
    nf * (nf - 1.0) / k * d_bits as f64 + nf * (nf - 1.0) * b_bits + t as f64 * b_bits
}

/// The paper's Eq. (1) plus the window's worst-case term: modelled total
/// bits for generation size `d_bits` and 1-bit-broadcast cost `b_bits`,
/// assuming the worst case of `t(t+1)` diagnosis-stage executions and
/// the most generations a run can discard ([`model_window_rerun_bits`]).
pub fn model_ccon_bits(n: usize, t: usize, l_bits: u64, d_bits: u64, b_bits: f64) -> f64 {
    let nf = n as f64;
    let tf = t as f64;
    let d = d_bits as f64;
    let k = nf - 2.0 * tf;
    let diagnosis = tf * (tf + 1.0) * ((nf - tf) / k * d + nf * (nf - tf)) * b_bits;
    model_ccon_failure_free_bits(n, t, l_bits, d_bits, b_bits)
        + diagnosis
        + model_window_rerun_bits(n, t, d_bits, b_bits)
}

/// The window's worst-case extra term: [`rerun_bound`]`(W)`
/// generations' matching and checking cost, the most one execution
/// discards whatever `t` is; nothing at `t = 0`, where no diagnosis runs.
pub fn model_window_rerun_bits(n: usize, t: usize, d_bits: u64, b_bits: f64) -> f64 {
    if t == 0 {
        return 0.0;
    }
    rerun_bound(GENERATION_WINDOW) as f64 * per_generation_bits(n, t, d_bits, b_bits)
}

/// Failure-free model: Eq. (1) without the diagnosis term and without the
/// checking-stage `t·B` term's worst case (kept — non-members always
/// broadcast `Detected`), i.e. the cost when no processor misbehaves.
pub fn model_ccon_failure_free_bits(n: usize, t: usize, l_bits: u64, d_bits: u64, b_bits: f64) -> f64 {
    let generations = (l_bits as f64 / d_bits as f64).ceil();
    per_generation_bits(n, t, d_bits, b_bits) * generations
}

/// The dominant `L`-linear coefficient of Eq. (3): `n(n-1)/(n-2t)`.
pub fn linear_coefficient(n: usize, t: usize) -> f64 {
    let nf = n as f64;
    nf * (nf - 1.0) / (nf - 2.0 * t as f64)
}

/// Modelled cost of one `Broadcast_Single_Bit` instance under *this
/// workspace's* Phase-King construction (see `mvbc-bsb`):
/// source round `n-1` bits, then `t+1` phases of `n(n-1)` value bits,
/// `2n(n-1)` proposal bits and `n-1` king bits.
pub fn model_b_phase_king(n: usize, t: usize) -> f64 {
    let nf = n as f64;
    let tf = t as f64;
    (nf - 1.0) + (tf + 1.0) * (nf * (nf - 1.0) + 2.0 * nf * (nf - 1.0) + (nf - 1.0))
}

/// The paper's assumption `B = Θ(n²)` (Berman-Garay-Perry / Coan-Welch
/// bit-optimal broadcast); the constant is taken as 2 for the model
/// curves.
pub fn model_b_theta_n2(n: usize) -> f64 {
    2.0 * (n as f64) * (n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimum_matches_paper_formula() {
        // n = 7, t = 2, L = 2^20: direct formula evaluation.
        let n = 7.0f64;
        let t = 2.0f64;
        let l = (1u64 << 20) as f64;
        let expect = ((n * n - n + t) * (n - 2.0 * t) * l / (t * (t + 1.0) * (n - t))).sqrt();
        let got = optimal_d_bits(7, 2, 1 << 20) as f64;
        assert!((got - expect).abs() <= 1.0, "got {got}, expect {expect}");
    }

    #[test]
    fn optimum_is_a_local_minimum_of_eq1() {
        let (n, t, l) = (7usize, 2usize, 1u64 << 22);
        let b = model_b_phase_king(n, t);
        let d_star = optimal_d_bits(n, t, l);
        let at_opt = model_ccon_bits(n, t, l, d_star, b);
        for factor in [4u64, 16, 64] {
            let lo = model_ccon_bits(n, t, l, (d_star / factor).max(1), b);
            let hi = model_ccon_bits(n, t, l, d_star * factor, b);
            assert!(at_opt <= lo, "D*/{factor}: {at_opt} vs {lo}");
            assert!(at_opt <= hi, "D* * {factor}: {at_opt} vs {hi}");
        }
    }

    #[test]
    fn d_scales_with_sqrt_l() {
        let d1 = optimal_d_bits(7, 2, 1 << 16) as f64;
        let d2 = optimal_d_bits(7, 2, 1 << 20) as f64; // 16x larger L
        let ratio = d2 / d1;
        assert!((ratio - 4.0).abs() < 0.1, "ratio {ratio} should be ~4");
    }

    #[test]
    fn t_zero_single_generation() {
        assert_eq!(optimal_d_bits(4, 0, 12345), 12345);
    }

    #[test]
    fn d_clamped_to_l() {
        // Tiny L: optimum would exceed L; clamp.
        assert!(optimal_d_bits(7, 2, 8) <= 8);
        assert!(optimal_d_bits(7, 2, 1) >= 1);
    }

    #[test]
    fn model_approaches_linear_term_for_large_l() {
        // Eq. (3): for large L the complexity approaches n(n-1)/(n-2t) L.
        let (n, t) = (7usize, 2usize);
        let b = model_b_theta_n2(n);
        let coeff = linear_coefficient(n, t);
        let l = 1u64 << 36;
        let d = optimal_d_bits(n, t, l);
        let total = model_ccon_bits(n, t, l, d, b);
        let ratio = total / (coeff * l as f64);
        assert!(ratio < 1.05, "ratio {ratio} should approach 1");
        assert!(ratio >= 1.0);
    }

    #[test]
    fn failure_free_below_worst_case() {
        let (n, t, l) = (7, 2, 1u64 << 18);
        let b = model_b_phase_king(n, t);
        let d = optimal_d_bits(n, t, l);
        assert!(
            model_ccon_failure_free_bits(n, t, l, d, b) < model_ccon_bits(n, t, l, d, b)
        );
    }

    #[test]
    fn window_term_is_the_rerun_bound_in_generations() {
        let (n, t, l, d) = (7usize, 2usize, 1u64 << 20, 6080u64);
        let b = model_b_phase_king(n, t);
        let per_generation = 14.0 * d as f64 + 42.0 * b + 2.0 * b;
        let window = model_window_rerun_bits(n, t, d, b);
        // 31 + 15 + 7 + 3 + 1 generations at W = 32, whatever t > 0 is.
        assert_eq!(GENERATION_WINDOW, 32);
        let expect = 57.0 * per_generation;
        assert!((window - expect).abs() <= 1e-6 * expect, "{window} vs {expect}");
        let at_t3 = 57.0 * (90.0 / 4.0 * d as f64 + 90.0 * b + 3.0 * b);
        assert!((model_window_rerun_bits(10, 3, d, b) - at_t3).abs() <= 1e-6 * at_t3);
        let diagnosis = 6.0 * (5.0 / 3.0 * d as f64 + 35.0) * b;
        let worst = model_ccon_bits(n, t, l, d, b);
        let clean = model_ccon_failure_free_bits(n, t, l, d, b);
        assert!((worst - clean - diagnosis - window).abs() <= 1e-9 * worst);
        // No faults tolerated, no diagnosis, nothing discarded.
        assert_eq!(model_window_rerun_bits(4, 0, d, b), 0.0);
    }

    #[test]
    fn phase_king_b_grows_cubically() {
        let b4 = model_b_phase_king(4, 1);
        let b8 = model_b_phase_king(8, 2);
        // Doubling n with t ~ n/4 should grow by roughly 2^3.
        assert!(b8 / b4 > 4.0);
        assert!(model_b_theta_n2(8) / model_b_theta_n2(4) == 4.0);
    }

    #[test]
    fn linear_coefficient_examples() {
        assert_eq!(linear_coefficient(4, 1), 6.0); // 4*3/2
        assert_eq!(linear_coefficient(7, 2), 14.0); // 7*6/3
        assert_eq!(linear_coefficient(4, 0), 3.0); // 4*3/4
    }
}
