//! Consensus parameters.

use std::fmt;

use mvbc_rscode::MAX_CODE_LENGTH;

use crate::{dsel, GENERATION_WINDOW};

/// Error returned for invalid consensus parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The resilience bound `t < n/3` is violated.
    TooManyFaults {
        /// Number of processors.
        n: usize,
        /// Requested fault tolerance.
        t: usize,
    },
    /// `n` exceeds the coding field: `n > MAX_CODE_LENGTH` (65 535).
    TooManyProcessors {
        /// Number of processors.
        n: usize,
    },
    /// The value must be at least one byte.
    EmptyValue,
    /// An explicit generation size of zero bytes was requested.
    ZeroGenerationSize,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::TooManyFaults { n, t } => {
                write!(f, "error-free consensus requires t < n/3 (n = {n}, t = {t})")
            }
            ConfigError::TooManyProcessors { n } => {
                write!(f, "GF(2^16) coding supports at most {MAX_CODE_LENGTH} processors (n = {n})")
            }
            ConfigError::EmptyValue => write!(f, "consensus value must be at least one byte"),
            ConfigError::ZeroGenerationSize => {
                write!(f, "generation size must be at least one byte")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Parameters of one consensus execution.
///
/// # Examples
///
/// ```
/// use mvbc_core::ConsensusConfig;
///
/// let cfg = ConsensusConfig::new(7, 2, 4096)?;
/// assert_eq!(cfg.k(), 3);                   // n - 2t
/// assert!(cfg.resolved_gen_bytes() >= 1);   // Eq. (2) optimum
/// assert!(cfg.generations() >= 1);
/// # Ok::<(), mvbc_core::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsensusConfig {
    /// Number of processors.
    pub n: usize,
    /// Byzantine fault tolerance (`t < n/3`).
    pub t: usize,
    /// Length of the value agreed upon, in bytes (`L = 8 * value_bytes`).
    pub value_bytes: usize,
    /// Generation size `D` in bytes; `None` selects the paper's Eq. (2)
    /// optimum.
    pub gen_bytes: Option<usize>,
    /// Byte used to fill the default decision (taken when the matching
    /// stage proves the fault-free inputs differ) and to pad the final
    /// generation.
    pub default_byte: u8,
    /// **Ablation switch** (experiment E9): when set, the diagnosis graph
    /// is reset to the complete graph at the start of every generation,
    /// disabling the paper's "memory across generations" (§2). Safety is
    /// unaffected (each generation is still correct in isolation), but
    /// the `t(t+1)` bound of Theorem 1 no longer holds: a persistent
    /// adversary can force a diagnosis stage in *every* generation.
    pub ablation_reset_diag: bool,
}

impl ConsensusConfig {
    /// Validated constructor with automatic generation sizing.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when `t >= n/3`, `n > MAX_CODE_LENGTH`, or
    /// `value_bytes == 0`.
    pub fn new(n: usize, t: usize, value_bytes: usize) -> Result<Self, ConfigError> {
        let cfg = ConsensusConfig {
            n,
            t,
            value_bytes,
            gen_bytes: None,
            default_byte: 0,
            ablation_reset_diag: false,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// As [`ConsensusConfig::new`] with an explicit generation size `D`
    /// (in bytes).
    ///
    /// # Errors
    ///
    /// As [`ConsensusConfig::new`], plus [`ConfigError::ZeroGenerationSize`].
    pub fn with_gen_bytes(
        n: usize,
        t: usize,
        value_bytes: usize,
        gen_bytes: usize,
    ) -> Result<Self, ConfigError> {
        if gen_bytes == 0 {
            return Err(ConfigError::ZeroGenerationSize);
        }
        let mut cfg = Self::new(n, t, value_bytes)?;
        cfg.gen_bytes = Some(gen_bytes);
        Ok(cfg)
    }

    fn validate(&self) -> Result<(), ConfigError> {
        // `t < n/3` without forming `3 * t`, which can wrap.
        if self.t >= self.n.div_ceil(3) {
            return Err(ConfigError::TooManyFaults { n: self.n, t: self.t });
        }
        if self.n > MAX_CODE_LENGTH {
            return Err(ConfigError::TooManyProcessors { n: self.n });
        }
        if self.value_bytes == 0 {
            return Err(ConfigError::EmptyValue);
        }
        Ok(())
    }

    /// Code dimension `k = n - 2t`.
    pub fn k(&self) -> usize {
        self.n - 2 * self.t
    }

    /// The effective generation size in bytes (explicit, or the Eq. (2)
    /// optimum clamped to `[1, value_bytes]`).
    pub fn resolved_gen_bytes(&self) -> usize {
        match self.gen_bytes {
            Some(d) => d.min(self.value_bytes).max(1),
            None => {
                let d_bits = dsel::optimal_d_bits(self.n, self.t, self.value_bytes as u64 * 8);
                let d_bytes = (d_bits.div_ceil(8) as usize).max(1);
                d_bytes.min(self.value_bytes)
            }
        }
    }

    /// Number of generations `ceil(L / D)`.
    pub fn generations(&self) -> usize {
        self.value_bytes.div_ceil(self.resolved_gen_bytes())
    }

    /// The most generations a window holds: [`GENERATION_WINDOW`], or 1
    /// under [`ablation_reset_diag`](Self::ablation_reset_diag), whose
    /// reset comes before every generation.
    pub fn window(&self) -> usize {
        if self.ablation_reset_diag { 1 } else { GENERATION_WINDOW }
    }

    /// The default decision value (all `default_byte`).
    pub fn default_value(&self) -> Vec<u8> {
        vec![self.default_byte; self.value_bytes]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_parameters() {
        for (n, t) in [(4, 1), (7, 2), (10, 3), (4, 0), (1, 0)] {
            assert!(ConsensusConfig::new(n, t, 100).is_ok(), "n={n} t={t}");
        }
    }

    #[test]
    fn rejects_t_at_or_above_third() {
        assert_eq!(
            ConsensusConfig::new(3, 1, 100),
            Err(ConfigError::TooManyFaults { n: 3, t: 1 })
        );
        assert_eq!(
            ConsensusConfig::new(6, 2, 100),
            Err(ConfigError::TooManyFaults { n: 6, t: 2 })
        );
        assert!(ConsensusConfig::new(7, 2, 100).is_ok());
    }

    #[test]
    fn rejects_t_whose_triple_wraps() {
        // 3t = 2^64 + 2 wraps to 2 < n.
        let t = 6_148_914_691_236_517_206;
        assert_eq!(ConsensusConfig::new(7, t, 100), Err(ConfigError::TooManyFaults { n: 7, t }));
    }

    #[test]
    fn rejects_empty_value_and_zero_generation() {
        assert_eq!(ConsensusConfig::new(4, 1, 0), Err(ConfigError::EmptyValue));
        assert_eq!(
            ConsensusConfig::with_gen_bytes(4, 1, 10, 0),
            Err(ConfigError::ZeroGenerationSize)
        );
    }

    #[test]
    fn rejects_oversized_network() {
        assert_eq!(
            ConsensusConfig::new(70_000, 1, 8),
            Err(ConfigError::TooManyProcessors { n: 70_000 })
        );
        assert!(ConsensusConfig::new(MAX_CODE_LENGTH, 0, 8).is_ok());
        assert_eq!(
            ConsensusConfig::new(MAX_CODE_LENGTH + 1, 0, 8),
            Err(ConfigError::TooManyProcessors { n: 65_536 })
        );
    }

    #[test]
    fn generation_count_covers_value() {
        let cfg = ConsensusConfig::with_gen_bytes(4, 1, 100, 30).unwrap();
        assert_eq!(cfg.resolved_gen_bytes(), 30);
        assert_eq!(cfg.generations(), 4); // 30+30+30+10(padded)
    }

    #[test]
    fn explicit_gen_clamped_to_value() {
        let cfg = ConsensusConfig::with_gen_bytes(4, 1, 10, 1000).unwrap();
        assert_eq!(cfg.resolved_gen_bytes(), 10);
        assert_eq!(cfg.generations(), 1);
    }

    #[test]
    fn auto_gen_size_grows_with_l() {
        let small = ConsensusConfig::new(7, 2, 1 << 10).unwrap().resolved_gen_bytes();
        let large = ConsensusConfig::new(7, 2, 1 << 20).unwrap().resolved_gen_bytes();
        assert!(large > small, "D should grow with sqrt(L): {small} vs {large}");
    }

    #[test]
    fn t_zero_uses_single_generation() {
        // No diagnosis is ever possible with t = 0, so D = L.
        let cfg = ConsensusConfig::new(4, 0, 500).unwrap();
        assert_eq!(cfg.resolved_gen_bytes(), 500);
        assert_eq!(cfg.generations(), 1);
    }

    #[test]
    fn default_value_uses_default_byte() {
        let mut cfg = ConsensusConfig::new(4, 1, 3).unwrap();
        cfg.default_byte = 0xEE;
        assert_eq!(cfg.default_value(), vec![0xEE, 0xEE, 0xEE]);
    }

    #[test]
    fn error_display() {
        assert!(ConfigError::TooManyFaults { n: 3, t: 1 }.to_string().contains("t < n/3"));
        assert!(ConfigError::EmptyValue.to_string().contains("byte"));
    }
}
