//! Broadcast parameters and generation sizing.

use std::fmt;

/// Error for invalid broadcast parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BroadcastConfigError {
    /// `t >= n/3`.
    TooManyFaults {
        /// Number of processors.
        n: usize,
        /// Requested tolerance.
        t: usize,
    },
    /// `source >= n`.
    BadSource {
        /// The offending source id.
        source: usize,
    },
    /// Zero-length value.
    EmptyValue,
    /// Explicit zero generation size.
    ZeroGenerationSize,
}

impl fmt::Display for BroadcastConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BroadcastConfigError::TooManyFaults { n, t } => {
                write!(f, "error-free broadcast requires t < n/3 (n = {n}, t = {t})")
            }
            BroadcastConfigError::BadSource { source } => {
                write!(f, "source id {source} is out of range")
            }
            BroadcastConfigError::EmptyValue => write!(f, "broadcast value must be at least one byte"),
            BroadcastConfigError::ZeroGenerationSize => {
                write!(f, "generation size must be at least one byte")
            }
        }
    }
}

impl std::error::Error for BroadcastConfigError {}

/// The sizing analogue of the consensus Eq. (2) for the broadcast
/// variant: balances the per-generation `Broadcast_Single_Bit` overhead
/// (`≈ n·B` bits for the `Detected` flags) against the worst-case
/// diagnosis cost (`≈ t(t+2)` stages, each re-broadcasting `O(D)` bits).
pub fn broadcast_optimal_d_bits(n: usize, t: usize, l_bits: u64) -> u64 {
    if t == 0 {
        return l_bits.max(1);
    }
    let nf = n as f64;
    let tf = t as f64;
    let l = l_bits as f64;
    let bound = tf * (tf + 2.0);
    // Per-diagnosis D-proportional factor: the source's data broadcast
    // (1 per bit) plus the echoes' symbol broadcasts ((n-t)/(n-2t)).
    let c = 1.0 + (nf - tf) / (nf - 2.0 * tf);
    let d = (nf * l / (bound * c)).sqrt();
    (d.round() as u64).clamp(1, l_bits.max(1))
}

/// The most generations one window holds.
///
/// A slot's reruns total at most
/// [`rerun_bound`](mvbc_core::rerun_bound)`(MAX_WINDOW) = 11`
/// generations, and a window's batch state grows with it. A sweep on the
/// benchmark's `n = 64` log (two-byte generations) read 1.23–1.30,
/// 1.50–1.82 and 1.80–1.94 slots/s at 21.6, 25.8 and 34.2 MiB peak for
/// 8, 16 and 32, against 0.41 slots/s at 33.3 MiB one generation at a
/// time; 8 keeps most of the gain with the smallest rerun bound.
pub const MAX_WINDOW: usize = 8;

/// The most generation bytes one window holds: a window of `D`-byte
/// generations holds at most `WINDOW_BYTES / D` (at least one). At
/// 64 KiB generations windows stay one generation wide: uncapped, the
/// benchmark's 1 MiB log ran about 10 % faster at about 11 % more peak
/// memory (457 → 506 MiB).
pub const WINDOW_BYTES: usize = 64 * 1024;

/// Parameters of one broadcast execution.
///
/// # Examples
///
/// ```
/// use mvbc_broadcast::BroadcastConfig;
///
/// let cfg = BroadcastConfig::new(7, 2, 3, 1024)?;
/// assert_eq!(cfg.source, 3);
/// assert!(cfg.generations() >= 1);
/// # Ok::<(), mvbc_broadcast::BroadcastConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BroadcastConfig {
    /// Number of processors.
    pub n: usize,
    /// Fault tolerance (`t < n/3`).
    pub t: usize,
    /// The broadcasting processor.
    pub source: usize,
    /// Value length in bytes.
    pub value_bytes: usize,
    /// Generation size in bytes (`None` = automatic).
    pub gen_bytes: Option<usize>,
    /// Default byte for padding and default decisions.
    pub default_byte: u8,
}

impl BroadcastConfig {
    /// Validated constructor.
    ///
    /// # Errors
    ///
    /// Returns a [`BroadcastConfigError`] for invalid parameters.
    pub fn new(n: usize, t: usize, source: usize, value_bytes: usize) -> Result<Self, BroadcastConfigError> {
        // `t < n/3` without forming `3 * t`, which can wrap.
        if t >= n.div_ceil(3) {
            return Err(BroadcastConfigError::TooManyFaults { n, t });
        }
        if source >= n {
            return Err(BroadcastConfigError::BadSource { source });
        }
        if value_bytes == 0 {
            return Err(BroadcastConfigError::EmptyValue);
        }
        Ok(BroadcastConfig {
            n,
            t,
            source,
            value_bytes,
            gen_bytes: None,
            default_byte: 0,
        })
    }

    /// As [`BroadcastConfig::new`] with an explicit generation size.
    ///
    /// # Errors
    ///
    /// As [`BroadcastConfig::new`], plus
    /// [`BroadcastConfigError::ZeroGenerationSize`].
    pub fn with_gen_bytes(
        n: usize,
        t: usize,
        source: usize,
        value_bytes: usize,
        gen_bytes: usize,
    ) -> Result<Self, BroadcastConfigError> {
        if gen_bytes == 0 {
            return Err(BroadcastConfigError::ZeroGenerationSize);
        }
        let mut cfg = Self::new(n, t, source, value_bytes)?;
        cfg.gen_bytes = Some(gen_bytes);
        Ok(cfg)
    }

    /// Code dimension `k = n - 2t`.
    pub fn k(&self) -> usize {
        self.n - 2 * self.t
    }

    /// Effective generation size in bytes.
    pub fn resolved_gen_bytes(&self) -> usize {
        match self.gen_bytes {
            Some(d) => d.min(self.value_bytes).max(1),
            None => {
                let d_bits = broadcast_optimal_d_bits(self.n, self.t, self.value_bytes as u64 * 8);
                (d_bits.div_ceil(8) as usize).clamp(1, self.value_bytes)
            }
        }
    }

    /// The most generations a window holds, except a probe window,
    /// which holds one (see [`MAX_WINDOW`] and [`WINDOW_BYTES`]).
    pub fn window(&self) -> usize {
        MAX_WINDOW.min((WINDOW_BYTES / self.resolved_gen_bytes()).max(1))
    }

    /// Number of generations.
    pub fn generations(&self) -> usize {
        self.value_bytes.div_ceil(self.resolved_gen_bytes())
    }

    /// The default decision value.
    pub fn default_value(&self) -> Vec<u8> {
        vec![self.default_byte; self.value_bytes]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(BroadcastConfig::new(4, 1, 0, 10).is_ok());
        assert_eq!(
            BroadcastConfig::new(3, 1, 0, 10),
            Err(BroadcastConfigError::TooManyFaults { n: 3, t: 1 })
        );
        assert_eq!(
            BroadcastConfig::new(4, 1, 4, 10),
            Err(BroadcastConfigError::BadSource { source: 4 })
        );
        assert_eq!(BroadcastConfig::new(4, 1, 0, 0), Err(BroadcastConfigError::EmptyValue));
        assert_eq!(
            BroadcastConfig::with_gen_bytes(4, 1, 0, 10, 0),
            Err(BroadcastConfigError::ZeroGenerationSize)
        );
    }

    #[test]
    fn validation_rejects_t_whose_triple_wraps() {
        // 3t = 2^64 + 2 wraps to 2 < n.
        let t = 6_148_914_691_236_517_206;
        assert_eq!(
            BroadcastConfig::new(7, t, 0, 10),
            Err(BroadcastConfigError::TooManyFaults { n: 7, t })
        );
    }

    #[test]
    fn d_scales_with_sqrt_l() {
        let d1 = broadcast_optimal_d_bits(7, 2, 1 << 16) as f64;
        let d2 = broadcast_optimal_d_bits(7, 2, 1 << 20) as f64;
        assert!((d2 / d1 - 4.0).abs() < 0.2);
    }

    #[test]
    fn t_zero_one_generation() {
        let cfg = BroadcastConfig::new(4, 0, 1, 100).unwrap();
        assert_eq!(cfg.generations(), 1);
    }

    #[test]
    fn generations_cover_value() {
        let cfg = BroadcastConfig::with_gen_bytes(4, 1, 0, 100, 7).unwrap();
        assert_eq!(cfg.generations(), 15);
        assert!(cfg.generations() * cfg.resolved_gen_bytes() >= 100);
    }

    #[test]
    fn windows_cap_generations_and_bytes() {
        let small = BroadcastConfig::with_gen_bytes(4, 1, 0, 1 << 20, 2).unwrap();
        assert_eq!(small.window(), MAX_WINDOW);
        let mid = BroadcastConfig::with_gen_bytes(4, 1, 0, 1 << 20, 16 * 1024).unwrap();
        assert_eq!(mid.window(), 4);
        let bulk = BroadcastConfig::with_gen_bytes(4, 1, 0, 1 << 20, WINDOW_BYTES).unwrap();
        assert_eq!(bulk.window(), 1);
        let huge = BroadcastConfig::with_gen_bytes(4, 1, 0, 1 << 20, 1 << 20).unwrap();
        assert_eq!(huge.window(), 1);
    }

    #[test]
    fn error_display() {
        assert!(BroadcastConfigError::EmptyValue.to_string().contains("byte"));
        assert!(BroadcastConfigError::BadSource { source: 9 }
            .to_string()
            .contains('9'));
    }
}
