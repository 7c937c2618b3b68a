//! Bit-packing helpers for 1-bit protocol messages.
//!
//! `Broadcast_Single_Bit` instances exchange single bits; when many
//! instances run batched in the same round their bits are packed into one
//! payload. These helpers keep the packing/unpacking symmetric and
//! deterministic.

/// Packs booleans into bytes, LSB-first within each byte.
///
/// # Examples
///
/// ```
/// use mvbc_netsim::bits::{pack_bits, unpack_bits};
///
/// let bits = vec![true, false, true, true, false, false, false, false, true];
/// let bytes = pack_bits(&bits);
/// assert_eq!(bytes.len(), 2);
/// assert_eq!(unpack_bits(&bytes, bits.len()), Some(bits));
/// ```
pub fn pack_bits(bits: &[bool]) -> Vec<u8> {
    let mut out = vec![0u8; bits.len().div_ceil(8)];
    for (i, &b) in bits.iter().enumerate() {
        if b {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

/// Unpacks `count` booleans from bytes produced by [`pack_bits`].
///
/// Returns `None` when `bytes` is not exactly `ceil(count / 8)` long —
/// malformed messages from Byzantine peers must be treated as absent.
pub fn unpack_bits(bytes: &[u8], count: usize) -> Option<Vec<bool>> {
    if bytes.len() != count.div_ceil(8) {
        return None;
    }
    Some((0..count).map(|i| bytes[i / 8] & (1 << (i % 8)) != 0).collect())
}

/// Packs a vector of 2-bit symbols (values `0..=3`), used by the
/// Phase-King proposal round (`no proposal` / `propose 0` / `propose 1`).
///
/// # Panics
///
/// Panics when any value exceeds 3.
pub fn pack_crumbs(vals: &[u8]) -> Vec<u8> {
    let mut out = vec![0u8; vals.len().div_ceil(4)];
    for (i, &v) in vals.iter().enumerate() {
        assert!(v < 4, "crumb value {v} out of range");
        out[i / 4] |= v << (2 * (i % 4));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_roundtrips() {
        assert_eq!(pack_bits(&[]), Vec::<u8>::new());
        assert_eq!(unpack_bits(&[], 0), Some(Vec::new()));
        assert_eq!(pack_crumbs(&[]), Vec::<u8>::new());
    }

    #[test]
    fn bits_roundtrip_all_lengths() {
        for len in 0..40usize {
            let bits: Vec<bool> = (0..len).map(|i| (i * 7 + 3) % 5 < 2).collect();
            let bytes = pack_bits(&bits);
            assert_eq!(bytes.len(), len.div_ceil(8));
            assert_eq!(unpack_bits(&bytes, len), Some(bits));
        }
    }

    #[test]
    fn bits_length_mismatch_rejected() {
        assert_eq!(unpack_bits(&[0xff], 9), None);
        assert_eq!(unpack_bits(&[0xff, 0x00], 8), None);
    }

    #[test]
    fn crumbs_roundtrip() {
        // Consumers read crumb `i` as bits `2(i % 4)..` of byte `i / 4`.
        for len in 0..20usize {
            let vals: Vec<u8> = (0..len).map(|i| (i % 4) as u8).collect();
            let bytes = pack_crumbs(&vals);
            assert_eq!(bytes.len(), len.div_ceil(4));
            let back: Vec<u8> = (0..len).map(|i| (bytes[i / 4] >> (2 * (i % 4))) & 0b11).collect();
            assert_eq!(back, vals);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn crumbs_reject_large_values() {
        let _ = pack_crumbs(&[4]);
    }

    #[test]
    fn bit_ordering_is_lsb_first() {
        assert_eq!(pack_bits(&[true, false, false, false, false, false, false, false]), vec![1]);
        assert_eq!(pack_bits(&[false, true]), vec![2]);
    }
}
