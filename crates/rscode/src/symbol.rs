//! The [`Symbol`] type: one striped Reed-Solomon codeword position.

use std::fmt;

use mvbc_gf::Gf65536;

/// One coded symbol of a [`StripedCode`](crate::StripedCode) codeword.
///
/// The paper's symbol carries `D / (n - 2t)` bits. We realise it as a vector
/// of GF(2^16) elements — one element per stripe — so a symbol of any bit
/// width can be represented. [`Symbol::logical_bits`] reports the *logical*
/// width used for communication-complexity accounting (which may be smaller
/// than `16 * elems.len()` when the last stripe is padding).
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Symbol {
    elems: Vec<Gf65536>,
    logical_bits: u64,
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol[{} stripes, {} bits](", self.elems.len(), self.logical_bits)?;
        for (i, e) in self.elems.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, ")")
    }
}

impl Symbol {
    /// Creates a symbol from its stripe elements and logical bit width.
    pub fn new(elems: Vec<Gf65536>, logical_bits: u64) -> Self {
        Symbol { elems, logical_bits }
    }

    /// The stripe elements.
    pub fn elems(&self) -> &[Gf65536] {
        &self.elems
    }

    /// Number of stripes.
    pub fn stripes(&self) -> usize {
        self.elems.len()
    }

    /// The logical number of bits this symbol contributes to communication
    /// complexity (the paper's `D / (n - 2t)`).
    pub fn logical_bits(&self) -> u64 {
        self.logical_bits
    }

    /// Serialises the symbol to bytes (big-endian u16 per stripe).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.elems.len() * 2);
        for e in &self.elems {
            out.extend_from_slice(&e.raw().to_be_bytes());
        }
        out
    }

    /// Parses a symbol of `stripes` stripe elements from bytes.
    ///
    /// Returns `None` when `bytes` has the wrong length — the protocol layer
    /// treats malformed messages from Byzantine peers as the distinguished
    /// symbol `⊥`.
    pub fn from_bytes(bytes: &[u8], stripes: usize, logical_bits: u64) -> Option<Self> {
        if bytes.len() != stripes * 2 {
            return None;
        }
        let elems = bytes
            .chunks_exact(2)
            .map(|c| Gf65536::new(u16::from_be_bytes([c[0], c[1]])))
            .collect();
        Some(Symbol { elems, logical_bits })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(vals: &[u16]) -> Symbol {
        Symbol::new(vals.iter().map(|&v| Gf65536::new(v)).collect(), vals.len() as u64 * 16)
    }

    #[test]
    fn roundtrip_bytes() {
        let s = sym(&[0x1234, 0xabcd, 0x0001]);
        let b = s.to_bytes();
        assert_eq!(b.len(), 6);
        let back = Symbol::from_bytes(&b, 3, 48).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn from_bytes_rejects_wrong_length() {
        assert!(Symbol::from_bytes(&[1, 2, 3], 2, 16).is_none());
        assert!(Symbol::from_bytes(&[], 1, 16).is_none());
    }

    #[test]
    fn empty_symbol() {
        let s = Symbol::new(Vec::new(), 0);
        assert_eq!(s.stripes(), 0);
        assert_eq!(s.to_bytes().len(), 0);
        assert_eq!(Symbol::from_bytes(&[], 0, 0).unwrap(), s);
    }

    #[test]
    fn logical_bits_independent_of_storage() {
        // A 10-bit logical symbol still occupies one 16-bit stripe.
        let s = Symbol::new(vec![Gf65536::new(0x3ff)], 10);
        assert_eq!(s.logical_bits(), 10);
        assert_eq!(s.stripes(), 1);
    }

    #[test]
    fn debug_nonempty() {
        assert!(!format!("{:?}", sym(&[7])).is_empty());
        assert!(format!("{:?}", Symbol::default()).contains("0 stripes"));
    }
}
