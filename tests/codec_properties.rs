//! Property-based tests of the coding substrate: GF arithmetic axioms,
//! Reed-Solomon identities, the paper's `C_2t` detection guarantees, and
//! Berlekamp-Welch correction.

use mvbc_gf::{interpolate, Field, Gf65536, Poly};
use mvbc_rscode::{berlekamp_welch, CodeError, ReedSolomon, StripedCode, Symbol};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn gf65536_field_axioms(a in any::<u16>(), b in any::<u16>(), c in any::<u16>()) {
        let (a, b, c) = (Gf65536::new(a), Gf65536::new(b), Gf65536::new(c));
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!((a * b) * c, a * (b * c));
        prop_assert_eq!(a * (b + c), a * b + a * c);
        prop_assert_eq!(a + a, Gf65536::ZERO);
        if !a.is_zero() {
            prop_assert_eq!(a * a.inv().unwrap(), Gf65536::ONE);
        }
    }

    #[test]
    fn gf65536_division_inverts_multiplication(a in any::<u16>(), b in 1u16..) {
        let (a, b) = (Gf65536::new(a), Gf65536::new(b));
        prop_assert_eq!((a * b) / b, a);
    }

    #[test]
    fn poly_eval_agrees_with_interpolation(
        coeffs in prop::collection::vec(any::<u16>(), 1..8),
    ) {
        let p = Poly::from_coeffs(coeffs.iter().map(|&c| Gf65536::new(c)).collect());
        let pts: Vec<_> = (0..8).map(|i| {
            let x = Gf65536::alpha(i);
            (x, p.eval(x))
        }).collect();
        let q = interpolate(&pts).unwrap();
        prop_assert_eq!(p, q);
    }

    #[test]
    fn poly_div_rem_identity(
        a in prop::collection::vec(any::<u16>(), 0..10),
        d in prop::collection::vec(any::<u16>(), 1..6),
    ) {
        let a = Poly::from_coeffs(a.into_iter().map(Gf65536::new).collect());
        let d = Poly::from_coeffs(d.into_iter().map(Gf65536::new).collect());
        prop_assume!(!d.is_zero());
        let (q, r) = a.div_rem(&d);
        prop_assert_eq!(q.mul(&d).add(&r), a);
        prop_assert!(r.degree() < d.degree() || r.is_zero());
    }

    #[test]
    fn rs_roundtrip_any_k_subset(
        data in prop::collection::vec(any::<u16>(), 3),
        mask in any::<u16>(),
    ) {
        let rs = ReedSolomon::new(7, 3).unwrap();
        let d: Vec<Gf65536> = data.iter().map(|&x| Gf65536::new(x)).collect();
        let cw = rs.encode(&d).unwrap();
        // Select at least k positions from the mask bits.
        let mut picks: Vec<(usize, Gf65536)> = (0..7)
            .filter(|&i| mask & (1 << i) != 0)
            .map(|i| (i, cw[i]))
            .collect();
        for (i, &c) in cw.iter().enumerate() {
            if picks.len() >= 3 { break; }
            if !picks.iter().any(|&(p, _)| p == i) {
                picks.push((i, c));
            }
        }
        prop_assert_eq!(rs.decode(&picks).unwrap(), d);
    }

    #[test]
    fn c2t_detects_any_single_tampering(
        data in prop::collection::vec(any::<u16>(), 3),
        victim in 0usize..7,
        delta in 1u16..,
    ) {
        // Distance 2t+1 = 5 > 1, so any single-symbol change is caught.
        let rs = ReedSolomon::new(7, 3).unwrap();
        let d: Vec<Gf65536> = data.iter().map(|&x| Gf65536::new(x)).collect();
        let mut cw = rs.encode(&d).unwrap();
        cw[victim] += Gf65536::new(delta);
        let pairs: Vec<_> = cw.into_iter().enumerate().collect();
        prop_assert!(!rs.is_consistent(&pairs).unwrap());
    }

    #[test]
    fn c2t_detects_up_to_2t_tamperings(
        data in prop::collection::vec(any::<u16>(), 3),
        victims in prop::collection::btree_set(0usize..7, 1..=4),
        delta in 1u16..,
    ) {
        // Up to 2t = 4 changed symbols cannot reach another codeword
        // (distance 2t+1), so the full view is always inconsistent.
        let rs = ReedSolomon::new(7, 3).unwrap();
        let d: Vec<Gf65536> = data.iter().map(|&x| Gf65536::new(x)).collect();
        let mut cw = rs.encode(&d).unwrap();
        for &v in &victims {
            cw[v] += Gf65536::new(delta);
        }
        let pairs: Vec<_> = cw.into_iter().enumerate().collect();
        prop_assert!(!rs.is_consistent(&pairs).unwrap());
    }

    #[test]
    fn striped_roundtrip(
        len in 1usize..300,
        seed in any::<u64>(),
        n_t in prop::sample::select(vec![(4usize, 1usize), (7, 2), (10, 3)]),
    ) {
        let (n, t) = n_t;
        let code = StripedCode::c2t(n, t, len).unwrap();
        let v = mvbc_systests::test_value(len, seed);
        let syms = code.encode_value(&v).unwrap();
        let k = n - 2 * t;
        let picks: Vec<(usize, Symbol)> = syms.into_iter().enumerate().skip(n - k).collect();
        prop_assert_eq!(code.decode_value(&picks).unwrap(), v);
    }

    #[test]
    fn berlekamp_welch_corrects_within_radius(
        data in prop::collection::vec(any::<u16>(), 3),
        errors in prop::collection::btree_map(0usize..9, 1u16.., 0..=3),
    ) {
        let rs = ReedSolomon::new(9, 3).unwrap(); // e_max = 3
        let d: Vec<Gf65536> = data.iter().map(|&x| Gf65536::new(x)).collect();
        let mut cw = rs.encode(&d).unwrap();
        for (&pos, &delta) in &errors {
            cw[pos] += Gf65536::new(delta);
        }
        let pairs: Vec<_> = cw.into_iter().enumerate().collect();
        let out = berlekamp_welch::decode(&rs, &pairs).unwrap();
        prop_assert_eq!(out.data, d);
        prop_assert_eq!(out.error_positions.len(), errors.len());
    }

    #[test]
    fn symbol_serialisation_roundtrip(
        elems in prop::collection::vec(any::<u16>(), 0..20),
    ) {
        let sym = Symbol::new(elems.iter().map(|&e| Gf65536::new(e)).collect(), elems.len() as u64 * 16);
        let bytes = sym.to_bytes();
        prop_assert_eq!(Symbol::from_bytes(&bytes, elems.len(), elems.len() as u64 * 16), Some(sym));
    }
}

#[test]
fn decode_never_hallucinates_with_honest_quorum() {
    // The load-bearing property behind Lemma 3: if at least k supplied
    // symbols come from one codeword and the rest are arbitrary, decode
    // either errors or returns that codeword's data (it re-checks all
    // symbols), never a third value.
    let rs = ReedSolomon::new(7, 3).unwrap();
    let d: Vec<Gf65536> = vec![Gf65536::new(1), Gf65536::new(2), Gf65536::new(3)];
    let cw = rs.encode(&d).unwrap();
    for junk in 0u16..50 {
        let mut pairs: Vec<(usize, Gf65536)> = cw.iter().copied().enumerate().take(5).collect();
        pairs.push((5, Gf65536::new(junk)));
        match rs.decode(&pairs) {
            Ok(got) => assert_eq!(got, d),
            Err(CodeError::Inconsistent) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }
}
