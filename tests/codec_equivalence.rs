//! Equivalence suite: the batched slice-kernel codec paths must be
//! *byte-identical* to the scalar reference implementations
//! ([`mvbc_rscode::reference`]) — encode, decode, consistency, and
//! striped round-trips, across all three fields and random geometries —
//! and the codec rewrite must not have changed protocol behavior (pinned
//! by a seeded pipelined SMR digest captured before the rewrite).

use mvbc_gf::{kernels, Field, Gf16, Gf256, Gf65536};
use mvbc_metrics::MetricsSink;
use mvbc_rscode::{reference, CodeError, ReedSolomon, StripedCode, Symbol};
use mvbc_smr::{simulate_smr, synthetic_workloads, HonestReplica, SmrConfig, SmrHooks};
use proptest::prelude::*;

/// Deterministic field elements from a seed.
fn elems<F: Field>(len: usize, seed: u64) -> Vec<F> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            F::from_u64(state)
        })
        .collect()
}

/// Kernels == scalar loops for one field, over a generated slice.
fn check_kernels<F: Field>(len: usize, c_raw: u64, seed: u64) {
    let c = F::from_u64(c_raw);
    let src = elems::<F>(len, seed);
    let acc = elems::<F>(len, seed ^ 0xabcd);

    let mut fast = vec![F::ZERO; len];
    let mut slow = vec![F::ZERO; len];
    kernels::mul_slice(c, &src, &mut fast);
    kernels::mul_slice_scalar(c, &src, &mut slow);
    assert_eq!(fast, slow);

    let mut fast = acc.clone();
    let mut slow = acc;
    kernels::addmul_slice(c, &src, &mut fast);
    kernels::addmul_slice_scalar(c, &src, &mut slow);
    assert_eq!(fast, slow);

    let mut in_place = src.clone();
    kernels::mul_slice_in_place(c, &mut in_place);
    let expect: Vec<F> = src.iter().map(|&s| c * s).collect();
    assert_eq!(in_place, expect);
}

/// Batched ReedSolomon == scalar reference for one field: encode, every
/// decode subset shape, consistency on clean and tampered codewords.
fn check_rs_equivalence<F: Field>(n: usize, k: usize, seed: u64, tamper: Option<(usize, u64)>) {
    let rs: ReedSolomon<F> = ReedSolomon::new(n, k).unwrap();
    let data = elems::<F>(k, seed);

    let batched = rs.encode(&data).unwrap();
    let scalar = reference::rs_encode(&rs, &data).unwrap();
    assert_eq!(batched, scalar, "encode must be identical");

    let mut pairs: Vec<(usize, F)> = batched.iter().copied().enumerate().collect();
    if let Some((victim, delta)) = tamper {
        pairs[victim % n].1 += F::from_u64(delta);
    }

    // Full-codeword consistency and decode agree with the reference,
    // including the error.
    assert_eq!(
        rs.is_consistent(&pairs).unwrap(),
        reference::rs_is_consistent(&rs, &pairs).unwrap()
    );
    assert_eq!(rs.decode(&pairs), reference::rs_decode(&rs, &pairs));

    // A k-subset (rotated so parity positions lead) decodes identically.
    let rot = seed as usize % n;
    let subset: Vec<(usize, F)> = (0..k).map(|i| pairs[(i + rot) % n]).collect();
    assert_eq!(rs.decode(&subset), reference::rs_decode(&rs, &subset));
    // extend() agrees with re-encoding the decoded data.
    if let Ok(decoded) = rs.decode(&subset) {
        assert_eq!(rs.extend(&subset).unwrap(), rs.encode(&decoded).unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, .. ProptestConfig::default() })]

    #[test]
    fn kernels_equal_scalar_all_fields(
        len in 0usize..200,
        c in any::<u64>(),
        seed in any::<u64>(),
    ) {
        check_kernels::<Gf16>(len, c, seed);
        check_kernels::<Gf256>(len, c, seed);
        check_kernels::<Gf65536>(len, c, seed);
    }

    #[test]
    fn reed_solomon_equals_reference_all_fields(
        n in 4usize..=15,
        k_off in 0usize..15,
        seed in any::<u64>(),
        tamper_victim in 0usize..15,
        tamper_delta in 0u64..,
    ) {
        let k = 1 + k_off % n;
        // Alternate clean / tampered codewords so both branches of
        // is_consistent and decode are exercised.
        let tamper = (tamper_delta % 3 != 0).then(|| (tamper_victim, 1 + tamper_delta % 0xf));
        check_rs_equivalence::<Gf16>(n, k, seed, tamper);
        check_rs_equivalence::<Gf256>(n, k, seed, tamper);
        check_rs_equivalence::<Gf65536>(n, k, seed, tamper);
    }

    #[test]
    fn striped_equals_reference(
        len in 1usize..600,
        seed in any::<u64>(),
        n_t in prop::sample::select(vec![(4usize, 1usize), (5, 1), (7, 2), (10, 3), (16, 5)]),
        rot in any::<u8>(),
        tamper in any::<u64>(),
    ) {
        let (n, t) = n_t;
        let k = n - 2 * t;
        let code = StripedCode::c2t(n, t, len).unwrap();
        let value = mvbc_systests::test_value(len, seed);

        let batched = code.encode_value(&value).unwrap();
        let scalar = reference::encode_value(&code, &value).unwrap();
        prop_assert_eq!(&batched, &scalar, "striped codewords must be byte-identical");

        let mut pairs: Vec<(usize, Symbol)> = batched.iter().cloned().enumerate().collect();
        pairs.rotate_left(rot as usize % n);
        if tamper % 2 == 1 {
            // Corrupt one stripe element of one symbol.
            let victim = (tamper as usize / 2) % n;
            let mut elems = pairs[victim].1.elems().to_vec();
            elems[0] += Gf65536::new(1 + ((tamper >> 8) as u16 & 0xff));
            let bits = pairs[victim].1.logical_bits();
            pairs[victim].1 = Symbol::new(elems, bits);
        }

        prop_assert_eq!(
            code.is_consistent(&pairs).unwrap(),
            reference::is_consistent_value(&code, &pairs).unwrap()
        );
        prop_assert_eq!(code.decode_value(&pairs), reference::decode_value(&code, &pairs));

        // Round-trip from every clean k-subset offset.
        let clean: Vec<(usize, Symbol)> = batched.iter().cloned().enumerate().collect();
        for start in 0..n {
            let picks: Vec<(usize, Symbol)> =
                (0..k).map(|i| clean[(start + i) % n].clone()).collect();
            prop_assert_eq!(code.decode_value(&picks).unwrap(), value.clone());
            prop_assert_eq!(code.extend_symbols(&picks).unwrap(), batched.clone());
        }
    }
}

/// Fused row kernels == scalar row loops for all three fields, across
/// lengths that straddle every dispatch threshold of the packed kernels
/// (log-domain below 32, split tables above, byte tables above 1024),
/// including odd lengths and unaligned tails around the block size.
#[test]
fn fused_row_kernels_equal_scalar_all_fields() {
    fn check<F: Field>() {
        for &len in &[0usize, 1, 31, 33, 257, 1023, 1025, 4097] {
            for k in [1usize, 2, 3, 5, 8] {
                let srcs: Vec<Vec<F>> = (0..k).map(|j| elems::<F>(len, 77 ^ j as u64)).collect();
                let src_refs: Vec<&[F]> = srcs.iter().map(Vec::as_slice).collect();
                let coeffs = elems::<F>(k, 0x51);
                let mut fast = elems::<F>(len, 0x99);
                let mut slow = fast.clone();
                kernels::addmul_rows(&coeffs, &src_refs, &mut fast);
                kernels::addmul_rows_scalar(&coeffs, &src_refs, &mut slow);
                assert_eq!(fast, slow, "len {len}, k {k}");
            }
        }
    }
    check::<Gf16>();
    check::<Gf256>();
    check::<Gf65536>();
}

/// Large values == scalar reference. `striped_equals_reference` draws
/// `len < 600` (at most 300 stripes) and so never reaches the prepared
/// byte-table tier (>= 1024 stripes). These two geometries do, one on
/// each side of its table budget: 400 000 B at n = 7 (21 generator
/// tables: cache-blocked sweep, ragged last block) and 65 536 B at
/// n = 16 (96 tables: row-major sweep).
#[test]
fn large_values_equal_reference() {
    for (n, t, len) in [(7usize, 2usize, 400_000usize), (16, 5, 65_536)] {
        let k = n - 2 * t;
        let code = StripedCode::c2t(n, t, len).unwrap();
        let stripes = code.layout().stripes;
        assert!(stripes >= 1024, "n={n}: {stripes} stripes miss the prepared tier");
        let value = mvbc_systests::test_value(len, 13);

        let symbols = code.encode_value(&value).unwrap();
        assert_eq!(symbols, reference::encode_value(&code, &value).unwrap(), "n={n} encode");

        // Rotated, so the interpolation basis is not positions 0..k.
        let mut all: Vec<(usize, Symbol)> = symbols.iter().cloned().enumerate().collect();
        all.rotate_left(n - k);
        assert!(code.is_consistent(&all).unwrap(), "n={n} consistent");
        assert!(reference::is_consistent_value(&code, &all).unwrap(), "n={n} consistent");
        assert_eq!(code.decode_value(&all), reference::decode_value(&code, &all), "n={n} decode");
        assert_eq!(code.decode_value(&all[..k]).unwrap(), value, "n={n} decode from k");
        assert_eq!(code.extend_symbols(&all).unwrap(), symbols, "n={n} extend");
        assert_eq!(code.extend_symbols(&all[..k]).unwrap(), symbols, "n={n} extend from k");

        // One tampered symbol, in the last stripe of the last extra.
        let (_, victim) = &mut all[n - 1];
        let mut elems = victim.elems().to_vec();
        elems[stripes - 1] += Gf65536::ONE;
        *victim = Symbol::new(elems, victim.logical_bits());
        assert!(!code.is_consistent(&all).unwrap(), "n={n} tampered");
        assert!(!reference::is_consistent_value(&code, &all).unwrap(), "n={n} tampered");
        let decoded = code.decode_value(&all);
        assert_eq!(decoded, Err(CodeError::Inconsistent), "n={n} tampered");
        assert_eq!(decoded, reference::decode_value(&code, &all), "n={n} tampered");
        assert_eq!(code.extend_symbols(&all), Err(CodeError::Inconsistent), "n={n} tampered");
    }
}

#[test]
fn decode_error_taxonomy_matches_reference() {
    let code = StripedCode::c2t(7, 2, 40).unwrap();
    let value = mvbc_systests::test_value(40, 3);
    let symbols = code.encode_value(&value).unwrap();

    // Too few symbols.
    let two: Vec<_> = symbols.iter().cloned().enumerate().take(2).collect();
    assert_eq!(
        code.decode_value(&two),
        Err(CodeError::NotEnoughSymbols { needed: 3, got: 2 })
    );
    assert_eq!(code.decode_value(&two), reference::decode_value(&code, &two));
    // ...but vacuously consistent.
    assert!(code.is_consistent(&two).unwrap());

    // Duplicate / out-of-range positions.
    let dup = vec![
        (1usize, symbols[1].clone()),
        (1, symbols[1].clone()),
        (2, symbols[2].clone()),
    ];
    assert_eq!(code.decode_value(&dup), reference::decode_value(&code, &dup));
    let oob = vec![(9usize, symbols[0].clone())];
    assert_eq!(code.decode_value(&oob), reference::decode_value(&code, &oob));

    // Malformed stripe count.
    let malformed = vec![
        (0usize, Symbol::new(vec![Gf65536::ZERO], 16)),
        (1, symbols[1].clone()),
        (2, symbols[2].clone()),
    ];
    assert_eq!(
        code.decode_value(&malformed),
        reference::decode_value(&code, &malformed)
    );
}

/// Digest of a seeded pipelined SMR run, captured on the scalar codec
/// *before* the batch-kernel rewrite. The rewrite must not perturb any
/// protocol byte: same digest, same commands, same round counts, at
/// every pipeline depth.
#[test]
fn pinned_smr_digest_unchanged_by_codec_rewrite() {
    const GOLDEN_DIGEST: u64 = 0xde7b_9e4c_7a0d_c6b3;
    const GOLDEN_COMMANDS: u64 = 48;
    const GOLDEN_ROUNDS_SEQ: u64 = 864;

    for (depth, rounds) in [(1usize, GOLDEN_ROUNDS_SEQ), (2, GOLDEN_ROUNDS_SEQ / 2)] {
        let (n, t, slots, batch, seed) = (7usize, 2usize, 12usize, 4usize, 29u64);
        let cfg = SmrConfig::new(n, t, slots, batch).unwrap().with_pipeline(depth);
        let workloads = synthetic_workloads(n, slots.div_ceil(n) * batch, seed);
        let hooks: Vec<Box<dyn SmrHooks>> = (0..n).map(|_| HonestReplica::boxed()).collect();
        let run = simulate_smr(&cfg, workloads, hooks, MetricsSink::new());
        assert_eq!(
            run.reports[0].digest, GOLDEN_DIGEST,
            "depth {depth}: codec change perturbed the replicated-log digest"
        );
        assert_eq!(run.reports[0].committed_commands, GOLDEN_COMMANDS, "depth {depth}");
        assert_eq!(run.rounds, rounds, "depth {depth}");
    }
}
