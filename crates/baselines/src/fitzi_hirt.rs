//! Baseline 2: a Fitzi-Hirt-style probabilistic multi-valued consensus
//! (PODC 2006 — "Optimally efficient multi-valued Byzantine agreement").
//!
//! Structure (simplified as README.md's "Substitutions" records,
//! preserving the complexity shape `O(nL + n³(n+κ))` and the
//! probabilistic-correctness property):
//!
//! 1. A common random hash key is derived from a seed (the original paper
//!    generates it interactively; the cost of that sub-protocol is folded
//!    into the `n³(n+κ)` term either way).
//! 2. Each processor hashes its `L`-bit value to `κ` bits with an
//!    ε-universal polynomial hash over GF(2^16) and the processors run
//!    binary consensus per hash bit.
//! 3. Processors whose value matches the agreed hash ("matchers")
//!    disperse the value with an `(n, t+1)` Reed-Solomon code: matcher
//!    `m` sends coded symbol `j` to processor `j`; each processor
//!    majority-votes its own symbol, re-broadcasts it, and reconstructs
//!    the value by *error-correcting* decoding (Berlekamp-Welch,
//!    tolerating `t` bad symbols).
//! 4. Each processor verifies the reconstruction against the agreed hash
//!    and delivers it (or the default on failure).
//!
//! **The error case.** Unlike Liang-Vaidya, correctness is conditional on
//! hash-collision freedom: if a processor holds a *different* value with
//! the *same* hash (computable by the full-information adversary, who
//! knows the key — see [`find_collision`]), matchers disperse symbols of
//! two different codewords and reconstruction can deliver a wrong or
//! inconsistent value. Experiment E8 demonstrates this constructively.

use mvbc_gf::{Field, Gf65536, Poly};
use mvbc_metrics::MetricsSink;
use mvbc_netsim::bits::{pack_bits, unpack_bits};
use mvbc_netsim::{node_task, run_tasks, NodeCtx, NodeTask, SimConfig};
use mvbc_rscode::{StripedCode, Symbol};
use mvbc_bsb::{run_king_batch, BsbConfig, NoopBsbHooks};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Parameters of the Fitzi-Hirt-style protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FitziHirtConfig {
    /// Number of processors.
    pub n: usize,
    /// Fault tolerance (`t < n/3` with our error-free binary consensus;
    /// the original tolerates more with authentication).
    pub t: usize,
    /// Value length in bytes.
    pub value_bytes: usize,
    /// Hash width in GF(2^16) symbols (`κ = 16 * kappa_symbols` bits).
    pub kappa_symbols: usize,
    /// Seed of the common hash key (stands in for the interactive key
    /// agreement of the original protocol).
    pub key_seed: u64,
}

impl FitziHirtConfig {
    /// Convenience constructor with `κ = 64` bits.
    ///
    /// # Panics
    ///
    /// Panics when `t >= n/3` or `value_bytes == 0`.
    pub fn new(n: usize, t: usize, value_bytes: usize) -> Self {
        assert!(3 * t < n, "requires t < n/3");
        assert!(value_bytes > 0, "value must be non-empty");
        FitziHirtConfig {
            n,
            t,
            value_bytes,
            kappa_symbols: 4,
            key_seed: 0x5eed,
        }
    }

    /// The hash keys derived from the seed (common knowledge).
    pub fn keys(&self) -> Vec<Gf65536> {
        let mut rng = StdRng::seed_from_u64(self.key_seed);
        (0..self.kappa_symbols)
            .map(|_| Gf65536::new(rng.random_range(1..=u16::MAX)))
            .collect()
    }
}

/// The ε-universal polynomial hash: interpret `value` as GF(2^16)
/// coefficients `m_0..m_{s-1}` and evaluate
/// `h_j = Σ_i m_i · x_j^i  (+ x_j^s)` at each key `x_j`.
///
/// Collision probability for two distinct values is at most
/// `(s / 2^16)^keys.len()` over a random key choice.
pub fn universal_hash(value: &[u8], keys: &[Gf65536]) -> Vec<Gf65536> {
    let mut coeffs: Vec<Gf65536> = value
        .chunks(2)
        .map(|c| {
            let b0 = c[0];
            let b1 = c.get(1).copied().unwrap_or(0);
            Gf65536::new(u16::from_be_bytes([b0, b1]))
        })
        .collect();
    // Length strengthening: append a constant so values of different
    // lengths (after padding) cannot trivially collide.
    coeffs.push(Gf65536::ONE);
    let poly = Poly::from_coeffs(coeffs);
    keys.iter().map(|&x| poly.eval(x)).collect()
}

/// Constructs a value distinct from `value` with an identical hash under
/// `keys` — the attack a full-information adversary mounts against the
/// protocol (it knows the key; no secrecy assumption protects it).
///
/// Returns `None` if `value` is too short to embed the collision
/// (needs at least `2 * (keys.len() + 1)` bytes).
pub fn find_collision(value: &[u8], keys: &[Gf65536]) -> Option<Vec<u8>> {
    // h(v') = h(v) iff (v' - v) as a polynomial vanishes at every key.
    // Take delta(x) = Π_j (x - key_j), degree |keys|; add it into the
    // low-order coefficients.
    let needed = 2 * (keys.len() + 1);
    if value.len() < needed {
        return None;
    }
    let mut delta = Poly::constant(Gf65536::ONE);
    for &key in keys {
        delta = delta.mul(&Poly::from_coeffs(vec![key, Gf65536::ONE]));
    }
    let mut out = value.to_vec();
    for (i, &c) in delta.coeffs().iter().enumerate() {
        let raw = c.to_u64() as u16;
        let [hi, lo] = raw.to_be_bytes();
        out[2 * i] ^= hi;
        if 2 * i + 1 < out.len() {
            out[2 * i + 1] ^= lo;
        } else if lo != 0 {
            return None; // cannot embed the low byte
        }
    }
    (out != *value).then_some(out)
}

/// Analytic cost model `O(nL + n³(n+κ))` with explicit constants matching
/// this implementation: two dispersal hops of `n²·L/(t+1)` bits plus
/// `κ` binary consensus instances at the Phase-King price.
pub fn model_bits(n: usize, t: usize, l_bits: u64, kappa_bits: u64) -> f64 {
    let nf = n as f64;
    let tf = t as f64;
    let dispersal = 2.0 * nf * nf * (l_bits as f64) / (tf + 1.0);
    let king_per_bit = (tf + 1.0) * (3.0 * nf * (nf - 1.0) + (nf - 1.0));
    dispersal + kappa_bits as f64 * king_per_bit
}

/// Per-processor outcome of a Fitzi-Hirt run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FhOutcome {
    /// Reconstructed a value matching the agreed hash.
    Delivered(Vec<u8>),
    /// Could not reconstruct a hash-matching value; default decision.
    Defaulted,
}

/// The split-world attack against Fitzi-Hirt (requires a hash collision,
/// which the full-information adversary computes via [`find_collision`]):
/// Byzantine processors pose as matchers and equivocate during dispersal
/// and exchange — treating low-id receivers as if the value were `v` and
/// high-id receivers as if it were `v2`. Combined with honest processors
/// whose inputs collide, receivers' majority votes split between the two
/// codewords and reconstruction diverges: some deliver while others
/// default, violating agreement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitWorldAttack {
    /// The value presented to low-id receivers.
    pub v: Vec<u8>,
    /// The colliding value presented to high-id receivers.
    pub v2: Vec<u8>,
}

impl SplitWorldAttack {
    fn low_world(&self, n: usize, receiver: usize) -> bool {
        receiver < n.div_ceil(2)
    }
}

/// Runs the protocol among fault-free processors (the adversary's power
/// against *this* baseline is exercised through colliding inputs — see
/// [`find_collision`] — rather than message corruption).
///
/// # Panics
///
/// Panics when `inputs.len() != cfg.n` or input lengths disagree with the
/// configuration.
pub fn simulate_fitzi_hirt(
    cfg: &FitziHirtConfig,
    inputs: Vec<Vec<u8>>,
    metrics: MetricsSink,
) -> Vec<FhOutcome> {
    simulate_fitzi_hirt_with_attack(cfg, inputs, Vec::new(), None, metrics)
}

/// As [`simulate_fitzi_hirt`], with the processors in `faulty` running
/// the [`SplitWorldAttack`] (when provided). Used by experiment E8 to
/// demonstrate the protocol's non-zero error probability.
///
/// # Panics
///
/// As [`simulate_fitzi_hirt`]; additionally when `faulty.len() > cfg.t`.
pub fn simulate_fitzi_hirt_with_attack(
    cfg: &FitziHirtConfig,
    inputs: Vec<Vec<u8>>,
    faulty: Vec<usize>,
    attack: Option<SplitWorldAttack>,
    metrics: MetricsSink,
) -> Vec<FhOutcome> {
    assert_eq!(inputs.len(), cfg.n, "one input per processor");
    assert!(faulty.len() <= cfg.t, "at most t Byzantine processors");
    for v in &inputs {
        assert_eq!(v.len(), cfg.value_bytes, "inputs must be L bytes");
    }
    let cfg = *cfg;

    let tasks: Vec<NodeTask<FhOutcome>> = inputs
        .into_iter()
        .enumerate()
        .map(|(id, value)| {
            let attack = faulty.contains(&id).then(|| attack.clone()).flatten();
            node_task(async move |ctx: &mut NodeCtx| run_fh_node(ctx, &cfg, &value, attack.as_ref()).await)
        })
        .collect();
    run_tasks(SimConfig::new(cfg.n), metrics, None, tasks).outputs
}

const TAG_DISPERSE: &str = "baseline.fh.disperse";
const TAG_EXCHANGE: &str = "baseline.fh.exchange";

async fn run_fh_node(
    ctx: &mut NodeCtx,
    cfg: &FitziHirtConfig,
    value: &[u8],
    attack: Option<&SplitWorldAttack>,
) -> FhOutcome {
    let n = cfg.n;
    let t = cfg.t;
    let me = ctx.id();
    let keys = cfg.keys();

    // Phase 2: binary consensus on the hash bits.
    let my_hash = universal_hash(value, &keys);
    let hash_bytes: Vec<u8> = my_hash
        .iter()
        .flat_map(|h| (h.to_u64() as u16).to_be_bytes())
        .collect();
    let hash_bits = unpack_bits(&hash_bytes, cfg.kappa_symbols * 16).expect("exact length");
    let king_cfg = BsbConfig::new(t, "baseline.fh.hash", vec![true; n]);
    let agreed_bits = run_king_batch(ctx, &king_cfg, hash_bits, &mut NoopBsbHooks).await;
    let agreed_bytes = pack_bits(&agreed_bits);
    let agreed_hash: Vec<Gf65536> = agreed_bytes
        .chunks_exact(2)
        .map(|c| Gf65536::new(u16::from_be_bytes([c[0], c[1]])))
        .collect();

    // Phase 3a: matchers disperse coded symbols, one per recipient.
    let code = StripedCode::new(n, t + 1, cfg.value_bytes).expect("valid parameters");
    let i_match = my_hash == agreed_hash;
    if let Some(a) = attack {
        // Byzantine equivocation: pose as a matcher of `v` toward low-id
        // receivers and of `v2` toward high-id receivers.
        let sym_v = code.encode_value(&a.v).expect("v has L bytes");
        let sym_v2 = code.encode_value(&a.v2).expect("v2 has L bytes");
        for (j, (sv, sv2)) in sym_v.iter().zip(&sym_v2).enumerate() {
            if j == me {
                continue;
            }
            let sym = if a.low_world(n, j) { sv } else { sv2 };
            ctx.send(j, TAG_DISPERSE, sym.to_bytes(), code.symbol_bits());
        }
    } else if i_match {
        let symbols = code.encode_value(value).expect("value has L bytes");
        for (j, sym) in symbols.iter().enumerate() {
            if j != me {
                ctx.send(j, TAG_DISPERSE, sym.to_bytes(), code.symbol_bits());
            }
        }
    }
    let mut inbox = ctx.next_round().await;
    let stripes = code.layout().stripes;
    // Majority vote over the received copies of *my* symbol.
    let mut copies: Vec<Vec<u8>> = Vec::new();
    for j in 0..n {
        if j == me {
            if i_match {
                let symbols = code.encode_value(value).expect("value has L bytes");
                copies.push(symbols[me].to_bytes());
            }
            continue;
        }
        if let Some(b) = inbox.take(j, TAG_DISPERSE) {
            copies.push(b.to_vec());
        }
    }
    let my_symbol: Option<Symbol> = majority(&copies)
        .and_then(|bytes| Symbol::from_bytes(&bytes, stripes, code.symbol_bits()));

    // Phase 3b: exchange the voted symbols.
    if let Some(a) = attack {
        let sym_v = code.encode_value(&a.v).expect("v has L bytes");
        let sym_v2 = code.encode_value(&a.v2).expect("v2 has L bytes");
        for j in 0..n {
            if j == me {
                continue;
            }
            let sym = if a.low_world(n, j) { &sym_v[me] } else { &sym_v2[me] };
            ctx.send(j, TAG_EXCHANGE, sym.to_bytes(), code.symbol_bits());
        }
    } else if let Some(sym) = &my_symbol {
        for j in 0..n {
            if j != me {
                ctx.send(j, TAG_EXCHANGE, sym.to_bytes(), code.symbol_bits());
            }
        }
    }
    let mut inbox = ctx.next_round().await;
    let mut pairs: Vec<(usize, Symbol)> = Vec::new();
    if let Some(sym) = my_symbol {
        pairs.push((me, sym));
    }
    for j in 0..n {
        if j == me {
            continue;
        }
        if let Some(b) = inbox.take(j, TAG_EXCHANGE) {
            if let Some(sym) = Symbol::from_bytes(&b, stripes, code.symbol_bits()) {
                pairs.push((j, sym));
            }
        }
    }

    // Phase 4: error-correcting reconstruction + hash verification.
    match code.decode_value_correcting(&pairs) {
        Ok(candidate) if universal_hash(&candidate, &keys) == agreed_hash => {
            FhOutcome::Delivered(candidate)
        }
        _ => FhOutcome::Defaulted,
    }
}

/// Majority element of a list of byte strings (`None` when the list is
/// empty or no string reaches a strict majority).
fn majority(items: &[Vec<u8>]) -> Option<Vec<u8>> {
    for candidate in items {
        let count = items.iter().filter(|i| *i == candidate).count();
        if 2 * count > items.len() {
            return Some(candidate.clone());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(len: usize, seed: u8) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(11).wrapping_add(seed)).collect()
    }

    #[test]
    fn hash_is_deterministic_and_key_sensitive() {
        let cfg = FitziHirtConfig::new(4, 1, 64);
        let keys = cfg.keys();
        let v = value(64, 1);
        assert_eq!(universal_hash(&v, &keys), universal_hash(&v, &keys));
        let other_keys = FitziHirtConfig { key_seed: 9, ..cfg }.keys();
        assert_ne!(universal_hash(&v, &keys), universal_hash(&v, &other_keys));
    }

    #[test]
    fn distinct_values_rarely_collide() {
        let cfg = FitziHirtConfig::new(4, 1, 64);
        let keys = cfg.keys();
        let h1 = universal_hash(&value(64, 1), &keys);
        let h2 = universal_hash(&value(64, 2), &keys);
        assert_ne!(h1, h2);
    }

    #[test]
    fn collision_construction_works() {
        let cfg = FitziHirtConfig::new(4, 1, 64);
        let keys = cfg.keys();
        let v = value(64, 5);
        let v2 = find_collision(&v, &keys).expect("long enough");
        assert_ne!(v, v2);
        assert_eq!(universal_hash(&v, &keys), universal_hash(&v2, &keys));
    }

    #[test]
    fn collision_needs_enough_space() {
        let cfg = FitziHirtConfig::new(4, 1, 4);
        let keys = cfg.keys();
        assert!(find_collision(&value(4, 0), &keys).is_none());
    }

    #[test]
    fn unanimous_inputs_delivered() {
        let cfg = FitziHirtConfig::new(4, 1, 128);
        let v = value(128, 7);
        let outs = simulate_fitzi_hirt(&cfg, vec![v.clone(); 4], MetricsSink::new());
        for o in outs {
            assert_eq!(o, FhOutcome::Delivered(v.clone()));
        }
    }

    #[test]
    fn n7_unanimous() {
        let cfg = FitziHirtConfig::new(7, 2, 64);
        let v = value(64, 8);
        let outs = simulate_fitzi_hirt(&cfg, vec![v.clone(); 7], MetricsSink::new());
        assert!(outs.iter().all(|o| *o == FhOutcome::Delivered(v.clone())));
    }

    #[test]
    fn collision_plus_equivocation_breaks_agreement() {
        // THE error case (experiment E8): honest processors 0, 1, 2 hold
        // v and honest processors 3, 4 hold the colliding v2 (computable
        // because the adversary knows the hash key — no secrecy protects
        // it). Byzantine 5 and 6 run the split-world equivocation. The
        // hash consensus settles (both values share the hash), but the
        // receivers' majority votes split between the two codewords and
        // reconstruction diverges: agreement among fault-free processors
        // is violated. The Liang-Vaidya algorithm is immune by
        // construction (no hashing anywhere).
        let cfg = FitziHirtConfig::new(7, 2, 64);
        let keys = cfg.keys();
        let v = value(64, 9);
        let v2 = find_collision(&v, &keys).unwrap();
        let mut inputs = vec![v.clone(); 7];
        inputs[3].clone_from(&v2);
        inputs[4].clone_from(&v2);
        let outs = simulate_fitzi_hirt_with_attack(
            &cfg,
            inputs,
            vec![5, 6],
            Some(SplitWorldAttack { v: v.clone(), v2: v2.clone() }),
            MetricsSink::new(),
        );
        let honest = [0usize, 1, 2, 3, 4];
        let error_free = honest.windows(2).all(|w| outs[w[0]] == outs[w[1]]);
        assert!(
            !error_free,
            "collision + equivocation should break agreement: {outs:?}"
        );
    }

    #[test]
    fn attack_without_collision_is_harmless() {
        // The same equivocation with unanimous honest inputs and *no*
        // collision cannot break agreement: error correction absorbs the
        // t Byzantine symbols.
        let cfg = FitziHirtConfig::new(7, 2, 64);
        let v = value(64, 4);
        let junk = value(64, 200);
        let outs = simulate_fitzi_hirt_with_attack(
            &cfg,
            vec![v.clone(); 7],
            vec![5, 6],
            Some(SplitWorldAttack { v: v.clone(), v2: junk }),
            MetricsSink::new(),
        );
        for (id, out) in outs.iter().enumerate().take(5) {
            assert_eq!(*out, FhOutcome::Delivered(v.clone()), "node {id}");
        }
    }

    #[test]
    fn measured_cost_matches_model_shape() {
        let (n, t, l) = (4usize, 1usize, 2048usize);
        let cfg = FitziHirtConfig::new(n, t, l);
        let metrics = MetricsSink::new();
        let v = value(l, 2);
        let _ = simulate_fitzi_hirt(&cfg, vec![v; n], metrics.clone());
        let measured = metrics.snapshot().total_logical_bits() as f64;
        let model = model_bits(n, t, (l * 8) as u64, (cfg.kappa_symbols * 16) as u64);
        let ratio = measured / model;
        assert!((0.3..3.0).contains(&ratio), "measured {measured} vs model {model}");
    }

    #[test]
    fn majority_votes() {
        assert_eq!(majority(&[]), None);
        assert_eq!(majority(&[vec![1], vec![2]]), None);
        assert_eq!(majority(&[vec![1], vec![1], vec![2]]), Some(vec![1]));
    }
}
