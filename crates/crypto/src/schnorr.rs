//! Schnorr signatures over a safe-prime group.
//!
//! Plays two roles in the workspace:
//!
//! 1. **Attestation signatures** — the SGX quoting enclave signs QUOTEs
//!    "using the private key of the CPU" (paper §2.2). Intel really uses the
//!    EPID group-signature scheme; the paper itself abstracts this away
//!    (fn. 2), and we follow suit with a conventional signature whose group
//!    public key is shared by all platforms of a "group" (see
//!    `teenet-sgx::quote`).
//! 2. **Authority signatures** — directory-authority consensus documents and
//!    software certificates in the Tor case study.
//!
//! The group is built on a safe prime `p` (from the DH MODP groups), so
//! `q = (p-1)/2` is prime and `g = 4` generates the order-`q` subgroup —
//! correct by construction, no trusted group constants needed beyond the
//! well-known primes.

use std::sync::OnceLock;

use crate::bignum::BigUint;
use crate::dh::{pow_generator, DhGroup};
use crate::error::CryptoError;
use crate::rng::SecureRng;
use crate::sha256::Sha256;
use crate::Result;

/// A Schnorr group over a safe prime.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchnorrGroup {
    /// Safe prime modulus.
    pub p: BigUint,
    /// Subgroup order `(p-1)/2` (prime because `p` is safe).
    pub q: BigUint,
    /// Generator of the order-`q` subgroup (`4 = 2^2`).
    pub g: BigUint,
}

impl SchnorrGroup {
    /// Builds the Schnorr group on top of a safe-prime DH group.
    pub fn from_dh_group(group: &DhGroup) -> Self {
        let q = group.p.checked_sub(&BigUint::one()).expect("p > 1").shr(1);
        SchnorrGroup {
            p: group.p.clone(),
            q,
            g: BigUint::from_u64(4),
        }
    }

    /// The standard 1024-bit group (matching the paper's DH parameter).
    pub fn standard() -> Self {
        static GROUP: OnceLock<SchnorrGroup> = OnceLock::new();
        GROUP
            .get_or_init(|| Self::from_dh_group(&DhGroup::modp1024()))
            .clone()
    }

    /// A smaller 768-bit group for fast tests.
    pub fn small() -> Self {
        static GROUP: OnceLock<SchnorrGroup> = OnceLock::new();
        GROUP
            .get_or_init(|| Self::from_dh_group(&DhGroup::modp768()))
            .clone()
    }

    /// `g^e mod p`, through the generator's comb table on a built-in prime.
    fn pow_g(&self, e: &BigUint) -> Result<BigUint> {
        pow_generator(&self.g, &self.p, e)
    }

    /// Hashes a message (and nonce commitment) into a challenge scalar in
    /// `[0, q)`.
    fn challenge(&self, r: &BigUint, public: &BigUint, msg: &[u8]) -> Result<BigUint> {
        let mut h = Sha256::new();
        h.update(b"teenet-schnorr-v1");
        h.update(&r.to_bytes_be());
        h.update(&public.to_bytes_be());
        h.update(msg);
        let digest = h.finalize();
        BigUint::from_bytes_be(&digest).rem(&self.q)
    }
}

/// A Schnorr signing keypair.
#[derive(Clone)]
pub struct SigningKey {
    group: SchnorrGroup,
    x: BigUint,
    /// The verification (public) key `g^x mod p`.
    pub public: VerifyingKey,
}

/// A Schnorr verification key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyingKey {
    group: SchnorrGroup,
    /// The public group element `y = g^x mod p`. Private, so that every
    /// key holds an element [`SigningKey::generate`] or
    /// [`VerifyingKey::from_bytes`] vetted.
    y: BigUint,
}

/// A Schnorr signature in `(e, s)` form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Signature {
    /// Challenge scalar.
    pub e: BigUint,
    /// Response scalar.
    pub s: BigUint,
}

impl Signature {
    /// Serialises the signature (length-prefixed scalars).
    pub fn to_bytes(&self) -> Vec<u8> {
        let e = self.e.to_bytes_be();
        let s = self.s.to_bytes_be();
        let mut out = Vec::with_capacity(4 + e.len() + s.len());
        out.extend_from_slice(&(e.len() as u16).to_be_bytes());
        out.extend_from_slice(&e);
        out.extend_from_slice(&(s.len() as u16).to_be_bytes());
        out.extend_from_slice(&s);
        out
    }

    /// Parses a signature serialised by [`Signature::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let read = |b: &[u8]| -> Result<(BigUint, usize)> {
            if b.len() < 2 {
                return Err(CryptoError::Malformed("signature truncated"));
            }
            let len = u16::from_be_bytes([b[0], b[1]]) as usize;
            if b.len() < 2 + len {
                return Err(CryptoError::Malformed("signature scalar truncated"));
            }
            Ok((BigUint::from_bytes_be(&b[2..2 + len]), 2 + len))
        };
        let (e, n) = read(bytes)?;
        let (s, n2) = read(&bytes[n..])?;
        if n + n2 != bytes.len() {
            return Err(CryptoError::Malformed("trailing bytes after signature"));
        }
        Ok(Signature { e, s })
    }
}

impl SigningKey {
    /// Generates a keypair in `group`.
    pub fn generate(group: &SchnorrGroup, rng: &mut SecureRng) -> Result<Self> {
        let x = BigUint::random_below(&group.q, |buf| rng.fill_bytes(buf))?;
        let y = group.pow_g(&x)?;
        Ok(SigningKey {
            group: group.clone(),
            x,
            public: VerifyingKey {
                group: group.clone(),
                y,
            },
        })
    }

    /// Signs `msg` using a fresh nonce from `rng`.
    pub fn sign(&self, msg: &[u8], rng: &mut SecureRng) -> Result<Signature> {
        let g = &self.group;
        // Nonce k ∈ [1, q).
        let k = loop {
            let k = BigUint::random_below(&g.q, |buf| rng.fill_bytes(buf))?;
            if !k.is_zero() {
                break k;
            }
        };
        let r = g.pow_g(&k)?;
        let e = g.challenge(&r, &self.public.y, msg)?;
        // s = k + e*x mod q
        let s = k.mod_add(&e.mod_mul(&self.x, &g.q)?, &g.q)?;
        Ok(Signature { e, s })
    }

    /// Returns the verification key.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.public.clone()
    }
}

impl VerifyingKey {
    /// Verifies `sig` over `msg`.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> Result<()> {
        let g = &self.group;
        if sig.s.cmp_to(&g.q) != core::cmp::Ordering::Less
            || sig.e.cmp_to(&g.q) != core::cmp::Ordering::Less
        {
            return Err(CryptoError::VerificationFailed("signature scalar range"));
        }
        let r = self.commitment(sig)?;
        let e = g.challenge(&r, &self.y, msg)?;
        if e == sig.e {
            Ok(())
        } else {
            Err(CryptoError::VerificationFailed("Schnorr signature"))
        }
    }

    /// The signer's nonce commitment as `sig` claims it,
    /// `r' = g^s · (y^e)^-1 mod p`.
    ///
    /// The textbook form `g^s · y^(q-e)` is the same value for every `y` of
    /// order `q`, which is every key this type can hold, but its exponent
    /// has the length of `q`; `e` is a SHA-256 digest of at most 256 bits.
    /// The inverse is of public values, so its variable time leaks nothing.
    fn commitment(&self, sig: &Signature) -> Result<BigUint> {
        let g = &self.group;
        let gs = g.pow_g(&sig.s)?;
        let ye_inv = self
            .y
            .modexp(&sig.e, &g.p)?
            .mod_inv_odd(&g.p)
            .map_err(|_| CryptoError::VerificationFailed("public key not invertible"))?;
        gs.mod_mul(&ye_inv, &g.p)
    }

    /// Serialises the public element, padded to the group size.
    pub fn to_bytes(&self) -> Vec<u8> {
        let len = self.group.p.bit_len().div_ceil(8);
        self.y.to_bytes_be_padded(len).expect("y < p")
    }

    /// Reconstructs a verifying key from bytes in a known group.
    ///
    /// Accepts only elements of the order-`q` subgroup other than 1: only
    /// they are some `g^x`, a key anyone could sign for, and on them
    /// [`VerifyingKey::verify`]'s `y^-e` equals the textbook `y^(q-e)`;
    /// `y = 1` would accept any `(e, s)` with `e = H(g^s ‖ 1 ‖ msg)`. With
    /// `p` a safe prime that subgroup is the quadratic residues, so a
    /// Jacobi symbol decides membership without an exponentiation.
    pub fn from_bytes(group: &SchnorrGroup, bytes: &[u8]) -> Result<Self> {
        let y = BigUint::from_bytes_be(bytes);
        if y.is_zero() || y.is_one() || y.cmp_to(&group.p) != core::cmp::Ordering::Less {
            return Err(CryptoError::InvalidParameter("public key out of range"));
        }
        if y.jacobi(&group.p)? != 1 {
            return Err(CryptoError::InvalidParameter(
                "public key outside the order-q subgroup",
            ));
        }
        Ok(VerifyingKey {
            group: group.clone(),
            y,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bignum::full_size::{edge_exponents, oracle, random_cases, RANDOM_CASES};
    use crate::bignum::product_count;

    /// The textbook commitment `g^s · y^(q-e) mod p` that
    /// [`VerifyingKey::commitment`] replaced, kept as its oracle.
    fn commitment_oracle(key: &VerifyingKey, sig: &Signature) -> BigUint {
        let g = &key.group;
        let neg_e = g.q.checked_sub(&sig.e).unwrap();
        let gs = g.g.modexp(&sig.s, &g.p).unwrap();
        gs.mod_mul(&key.y.modexp(&neg_e, &g.p).unwrap(), &g.p)
            .unwrap()
    }

    /// [`VerifyingKey::verify`] on [`commitment_oracle`].
    fn verify_oracle(key: &VerifyingKey, msg: &[u8], sig: &Signature) -> bool {
        let g = &key.group;
        sig.s < g.q && sig.e < g.q && {
            let r = commitment_oracle(key, sig);
            g.challenge(&r, &key.y, msg).unwrap() == sig.e
        }
    }

    /// Honest, tampered and forged signatures under a fresh key in
    /// `group`: `verify` must accept and reject exactly as the oracle does,
    /// on the same commitment wherever the scalars are in range.
    fn verify_matches_oracle(group: &SchnorrGroup) {
        let mut rng = SecureRng::seed_from_u64(group.p.bit_len() as u64);
        let key = SigningKey::generate(group, &mut rng).unwrap();
        let one = BigUint::one();
        let q_minus_1 = group.q.checked_sub(&one).unwrap();
        let msg = b"quote body";
        let mut cases = Vec::new();
        for i in 0..4u8 {
            let sig = key.sign(&[i], &mut rng).unwrap();
            cases.push((vec![i], sig.clone(), true));
            cases.push((vec![i, 0], sig.clone(), false));
            let s = sig.s.mod_add(&one, &group.q).unwrap();
            cases.push((vec![i], Signature { s, ..sig }, false));
        }
        let honest = key.sign(msg, &mut rng).unwrap();
        // Forged challenges: 0, 1, q - 1, and ones longer than a digest,
        // whose commitments must still be exact.
        let long = [honest.e.shl(300), q_minus_1.shr(1)];
        let forged_e = [BigUint::zero(), one.clone(), q_minus_1.clone()]
            .into_iter()
            .chain(long);
        for e in forged_e {
            assert!(e < group.q);
            let sig = Signature {
                e,
                s: honest.s.clone(),
            };
            cases.push((msg.to_vec(), sig, false));
        }
        for (e, s) in [
            (honest.e.clone(), group.q.clone()),
            (group.q.clone(), honest.s.clone()),
            (group.q.add(&one), BigUint::zero()),
        ] {
            cases.push((msg.to_vec(), Signature { e, s }, false));
        }
        cases.push((msg.to_vec(), honest, true));
        for (msg, sig, valid) in &cases {
            let verdict = key.public.verify(msg, sig).is_ok();
            assert_eq!(verdict, *valid, "{sig:?}");
            assert_eq!(verdict, verify_oracle(&key.public, msg, sig), "{sig:?}");
            if sig.s < group.q && sig.e < group.q {
                assert_eq!(
                    key.public.commitment(sig).unwrap(),
                    commitment_oracle(&key.public, sig),
                    "{sig:?}"
                );
            }
        }
    }

    #[test]
    fn verify_matches_oracle_768_1024() {
        verify_matches_oracle(&SchnorrGroup::small());
        verify_matches_oracle(&SchnorrGroup::standard());
    }

    #[test]
    #[ignore = "1536/2048-bit oracle sweep; run with --include-ignored"]
    fn verify_matches_oracle_1536_2048() {
        verify_matches_oracle(&SchnorrGroup::from_dh_group(&DhGroup::modp1536()));
        verify_matches_oracle(&SchnorrGroup::from_dh_group(&DhGroup::modp2048()));
    }

    #[test]
    fn verify_products_fit_the_short_exponent_budget() {
        // Montgomery products per verify: y^(q-e) took ~1,230 at 768 bits
        // and ~1,630 at 1024. A full-length exponent back in `verify`
        // fails here.
        for (group, budget) in [
            (SchnorrGroup::small(), 560),
            (SchnorrGroup::standard(), 650),
        ] {
            let mut rng = SecureRng::seed_from_u64(5);
            // Key generation builds the generator's comb table.
            let key = SigningKey::generate(&group, &mut rng).unwrap();
            let sig = key.sign(b"msg", &mut rng).unwrap();
            let (verdict, products) = product_count::during(|| key.public.verify(b"msg", &sig));
            verdict.unwrap();
            assert!(
                products <= budget,
                "{products} > {budget} at {}",
                group.p.bit_len()
            );
        }
    }

    #[test]
    fn pow_g_matches_generic_on_builtin_groups() {
        for group in [SchnorrGroup::small(), SchnorrGroup::standard()] {
            let q_minus_1 = group.q.checked_sub(&BigUint::one()).unwrap();
            let randoms = random_cases(&group.q, 3, RANDOM_CASES).into_iter();
            let exps = edge_exponents(&group.p)
                .into_iter()
                .chain([group.q.clone(), q_minus_1])
                .chain(randoms.map(|(_, e)| e));
            for e in exps {
                assert_eq!(
                    group.pow_g(&e).unwrap(),
                    oracle(&group.g, &e, &group.p),
                    "{e:?}"
                );
            }
        }
    }

    fn setup() -> (SchnorrGroup, SigningKey, SecureRng) {
        let group = SchnorrGroup::small();
        let mut rng = SecureRng::seed_from_u64(99);
        let key = SigningKey::generate(&group, &mut rng).unwrap();
        (group, key, rng)
    }

    #[test]
    fn group_generator_has_order_q() {
        let g = SchnorrGroup::small();
        // g^q mod p == 1 certifies the subgroup order.
        assert!(g.g.modexp(&g.q, &g.p).unwrap().is_one());
    }

    #[test]
    fn sign_verify_roundtrip() {
        let (_, key, mut rng) = setup();
        let sig = key.sign(b"hello enclave", &mut rng).unwrap();
        key.public.verify(b"hello enclave", &sig).unwrap();
    }

    #[test]
    fn rejects_wrong_message() {
        let (_, key, mut rng) = setup();
        let sig = key.sign(b"msg A", &mut rng).unwrap();
        assert!(key.public.verify(b"msg B", &sig).is_err());
    }

    #[test]
    fn rejects_wrong_key() {
        let (group, key, mut rng) = setup();
        let other = SigningKey::generate(&group, &mut rng).unwrap();
        let sig = key.sign(b"msg", &mut rng).unwrap();
        assert!(other.public.verify(b"msg", &sig).is_err());
    }

    #[test]
    fn rejects_tampered_signature() {
        let (_, key, mut rng) = setup();
        let mut sig = key.sign(b"msg", &mut rng).unwrap();
        sig.s = sig.s.add(&BigUint::one());
        assert!(key.public.verify(b"msg", &sig).is_err());
    }

    #[test]
    fn rejects_out_of_range_scalars() {
        let (group, key, mut rng) = setup();
        let mut sig = key.sign(b"msg", &mut rng).unwrap();
        sig.s = group.q.clone();
        assert!(key.public.verify(b"msg", &sig).is_err());
    }

    #[test]
    fn signature_serialisation_roundtrip() {
        let (_, key, mut rng) = setup();
        let sig = key.sign(b"serialise me", &mut rng).unwrap();
        let bytes = sig.to_bytes();
        let parsed = Signature::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, sig);
        key.public.verify(b"serialise me", &parsed).unwrap();
    }

    #[test]
    fn signature_parse_rejects_garbage() {
        assert!(Signature::from_bytes(&[]).is_err());
        assert!(Signature::from_bytes(&[0, 5, 1]).is_err());
        let (_, key, mut rng) = setup();
        let mut bytes = key.sign(b"x", &mut rng).unwrap().to_bytes();
        bytes.push(0);
        assert!(Signature::from_bytes(&bytes).is_err());
    }

    #[test]
    fn verifying_key_serialisation_roundtrip() {
        let (group, key, _) = setup();
        let bytes = key.public.to_bytes();
        assert_eq!(bytes.len(), 96);
        let parsed = VerifyingKey::from_bytes(&group, &bytes).unwrap();
        assert_eq!(parsed, key.public);
    }

    #[test]
    fn verifying_key_rejects_out_of_range() {
        let group = SchnorrGroup::small();
        assert!(VerifyingKey::from_bytes(&group, &[]).is_err());
        let p_bytes = group.p.to_bytes_be();
        assert!(VerifyingKey::from_bytes(&group, &p_bytes).is_err());
    }

    #[test]
    fn verifying_key_rejects_elements_outside_the_subgroup() {
        // y = 1 would accept any (e, s) with e = H(g^s ‖ 1 ‖ msg); p - 1 has
        // order 2; p - 4 = -g is a quadratic non-residue.
        let group = SchnorrGroup::small();
        let len = group.p.bit_len() / 8;
        let p_minus = |v: u64| group.p.checked_sub(&BigUint::from_u64(v)).unwrap();
        for y in [BigUint::one(), p_minus(1), p_minus(4)] {
            let bytes = y.to_bytes_be_padded(len).unwrap();
            assert!(VerifyingKey::from_bytes(&group, &bytes).is_err(), "{y:?}");
        }
        // Their product, g = (p - 1)(p - 4), is a subgroup element.
        let bytes = group.g.to_bytes_be_padded(len).unwrap();
        VerifyingKey::from_bytes(&group, &bytes).unwrap();
    }

    #[test]
    fn signatures_are_randomised() {
        let (_, key, mut rng) = setup();
        let s1 = key.sign(b"same msg", &mut rng).unwrap();
        let s2 = key.sign(b"same msg", &mut rng).unwrap();
        assert_ne!(s1, s2);
        key.public.verify(b"same msg", &s1).unwrap();
        key.public.verify(b"same msg", &s2).unwrap();
    }
}
