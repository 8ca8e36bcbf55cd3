//! Finite-field Diffie–Hellman key exchange.
//!
//! The paper's evaluation sets "the DH parameter as 1024-bit" (§5); we use
//! the 1024-bit MODP group from RFC 2409 (Oakley Group 2) by default and
//! also expose the 768/1536/2048-bit MODP groups for the key-size ablation
//! benchmarks.

use std::sync::OnceLock;

use crate::bignum::{BigUint, FixedBase};
use crate::error::CryptoError;
use crate::rng::SecureRng;
use crate::Result;

/// RFC 2409 Oakley Group 1 (768-bit) prime.
const MODP_768: &str = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
4FE1356D6D51C245E485B576625E7EC6F44C42E9A63A3620FFFFFFFFFFFFFFFF";

/// RFC 2409 Oakley Group 2 (1024-bit) prime — the paper's parameter size.
const MODP_1024: &str = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED\
EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF";

/// RFC 3526 Group 5 (1536-bit) prime.
const MODP_1536: &str = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED\
EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05\
98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB\
9ED529077096966D670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF";

/// RFC 3526 Group 14 (2048-bit) prime.
const MODP_2048: &str = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED\
EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05\
98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB\
9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B\
E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718\
3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF";

/// A Diffie–Hellman group: safe prime `p` with generator `g = 2`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DhGroup {
    /// The group prime.
    pub p: BigUint,
    /// The generator.
    pub g: BigUint,
    /// Nominal size in bits (for reporting and cost accounting).
    pub bits: usize,
}

/// A built-in MODP group: parsed on first use, with a fixed-base table for
/// each generator in [`GENERATORS`], each also built on first use and kept
/// for the life of the process.
struct Builtin {
    hex: &'static str,
    bits: usize,
    group: OnceLock<DhGroup>,
    tables: [OnceLock<FixedBase>; GENERATORS.len()],
}

/// The generators the crate raises over built-in primes: 2 for DH, 4 for
/// the Schnorr subgroup.
const GENERATORS: [u64; 2] = [2, 4];

impl Builtin {
    const fn new(hex: &'static str, bits: usize) -> Self {
        Builtin {
            hex,
            bits,
            group: OnceLock::new(),
            tables: [OnceLock::new(), OnceLock::new()],
        }
    }

    fn group(&self) -> &DhGroup {
        self.group.get_or_init(|| {
            let p = BigUint::from_hex(self.hex).expect("valid builtin prime");
            debug_assert_eq!(p.bit_len(), self.bits);
            DhGroup {
                p,
                g: BigUint::from_u64(GENERATORS[0]),
                bits: self.bits,
            }
        })
    }
}

static BUILTINS: [Builtin; 4] = [
    Builtin::new(MODP_768, 768),
    Builtin::new(MODP_1024, 1024),
    Builtin::new(MODP_1536, 1536),
    Builtin::new(MODP_2048, 2048),
];

/// `g^e mod p`. A built-in prime raised to one of [`GENERATORS`] takes
/// that pair's comb table; any other pair takes [`BigUint::modexp`].
pub(crate) fn pow_generator(g: &BigUint, p: &BigUint, e: &BigUint) -> Result<BigUint> {
    let builtin = BUILTINS
        .iter()
        .find(|b| b.bits == p.bit_len() && b.group().p == *p);
    let slot = GENERATORS.iter().position(|&v| *g == BigUint::from_u64(v));
    match (builtin, slot) {
        (Some(b), Some(slot)) => Ok(b.tables[slot].get_or_init(|| FixedBase::new(g, p)).pow(e)),
        _ => g.modexp(e, p),
    }
}

impl DhGroup {
    /// The 768-bit Oakley Group 1.
    pub fn modp768() -> Self {
        BUILTINS[0].group().clone()
    }

    /// The 1024-bit Oakley Group 2 — the paper's evaluation parameter.
    pub fn modp1024() -> Self {
        BUILTINS[1].group().clone()
    }

    /// The 1536-bit MODP Group 5.
    pub fn modp1536() -> Self {
        BUILTINS[2].group().clone()
    }

    /// The 2048-bit MODP Group 14.
    pub fn modp2048() -> Self {
        BUILTINS[3].group().clone()
    }

    /// `g^e mod p`, through the generator's comb table on a built-in group.
    pub(crate) fn pow_g(&self, e: &BigUint) -> Result<BigUint> {
        pow_generator(&self.g, &self.p, e)
    }

    /// Length in bytes of a serialised group element.
    pub fn element_len(&self) -> usize {
        self.bits / 8
    }
}

/// An ephemeral DH keypair.
#[derive(Clone)]
pub struct DhKeyPair {
    group: DhGroup,
    private: BigUint,
    /// The public value `g^x mod p`.
    pub public: BigUint,
}

impl DhKeyPair {
    /// Generates an ephemeral keypair in `group` using `rng`.
    pub fn generate(group: &DhGroup, rng: &mut SecureRng) -> Result<Self> {
        // Private exponent in [2, p-2].
        let upper = group.p.checked_sub(&BigUint::from_u64(3))?;
        let private =
            BigUint::random_below(&upper, |buf| rng.fill_bytes(buf))?.add(&BigUint::from_u64(2));
        let public = group.pow_g(&private)?;
        Ok(DhKeyPair {
            group: group.clone(),
            private,
            public,
        })
    }

    /// Serialises the public value, zero-padded to the group element length.
    pub fn public_bytes(&self) -> Vec<u8> {
        self.public
            .to_bytes_be_padded(self.group.element_len())
            .expect("public < p fits element length")
    }

    /// Computes the shared secret with a peer's public value.
    ///
    /// Rejects degenerate peer values (0, 1, p-1, ≥ p) that would collapse
    /// the shared secret — a small-subgroup/invalid-key-share check.
    pub fn shared_secret(&self, peer_public: &BigUint) -> Result<Vec<u8>> {
        let p_minus_1 = self.group.p.checked_sub(&BigUint::one())?;
        if peer_public.is_zero()
            || peer_public.is_one()
            || peer_public.cmp_to(&p_minus_1) != core::cmp::Ordering::Less
        {
            return Err(CryptoError::InvalidParameter("degenerate DH public key"));
        }
        let secret = peer_public.modexp(&self.private, &self.group.p)?;
        secret.to_bytes_be_padded(self.group.element_len())
    }

    /// Parses a peer public value from bytes and computes the shared secret.
    pub fn shared_secret_from_bytes(&self, peer_public: &[u8]) -> Result<Vec<u8>> {
        self.shared_secret(&BigUint::from_bytes_be(peer_public))
    }

    /// The group this keypair lives in.
    pub fn group(&self) -> &DhGroup {
        &self.group
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bignum::full_size::{edge_exponents, oracle, random_cases, RANDOM_CASES};

    fn all_groups() -> [DhGroup; 4] {
        [
            DhGroup::modp768(),
            DhGroup::modp1024(),
            DhGroup::modp1536(),
            DhGroup::modp2048(),
        ]
    }

    #[test]
    fn pow_g_matches_generic_on_edge_exponents() {
        for group in all_groups() {
            for e in edge_exponents(&group.p) {
                assert_eq!(
                    group.pow_g(&e).unwrap(),
                    oracle(&group.g, &e, &group.p),
                    "{e:?}"
                );
            }
        }
    }

    fn pow_g_random_sweep(group: &DhGroup) {
        for (_, e) in random_cases(&group.p, 2 * group.bits as u64, RANDOM_CASES) {
            assert_eq!(
                group.pow_g(&e).unwrap(),
                oracle(&group.g, &e, &group.p),
                "{e:?}"
            );
        }
    }

    #[test]
    fn pow_g_matches_generic_random_768_1024() {
        pow_g_random_sweep(&DhGroup::modp768());
        pow_g_random_sweep(&DhGroup::modp1024());
    }

    #[test]
    #[ignore = "1536/2048-bit oracle sweep; run with --include-ignored"]
    fn pow_g_matches_generic_random_1536_2048() {
        pow_g_random_sweep(&DhGroup::modp1536());
        pow_g_random_sweep(&DhGroup::modp2048());
    }

    #[test]
    fn pow_g_outside_the_builtin_groups_takes_the_general_path() {
        // A changed generator, and a prime that is not built in, have no
        // table; both must still give g^e mod p.
        let mut group = DhGroup::modp768();
        group.g = BigUint::from_u64(5);
        let e = group.p.checked_sub(&BigUint::from_u64(2)).unwrap();
        assert_eq!(group.pow_g(&e).unwrap(), oracle(&group.g, &e, &group.p));
        let small = DhGroup {
            p: BigUint::from_u64(1019),
            g: BigUint::from_u64(2),
            bits: 10,
        };
        assert_eq!(
            small.pow_g(&BigUint::from_u64(1000)).unwrap(),
            oracle(&small.g, &BigUint::from_u64(1000), &small.p)
        );
    }

    #[test]
    fn groups_have_expected_sizes() {
        assert_eq!(DhGroup::modp768().p.bit_len(), 768);
        assert_eq!(DhGroup::modp1024().p.bit_len(), 1024);
        assert_eq!(DhGroup::modp1536().p.bit_len(), 1536);
        assert_eq!(DhGroup::modp2048().p.bit_len(), 2048);
    }

    #[test]
    fn key_exchange_agrees() {
        let group = DhGroup::modp1024();
        let mut rng = SecureRng::seed_from_u64(1);
        let alice = DhKeyPair::generate(&group, &mut rng).unwrap();
        let bob = DhKeyPair::generate(&group, &mut rng).unwrap();
        let s1 = alice.shared_secret(&bob.public).unwrap();
        let s2 = bob.shared_secret(&alice.public).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), group.element_len());
    }

    #[test]
    fn key_exchange_via_bytes() {
        let group = DhGroup::modp768();
        let mut rng = SecureRng::seed_from_u64(2);
        let alice = DhKeyPair::generate(&group, &mut rng).unwrap();
        let bob = DhKeyPair::generate(&group, &mut rng).unwrap();
        let s1 = alice.shared_secret_from_bytes(&bob.public_bytes()).unwrap();
        let s2 = bob.shared_secret_from_bytes(&alice.public_bytes()).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn distinct_sessions_distinct_secrets() {
        let group = DhGroup::modp768();
        let mut rng = SecureRng::seed_from_u64(3);
        let a1 = DhKeyPair::generate(&group, &mut rng).unwrap();
        let a2 = DhKeyPair::generate(&group, &mut rng).unwrap();
        let b = DhKeyPair::generate(&group, &mut rng).unwrap();
        assert_ne!(
            a1.shared_secret(&b.public).unwrap(),
            a2.shared_secret(&b.public).unwrap()
        );
    }

    #[test]
    fn rejects_degenerate_peers() {
        let group = DhGroup::modp768();
        let mut rng = SecureRng::seed_from_u64(4);
        let kp = DhKeyPair::generate(&group, &mut rng).unwrap();
        assert!(kp.shared_secret(&BigUint::zero()).is_err());
        assert!(kp.shared_secret(&BigUint::one()).is_err());
        let p_minus_1 = group.p.checked_sub(&BigUint::one()).unwrap();
        assert!(kp.shared_secret(&p_minus_1).is_err());
        assert!(kp.shared_secret(&group.p).is_err());
    }

    #[test]
    fn public_bytes_are_padded() {
        let group = DhGroup::modp768();
        let mut rng = SecureRng::seed_from_u64(5);
        let kp = DhKeyPair::generate(&group, &mut rng).unwrap();
        assert_eq!(kp.public_bytes().len(), 96);
    }
}
