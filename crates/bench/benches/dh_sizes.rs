//! Ablation: Diffie–Hellman modulus size. DH dominates attestation cost
//! (~90% of cycles in the paper), so the group size is the main cost
//! lever; this measures the real modexp work at 768/1024/1536/2048 bits on
//! both exponentiation paths: `keygen` raises the fixed generator (comb
//! table), `shared_secret` a peer's value (windowed ladder). The Schnorr
//! rows over the same primes price the attestation signature: `sign` is
//! one comb exponentiation, `verify` one comb and one windowed
//! exponentiation by the 256-bit challenge plus a modular inverse.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use teenet_crypto::dh::{DhGroup, DhKeyPair};
use teenet_crypto::schnorr::{SchnorrGroup, SigningKey};
use teenet_crypto::SecureRng;

fn bench_dh_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("dh_modulus");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for (label, g) in [
        ("768", DhGroup::modp768()),
        ("1024", DhGroup::modp1024()),
        ("1536", DhGroup::modp1536()),
        ("2048", DhGroup::modp2048()),
    ] {
        // Generating the two keypairs also builds the group's comb table,
        // a once-per-process cost the rows below do not time.
        let mut rng = SecureRng::seed_from_u64(4);
        let alice = DhKeyPair::generate(&g, &mut rng).expect("keypair");
        let bob = DhKeyPair::generate(&g, &mut rng).expect("keypair");
        group.bench_with_input(BenchmarkId::new("keygen", label), &g, |b, g| {
            b.iter(|| DhKeyPair::generate(black_box(g), &mut rng).expect("keypair"))
        });
        group.bench_with_input(BenchmarkId::new("shared_secret", label), &g, |b, _| {
            b.iter(|| alice.shared_secret(black_box(&bob.public)).expect("secret"))
        });
        // Key generation builds the Schnorr generator's table.
        let key = SigningKey::generate(&SchnorrGroup::from_dh_group(&g), &mut rng).expect("key");
        let msg = b"quote body";
        let sig = key.sign(msg, &mut rng).expect("signature");
        group.bench_function(BenchmarkId::new("schnorr_sign", label), |b| {
            b.iter(|| key.sign(black_box(msg), &mut rng).expect("signature"))
        });
        group.bench_function(BenchmarkId::new("schnorr_verify", label), |b| {
            b.iter(|| key.public.verify(black_box(msg), &sig).expect("valid"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dh_sizes);
criterion_main!(benches);
