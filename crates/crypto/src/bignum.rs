//! Arbitrary-precision unsigned integers.
//!
//! This is the arithmetic substrate under [`crate::dh`] and
//! [`crate::schnorr`]. Numbers are stored as little-endian `u64` limbs with
//! no leading zero limbs (canonical form).
//!
//! Modular exponentiation, nearly all of the workspace's host crypto time,
//! has one path per kind of base, both in Montgomery form for odd moduli:
//!
//! * **Variable bases** ([`BigUint::modexp`]): fixed 4-bit windows over 15
//!   precomputed powers, so one multiply per four squarings.
//! * **Fixed bases** (`FixedBase`, the groups' generators): a Lim–Lee comb
//!   of 8 rows whose 256-entry table is built once, so an exponent of the
//!   modulus's length costs an eighth of the squarings. The tables for the
//!   built-in groups live next to them in [`crate::dh`].
//!
//! The kernels, a schoolbook multiply and a squaring that takes each cross
//! product once, each followed by Montgomery reduction, write into caller
//! buffers and allocate nothing. Even moduli take `modexp_generic`,
//! square-and-multiply with a division per step, which is also the oracle
//! the Montgomery paths are tested against.
//!
//! Schnorr verification also needs a modular inverse. `mod_inv_odd` is a
//! binary extended GCD for odd moduli, in place on limbs; it branches on
//! its input's bits, so it serves public values only. The Euclidean
//! [`BigUint::mod_inv`] covers every modulus and is its test oracle.

use crate::error::CryptoError;
use crate::Result;
use core::cmp::Ordering;
use core::fmt;

/// An arbitrary-precision unsigned integer.
///
/// Invariant: `limbs` has no trailing (most-significant) zero limbs; zero is
/// represented by an empty limb vector.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl BigUint {
    /// The value 0.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Constructs from a single `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Constructs from big-endian bytes (as found in wire formats and RFCs).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut chunk_iter = bytes.rchunks(8);
        for chunk in &mut chunk_iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Serialises to big-endian bytes with no leading zeros (empty for 0).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zeros of the most-significant limb.
                let skip = (limb.leading_zeros() / 8) as usize;
                out.extend_from_slice(&bytes[skip..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Serialises to exactly `len` big-endian bytes, left-padding with zeros.
    ///
    /// Returns an error if the value does not fit.
    pub fn to_bytes_be_padded(&self, len: usize) -> Result<Vec<u8>> {
        let raw = self.to_bytes_be();
        if raw.len() > len {
            return Err(CryptoError::InvalidLength {
                what: "padded integer",
                got: raw.len(),
                expected: len,
            });
        }
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        Ok(out)
    }

    /// Parses a hexadecimal string (no `0x` prefix; whitespace ignored).
    pub fn from_hex(s: &str) -> Result<Self> {
        let mut nibbles = Vec::with_capacity(s.len());
        for c in s.chars() {
            if c.is_whitespace() {
                continue;
            }
            nibbles.push(
                c.to_digit(16)
                    .ok_or(CryptoError::InvalidParameter("non-hex digit"))? as u8,
            );
        }
        let mut bytes = Vec::with_capacity(nibbles.len() / 2 + 1);
        // Left-pad odd-length strings with a zero nibble.
        let mut iter = nibbles.iter();
        if nibbles.len() % 2 == 1 {
            bytes.push(*iter.next().expect("non-empty"));
        }
        while let (Some(hi), Some(lo)) = (iter.next(), iter.next()) {
            bytes.push((hi << 4) | lo);
        }
        Ok(Self::from_bytes_be(&bytes))
    }

    /// Renders as lowercase hexadecimal ("0" for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_owned();
        }
        let bytes = self.to_bytes_be();
        let mut s = String::with_capacity(bytes.len() * 2);
        for (i, b) in bytes.iter().enumerate() {
            if i == 0 {
                // No leading zero nibble.
                if b >> 4 != 0 {
                    s.push(char::from_digit((b >> 4) as u32, 16).expect("nibble"));
                }
                s.push(char::from_digit((b & 0xf) as u32, 16).expect("nibble"));
            } else {
                s.push(char::from_digit((b >> 4) as u32, 16).expect("nibble"));
                s.push(char::from_digit((b & 0xf) as u32, 16).expect("nibble"));
            }
        }
        s
    }

    /// True iff the value is 0.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is 1.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// True iff the value is even (0 counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (0 for the value 0).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Returns bit `i` (little-endian bit order; out-of-range bits are 0).
    pub fn bit(&self, i: usize) -> bool {
        let (limb, off) = (i / 64, i % 64);
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &l) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = l.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self - other`; errors if `other > self`.
    pub fn checked_sub(&self, other: &BigUint) -> Result<BigUint> {
        if self.cmp_to(other) == Ordering::Less {
            return Err(CryptoError::InvalidParameter("subtraction underflow"));
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigUint { limbs: out };
        n.normalize();
        Ok(n)
    }

    /// Total-order comparison.
    pub fn cmp_to(&self, other: &BigUint) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Schoolbook multiplication `self * other`.
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() {
            return Self::zero();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Right shift by `bits`.
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return Self::zero();
        }
        let bit_shift = bits % 64;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                out.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Division with remainder: returns `(self / divisor, self % divisor)`.
    ///
    /// Implements Knuth's Algorithm D on 64-bit limbs with 128-bit trial
    /// quotient estimation.
    pub fn div_rem(&self, divisor: &BigUint) -> Result<(BigUint, BigUint)> {
        if divisor.is_zero() {
            return Err(CryptoError::DivisionByZero);
        }
        match self.cmp_to(divisor) {
            Ordering::Less => return Ok((Self::zero(), self.clone())),
            Ordering::Equal => return Ok((Self::one(), Self::zero())),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            let d = divisor.limbs[0];
            let mut q = vec![0u64; self.limbs.len()];
            let mut rem = 0u128;
            for i in (0..self.limbs.len()).rev() {
                let cur = (rem << 64) | self.limbs[i] as u128;
                q[i] = (cur / d as u128) as u64;
                rem = cur % d as u128;
            }
            let mut quotient = BigUint { limbs: q };
            quotient.normalize();
            return Ok((quotient, BigUint::from_u64(rem as u64)));
        }

        // Normalise so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().expect("nonzero").leading_zeros() as usize;
        let u = self.shl(shift);
        let v = divisor.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;
        let mut un = u.limbs.clone();
        un.push(0); // u has m+n+1 limbs now
        let vn = &v.limbs;
        let v_top = vn[n - 1];
        let v_next = vn[n - 2];
        let mut q = vec![0u64; m + 1];

        for j in (0..=m).rev() {
            // Estimate q_hat from the top two limbs of the current remainder.
            let num = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
            let mut q_hat = num / v_top as u128;
            let mut r_hat = num % v_top as u128;
            while q_hat >= 1u128 << 64
                || q_hat * v_next as u128 > ((r_hat << 64) | un[j + n - 2] as u128)
            {
                q_hat -= 1;
                r_hat += v_top as u128;
                if r_hat >= 1u128 << 64 {
                    break;
                }
            }
            // Multiply-subtract q_hat * v from u[j..j+n+1].
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = q_hat * vn[i] as u128 + carry;
                carry = p >> 64;
                let t = un[j + i] as i128 - (p as u64) as i128 - borrow;
                un[j + i] = t as u64;
                borrow = if t < 0 { 1 } else { 0 };
            }
            let t = un[j + n] as i128 - carry as i128 - borrow;
            un[j + n] = t as u64;

            if t < 0 {
                // q_hat was one too large; add v back.
                q_hat -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let s = un[j + i] as u128 + vn[i] as u128 + carry;
                    un[j + i] = s as u64;
                    carry = s >> 64;
                }
                un[j + n] = (un[j + n] as u128).wrapping_add(carry) as u64;
            }
            q[j] = q_hat as u64;
        }

        let mut quotient = BigUint { limbs: q };
        quotient.normalize();
        let mut rem = BigUint {
            limbs: un[..n].to_vec(),
        };
        rem.normalize();
        Ok((quotient, rem.shr(shift)))
    }

    /// `self mod modulus`.
    pub fn rem(&self, modulus: &BigUint) -> Result<BigUint> {
        Ok(self.div_rem(modulus)?.1)
    }

    /// Modular addition `(self + other) mod m`. Inputs must already be `< m`.
    pub fn mod_add(&self, other: &BigUint, m: &BigUint) -> Result<BigUint> {
        let s = self.add(other);
        if s.cmp_to(m) == Ordering::Less {
            Ok(s)
        } else {
            s.checked_sub(m)
        }
    }

    /// Modular subtraction `(self - other) mod m`. Inputs must be `< m`.
    pub fn mod_sub(&self, other: &BigUint, m: &BigUint) -> Result<BigUint> {
        if self.cmp_to(other) != Ordering::Less {
            self.checked_sub(other)
        } else {
            self.add(m).checked_sub(other)
        }
    }

    /// Modular multiplication `(self * other) mod m`.
    pub fn mod_mul(&self, other: &BigUint, m: &BigUint) -> Result<BigUint> {
        self.mul(other).rem(m)
    }

    /// Modular exponentiation `self^exp mod modulus`.
    ///
    /// Uses 4-bit windows over Montgomery multiplication for odd moduli —
    /// the common case for DH and Schnorr primes — and a generic
    /// square-and-multiply with explicit reduction otherwise.
    pub fn modexp(&self, exp: &BigUint, modulus: &BigUint) -> Result<BigUint> {
        if modulus.is_zero() {
            return Err(CryptoError::DivisionByZero);
        }
        if modulus.is_one() {
            return Ok(Self::zero());
        }
        if exp.is_zero() {
            return Ok(Self::one());
        }
        let base = self.rem(modulus)?;
        if base.is_zero() {
            return Ok(Self::zero());
        }
        if modulus.is_even() {
            return base.modexp_generic(exp, modulus);
        }
        Ok(Montgomery::new(modulus).pow(&base, exp))
    }

    /// Square-and-multiply with a full reduction per step: the path for
    /// even moduli, and the oracle the Montgomery paths are tested against.
    pub(crate) fn modexp_generic(&self, exp: &BigUint, modulus: &BigUint) -> Result<BigUint> {
        let mut result = Self::one();
        let mut base = self.clone();
        for i in 0..exp.bit_len() {
            if exp.bit(i) {
                result = result.mod_mul(&base, modulus)?;
            }
            if i + 1 < exp.bit_len() {
                base = base.mod_mul(&base, modulus)?;
            }
        }
        Ok(result)
    }

    /// Modular inverse via the extended Euclidean algorithm.
    ///
    /// Returns `self^-1 mod m`, or an error if `gcd(self, m) != 1`.
    pub fn mod_inv(&self, m: &BigUint) -> Result<BigUint> {
        if m.is_zero() {
            return Err(CryptoError::DivisionByZero);
        }
        // Extended Euclid with values tracked as (coefficient, negative?) to
        // stay in unsigned arithmetic.
        let mut r0 = m.clone();
        let mut r1 = self.rem(m)?;
        if r1.is_zero() {
            return Err(CryptoError::InvalidParameter("no modular inverse"));
        }
        let mut t0 = (BigUint::zero(), false);
        let mut t1 = (BigUint::one(), false);
        while !r1.is_zero() {
            let (q, r) = r0.div_rem(&r1)?;
            // t2 = t0 - q * t1 (tracking sign manually)
            let qt = q.mul(&t1.0);
            let t2 = match (t0.1, t1.1) {
                (false, false) => {
                    if t0.0.cmp_to(&qt) != Ordering::Less {
                        (t0.0.checked_sub(&qt)?, false)
                    } else {
                        (qt.checked_sub(&t0.0)?, true)
                    }
                }
                (false, true) => (t0.0.add(&qt), false),
                (true, false) => (t0.0.add(&qt), true),
                (true, true) => {
                    if qt.cmp_to(&t0.0) != Ordering::Less {
                        (qt.checked_sub(&t0.0)?, false)
                    } else {
                        (t0.0.checked_sub(&qt)?, true)
                    }
                }
            };
            t0 = t1;
            t1 = t2;
            r0 = r1;
            r1 = r;
        }
        if !r0.is_one() {
            return Err(CryptoError::InvalidParameter("no modular inverse"));
        }
        let (coeff, neg) = t0;
        let inv = if neg {
            m.checked_sub(&coeff.rem(m)?)?.rem(m)?
        } else {
            coeff.rem(m)?
        };
        Ok(inv)
    }

    /// `self^-1 mod m` for odd `m`: the same value as [`BigUint::mod_inv`],
    /// or an error when there is none.
    ///
    /// Binary extended GCD on limbs in place, with no division and no
    /// allocation per step. `(u, v)` run from `(self, m)` down to their gcd
    /// while `x_u·self ≡ u` and `x_v·self ≡ v (mod m)` hold: each step
    /// subtracts the smaller of the odd `u`, `v` from the larger (and its
    /// `x` from the other's), then strips the difference's factors of two,
    /// halving its `x` mod `m` once per factor. The `x` updates are
    /// batched: up to [`INV_BATCH`] halvings go into a signed 2×2 matrix of
    /// word-sized integers over `2^j`, which [`combine_halved`] then applies
    /// to both full-length `x` in one pass. Variable time, so for public
    /// inputs only.
    pub(crate) fn mod_inv_odd(&self, modulus: &BigUint) -> Result<BigUint> {
        if modulus.is_even() {
            return Err(CryptoError::InvalidParameter(
                "binary inverse of an even modulus",
            ));
        }
        let no_inverse = Err(CryptoError::InvalidParameter("no modular inverse"));
        let m = &modulus.limbs;
        let len = m.len();
        let mut uv = [self.rem(modulus)?.limbs, m.clone()];
        if uv[0].is_empty() {
            return no_inverse;
        }
        uv[0].resize(len, 0);
        let mut x = [vec![0u64; len], vec![0u64; len]];
        x[0][0] = 1;
        let mut next = [vec![0u64; len], vec![0u64; len]];
        let mut t = vec![0u64; len + 1];
        let n_prime = neg_inv_u64(m[0]);
        // The pending update: row r turns x into (c[r][0]·x[0] + c[r][1]·x[1])
        // / 2^j. Each row's |entries| sum to at most 2^j whenever a batch
        // is applied: a subtraction adds one row into the other, and the
        // halving that follows doubles the other row.
        let mut c = [[1i64, 0], [0, 1]];
        let mut j = 0u32;
        let mut apply = |x: &mut [Vec<u64>; 2], c: &[[i64; 2]; 2], j: u32| {
            for (out, row) in next.iter_mut().zip(c) {
                combine_halved(out, x, *row, j, m, n_prime, &mut t);
            }
            core::mem::swap(x, &mut next);
        };
        // Limbs at `n` and above are zero in both `u` and `v`.
        let mut n = len;
        // Which of `u`, `v` may be even; the other is odd.
        let mut even = 0;
        loop {
            let w = &mut uv[even][..n];
            while w[0] & 1 == 0 {
                let s = w[0].trailing_zeros().min(INV_BATCH - j);
                shr_small(w, s);
                for e in &mut c[1 - even] {
                    *e <<= s;
                }
                j += s;
                if j == INV_BATCH {
                    apply(&mut x, &c, j);
                    (c, j) = ([[1, 0], [0, 1]], 0);
                }
            }
            if w[0] == 1 && w[1..].iter().all(|&l| l == 0) {
                apply(&mut x, &c, j);
                let mut inv = BigUint {
                    limbs: core::mem::take(&mut x[even]),
                };
                inv.normalize();
                return Ok(inv);
            }
            even = usize::from(!ge_limbs(&uv[0][..n], &uv[1][..n]));
            let [u, v] = &mut uv;
            let (a, b) = if even == 0 { (u, v) } else { (v, u) };
            sub_limbs_in_place(&mut a[..n], &b[..n]);
            if a[..n].iter().all(|&l| l == 0) {
                // u == v: the gcd is that odd value, and it is not 1.
                return no_inverse;
            }
            let other = c[1 - even];
            for (e, o) in c[even].iter_mut().zip(other) {
                *e -= o;
            }
            while n > 1 && a[n - 1] == 0 && b[n - 1] == 0 {
                n -= 1;
            }
        }
    }

    /// The Jacobi symbol `(self / n)` for odd `n`: 1, -1, or 0 when they
    /// share a factor. For a prime `n` it is 1 exactly on the nonzero
    /// quadratic residues.
    ///
    /// Binary algorithm on limbs in place: strip factors of two, apply
    /// reciprocity when swapping, subtract. About two steps per bit, far
    /// cheaper than Euler's criterion `self^((n-1)/2)`.
    pub(crate) fn jacobi(&self, n: &BigUint) -> Result<i8> {
        if n.is_even() {
            return Err(CryptoError::InvalidParameter(
                "Jacobi symbol of an even modulus",
            ));
        }
        let mut a = self.rem(n)?.limbs;
        a.resize(n.limbs.len(), 0);
        let mut n = n.limbs.clone();
        let mut sign = 1i8;
        while a.iter().any(|&l| l != 0) {
            let zeros = shr_to_odd(&mut a);
            // (2 / n) = -1 exactly when n ≡ 3 or 5 (mod 8).
            if zeros % 2 == 1 && matches!(n[0] & 7, 3 | 5) {
                sign = -sign;
            }
            if !ge_limbs(&a, &n) {
                // Reciprocity: (a / n) = -(n / a) when both are ≡ 3 (mod 4).
                core::mem::swap(&mut a, &mut n);
                if a[0] & 3 == 3 && n[0] & 3 == 3 {
                    sign = -sign;
                }
            }
            sub_limbs_in_place(&mut a, &n);
        }
        let n_is_one = n[0] == 1 && n[1..].iter().all(|&l| l == 0);
        Ok(if n_is_one { sign } else { 0 })
    }

    /// Miller–Rabin probabilistic primality test with `rounds` random
    /// witnesses drawn from `fill`.
    ///
    /// A composite survives one round with probability ≤ 1/4, so 16 rounds
    /// give a false-positive bound of 2^-32 — ample for validating the
    /// built-in group parameters (the safe-prime property the Schnorr
    /// construction rests on).
    pub fn is_probable_prime(&self, rounds: u32, mut fill: impl FnMut(&mut [u8])) -> Result<bool> {
        // Small cases and even numbers.
        if self.cmp_to(&BigUint::from_u64(2)) == Ordering::Less {
            return Ok(false);
        }
        if *self == BigUint::from_u64(2) || *self == BigUint::from_u64(3) {
            return Ok(true);
        }
        if self.is_even() {
            return Ok(false);
        }
        // Quick trial division by small primes.
        for &p in &[3u64, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47] {
            let d = BigUint::from_u64(p);
            if *self == d {
                return Ok(true);
            }
            if self.rem(&d)?.is_zero() {
                return Ok(false);
            }
        }
        // Write n-1 = d * 2^r with d odd.
        let n_minus_1 = self.checked_sub(&BigUint::one())?;
        let mut d = n_minus_1.clone();
        let mut r = 0usize;
        while d.is_even() {
            d = d.shr(1);
            r += 1;
        }
        let two = BigUint::from_u64(2);
        let upper = self.checked_sub(&BigUint::from_u64(3))?; // witnesses in [2, n-2]
        'witness: for _ in 0..rounds {
            let a = BigUint::random_below(&upper, &mut fill)?.add(&two);
            let mut x = a.modexp(&d, self)?;
            if x.is_one() || x == n_minus_1 {
                continue 'witness;
            }
            for _ in 0..r.saturating_sub(1) {
                x = x.mod_mul(&x, self)?;
                if x == n_minus_1 {
                    continue 'witness;
                }
            }
            return Ok(false);
        }
        Ok(true)
    }

    /// Generates a uniformly random integer in `[0, bound)` using rejection
    /// sampling from `fill` (a closure that fills a byte slice with random
    /// bytes, e.g. from [`crate::rng::SecureRng`]).
    pub fn random_below(bound: &BigUint, mut fill: impl FnMut(&mut [u8])) -> Result<BigUint> {
        if bound.is_zero() {
            return Err(CryptoError::InvalidParameter("random bound of zero"));
        }
        let bits = bound.bit_len();
        let bytes = bits.div_ceil(8);
        let top_mask = if bits.is_multiple_of(8) {
            0xff
        } else {
            (1u8 << (bits % 8)) - 1
        };
        let mut buf = vec![0u8; bytes];
        loop {
            fill(&mut buf);
            buf[0] &= top_mask;
            let candidate = BigUint::from_bytes_be(&buf);
            if candidate.cmp_to(bound) == Ordering::Less {
                return Ok(candidate);
            }
        }
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_to(other)
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Width in bits of the variable-base ladder's exponent windows: 15
/// precomputed powers, then one multiply per four squarings.
const WINDOW: usize = 4;

/// Rows of a fixed-base comb. The exponent is cut into this many rows of
/// equal width, and the table holds every product of the rows' leading
/// powers: 2^TEETH entries, 32 KiB at 1024 bits.
///
/// The height trades per-call work against a table built once per process:
/// a call costs `⌈bits/TEETH⌉` squarings and as many multiplies at most,
/// and the build `(TEETH - 1)·⌈bits/TEETH⌉` squarings and 2^TEETH
/// multiplies. At 8 a 1024-bit exponent takes 128 columns (6 rows took
/// 171) for ~25% more build work; 9 would save another 14 columns per
/// call but double the table to 64 KiB and its build multiplies to 512.
const TEETH: usize = 8;

// A window never straddles two limbs.
const _: () = assert!(64 % WINDOW == 0);

/// Montgomery-form modular arithmetic context for an odd modulus.
///
/// Precomputes `n' = -n^-1 mod 2^64` and `R^2 mod n`, `R = 2^(64·len)`.
/// Values in Montgomery form are `len`-limb slices; the kernels write into
/// caller buffers and a `2·len`-limb scratch, so they never allocate.
struct Montgomery {
    n: Vec<u64>,
    n_prime: u64,
    r2: Vec<u64>,
}

impl Montgomery {
    fn new(modulus: &BigUint) -> Self {
        debug_assert!(!modulus.is_even() && !modulus.is_zero());
        let n = modulus.limbs.clone();
        let n_prime = neg_inv_u64(n[0]);
        // R^2 mod n where R = 2^(64 * len).
        let mut r2 = BigUint::one()
            .shl(n.len() * 64 * 2)
            .rem(modulus)
            .expect("modulus nonzero")
            .limbs;
        r2.resize(n.len(), 0);
        Montgomery { n, n_prime, r2 }
    }

    fn len(&self) -> usize {
        self.n.len()
    }

    /// Scratch for the kernels: `2·len` limbs.
    fn scratch(&self) -> Vec<u64> {
        vec![0; 2 * self.len()]
    }

    /// `out = a · b · R^-1 mod n`: schoolbook product, then [`Self::redc`].
    fn mul_into(&self, out: &mut [u64], a: &[u64], b: &[u64], t: &mut [u64]) {
        #[cfg(test)]
        product_count::bump();
        let len = self.len();
        t.fill(0);
        for (i, &ai) in a.iter().enumerate() {
            // Row i covers t[i..i + len]; its carry lands on the still-zero
            // t[i + len].
            let (row, top) = t[i..=i + len].split_at_mut(len);
            let mut carry = 0u128;
            for (tj, &bj) in row.iter_mut().zip(b) {
                let s = *tj as u128 + ai as u128 * bj as u128 + carry;
                *tj = s as u64;
                carry = s >> 64;
            }
            top[0] = carry as u64;
        }
        self.redc(out, t);
    }

    /// `out = a² · R^-1 mod n`. Each cross product `a[i]·a[j]` is taken
    /// once and doubled, so the product costs about half of
    /// [`Self::mul_into`]'s.
    fn sqr_into(&self, out: &mut [u64], a: &[u64], t: &mut [u64]) {
        #[cfg(test)]
        product_count::bump();
        let len = self.len();
        t.fill(0);
        for (i, &ai) in a.iter().enumerate() {
            let (row, top) = t[2 * i + 1..=i + len].split_at_mut(len - i - 1);
            let mut carry = 0u128;
            for (tj, &aj) in row.iter_mut().zip(&a[i + 1..]) {
                let s = *tj as u128 + ai as u128 * aj as u128 + carry;
                *tj = s as u64;
                carry = s >> 64;
            }
            top[0] = carry as u64;
        }
        // Double the cross products and add the squares on the diagonal.
        let mut shifted_out = 0u64;
        let mut carry = 0u128;
        for (pair, &ai) in t.chunks_exact_mut(2).zip(a) {
            let sq = ai as u128 * ai as u128;
            let lo = (pair[0] << 1) | shifted_out;
            let hi = (pair[1] << 1) | (pair[0] >> 63);
            shifted_out = pair[1] >> 63;
            let s = lo as u128 + (sq as u64) as u128 + carry;
            pair[0] = s as u64;
            let s = hi as u128 + (sq >> 64) + (s >> 64);
            pair[1] = s as u64;
            carry = s >> 64;
        }
        debug_assert!(shifted_out == 0 && carry == 0);
        self.redc(out, t);
    }

    /// Montgomery reduction: `out = t · R^-1 mod n` for a `2·len`-limb
    /// `t < n·R`. Clobbers `t`.
    fn redc(&self, out: &mut [u64], t: &mut [u64]) {
        let len = self.len();
        // Carry out of t[i + len], owed to t[i + len + 1] in the next round.
        let mut hi = 0u64;
        for i in 0..len {
            let m = t[i].wrapping_mul(self.n_prime);
            let (row, rest) = t[i..].split_at_mut(len);
            let mut carry = 0u128;
            for (tj, &nj) in row.iter_mut().zip(&self.n) {
                let s = *tj as u128 + m as u128 * nj as u128 + carry;
                *tj = s as u64;
                carry = s >> 64;
            }
            let s = rest[0] as u128 + carry + hi as u128;
            rest[0] = s as u64;
            hi = (s >> 64) as u64;
        }
        out.copy_from_slice(&t[len..]);
        // The result is < 2n. When `hi` is set the borrow out of the
        // subtraction is absorbed by the implicit 2^(64·len) bit, so a
        // borrow is expected exactly then.
        if hi != 0 || ge_limbs(out, &self.n) {
            let borrow = sub_limbs_in_place(out, &self.n);
            debug_assert_eq!(borrow, hi);
        }
    }

    /// `x · R mod n` for `x < n`.
    fn to_mont(&self, x: &BigUint, t: &mut [u64]) -> Vec<u64> {
        let mut padded = x.limbs.clone();
        padded.resize(self.len(), 0);
        let mut out = vec![0; self.len()];
        self.mul_into(&mut out, &padded, &self.r2, t);
        out
    }

    /// `x · R^-1 mod n`, normalised.
    fn out_of_mont(&self, x: &[u64], t: &mut [u64]) -> BigUint {
        let len = self.len();
        t[..len].copy_from_slice(x);
        t[len..].fill(0);
        let mut out = BigUint {
            limbs: vec![0; len],
        };
        self.redc(&mut out.limbs, t);
        out.normalize();
        out
    }

    /// `base^exp mod n` for `base < n` and `exp > 0`, by fixed
    /// [`WINDOW`]-bit windows from the top.
    fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        debug_assert!(!exp.is_zero());
        let len = self.len();
        let mut t = self.scratch();
        // powers[(d - 1)·len..d·len] = base^d in Montgomery form.
        let mut powers = vec![0u64; ((1 << WINDOW) - 1) * len];
        powers[..len].copy_from_slice(&self.to_mont(base, &mut t));
        for d in 2..1 << WINDOW {
            let (done, next) = powers.split_at_mut((d - 1) * len);
            self.mul_into(
                &mut next[..len],
                &done[(d - 2) * len..],
                &done[..len],
                &mut t,
            );
        }
        let power = |d: usize| &powers[(d - 1) * len..d * len];
        let digit = |k: usize| {
            let bit = k * WINDOW;
            ((exp.limbs[bit / 64] >> (bit % 64)) & ((1 << WINDOW) - 1)) as usize
        };
        let digits = exp.bit_len().div_ceil(WINDOW);
        let mut acc = power(digit(digits - 1)).to_vec();
        let mut tmp = vec![0u64; len];
        for k in (0..digits - 1).rev() {
            for _ in 0..WINDOW {
                self.sqr_into(&mut tmp, &acc, &mut t);
                core::mem::swap(&mut acc, &mut tmp);
            }
            let d = digit(k);
            if d != 0 {
                self.mul_into(&mut tmp, &acc, power(d), &mut t);
                core::mem::swap(&mut acc, &mut tmp);
            }
        }
        self.out_of_mont(&acc, &mut t)
    }
}

/// Fixed-base exponentiation for one `(base, n)` pair with `n` odd: a
/// Lim–Lee comb table next to the modulus's Montgomery context, both
/// built once.
///
/// An exponent of up to `TEETH · cols` bits (`n`'s bit length, rounded up
/// to a multiple of [`TEETH`]) is read as [`TEETH`] rows of `cols` bits;
/// the comb takes `cols` squarings and at most `cols` multiplications,
/// against about `bits` squarings for a variable base. A longer exponent
/// takes the windowed path.
pub(crate) struct FixedBase {
    mont: Montgomery,
    base: BigUint,
    cols: usize,
    /// Entry `v` (`len` limbs at `v·len`, 1 ≤ v < 2^TEETH) is the product
    /// of `base^(2^(i·cols))` over the set bits `i` of `v`, in Montgomery
    /// form. Entry 0 is unused.
    table: Vec<u64>,
}

impl FixedBase {
    /// Builds the table: `(TEETH - 1)·cols` squarings and 2^TEETH
    /// multiplications, about one exponentiation's work.
    pub(crate) fn new(base: &BigUint, modulus: &BigUint) -> Self {
        assert!(
            !modulus.is_even() && !modulus.is_one() && base.cmp_to(modulus) == Ordering::Less,
            "fixed-base table needs an odd modulus > 1 and a reduced base"
        );
        let mont = Montgomery::new(modulus);
        let len = mont.len();
        let cols = modulus.bit_len().div_ceil(TEETH);
        let mut t = mont.scratch();
        let mut table = vec![0u64; (1 << TEETH) * len];
        let mut row = mont.to_mont(base, &mut t);
        let mut tmp = vec![0u64; len];
        for i in 0..TEETH {
            if i > 0 {
                for _ in 0..cols {
                    mont.sqr_into(&mut tmp, &row, &mut t);
                    core::mem::swap(&mut row, &mut tmp);
                }
            }
            table[(1 << i) * len..][..len].copy_from_slice(&row);
        }
        for v in 3..1usize << TEETH {
            if v.is_power_of_two() {
                continue;
            }
            let top = 1 << (usize::BITS - 1 - v.leading_zeros());
            let (done, next) = table.split_at_mut(v * len);
            mont.mul_into(
                &mut next[..len],
                &done[(v - top) * len..][..len],
                &done[top * len..][..len],
                &mut t,
            );
        }
        FixedBase {
            mont,
            base: base.clone(),
            cols,
            table,
        }
    }

    /// `base^exp mod n`.
    pub(crate) fn pow(&self, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one();
        }
        if exp.bit_len() > TEETH * self.cols {
            return self.mont.pow(&self.base, exp);
        }
        let len = self.mont.len();
        let entry = |v: usize| &self.table[v * len..(v + 1) * len];
        let mut t = self.mont.scratch();
        let mut acc = vec![0u64; len];
        let mut tmp = vec![0u64; len];
        let mut started = false;
        for j in (0..self.cols).rev() {
            let v = (0..TEETH).fold(0, |v, i| v | (exp.bit(i * self.cols + j) as usize) << i);
            if started {
                self.mont.sqr_into(&mut tmp, &acc, &mut t);
                core::mem::swap(&mut acc, &mut tmp);
                if v != 0 {
                    self.mont.mul_into(&mut tmp, &acc, entry(v), &mut t);
                    core::mem::swap(&mut acc, &mut tmp);
                }
            } else if v != 0 {
                acc.copy_from_slice(entry(v));
                started = true;
            }
        }
        self.mont.out_of_mont(&acc, &mut t)
    }
}

fn ge_limbs(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            Ordering::Greater => return true,
            Ordering::Less => return false,
            Ordering::Equal => {}
        }
    }
    true
}

/// Shifts a nonzero `a` right in place until it is odd; returns the shift.
fn shr_to_odd(a: &mut [u64]) -> usize {
    let limbs = a.iter().take_while(|&&l| l == 0).count();
    a.copy_within(limbs.., 0);
    let len = a.len();
    a[len - limbs..].fill(0);
    let bits = a[0].trailing_zeros() as usize;
    if bits > 0 {
        for i in 0..len {
            let hi = a.get(i + 1).copied().unwrap_or(0);
            a[i] = (a[i] >> bits) | (hi << (64 - bits));
        }
    }
    limbs * 64 + bits
}

/// Halvings per batch of [`BigUint::mod_inv_odd`]: with `j ≤ 62` every
/// matrix entry fits an `i64`, and `c·x` a limb plus 62 bits.
const INV_BATCH: u32 = 62;

/// `-n0^-1 mod 2^64` for odd `n0`, by Newton iteration (each step doubles
/// the correct low bits).
fn neg_inv_u64(n0: u64) -> u64 {
    let mut inv = 1u64;
    for _ in 0..6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
    }
    inv.wrapping_neg()
}

/// `w >>= s` for `1 ≤ s < 64`.
fn shr_small(w: &mut [u64], s: u32) {
    for i in 0..w.len() {
        let hi = w.get(i + 1).copied().unwrap_or(0);
        w[i] = (w[i] >> s) | (hi << (64 - s));
    }
}

/// `out = (c[0]·x[0] + c[1]·x[1]) / 2^j mod m` for `x[0], x[1] < m`, odd
/// `m`, `j ≤ INV_BATCH` and `|c[0]| + |c[1]| ≤ 2^j`; `n_prime` is
/// `-m^-1 mod 2^64` and `t` holds `len + 1` limbs of scratch.
fn combine_halved(
    out: &mut [u64],
    x: &[Vec<u64>; 2],
    c: [i64; 2],
    j: u32,
    m: &[u64],
    n_prime: u64,
    t: &mut [u64],
) {
    let len = m.len();
    // t = c·x in two's complement; |c·x| < 2^j·m.
    let mut carry = 0i128;
    for i in 0..len {
        let acc = c[0] as i128 * x[0][i] as i128 + c[1] as i128 * x[1][i] as i128 + carry;
        t[i] = acc as u64;
        carry = acc >> 64;
    }
    t[len] = carry as u64;
    // Add μ·m with μ < 2^j, μ ≡ -t·m^-1 (mod 2^j): the low j bits cancel.
    let mu = t[0].wrapping_mul(n_prime) & ((1u64 << j) - 1);
    let mut carry = 0u128;
    for i in 0..len {
        let sum = t[i] as u128 + mu as u128 * m[i] as u128 + carry;
        t[i] = sum as u64;
        carry = sum >> 64;
    }
    t[len] = t[len].wrapping_add(carry as u64);
    // The quotient lies in (-m, 2m): `top` is -1, 0 or 1 above `out`.
    for i in 0..len {
        out[i] = if j == 0 {
            t[i]
        } else {
            (t[i] >> j) | (t[i + 1] << (64 - j))
        };
    }
    let top = (t[len] as i64) >> j;
    if top < 0 {
        add_limbs_in_place(out, m);
    } else if top > 0 || ge_limbs(out, m) {
        sub_limbs_in_place(out, m);
    }
}

/// Adds `b` to `a` in place, returning the final carry (0 or 1).
fn add_limbs_in_place(a: &mut [u64], b: &[u64]) -> u64 {
    let mut carry = 0u64;
    for i in 0..a.len() {
        let (s1, c1) = a[i].overflowing_add(b[i]);
        let (s2, c2) = s1.overflowing_add(carry);
        a[i] = s2;
        carry = (c1 as u64) + (c2 as u64);
    }
    carry
}

/// Subtracts `b` from `a` in place, returning the final borrow (0 or 1).
fn sub_limbs_in_place(a: &mut [u64], b: &[u64]) -> u64 {
    let mut borrow = 0u64;
    for i in 0..a.len() {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        a[i] = d2;
        borrow = (b1 as u64) + (b2 as u64);
    }
    borrow
}

/// Montgomery products (`mul_into` and `sqr_into` calls) on this thread:
/// an exact proxy that lets tests pin an exponentiation's cost without a
/// clock. Compiled into test builds only.
#[cfg(test)]
pub(crate) mod product_count {
    use std::cell::Cell;

    thread_local! {
        static PRODUCTS: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn bump() {
        PRODUCTS.with(|c| c.set(c.get() + 1));
    }

    /// Runs `f`; returns its result and the products it took.
    pub(crate) fn during<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = PRODUCTS.with(Cell::get);
        let out = f();
        (out, PRODUCTS.with(Cell::get) - before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn b(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn zero_and_one() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(BigUint::zero().bit_len(), 0);
        assert_eq!(BigUint::one().bit_len(), 1);
    }

    #[test]
    fn bytes_roundtrip() {
        let n = BigUint::from_bytes_be(&[0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09]);
        assert_eq!(
            n.to_bytes_be(),
            vec![0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09]
        );
    }

    #[test]
    fn bytes_leading_zeros_stripped() {
        let n = BigUint::from_bytes_be(&[0x00, 0x00, 0xff]);
        assert_eq!(n.to_bytes_be(), vec![0xff]);
        assert_eq!(n, b(255));
    }

    #[test]
    fn padded_bytes() {
        let n = b(0xabcd);
        assert_eq!(
            n.to_bytes_be_padded(4).unwrap(),
            vec![0x00, 0x00, 0xab, 0xcd]
        );
        assert!(b(0x1_0000_0000).to_bytes_be_padded(2).is_err());
    }

    #[test]
    fn hex_roundtrip() {
        let n = BigUint::from_hex("deadbeef00112233").unwrap();
        assert_eq!(n.to_hex(), "deadbeef00112233");
        assert_eq!(BigUint::from_hex("0").unwrap(), BigUint::zero());
        assert_eq!(BigUint::zero().to_hex(), "0");
        // Odd nibble count.
        assert_eq!(BigUint::from_hex("fff").unwrap(), b(0xfff));
    }

    #[test]
    fn add_with_carry_across_limbs() {
        let a = BigUint::from_u64(u64::MAX);
        let s = a.add(&BigUint::one());
        assert_eq!(s.to_hex(), "10000000000000000");
    }

    #[test]
    fn sub_basics() {
        assert_eq!(b(100).checked_sub(&b(58)).unwrap(), b(42));
        assert!(b(1).checked_sub(&b(2)).is_err());
        let big = BigUint::from_hex("10000000000000000").unwrap();
        assert_eq!(
            big.checked_sub(&BigUint::one()).unwrap(),
            BigUint::from_u64(u64::MAX)
        );
    }

    #[test]
    fn mul_known() {
        assert_eq!(b(12345).mul(&b(6789)), b(12345 * 6789));
        assert!(b(5).mul(&BigUint::zero()).is_zero());
        let a = BigUint::from_u64(u64::MAX);
        assert_eq!(a.mul(&a).to_hex(), "fffffffffffffffe0000000000000001");
    }

    #[test]
    fn shifts() {
        assert_eq!(b(1).shl(64).to_hex(), "10000000000000000");
        assert_eq!(b(1).shl(64).shr(64), b(1));
        assert_eq!(b(0b1010).shr(1), b(0b101));
        assert!(b(1).shr(1).is_zero());
        assert_eq!(b(3).shl(3), b(24));
    }

    #[test]
    fn div_rem_small() {
        let (q, r) = b(100).div_rem(&b(7)).unwrap();
        assert_eq!(q, b(14));
        assert_eq!(r, b(2));
        assert!(b(1).div_rem(&BigUint::zero()).is_err());
        let (q, r) = b(3).div_rem(&b(10)).unwrap();
        assert!(q.is_zero());
        assert_eq!(r, b(3));
    }

    #[test]
    fn div_rem_multi_limb() {
        let n = BigUint::from_hex("1fffffffffffffffffffffffffffffffff").unwrap();
        let d = BigUint::from_hex("ffffffffffffffff1").unwrap();
        let (q, r) = n.div_rem(&d).unwrap();
        assert_eq!(q.mul(&d).add(&r), n);
        assert!(r.cmp_to(&d) == Ordering::Less);
    }

    #[test]
    fn modexp_small_cases() {
        assert_eq!(b(2).modexp(&b(10), &b(1000)).unwrap(), b(24));
        assert_eq!(b(3).modexp(&b(0), &b(7)).unwrap(), b(1));
        assert_eq!(b(0).modexp(&b(5), &b(7)).unwrap(), b(0));
        assert_eq!(b(5).modexp(&b(3), &b(1)).unwrap(), b(0));
        // Fermat's little theorem: a^(p-1) = 1 mod p.
        assert_eq!(b(17).modexp(&b(1008), &b(1009)).unwrap(), b(1));
    }

    #[test]
    fn modexp_even_modulus() {
        assert_eq!(b(3).modexp(&b(4), &b(100)).unwrap(), b(81));
        assert_eq!(b(7).modexp(&b(5), &b(36)).unwrap(), b(16807 % 36));
    }

    #[test]
    fn modexp_matches_generic_on_large_odd_modulus() {
        let m =
            BigUint::from_hex("f1d5d9c7a8b3e5f70123456789abcdef0123456789abcdef0123456789abcdef")
                .unwrap();
        let base = BigUint::from_hex("abcdef0123456789").unwrap();
        let exp = BigUint::from_hex("fedcba9876543210f00d").unwrap();
        let fast = base.modexp(&exp, &m).unwrap();
        let slow = base.rem(&m).unwrap().modexp_generic(&exp, &m).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn mod_inv_known() {
        // 3 * 5 = 15 = 1 mod 7 → inv(3) mod 7 = 5
        assert_eq!(b(3).mod_inv(&b(7)).unwrap(), b(5));
        assert_eq!(b(10).mod_inv(&b(17)).unwrap(), b(12)); // 120 = 7*17+1
        assert!(b(6).mod_inv(&b(9)).is_err()); // gcd 3
    }

    #[test]
    fn mod_add_sub() {
        let m = b(13);
        assert_eq!(b(7).mod_add(&b(8), &m).unwrap(), b(2));
        assert_eq!(b(3).mod_sub(&b(8), &m).unwrap(), b(8));
        assert_eq!(b(8).mod_sub(&b(3), &m).unwrap(), b(5));
    }

    #[test]
    fn random_below_respects_bound() {
        let bound = b(1000);
        let mut state = 0x12345u64;
        for _ in 0..100 {
            let v = BigUint::random_below(&bound, |buf| {
                for byte in buf.iter_mut() {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    *byte = (state >> 32) as u8;
                }
            })
            .unwrap();
            assert!(v.cmp_to(&bound) == Ordering::Less);
        }
    }

    proptest! {
        #[test]
        fn prop_add_sub_roundtrip(a in proptest::collection::vec(any::<u8>(), 0..40),
                                  c in proptest::collection::vec(any::<u8>(), 0..40)) {
            let x = BigUint::from_bytes_be(&a);
            let y = BigUint::from_bytes_be(&c);
            let s = x.add(&y);
            prop_assert_eq!(s.checked_sub(&y).unwrap(), x.clone());
            prop_assert_eq!(s.checked_sub(&x).unwrap(), y);
        }

        #[test]
        fn prop_div_rem_reconstruct(a in proptest::collection::vec(any::<u8>(), 0..48),
                                    d in proptest::collection::vec(any::<u8>(), 1..24)) {
            let n = BigUint::from_bytes_be(&a);
            let mut div = BigUint::from_bytes_be(&d);
            if div.is_zero() { div = BigUint::one(); }
            let (q, r) = n.div_rem(&div).unwrap();
            prop_assert_eq!(q.mul(&div).add(&r), n);
            prop_assert!(r.cmp_to(&div) == Ordering::Less);
        }

        #[test]
        fn prop_mul_commutative(a in proptest::collection::vec(any::<u8>(), 0..32),
                                c in proptest::collection::vec(any::<u8>(), 0..32)) {
            let x = BigUint::from_bytes_be(&a);
            let y = BigUint::from_bytes_be(&c);
            prop_assert_eq!(x.mul(&y), y.mul(&x));
        }

        #[test]
        fn prop_modexp_montgomery_matches_generic(
            base in proptest::collection::vec(any::<u8>(), 1..24),
            exp in proptest::collection::vec(any::<u8>(), 1..8),
            mut modbytes in proptest::collection::vec(any::<u8>(), 2..24),
        ) {
            // Force an odd modulus > 1.
            *modbytes.last_mut().unwrap() |= 1;
            let m = BigUint::from_bytes_be(&modbytes);
            prop_assume!(!m.is_one());
            let b = BigUint::from_bytes_be(&base);
            let e = BigUint::from_bytes_be(&exp);
            let fast = b.modexp(&e, &m).unwrap();
            let slow = b.rem(&m).unwrap().modexp_generic(&e, &m).unwrap();
            prop_assert_eq!(fast, slow);
        }

        #[test]
        fn prop_mod_inv_is_inverse(a in 1u64..u64::MAX, m in 3u64..u64::MAX) {
            let x = BigUint::from_u64(a);
            let modulus = BigUint::from_u64(m);
            if let Ok(inv) = x.mod_inv(&modulus) {
                let prod = x.mod_mul(&inv, &modulus).unwrap();
                prop_assert!(prod.is_one());
            }
        }

        #[test]
        fn prop_binary_inverse_matches_euclid(
            a in proptest::collection::vec(any::<u8>(), 0..40),
            mut modbytes in proptest::collection::vec(any::<u8>(), 1..32),
        ) {
            *modbytes.last_mut().unwrap() |= 1;
            let m = BigUint::from_bytes_be(&modbytes);
            let x = BigUint::from_bytes_be(&a);
            prop_assert_eq!(x.mod_inv_odd(&m).ok(), x.mod_inv(&m).ok());
        }

        #[test]
        fn prop_hex_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let n = BigUint::from_bytes_be(&bytes);
            prop_assert_eq!(BigUint::from_hex(&n.to_hex()).unwrap(), n);
        }

        #[test]
        fn prop_shift_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..32),
                                shift in 0usize..200) {
            let n = BigUint::from_bytes_be(&bytes);
            prop_assert_eq!(n.shl(shift).shr(shift), n);
        }
    }
}

#[cfg(test)]
mod primality_tests {
    use super::*;
    use crate::rng::SecureRng;

    fn filler() -> impl FnMut(&mut [u8]) {
        let mut rng = SecureRng::seed_from_u64(31337);
        move |buf: &mut [u8]| rng.fill_bytes(buf)
    }

    fn is_prime(n: &BigUint) -> bool {
        n.is_probable_prime(16, filler()).unwrap()
    }

    #[test]
    fn small_numbers_classified_correctly() {
        let primes = [2u64, 3, 5, 7, 11, 13, 101, 7919, 104729];
        let composites = [0u64, 1, 4, 6, 9, 15, 100, 7917, 104730];
        for p in primes {
            assert!(is_prime(&BigUint::from_u64(p)), "{p} is prime");
        }
        for c in composites {
            assert!(!is_prime(&BigUint::from_u64(c)), "{c} is composite");
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Fermat liars that defeat naive a^(n-1) tests: 561, 1105, 1729,
        // 41041, 825265.
        for c in [561u64, 1105, 1729, 41041, 825265] {
            assert!(
                !is_prime(&BigUint::from_u64(c)),
                "{c} is a Carmichael number"
            );
        }
    }

    #[test]
    fn mersenne_and_known_large_primes() {
        // 2^89-1 and 2^107-1 are Mersenne primes; 2^97-1 is composite.
        let m = |e: usize| BigUint::one().shl(e).checked_sub(&BigUint::one()).unwrap();
        assert!(is_prime(&m(89)));
        assert!(is_prime(&m(107)));
        assert!(!is_prime(&m(97)));
    }

    #[test]
    fn oakley_groups_are_safe_primes() {
        // The foundation of the Schnorr group construction: the built-in
        // MODP primes are prime AND (p-1)/2 is prime (safe primes), so
        // g = 4 provably generates the order-q subgroup.
        use crate::dh::DhGroup;
        for group in [DhGroup::modp768(), DhGroup::modp1024()] {
            assert!(
                group.p.is_probable_prime(8, filler()).unwrap(),
                "{}-bit modulus must be prime",
                group.bits
            );
            let q = group.p.checked_sub(&BigUint::one()).unwrap().shr(1);
            assert!(
                q.is_probable_prime(8, filler()).unwrap(),
                "{}-bit (p-1)/2 must be prime",
                group.bits
            );
        }
    }
}

/// Differential tests at the built-in group sizes (768 to 2048 bits), where
/// the Montgomery kernels run on 12 to 32 limbs: the windowed path here,
/// the comb tables through the groups' `pow_g` in `dh` and `schnorr`, all
/// against [`BigUint::modexp_generic`].
#[cfg(test)]
pub(crate) mod full_size {
    use super::*;
    use crate::dh::DhGroup;
    use crate::rng::SecureRng;

    /// Random cases per group and path.
    pub(crate) const RANDOM_CASES: usize = 16;

    pub(crate) fn oracle(base: &BigUint, exp: &BigUint, p: &BigUint) -> BigUint {
        base.rem(p).unwrap().modexp_generic(exp, p).unwrap()
    }

    fn pow2(k: usize) -> BigUint {
        BigUint::one().shl(k)
    }

    /// Exponents at the edges of both paths for a modulus `p`: small
    /// values, `2^k - 1`, `2^k` and `2^k + 1` at window, limb and comb-row
    /// boundaries, `p - 2`, `p - 1`, and `2^span` — one bit longer than
    /// the comb covers, so it must take the windowed path.
    pub(crate) fn edge_exponents(p: &BigUint) -> Vec<BigUint> {
        let cols = p.bit_len().div_ceil(TEETH);
        let mut ks = vec![WINDOW, 2 * WINDOW, 64, 128];
        ks.extend((1..=TEETH).map(|i| i * cols));
        let mut exps: Vec<BigUint> = [0, 1, 2, 15, 16, 17].map(BigUint::from_u64).into();
        for k in ks {
            exps.push(pow2(k).checked_sub(&BigUint::one()).unwrap());
            exps.push(pow2(k));
            exps.push(pow2(k).add(&BigUint::one()));
        }
        exps.push(p.checked_sub(&BigUint::from_u64(2)).unwrap());
        exps.push(p.checked_sub(&BigUint::one()).unwrap());
        exps
    }

    /// `count` seeded `(base, exponent)` pairs: bases up to a byte longer
    /// than `p` (so some are ≥ p), exponents of up to `p`'s length.
    pub(crate) fn random_cases(p: &BigUint, seed: u64, count: usize) -> Vec<(BigUint, BigUint)> {
        let mut rng = SecureRng::seed_from_u64(seed);
        let mut draw = |len: usize| {
            let mut buf = vec![0u8; len];
            rng.fill_bytes(&mut buf);
            BigUint::from_bytes_be(&buf)
        };
        let bytes = p.bit_len() / 8;
        (0..count).map(|_| (draw(bytes + 1), draw(bytes))).collect()
    }

    fn builtin_primes() -> [BigUint; 4] {
        [
            DhGroup::modp768().p,
            DhGroup::modp1024().p,
            DhGroup::modp1536().p,
            DhGroup::modp2048().p,
        ]
    }

    #[test]
    fn windowed_matches_generic_on_edge_exponents() {
        for p in builtin_primes() {
            let base = random_cases(&p, 5, 1).remove(0).0;
            for e in edge_exponents(&p) {
                assert_eq!(base.modexp(&e, &p).unwrap(), oracle(&base, &e, &p), "{e:?}");
            }
        }
    }

    #[test]
    fn windowed_matches_generic_on_edge_bases() {
        for p in builtin_primes() {
            let p_minus_1 = p.checked_sub(&BigUint::one()).unwrap();
            let bases = [
                BigUint::zero(),
                BigUint::one(),
                BigUint::from_u64(2),
                p_minus_1.clone(),
                p.clone(),
                p.add(&BigUint::one()),
                p.shl(1).add(&BigUint::from_u64(5)),
            ];
            let exps = [
                BigUint::from_u64(3),
                p_minus_1.checked_sub(&BigUint::one()).unwrap(),
            ];
            for b in &bases {
                for e in &exps {
                    assert_eq!(b.modexp(e, &p).unwrap(), oracle(b, e, &p), "{b:?}^{e:?}");
                }
            }
        }
    }

    fn random_sweep(p: &BigUint) {
        for (b, e) in random_cases(p, p.bit_len() as u64, RANDOM_CASES) {
            assert_eq!(b.modexp(&e, p).unwrap(), oracle(&b, &e, p), "{b:?}^{e:?}");
        }
    }

    #[test]
    fn windowed_matches_generic_random_768_1024() {
        random_sweep(&DhGroup::modp768().p);
        random_sweep(&DhGroup::modp1024().p);
    }

    #[test]
    #[ignore = "1536/2048-bit oracle sweep; run with --include-ignored"]
    fn windowed_matches_generic_random_1536_2048() {
        random_sweep(&DhGroup::modp1536().p);
        random_sweep(&DhGroup::modp2048().p);
    }

    #[test]
    fn fixed_base_matches_generic_on_an_arbitrary_base() {
        // The comb for a base other than the groups' generators, on a
        // modulus whose bit length is not a multiple of TEETH: the odd
        // 1023-bit (p - 1) / 2 of the 1024-bit group.
        let q = DhGroup::modp1024().p.shr(1);
        assert_ne!(q.bit_len() % TEETH, 0);
        let (base, _) = random_cases(&q, 6, 1).remove(0);
        let base = base.rem(&q).unwrap();
        let comb = FixedBase::new(&base, &q);
        for e in edge_exponents(&q) {
            assert_eq!(comb.pow(&e), oracle(&base, &e, &q), "{e:?}");
        }
    }

    #[test]
    fn fixed_base_products_fit_the_column_budget() {
        // A comb pow takes at most one squaring and one multiply per
        // column: 2·⌈bits/8⌉ Montgomery products with 8 rows.
        for p in builtin_primes() {
            let comb = FixedBase::new(&BigUint::from_u64(4), &p);
            let budget = 2 * p.bit_len().div_ceil(8) as u64;
            let all_ones = BigUint::one().shl(p.bit_len()).checked_sub(&BigUint::one());
            let exps = edge_exponents(&p).into_iter().chain(all_ones);
            // Longer exponents than the modulus take the windowed path.
            for e in exps.filter(|e| e.bit_len() <= p.bit_len()) {
                let (_, products) = product_count::during(|| comb.pow(&e));
                assert!(products <= budget, "{products} > {budget} for {e:?}");
            }
        }
    }

    /// `mod_inv_odd` against the Euclidean `mod_inv` at 1, 2, p - 2, p - 1,
    /// 2^64 + 1 (a low limb of 1 is not yet 1) and seeded random values,
    /// and an error at 0 and multiples of `p`.
    fn binary_inverse_matches_euclid(p: &BigUint) {
        let p_minus = |v: u64| p.checked_sub(&BigUint::from_u64(v)).unwrap();
        let randoms = random_cases(p, 8, RANDOM_CASES).into_iter();
        let edges = [
            BigUint::one(),
            BigUint::from_u64(2),
            p_minus(2),
            p_minus(1),
            BigUint::one().shl(64).add(&BigUint::one()),
        ];
        let values = edges.into_iter().chain(randoms.map(|(a, _)| a));
        for a in values {
            let inv = a.mod_inv_odd(p).unwrap();
            assert_eq!(inv, a.mod_inv(p).unwrap(), "{a:?}");
            assert!(a.mod_mul(&inv, p).unwrap().is_one(), "{a:?}");
        }
        for a in [BigUint::zero(), p.clone(), p.shl(1), p.mul(p)] {
            assert!(a.mod_inv_odd(p).is_err(), "{a:?}");
        }
    }

    #[test]
    fn binary_inverse_matches_euclid_768_1024() {
        binary_inverse_matches_euclid(&DhGroup::modp768().p);
        binary_inverse_matches_euclid(&DhGroup::modp1024().p);
    }

    #[test]
    #[ignore = "1536/2048-bit oracle sweep; run with --include-ignored"]
    fn binary_inverse_matches_euclid_1536_2048() {
        binary_inverse_matches_euclid(&DhGroup::modp1536().p);
        binary_inverse_matches_euclid(&DhGroup::modp2048().p);
    }

    #[test]
    fn binary_inverse_rejects_shared_factors_and_even_moduli() {
        let b = BigUint::from_u64;
        // gcd(6, 9) = 3; 21 = 3·7 meets 15 = 3·5 only after a few steps.
        assert!(b(6).mod_inv_odd(&b(9)).is_err());
        assert!(b(21).mod_inv_odd(&b(15)).is_err());
        assert!(b(3).mod_inv_odd(&b(1)).is_err());
        assert!(b(3).mod_inv_odd(&b(10)).is_err());
    }

    #[test]
    fn binary_inverse_matches_euclid_on_other_shapes() {
        // A value with whole zero limbs below its top one.
        let m = DhGroup::modp768().p;
        let a = BigUint::from_u64(3).shl(64 * 5 + 1);
        assert_eq!(a.mod_inv_odd(&m).unwrap(), a.mod_inv(&m).unwrap());
        // Seeded odd moduli of 65 to 256 bits. The built-in primes sit just
        // below 2^(64·len), so a batch quotient in [m, 2^(64·len)) that
        // needs wrapping almost never occurs there; with a short top limb
        // it does.
        let mut rng = SecureRng::seed_from_u64(10);
        for bits in 65..=256 {
            let mut bytes = vec![0u8; 32];
            rng.fill_bytes(&mut bytes);
            let top = BigUint::one().shl(bits - 1);
            let m = BigUint::from_bytes_be(&bytes).rem(&top).unwrap().add(&top);
            let m = if m.is_even() {
                m.add(&BigUint::one())
            } else {
                m
            };
            for (a, _) in random_cases(&m, bits as u64, 4) {
                assert_eq!(
                    a.mod_inv_odd(&m).ok(),
                    a.mod_inv(&m).ok(),
                    "{a:?} mod {m:?}"
                );
            }
        }
    }

    #[test]
    fn jacobi_matches_euler_criterion() {
        let p = DhGroup::modp768().p;
        let q = p.checked_sub(&BigUint::one()).unwrap().shr(1);
        let p_minus_1 = p.checked_sub(&BigUint::one()).unwrap();
        // Values with zero low limbs exercise whole-limb shifts, the last
        // one with its top limb set.
        let mut shifted = [(1, 64), (3, 128), (5, 64 * 5 + 3)]
            .map(|(v, k)| BigUint::from_u64(v).shl(k))
            .to_vec();
        shifted.push(p.shr(130).shl(130));
        let randoms = random_cases(&p, 7, 24).into_iter().map(|(a, _)| a);
        for a in randoms.chain(shifted) {
            let a = a.rem(&p).unwrap();
            let euler = a.modexp(&q, &p).unwrap();
            let expected = if a.is_zero() {
                0
            } else if euler.is_one() {
                1
            } else {
                assert_eq!(euler, p_minus_1);
                -1
            };
            assert_eq!(a.jacobi(&p).unwrap(), expected, "{a:?}");
        }
    }

    #[test]
    fn jacobi_small_values() {
        let j = |a: u64, n: u64| BigUint::from_u64(a).jacobi(&BigUint::from_u64(n)).unwrap();
        // Quadratic residues mod 7 are 1, 2 and 4.
        let mod7: Vec<i8> = (0..7).map(|a| j(a, 7)).collect();
        assert_eq!(mod7, [0, 1, 1, -1, 1, -1, -1]);
        // Composite n: (2/15) = (2/3)(2/5) = 1, and a shared factor gives 0.
        assert_eq!(j(2, 15), 1);
        assert_eq!(j(7, 15), -1);
        assert_eq!(j(6, 15), 0);
        assert!(BigUint::one().jacobi(&BigUint::from_u64(8)).is_err());
    }
}
