//! Concrete finite fields with precomputed operation tables.

use crate::error::FieldError;
use crate::poly::Poly;
use crate::prime::factor_prime_power;
use std::fmt;

/// An element of a finite field, identified by its canonical index in
/// `0..q`.
///
/// For prime fields the index is the residue itself; for extension fields
/// it is the base-`p` encoding of the polynomial coefficients (the same
/// canonical ordering the paper uses to name `GF(9)` elements
/// `{0, 1, 2, u, v, w, x, y, z}`).
///
/// `Elem` is deliberately a plain index wrapper: it carries no reference to
/// its field, so operations go through [`Gf`] methods. Mixing elements of
/// different fields is a logic error that [`Gf`] guards with debug
/// assertions on the index range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Elem(pub usize);

impl Elem {
    /// The canonical index of this element in `0..q`.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for Elem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A finite field `GF(q)` with full operation tables.
///
/// Supports any prime-power order. Prime fields are residue arithmetic;
/// extension fields use polynomial arithmetic modulo an irreducible
/// polynomial, matching the "build the tables by hand" procedure of the
/// paper's §3.5.2 and Table 3.
///
/// # Examples
///
/// ```
/// use snoc_field::Gf;
///
/// let f8 = Gf::new(8)?;
/// let a = f8.element(3)?;
/// // Characteristic 2: every element is its own negation.
/// assert_eq!(f8.add(a, a), f8.zero());
/// # Ok::<(), snoc_field::FieldError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gf {
    q: usize,
    p: usize,
    n: usize,
    modulus: Option<Poly>,
    add: Vec<usize>,
    mul: Vec<usize>,
    neg: Vec<usize>,
    inv: Vec<usize>, // inv[0] unused (stored as 0)
    generator: usize,
}

impl Gf {
    /// Constructs `GF(q)` for a prime-power `q`, choosing the first
    /// irreducible modulus in canonical order for extension fields.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::NotPrimePower`] if `q` is not a prime power,
    /// or [`FieldError::OrderTooSmall`] if `q < 2`.
    pub fn new(q: usize) -> Result<Self, FieldError> {
        if q < 2 {
            return Err(FieldError::OrderTooSmall { q });
        }
        let (p, n) = factor_prime_power(q).ok_or(FieldError::NotPrimePower { q })?;
        if n == 1 {
            Ok(Self::build_prime(p))
        } else {
            let modulus = Poly::first_irreducible(p, n);
            Ok(Self::build_extension(p, n, modulus))
        }
    }

    /// Constructs an extension field `GF(p^n)` with an explicit modulus
    /// polynomial (coefficients in increasing degree order, including the
    /// leading coefficient).
    ///
    /// This exists so the exact tables of the paper's Table 3 can be
    /// reproduced: the paper's `GF(8)` corresponds to `x³ + x² + 1` rather
    /// than the canonical-first `x³ + x + 1`.
    ///
    /// # Errors
    ///
    /// Returns an error if `q` is not a prime power, the modulus has the
    /// wrong degree, or the modulus is reducible.
    pub fn with_modulus(q: usize, modulus_coeffs: &[usize]) -> Result<Self, FieldError> {
        if q < 2 {
            return Err(FieldError::OrderTooSmall { q });
        }
        let (p, n) = factor_prime_power(q).ok_or(FieldError::NotPrimePower { q })?;
        let modulus = Poly::new(p, modulus_coeffs);
        match modulus.degree() {
            Some(d) if d == n => {}
            d => {
                return Err(FieldError::WrongModulusDegree {
                    expected: n,
                    actual: d.unwrap_or(0),
                })
            }
        }
        if !modulus.is_irreducible() {
            return Err(FieldError::ReducibleModulus {
                p,
                poly: modulus_coeffs.to_vec(),
            });
        }
        if n == 1 {
            Ok(Self::build_prime(p))
        } else {
            Ok(Self::build_extension(p, n, modulus))
        }
    }

    fn build_prime(p: usize) -> Self {
        let q = p;
        let mut add = vec![0; q * q];
        let mut mul = vec![0; q * q];
        for a in 0..q {
            for b in 0..q {
                add[a * q + b] = (a + b) % q;
                mul[a * q + b] = (a * b) % q;
            }
        }
        Self::finish(q, p, 1, None, add, mul)
    }

    fn build_extension(p: usize, n: usize, modulus: Poly) -> Self {
        let q = (0..n).fold(1usize, |acc, _| acc * p);
        let polys: Vec<Poly> = (0..q).map(|c| Poly::from_code(p, c)).collect();
        let mut add = vec![0; q * q];
        let mut mul = vec![0; q * q];
        for a in 0..q {
            for b in 0..q {
                add[a * q + b] = polys[a].add(&polys[b]).code();
                mul[a * q + b] = polys[a].mul(&polys[b]).rem(&modulus).code();
            }
        }
        Self::finish(q, p, n, Some(modulus), add, mul)
    }

    fn finish(
        q: usize,
        p: usize,
        n: usize,
        modulus: Option<Poly>,
        add: Vec<usize>,
        mul: Vec<usize>,
    ) -> Self {
        // Negation table: -a is the unique b with a + b = 0.
        let mut neg = vec![0; q];
        for a in 0..q {
            neg[a] = (0..q).find(|&b| add[a * q + b] == 0).expect("group");
        }
        // Inverse table: a^{-1} is the unique b with a * b = 1.
        let mut inv = vec![0; q];
        for a in 1..q {
            inv[a] = (1..q).find(|&b| mul[a * q + b] == 1).expect("field");
        }
        // Generator: smallest-index element of multiplicative order q - 1.
        // The paper finds ξ "by exhaustive search" (§3.5.1); so do we.
        let mut generator = 0;
        'outer: for g in 1..q {
            let mut acc = g;
            for ord in 1..q {
                if acc == 1 {
                    if ord == q - 1 {
                        generator = g;
                        break 'outer;
                    }
                    continue 'outer;
                }
                acc = mul[acc * q + g];
            }
        }
        assert!(
            generator != 0 || q == 2,
            "every finite field has a generator"
        );
        if q == 2 {
            generator = 1;
        }
        Gf {
            q,
            p,
            n,
            modulus,
            add,
            mul,
            neg,
            inv,
            generator,
        }
    }

    /// The order `q` of the field.
    #[must_use]
    pub fn order(&self) -> usize {
        self.q
    }

    /// The characteristic `p` (the prime with `q = p^n`).
    #[must_use]
    pub fn characteristic(&self) -> usize {
        self.p
    }

    /// The modulus polynomial, or `None` for prime fields.
    #[must_use]
    pub fn modulus(&self) -> Option<&Poly> {
        self.modulus.as_ref()
    }

    /// The additive identity.
    #[must_use]
    pub fn zero(&self) -> Elem {
        Elem(0)
    }

    /// The multiplicative identity.
    #[must_use]
    pub fn one(&self) -> Elem {
        Elem(1)
    }

    /// The chosen primitive element ξ (smallest-index generator of the
    /// multiplicative group).
    #[must_use]
    pub fn generator(&self) -> Elem {
        Elem(self.generator)
    }

    /// All generators of the multiplicative group, in index order.
    ///
    /// For the paper's `GF(9)` these are the four elements it lists as
    /// `{v, w, y, z}`.
    #[must_use]
    pub fn all_generators(&self) -> Vec<Elem> {
        (1..self.q)
            .map(Elem)
            .filter(|&g| self.multiplicative_order(g) == self.q - 1)
            .collect()
    }

    /// Multiplicative order of a nonzero element.
    ///
    /// # Panics
    ///
    /// Panics if `a` is zero.
    #[must_use]
    pub fn multiplicative_order(&self, a: Elem) -> usize {
        assert!(a.0 != 0, "zero has no multiplicative order");
        let mut acc = a.0;
        let mut ord = 1;
        while acc != 1 {
            acc = self.mul[acc * self.q + a.0];
            ord += 1;
        }
        ord
    }

    /// Returns the element with the given canonical index.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::NoSuchElement`] if `index >= q`.
    pub fn element(&self, index: usize) -> Result<Elem, FieldError> {
        if index < self.q {
            Ok(Elem(index))
        } else {
            Err(FieldError::NoSuchElement { index, q: self.q })
        }
    }

    /// Iterates over all field elements in index order.
    pub fn elements(&self) -> impl Iterator<Item = Elem> + '_ {
        (0..self.q).map(Elem)
    }

    /// Iterates over all nonzero elements in index order.
    pub fn nonzero_elements(&self) -> impl Iterator<Item = Elem> + '_ {
        (1..self.q).map(Elem)
    }

    #[inline]
    fn check(&self, a: Elem) -> usize {
        debug_assert!(
            a.0 < self.q,
            "element {} out of range for GF({})",
            a.0,
            self.q
        );
        a.0
    }

    /// Field addition.
    #[must_use]
    pub fn add(&self, a: Elem, b: Elem) -> Elem {
        Elem(self.add[self.check(a) * self.q + self.check(b)])
    }

    /// Field subtraction `a - b`.
    #[must_use]
    pub fn sub(&self, a: Elem, b: Elem) -> Elem {
        let nb = self.neg[self.check(b)];
        Elem(self.add[self.check(a) * self.q + nb])
    }

    /// Field multiplication.
    #[must_use]
    pub fn mul(&self, a: Elem, b: Elem) -> Elem {
        Elem(self.mul[self.check(a) * self.q + self.check(b)])
    }

    /// Additive inverse.
    #[must_use]
    pub fn neg(&self, a: Elem) -> Elem {
        Elem(self.neg[self.check(a)])
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `a` is zero.
    #[must_use]
    pub fn inv(&self, a: Elem) -> Elem {
        let i = self.check(a);
        assert!(i != 0, "zero has no multiplicative inverse");
        Elem(self.inv[i])
    }

    /// Field division `a / b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is zero.
    #[must_use]
    pub fn div(&self, a: Elem, b: Elem) -> Elem {
        self.mul(a, self.inv(b))
    }

    /// Exponentiation `a^e` (with `a^0 = 1`, including for `a = 0`).
    #[must_use]
    pub fn pow(&self, a: Elem, e: usize) -> Elem {
        let mut acc = Elem(1);
        let mut base = a;
        let mut e = e;
        while e > 0 {
            if e & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            e >>= 1;
        }
        acc
    }

    /// Human-readable element names matching the paper's convention:
    /// indices below `p` print as digits, the rest as letters starting at
    /// `u` (then wrapping to `a, b, c, …` for very large fields).
    ///
    /// For `GF(9)` this yields exactly the paper's
    /// `{0, 1, 2, u, v, w, x, y, z}`; for `GF(8)`,
    /// `{0, 1, u, v, w, x, y, z}`.
    #[must_use]
    pub fn element_name(&self, a: Elem) -> String {
        let i = self.check(a);
        if i < self.p && self.n > 1 {
            return i.to_string();
        }
        if self.n == 1 {
            return i.to_string();
        }
        let letter_idx = i - self.p;
        let letters = "uvwxyz";
        if letter_idx < letters.len() {
            letters[letter_idx..=letter_idx].to_string()
        } else {
            format!("e{i}")
        }
    }

    /// Renders the full addition table as rows of element names — the
    /// format of the paper's Table 3.
    #[must_use]
    pub fn addition_table(&self) -> Vec<Vec<String>> {
        self.op_table(|a, b| self.add(a, b))
    }

    /// Renders the full multiplication table as rows of element names.
    #[must_use]
    pub fn multiplication_table(&self) -> Vec<Vec<String>> {
        self.op_table(|a, b| self.mul(a, b))
    }

    /// Renders the negation table (`e_l`, `-e_l`) as name pairs.
    #[must_use]
    pub fn negation_table(&self) -> Vec<(String, String)> {
        self.elements()
            .map(|a| (self.element_name(a), self.element_name(self.neg(a))))
            .collect()
    }

    fn op_table(&self, op: impl Fn(Elem, Elem) -> Elem) -> Vec<Vec<String>> {
        self.elements()
            .map(|a| {
                self.elements()
                    .map(|b| self.element_name(op(a, b)))
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn axioms(f: &Gf) {
        let q = f.order();
        // Commutativity and identities.
        for a in f.elements() {
            assert_eq!(f.add(a, f.zero()), a);
            assert_eq!(f.mul(a, f.one()), a);
            assert_eq!(f.mul(a, f.zero()), f.zero());
            for b in f.elements() {
                assert_eq!(f.add(a, b), f.add(b, a));
                assert_eq!(f.mul(a, b), f.mul(b, a));
            }
        }
        // Associativity and distributivity (exhaustive for small q).
        if q <= 9 {
            for a in f.elements() {
                for b in f.elements() {
                    for c in f.elements() {
                        assert_eq!(f.add(f.add(a, b), c), f.add(a, f.add(b, c)));
                        assert_eq!(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
                        assert_eq!(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
                    }
                }
            }
        }
        // Inverses.
        for a in f.elements() {
            assert_eq!(f.add(a, f.neg(a)), f.zero());
        }
        for a in f.nonzero_elements() {
            assert_eq!(f.mul(a, f.inv(a)), f.one());
            assert_eq!(f.div(a, a), f.one());
        }
        // Subtraction agrees with add/neg.
        for a in f.elements() {
            for b in f.elements() {
                assert_eq!(f.sub(a, b), f.add(a, f.neg(b)));
            }
        }
    }

    #[test]
    fn field_axioms_all_paper_orders() {
        for q in [2, 3, 4, 5, 7, 8, 9] {
            let f = Gf::new(q).unwrap();
            axioms(&f);
        }
    }

    #[test]
    fn field_axioms_larger_orders() {
        for q in [11, 13, 16, 25, 27] {
            let f = Gf::new(q).unwrap();
            // Light-weight subset of axioms for larger fields.
            for a in f.elements() {
                assert_eq!(f.add(a, f.neg(a)), f.zero());
            }
            for a in f.nonzero_elements() {
                assert_eq!(f.mul(a, f.inv(a)), f.one());
            }
        }
    }

    #[test]
    fn rejects_non_prime_powers() {
        for q in [0, 1, 6, 10, 12, 15] {
            assert!(Gf::new(q).is_err(), "q = {q}");
        }
    }

    #[test]
    fn generator_has_full_order() {
        for q in [2, 3, 4, 5, 7, 8, 9, 11, 13, 16] {
            let f = Gf::new(q).unwrap();
            let g = f.generator();
            assert_eq!(f.multiplicative_order(g), q - 1, "q = {q}");
            // Powers of the generator enumerate all nonzero elements.
            let mut seen = vec![false; q];
            for e in 0..q - 1 {
                seen[f.pow(g, e).index()] = true;
            }
            assert!(seen[1..].iter().all(|&s| s), "q = {q}");
        }
    }

    #[test]
    fn gf9_generators_match_paper() {
        // Paper §3.5.2: GF(9) has 4 equivalent generators named v, w, y, z,
        // i.e. indices 4, 5, 7, 8 in the canonical encoding.
        let f9 = Gf::new(9).unwrap();
        let gens: Vec<usize> = f9.all_generators().iter().map(|g| g.index()).collect();
        assert_eq!(gens, vec![4, 5, 7, 8]);
        let names: Vec<String> = f9
            .all_generators()
            .iter()
            .map(|&g| f9.element_name(g))
            .collect();
        assert_eq!(names, vec!["v", "w", "y", "z"]);
    }

    #[test]
    fn gf9_element_names_match_paper() {
        let f9 = Gf::new(9).unwrap();
        let names: Vec<String> = f9.elements().map(|e| f9.element_name(e)).collect();
        assert_eq!(names, vec!["0", "1", "2", "u", "v", "w", "x", "y", "z"]);
    }

    #[test]
    fn gf8_element_names_match_paper() {
        let f8 = Gf::new(8).unwrap();
        let names: Vec<String> = f8.elements().map(|e| f8.element_name(e)).collect();
        assert_eq!(names, vec!["0", "1", "u", "v", "w", "x", "y", "z"]);
    }

    #[test]
    fn with_modulus_rejects_reducible() {
        // x^3 + 1 = (x + 1)(x^2 + x + 1) over GF(2).
        assert!(matches!(
            Gf::with_modulus(8, &[1, 0, 0, 1]),
            Err(FieldError::ReducibleModulus { .. })
        ));
    }

    #[test]
    fn with_modulus_rejects_wrong_degree() {
        assert!(matches!(
            Gf::with_modulus(8, &[1, 1, 1]),
            Err(FieldError::WrongModulusDegree {
                expected: 3,
                actual: 2
            })
        ));
    }

    #[test]
    fn with_modulus_alternative_gf8_still_a_field() {
        // The paper's GF(8) uses x^3 + x^2 + 1.
        let f = Gf::with_modulus(8, &[1, 0, 1, 1]).unwrap();
        axioms(&f);
    }

    #[test]
    fn frobenius_is_additive_in_char_p() {
        // (a + b)^p = a^p + b^p — a strong structural sanity check.
        for q in [4, 8, 9, 16, 25] {
            let f = Gf::new(q).unwrap();
            let p = f.characteristic();
            for a in f.elements() {
                for b in f.elements() {
                    assert_eq!(
                        f.pow(f.add(a, b), p),
                        f.add(f.pow(a, p), f.pow(b, p)),
                        "q = {q}"
                    );
                }
            }
        }
    }

    #[test]
    fn element_out_of_range() {
        let f = Gf::new(5).unwrap();
        assert!(f.element(4).is_ok());
        assert!(f.element(5).is_err());
    }
}
