//! Slim Fly / Slim NoC parameterization and MMS generator sets.
//!
//! The underlying graphs of Slim NoC are the MMS (McKay–Miller–Širáň)
//! graphs: routers are triples `[G | a, b]` with `G ∈ {0, 1}` a subgroup
//! type and `a, b ∈ GF(q)`, connected by Eqs. (8)–(10) of the paper:
//!
//! - `[0|a,b] ⇌ [0|a,b']  ⇔  b − b' ∈ X`
//! - `[1|m,c] ⇌ [1|m,c']  ⇔  c − c' ∈ X'`
//! - `[0|a,b] ⇌ [1|m,c]  ⇔  b = m·a + c`
//!
//! This module computes the parameter set (`q = 4w + u`, `N_r = 2q²`,
//! `k' = (3q − u)/2`) and the generator sets `X`, `X'`.
//!
//! # Generator-set correctness
//!
//! Diameter 2 of the resulting graph is equivalent to the following
//! algebraic conditions, which [`GeneratorSets::generate`] verifies for
//! every field it accepts (the construction is §3.5.2 of the paper;
//! `snoc repro table3` prints the sets for GF(9) and GF(8), see the
//! README's "Reproducing figures and tables"):
//!
//! 1. `X = −X`, `X' = −X'`, and `0 ∉ X ∪ X'` (symmetry);
//! 2. `X ∪ X' = GF(q)*` (cross-type coverage);
//! 3. every `d ∉ X ∪ {0}` lies in `X + X`, and every `d ∉ X' ∪ {0}` lies
//!    in `X' + X'` (intra-subgroup distance-2 coverage).
//!
//! For `u = 1` (`q ≡ 1 mod 4`) the classical closed form is used
//! (`X` = even powers of ξ, `X'` = odd powers); for `u = 0` (`q` a power
//! of two) `X` = even-exponent powers and `X' = ξ·X`; for `u = −1`
//! (`q ≡ 3 mod 4`) a small verified search over symmetric candidate sets
//! is performed.

use crate::error::FieldError;
use crate::gf::{Elem, Gf};
use crate::prime::factor_prime_power;

/// The Slim Fly / Slim NoC structural parameters derived from `q`.
///
/// # Examples
///
/// ```
/// use snoc_field::SlimFlyParams;
///
/// // The paper's SN-L design: q = 9 (a prime power, so a non-prime field).
/// let p = SlimFlyParams::new(9)?;
/// assert_eq!(p.router_count(), 162);
/// assert_eq!(p.network_radix(), 13);
/// assert_eq!(p.group_count(), 9);
/// assert_eq!(p.nodes_with(8), 1296);
/// # Ok::<(), snoc_field::FieldError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlimFlyParams {
    q: usize,
    u: i64,
}

impl SlimFlyParams {
    /// Derives the parameters for a given prime-power `q`.
    ///
    /// `q` must satisfy `q = 4w + u` with `u ∈ {−1, 0, 1}`; all prime
    /// powers qualify except `q = 2`, which the paper nevertheless lists in
    /// Table 2 (`N_r = 8`, `k' = 3`) and which we support as the natural
    /// `u = 0` limit.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::NotPrimePower`] if `q` is not a prime power.
    pub fn new(q: usize) -> Result<Self, FieldError> {
        if factor_prime_power(q).is_none() {
            return Err(FieldError::NotPrimePower { q });
        }
        let u = match q % 4 {
            0 => 0,
            1 => 1,
            3 => -1,
            2 if q == 2 => 0,
            _ => return Err(FieldError::NotMmsCompatible { q }),
        };
        Ok(SlimFlyParams { q, u })
    }

    /// The input parameter `q`.
    #[must_use]
    pub fn q(&self) -> usize {
        self.q
    }

    /// The residue `u ∈ {−1, 0, 1}` with `q = 4w + u`.
    #[must_use]
    pub fn u(&self) -> i64 {
        self.u
    }

    /// Number of routers `N_r = 2q²`.
    #[must_use]
    pub fn router_count(&self) -> usize {
        2 * self.q * self.q
    }

    /// Network radix `k' = (3q − u)/2` — channels to other routers.
    #[must_use]
    pub fn network_radix(&self) -> usize {
        ((3 * self.q as i64 - self.u) / 2) as usize
    }

    /// Size of each generator set, `|X| = |X'| = (q − u)/2` — the
    /// intra-subgroup degree.
    #[must_use]
    pub fn generator_set_size(&self) -> usize {
        ((self.q as i64 - self.u) / 2) as usize
    }

    /// Number of groups (`q`, each merging one subgroup of each type).
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.q
    }

    /// The "ideal" concentration `p = ⌈k'/2⌉` from Table 2 (κ = 0).
    #[must_use]
    pub fn ideal_concentration(&self) -> usize {
        self.network_radix().div_ceil(2)
    }

    /// Total node count `N = N_r · p` for a chosen concentration `p`.
    #[must_use]
    pub fn nodes_with(&self, concentration: usize) -> usize {
        self.router_count() * concentration
    }

    /// The Moore bound on vertices for diameter 2 and radix `k'`:
    /// `MB = k'² + 1`. MMS graphs approach this bound, which is the source
    /// of Slim NoC's scalability (§2.1).
    #[must_use]
    pub fn moore_bound(&self) -> usize {
        let k = self.network_radix();
        k * k + 1
    }

    /// Fraction of the Moore bound achieved: `N_r / MB`.
    #[must_use]
    pub fn moore_fraction(&self) -> f64 {
        self.router_count() as f64 / self.moore_bound() as f64
    }
}

/// The MMS generator sets `X` and `X'` over a field.
///
/// See the module docs for the correctness conditions these sets satisfy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratorSets {
    x: Vec<Elem>,
    x_prime: Vec<Elem>,
}

impl GeneratorSets {
    /// Derives verified generator sets for the given field.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::NotMmsCompatible`] if `q` does not fit the
    /// `4w + u` pattern, or [`FieldError::NoGeneratorSets`] if no valid
    /// sets exist (does not occur for any order used in the paper).
    pub fn generate(field: &Gf) -> Result<Self, FieldError> {
        let q = field.order();
        let params = SlimFlyParams::new(q)?;
        let u = params.u();

        // Closed forms first.
        let closed = match u {
            1 => Some(Self::even_odd_powers(field)),
            0 => Some(Self::even_powers_and_shift(field)),
            _ => None,
        };
        if let Some(sets) = closed {
            if sets.is_valid(field) {
                return Ok(sets);
            }
        }
        // Verified search (needed for u = −1; fallback otherwise).
        Self::search(field, params).ok_or(FieldError::NoGeneratorSets { q })
    }

    /// `X` — intra-subgroup generator set for type-0 subgroups.
    #[must_use]
    pub fn x(&self) -> &[Elem] {
        &self.x
    }

    /// `X'` — intra-subgroup generator set for type-1 subgroups.
    #[must_use]
    pub fn x_prime(&self) -> &[Elem] {
        &self.x_prime
    }

    /// u = 1 closed form: `X` = even powers of ξ, `X'` = odd powers.
    fn even_odd_powers(field: &Gf) -> Self {
        let q = field.order();
        let xi = field.generator();
        let mut x = Vec::new();
        let mut x_prime = Vec::new();
        for e in 0..q - 1 {
            let v = field.pow(xi, e);
            if e % 2 == 0 {
                x.push(v);
            } else {
                x_prime.push(v);
            }
        }
        x.sort_unstable();
        x_prime.sort_unstable();
        GeneratorSets { x, x_prime }
    }

    /// u = 0 closed form (q a power of two): `X` = even-exponent powers of
    /// ξ, `X' = ξ·X`. Since `q − 1` is odd, `X ∪ ξX` covers all of `GF(q)*`
    /// with exactly one overlap.
    fn even_powers_and_shift(field: &Gf) -> Self {
        let q = field.order();
        let xi = field.generator();
        let mut x = Vec::new();
        let mut e = 0;
        while e <= q.saturating_sub(2) {
            x.push(field.pow(xi, e));
            e += 2;
        }
        let mut x_prime: Vec<Elem> = x.iter().map(|&v| field.mul(xi, v)).collect();
        x.sort_unstable();
        x_prime.sort_unstable();
        GeneratorSets { x, x_prime }
    }

    /// Exhaustive search over symmetric candidate sets (u = −1 case).
    ///
    /// `X` is chosen as `(q+1)/4` symmetric pairs `{v, −v}`; `X'` must
    /// contain the complement of `X` in `GF(q)*` plus one extra pair from
    /// `X`. All candidates are validated against the full condition set.
    fn search(field: &Gf, params: SlimFlyParams) -> Option<Self> {
        let q = field.order();
        let set_size = params.generator_set_size();

        // Collect symmetric pairs {v, -v}; in characteristic 2 every
        // element is its own negation, so "pairs" are singletons.
        let mut pairs: Vec<Vec<Elem>> = Vec::new();
        let mut seen = vec![false; q];
        for v in field.nonzero_elements() {
            if seen[v.index()] {
                continue;
            }
            let nv = field.neg(v);
            seen[v.index()] = true;
            seen[nv.index()] = true;
            if nv == v {
                pairs.push(vec![v]);
            } else {
                pairs.push(vec![v, nv]);
            }
        }

        // Enumerate subsets of pairs whose total size is `set_size`.
        let n = pairs.len();
        for mask in 0u64..(1u64 << n) {
            let x: Vec<Elem> = (0..n)
                .filter(|&i| mask >> i & 1 == 1)
                .flat_map(|i| pairs[i].iter().copied())
                .collect();
            if x.len() != set_size {
                continue;
            }
            // X' must cover the complement; fill the remainder with pairs
            // drawn from X (or from anywhere, for full generality).
            let complement: Vec<Elem> = field
                .nonzero_elements()
                .filter(|v| !x.contains(v))
                .collect();
            if complement.len() > set_size {
                continue;
            }
            let deficit = set_size - complement.len();
            // Choose extra pairs out of the pair list to top up X'.
            for extra_mask in 0u64..(1u64 << n) {
                let extra: Vec<Elem> = (0..n)
                    .filter(|&i| extra_mask >> i & 1 == 1)
                    .flat_map(|i| pairs[i].iter().copied())
                    .filter(|v| !complement.contains(v))
                    .collect();
                if extra.len() != deficit
                    || (0..n).any(|i| {
                        extra_mask >> i & 1 == 1 && pairs[i].iter().all(|v| complement.contains(v))
                    })
                {
                    continue;
                }
                let mut x_prime = complement.clone();
                x_prime.extend(extra.iter().copied());
                let mut x_sorted = x.clone();
                x_sorted.sort_unstable();
                x_prime.sort_unstable();
                let cand = GeneratorSets {
                    x: x_sorted,
                    x_prime,
                };
                if cand.is_valid(field) {
                    return Some(cand);
                }
            }
        }
        None
    }

    /// Validates the diameter-2 sufficient conditions (see module docs).
    #[must_use]
    pub fn is_valid(&self, field: &Gf) -> bool {
        let q = field.order();
        let in_x = Self::membership(q, &self.x);
        let in_xp = Self::membership(q, &self.x_prime);

        // Condition 1: symmetry, no zero.
        if in_x[0] || in_xp[0] {
            return false;
        }
        for v in field.nonzero_elements() {
            let nv = field.neg(v).index();
            if in_x[v.index()] != in_x[nv] || in_xp[v.index()] != in_xp[nv] {
                return false;
            }
        }
        // Condition 2: X ∪ X' = GF(q)*.
        for v in field.nonzero_elements() {
            if !in_x[v.index()] && !in_xp[v.index()] {
                return false;
            }
        }
        // Condition 3: non-members are sums of two members.
        Self::sums_cover(field, &self.x, &in_x) && Self::sums_cover(field, &self.x_prime, &in_xp)
    }

    fn membership(q: usize, set: &[Elem]) -> Vec<bool> {
        let mut m = vec![false; q];
        for &v in set {
            m[v.index()] = true;
        }
        m
    }

    fn sums_cover(field: &Gf, set: &[Elem], members: &[bool]) -> bool {
        let q = field.order();
        let mut reachable = vec![false; q];
        for &a in set {
            for &b in set {
                reachable[field.add(a, b).index()] = true;
            }
        }
        (1..q).all(|d| members[d] || reachable[d])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_match_paper_table2() {
        // (q, k', N_r) rows of Table 2.
        let rows = [
            (2, 3, 8),
            (3, 5, 18),
            (4, 6, 32),
            (5, 7, 50),
            (7, 11, 98),
            (8, 12, 128),
            (9, 13, 162),
        ];
        for (q, k, nr) in rows {
            let p = SlimFlyParams::new(q).unwrap();
            assert_eq!(p.network_radix(), k, "q = {q}");
            assert_eq!(p.router_count(), nr, "q = {q}");
        }
    }

    #[test]
    fn ideal_concentration_matches_table2() {
        // Table 2's "ideal concentration" column p = ⌈k'/2⌉.
        let rows = [(2, 2), (3, 3), (4, 3), (5, 4), (7, 6), (8, 6), (9, 7)];
        for (q, p_ideal) in rows {
            let p = SlimFlyParams::new(q).unwrap();
            assert_eq!(p.ideal_concentration(), p_ideal, "q = {q}");
        }
    }

    #[test]
    fn paper_design_points() {
        // SN-S: q = 5, p = 4 -> 200 nodes, 50 routers, k' = 7.
        let sn_s = SlimFlyParams::new(5).unwrap();
        assert_eq!(sn_s.nodes_with(4), 200);
        assert_eq!(sn_s.network_radix(), 7);
        // SN-L: q = 9, p = 8 -> 1296 nodes, 162 routers, k' = 13.
        let sn_l = SlimFlyParams::new(9).unwrap();
        assert_eq!(sn_l.nodes_with(8), 1296);
        assert_eq!(sn_l.network_radix(), 13);
        // Power-of-two design: q = 8, p = 8 -> 1024 nodes, radix 12.
        let sn_p2 = SlimFlyParams::new(8).unwrap();
        assert_eq!(sn_p2.nodes_with(8), 1024);
        assert_eq!(sn_p2.network_radix(), 12);
    }

    #[test]
    fn u_values() {
        assert_eq!(SlimFlyParams::new(5).unwrap().u(), 1);
        assert_eq!(SlimFlyParams::new(9).unwrap().u(), 1);
        assert_eq!(SlimFlyParams::new(13).unwrap().u(), 1);
        assert_eq!(SlimFlyParams::new(4).unwrap().u(), 0);
        assert_eq!(SlimFlyParams::new(8).unwrap().u(), 0);
        assert_eq!(SlimFlyParams::new(16).unwrap().u(), 0);
        assert_eq!(SlimFlyParams::new(3).unwrap().u(), -1);
        assert_eq!(SlimFlyParams::new(7).unwrap().u(), -1);
        assert_eq!(SlimFlyParams::new(11).unwrap().u(), -1);
        assert_eq!(SlimFlyParams::new(2).unwrap().u(), 0);
    }

    #[test]
    fn rejects_non_prime_power_q() {
        assert!(SlimFlyParams::new(6).is_err());
        assert!(SlimFlyParams::new(12).is_err());
    }

    #[test]
    fn moore_fraction_is_high() {
        // MMS graphs reach ≈ 8/9 of the Moore bound asymptotically.
        for q in [5, 7, 8, 9, 11, 13] {
            let p = SlimFlyParams::new(q).unwrap();
            let f = p.moore_fraction();
            assert!(f > 0.7 && f <= 1.0, "q = {q}: fraction {f}");
        }
    }

    #[test]
    fn generator_sets_valid_for_all_paper_orders() {
        for q in [2, 3, 4, 5, 7, 8, 9] {
            let field = Gf::new(q).unwrap();
            let sets = GeneratorSets::generate(&field).unwrap();
            assert!(sets.is_valid(&field), "q = {q}");
            let expected = SlimFlyParams::new(q).unwrap().generator_set_size();
            assert_eq!(sets.x().len(), expected, "q = {q}");
            assert_eq!(sets.x_prime().len(), expected, "q = {q}");
        }
    }

    #[test]
    fn generator_sets_valid_for_larger_orders() {
        for q in [11, 13, 16, 17, 19, 25] {
            let field = Gf::new(q).unwrap();
            let sets = GeneratorSets::generate(&field).unwrap();
            assert!(sets.is_valid(&field), "q = {q}");
        }
    }

    #[test]
    fn gf9_x_set_matches_paper() {
        // Paper §3.5.2: X = {1, x, 2, u}, X' = {v, y, z, w} in its naming,
        // i.e. indices {1, 6, 2, 3} and {4, 7, 8, 5}.
        let field = Gf::new(9).unwrap();
        let sets = GeneratorSets::generate(&field).unwrap();
        let x: Vec<usize> = sets.x().iter().map(|e| e.index()).collect();
        let xp: Vec<usize> = sets.x_prime().iter().map(|e| e.index()).collect();
        assert_eq!(x, vec![1, 2, 3, 6]);
        assert_eq!(xp, vec![4, 5, 7, 8]);
    }

    #[test]
    fn sets_are_disjoint_when_u_is_one() {
        // For u = 1 the even/odd powers partition GF(q)*.
        for q in [5, 9, 13] {
            let field = Gf::new(q).unwrap();
            let sets = GeneratorSets::generate(&field).unwrap();
            for v in sets.x() {
                assert!(!sets.x_prime().contains(v), "q = {q}");
            }
        }
    }
}
