//! The edge price `α` as an exact rational.
//!
//! Equilibria are defined by *strict* cost improvement, and the paper uses
//! fractional prices such as `1/2`, `4.5`, and `104.5` in its witness
//! graphs. Floating point cannot certify a strict inequality at those
//! boundaries, so `α = num/den` is stored exactly and every cost comparison
//! is carried out in `i128` after multiplying through the denominator.

use crate::error::GameError;
use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

/// The edge price `α > 0` as a reduced exact rational.
///
/// # Examples
///
/// ```
/// use bncg_core::Alpha;
///
/// let a = Alpha::from_ratio(209, 2)?; // 104.5
/// assert_eq!(a.to_string(), "209/2");
/// assert_eq!(a.as_f64(), 104.5);
/// assert!(a > Alpha::integer(104)?);
/// assert!(a < Alpha::integer(105)?);
/// # Ok::<(), bncg_core::GameError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Alpha {
    num: i64,
    den: i64,
}

const fn gcd(mut a: i64, mut b: i64) -> i64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Alpha {
    /// Creates `α = num/den`, reduced.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::InvalidAlpha`] unless `num > 0` and `den > 0`.
    pub fn from_ratio(num: i64, den: i64) -> Result<Self, GameError> {
        if num <= 0 || den <= 0 {
            return Err(GameError::InvalidAlpha);
        }
        let g = gcd(num, den);
        Ok(Alpha {
            num: num / g,
            den: den / g,
        })
    }

    /// Creates an integer `α = k`.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::InvalidAlpha`] unless `k > 0`.
    pub fn integer(k: i64) -> Result<Self, GameError> {
        Alpha::from_ratio(k, 1)
    }

    /// Numerator of the reduced fraction.
    #[must_use]
    pub fn num(&self) -> i64 {
        self.num
    }

    /// Denominator of the reduced fraction.
    #[must_use]
    pub fn den(&self) -> i64 {
        self.den
    }

    /// Approximate value as `f64` (for reporting only — never used in
    /// equilibrium decisions).
    #[must_use]
    pub fn as_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// The exact scaled cost key `den·dist + num·edges` used for comparing
    /// agent costs `α·edges + dist` without rationals.
    #[must_use]
    pub fn cost_key(&self, edges: u32, dist: u64) -> i128 {
        i128::from(self.num) * i128::from(edges) + i128::from(self.den) * i128::from(dist)
    }

    /// Exact comparison `α ⋈ p/q` for a non-negative rational `p/q`.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`.
    #[must_use]
    pub(crate) fn cmp_ratio(&self, p: i64, q: i64) -> Ordering {
        assert!(q > 0, "comparison denominator must be positive");
        (i128::from(self.num) * i128::from(q)).cmp(&(i128::from(p) * i128::from(self.den)))
    }

    /// Exact test `α · k < value` for integer `k ≥ 0` and integer `value`,
    /// i.e. whether a distance saving of `value` pays for `k` extra edges.
    #[must_use]
    pub(crate) fn times_lt(&self, k: u64, value: u64) -> bool {
        i128::from(self.num) * i128::from(k) < i128::from(self.den) * i128::from(value)
    }

    /// `⌈α⌉` as an integer (α is positive).
    #[must_use]
    pub fn ceil(&self) -> i64 {
        self.num.div_euclid(self.den) + i64::from(self.num % self.den != 0)
    }

    /// `⌊α⌋` as an integer.
    #[must_use]
    pub fn floor(&self) -> i64 {
        self.num.div_euclid(self.den)
    }
}

impl PartialOrd for Alpha {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Alpha {
    fn cmp(&self, other: &Self) -> Ordering {
        (i128::from(self.num) * i128::from(other.den))
            .cmp(&(i128::from(other.num) * i128::from(self.den)))
    }
}

impl fmt::Display for Alpha {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl FromStr for Alpha {
    type Err = GameError;

    /// Parses `"3"`, `"3/2"`, or a decimal such as `"104.5"`.
    fn from_str(s: &str) -> Result<Self, GameError> {
        let s = s.trim();
        if let Some((p, q)) = s.split_once('/') {
            let num: i64 = p.trim().parse().map_err(|_| GameError::InvalidAlpha)?;
            let den: i64 = q.trim().parse().map_err(|_| GameError::InvalidAlpha)?;
            return Alpha::from_ratio(num, den);
        }
        if let Some((int, frac)) = s.split_once('.') {
            if frac.is_empty() || !frac.bytes().all(|b| b.is_ascii_digit()) {
                return Err(GameError::InvalidAlpha);
            }
            let scale = 10i64
                .checked_pow(frac.len() as u32)
                .ok_or(GameError::InvalidAlpha)?;
            let int_part: i64 = if int.is_empty() {
                0
            } else {
                int.parse().map_err(|_| GameError::InvalidAlpha)?
            };
            let frac_part: i64 = frac.parse().map_err(|_| GameError::InvalidAlpha)?;
            return Alpha::from_ratio(
                int_part
                    .checked_mul(scale)
                    .and_then(|v| v.checked_add(frac_part))
                    .ok_or(GameError::InvalidAlpha)?,
                scale,
            );
        }
        let k: i64 = s.parse().map_err(|_| GameError::InvalidAlpha)?;
        Alpha::integer(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_and_display() {
        let a = Alpha::from_ratio(6, 4).unwrap();
        assert_eq!((a.num(), a.den()), (3, 2));
        assert_eq!(a.to_string(), "3/2");
        assert_eq!(Alpha::integer(7).unwrap().to_string(), "7");
    }

    #[test]
    fn rejects_nonpositive() {
        assert_eq!(Alpha::from_ratio(0, 1), Err(GameError::InvalidAlpha));
        assert_eq!(Alpha::from_ratio(-1, 2), Err(GameError::InvalidAlpha));
        assert_eq!(Alpha::from_ratio(1, 0), Err(GameError::InvalidAlpha));
        assert_eq!(Alpha::integer(0), Err(GameError::InvalidAlpha));
    }

    #[test]
    fn ordering_is_exact() {
        let half = Alpha::from_ratio(1, 2).unwrap();
        let third = Alpha::from_ratio(1, 3).unwrap();
        assert!(third < half);
        assert!(half < Alpha::integer(1).unwrap());
        assert_eq!(half.cmp(&Alpha::from_ratio(2, 4).unwrap()), Ordering::Equal);
    }

    #[test]
    fn cost_key_orders_costs() {
        // α = 3/2: cost(2 edges, dist 5) = 8; cost(1 edge, dist 7) = 8.5.
        let a = Alpha::from_ratio(3, 2).unwrap();
        assert!(a.cost_key(2, 5) < a.cost_key(1, 7));
        assert_eq!(a.cost_key(2, 5), a.cost_key(0, 8));
    }

    #[test]
    fn times_lt_certifies_strictness() {
        let a = Alpha::from_ratio(209, 2).unwrap(); // 104.5
        assert!(a.times_lt(1, 105)); // 104.5 < 105
        assert!(!a.times_lt(1, 104)); // 104.5 ≥ 104
        assert!(!a.times_lt(2, 209)); // 209 ≥ 209 (not strict)
    }

    #[test]
    fn parsing_forms() {
        assert_eq!("3".parse::<Alpha>().unwrap(), Alpha::integer(3).unwrap());
        assert_eq!(
            "1/2".parse::<Alpha>().unwrap(),
            Alpha::from_ratio(1, 2).unwrap()
        );
        assert_eq!(
            "104.5".parse::<Alpha>().unwrap(),
            Alpha::from_ratio(209, 2).unwrap()
        );
        assert_eq!(
            "4.5".parse::<Alpha>().unwrap(),
            Alpha::from_ratio(9, 2).unwrap()
        );
        assert!(".".parse::<Alpha>().is_err());
        assert!("x".parse::<Alpha>().is_err());
        assert!("-1".parse::<Alpha>().is_err());
        assert!("1.".parse::<Alpha>().is_err());
    }

    #[test]
    fn floor_and_ceil() {
        let a = Alpha::from_ratio(7, 2).unwrap();
        assert_eq!(a.floor(), 3);
        assert_eq!(a.ceil(), 4);
        let b = Alpha::integer(5).unwrap();
        assert_eq!(b.floor(), 5);
        assert_eq!(b.ceil(), 5);
    }

    #[test]
    fn cmp_ratio() {
        let a = Alpha::from_ratio(7, 2).unwrap();
        assert_eq!(a.cmp_ratio(7, 2), Ordering::Equal);
        assert_eq!(a.cmp_ratio(4, 1), Ordering::Less);
        assert_eq!(a.cmp_ratio(3, 1), Ordering::Greater);
    }
}
