//! Scalar values and tuples carried by HDM extents.
//!
//! HDM extents are bags of flat tuples of scalar values. Richer value structure
//! (nested bags, named records) lives in the IQL layer; at the HDM level every extent
//! row is a [`HdmTuple`] of [`HdmValue`]s.

use std::cmp::Ordering;
use std::fmt;

/// A scalar value stored in an HDM extent.
#[derive(Debug, Clone)]
pub enum HdmValue {
    /// Absent / unknown value.
    Null,
    /// Boolean value.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. `NaN` is normalised to `Null` on construction via [`HdmValue::float`].
    Float(f64),
    /// UTF-8 string.
    Str(String),
}

impl HdmValue {
    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Self {
        HdmValue::Str(s.into())
    }

    /// Build a float value, normalising `NaN` to `Null` so that ordering is total.
    pub fn float(f: f64) -> Self {
        if f.is_nan() {
            HdmValue::Null
        } else {
            HdmValue::Float(f)
        }
    }

    /// True if the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, HdmValue::Null)
    }

    /// A short tag describing the value's type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            HdmValue::Null => "null",
            HdmValue::Bool(_) => "bool",
            HdmValue::Int(_) => "int",
            HdmValue::Float(_) => "float",
            HdmValue::Str(_) => "string",
        }
    }

    fn rank(&self) -> u8 {
        match self {
            HdmValue::Null => 0,
            HdmValue::Bool(_) => 1,
            HdmValue::Int(_) => 2,
            HdmValue::Float(_) => 3,
            HdmValue::Str(_) => 4,
        }
    }
}

impl PartialEq for HdmValue {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for HdmValue {}

impl PartialOrd for HdmValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HdmValue {
    fn cmp(&self, other: &Self) -> Ordering {
        use HdmValue::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b).unwrap_or(Ordering::Equal),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)).unwrap_or(Ordering::Equal),
            (Str(a), Str(b)) => a.cmp(b),
            (a, b) => a.rank().cmp(&b.rank()),
        }
    }
}

impl std::hash::Hash for HdmValue {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            HdmValue::Null => 0u8.hash(state),
            HdmValue::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            HdmValue::Int(i) => {
                2u8.hash(state);
                i.hash(state);
            }
            HdmValue::Float(f) => {
                // Hash floats through their bit pattern; equal ints/floats may hash
                // differently but hashing is only used for grouping identical rows.
                3u8.hash(state);
                f.to_bits().hash(state);
            }
            HdmValue::Str(s) => {
                4u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for HdmValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HdmValue::Null => write!(f, "null"),
            HdmValue::Bool(b) => write!(f, "{b}"),
            HdmValue::Int(i) => write!(f, "{i}"),
            HdmValue::Float(x) => write!(f, "{x}"),
            HdmValue::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for HdmValue {
    fn from(v: i64) -> Self {
        HdmValue::Int(v)
    }
}

impl From<&str> for HdmValue {
    fn from(v: &str) -> Self {
        HdmValue::Str(v.to_string())
    }
}

impl From<String> for HdmValue {
    fn from(v: String) -> Self {
        HdmValue::Str(v)
    }
}

impl From<bool> for HdmValue {
    fn from(v: bool) -> Self {
        HdmValue::Bool(v)
    }
}

impl From<f64> for HdmValue {
    fn from(v: f64) -> Self {
        HdmValue::float(v)
    }
}

/// A flat tuple of scalar values: one row of an HDM extent.
pub type HdmTuple = Vec<HdmValue>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nan_is_normalised_to_null() {
        assert!(HdmValue::float(f64::NAN).is_null());
        assert_eq!(HdmValue::float(1.5), HdmValue::Float(1.5));
    }

    #[test]
    fn mixed_numeric_comparison() {
        assert_eq!(HdmValue::Int(2), HdmValue::Float(2.0));
        assert!(HdmValue::Int(2) < HdmValue::Float(2.5));
        assert!(HdmValue::Float(1.5) < HdmValue::Int(2));
    }

    #[test]
    fn ordering_is_total_across_types() {
        let mut vals = [
            HdmValue::str("b"),
            HdmValue::Null,
            HdmValue::Int(3),
            HdmValue::Bool(true),
            HdmValue::Float(0.5),
            HdmValue::str("a"),
        ];
        vals.sort();
        assert_eq!(vals[0], HdmValue::Null);
        assert_eq!(vals.last().unwrap(), &HdmValue::str("b"));
    }

    #[test]
    fn display_round_trips_the_shape() {
        assert_eq!(HdmValue::str("abc").to_string(), "'abc'");
        assert_eq!(HdmValue::Int(7).to_string(), "7");
        assert_eq!(HdmValue::Null.to_string(), "null");
    }

    #[test]
    fn conversions() {
        assert_eq!(HdmValue::from(3i64), HdmValue::Int(3));
        assert_eq!(HdmValue::from("x"), HdmValue::str("x"));
        assert_eq!(HdmValue::from(true), HdmValue::Bool(true));
    }
}
