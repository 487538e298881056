//! Runtime values and the bag algebra.
//!
//! Values are cheap to clone by construction: strings are `Arc<str>`, tuples are
//! `Arc<[Value]>`, and bags share their element vector behind an `Arc` with
//! copy-on-write mutation. The evaluator clones values per generated row, so keeping
//! `Value::clone` at a reference-count bump (rather than a deep copy) is what lets
//! comprehension evaluation run at memory bandwidth instead of allocator throughput.
//!
//! The bag operations (`difference`, `intersection`, `distinct`, `same_elements`,
//! `subbag_of`) run on hash-based multiplicity counts. `Value` implements [`Hash`]
//! consistently with its (numeric-coercing) `Eq`: `Int(2)` and `Float(2.0)` compare
//! equal and therefore hash identically, via the normalised bit pattern of the value
//! as an `f64`. `NaN` is equal only to `NaN` (every payload alike) and sorts above every
//! number, and `-0.0 == 0.0`; the hash canonicalises both the same way, so ordering,
//! equality and hash-based ops agree on every float.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::EvalError;

/// A runtime IQL value.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// Absent / unknown.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string (shared; clone is a refcount bump).
    Str(Arc<str>),
    /// A tuple of values (shared; clone is a refcount bump).
    Tuple(Arc<[Value]>),
    /// A bag (multiset) of values.
    Bag(Bag),
    /// The empty collection constant `Void`.
    Void,
    /// The unrestricted collection constant `Any`.
    Any,
}

impl Value {
    /// Shorthand for a string value.
    pub fn str(s: impl Into<Arc<str>>) -> Value {
        Value::Str(s.into())
    }

    /// Shorthand for a tuple value from a vector of components.
    pub fn tuple(items: Vec<Value>) -> Value {
        Value::Tuple(items.into())
    }

    /// Shorthand for a two-element tuple (the common `{key, value}` shape).
    pub fn pair(a: Value, b: Value) -> Value {
        Value::Tuple(Arc::from([a, b]))
    }

    /// True when the value is "truthy" in a filter position: only `Bool(true)` counts.
    pub fn as_bool(&self) -> Result<bool, EvalError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(EvalError::TypeError {
                context: "boolean context".into(),
                found: other.type_name().to_string(),
            }),
        }
    }

    /// Extract a bag, treating `Void` as the empty bag. Cheap: bags share their
    /// elements, so the returned clone is a refcount bump.
    pub fn expect_bag(&self) -> Result<Bag, EvalError> {
        match self {
            Value::Bag(b) => Ok(b.clone()),
            Value::Void => Ok(Bag::empty()),
            Value::Any => Err(EvalError::UnboundedExtent),
            other => Err(EvalError::TypeError {
                context: "collection context".into(),
                found: other.type_name().to_string(),
            }),
        }
    }

    /// Numeric view of the value, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Estimated resident bytes of this value tree — the cache-weighting
    /// heuristic shared by the byte-budgeted LRU stores. Deliberately rough:
    /// a flat per-node overhead (enum + allocation headers) plus string
    /// payloads; `Arc`-sharing is *not* discounted, so a value counted in two
    /// caches is budgeted in both (over-, never under-estimating residency).
    pub fn approx_bytes(&self) -> u64 {
        match self {
            Value::Null
            | Value::Bool(_)
            | Value::Int(_)
            | Value::Float(_)
            | Value::Void
            | Value::Any => 32,
            Value::Str(s) => 48 + s.len() as u64,
            Value::Tuple(items) => 48 + items.iter().map(Value::approx_bytes).sum::<u64>(),
            Value::Bag(bag) => bag.approx_bytes(),
        }
    }

    /// A short tag describing the value's type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Tuple(_) => "tuple",
            Value::Bag(_) => "bag",
            Value::Void => "Void",
            Value::Any => "Any",
        }
    }

    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 2, // ints and floats compare numerically
            Value::Str(_) => 3,
            Value::Tuple(_) => 4,
            Value::Bag(_) => 5,
            Value::Void => 6,
            Value::Any => 7,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) | (Void, Void) | (Any, Any) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => float_cmp(*a, *b),
            (Int(a), Float(b)) => float_cmp(*a as f64, *b),
            (Float(a), Int(b)) => float_cmp(*a, *b as f64),
            (Str(a), Str(b)) => a.cmp(b),
            (Tuple(a), Tuple(b)) => a[..].cmp(&b[..]),
            (Bag(a), Bag(b)) => a.canonical().cmp(&b.canonical()),
            (a, b) => a.rank().cmp(&b.rank()),
        }
    }
}

/// `Value`'s total order on floats: the IEEE order, with every `NaN` equal to
/// every other `NaN` and above every number (so `-0.0 == 0.0` still holds).
/// Equality is transitive and matches [`float_hash_bits`].
pub(crate) fn float_cmp(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b)
        .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

/// Normalise a float for hashing so that hash-equality follows `Eq`:
/// `-0.0 == 0.0` and `Int(n) == Float(n as f64)` must hash identically, and
/// every `NaN` canonicalises to one bit pattern.
fn float_hash_bits(f: f64) -> u64 {
    if f == 0.0 {
        0.0f64.to_bits()
    } else if f.is_nan() {
        f64::NAN.to_bits()
    } else {
        f.to_bits()
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            // Ints and floats compare numerically, so both hash the numeric value's
            // f64 bit pattern (ints beyond 2^53 may collide with their neighbours,
            // which only costs a bucket collision, never a wrong answer).
            Value::Int(i) => {
                state.write_u8(2);
                state.write_u64(float_hash_bits(*i as f64));
            }
            Value::Float(f) => {
                state.write_u8(2);
                state.write_u64(float_hash_bits(*f));
            }
            Value::Str(s) => {
                state.write_u8(3);
                s.hash(state);
            }
            Value::Tuple(items) => {
                state.write_u8(4);
                state.write_usize(items.len());
                for v in items.iter() {
                    v.hash(state);
                }
            }
            Value::Bag(b) => {
                state.write_u8(5);
                b.hash(state);
            }
            Value::Void => state.write_u8(6),
            Value::Any => state.write_u8(7),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.into())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into())
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Tuple(items) => {
                write!(f, "{{")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
            Value::Bag(b) => write!(f, "{b}"),
            Value::Void => write!(f, "Void"),
            Value::Any => write!(f, "Any"),
        }
    }
}

/// A bag (multiset) of values.
///
/// Bags preserve duplicates and insertion order; equality is defined on element
/// multiplicities (order-insensitive), matching the declarative reading of bag
/// semantics in the paper while keeping evaluation deterministic.
///
/// The element vector is shared behind an `Arc`: cloning a bag is O(1), and mutation
/// (`push`) copies only when the elements are actually shared (copy-on-write). This is
/// what lets extent caches hand out their bags without deep copies.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Bag {
    items: Arc<Vec<Value>>,
}

impl Bag {
    /// The empty bag.
    pub fn empty() -> Self {
        Bag::default()
    }

    /// Build a bag from a vector of values (order preserved).
    pub fn from_values(items: Vec<Value>) -> Self {
        Bag {
            items: Arc::new(items),
        }
    }

    /// Number of elements, counting duplicates.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the bag has no elements.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Append a value (copy-on-write: clones the elements only if shared).
    pub fn push(&mut self, value: Value) {
        Arc::make_mut(&mut self.items).push(value);
    }

    /// Iterate over elements in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Value> {
        self.items.iter()
    }

    /// The underlying elements in insertion order.
    pub fn items(&self) -> &[Value] {
        &self.items
    }

    /// Consume the bag, returning its elements (no copy when unshared).
    pub fn into_items(self) -> Vec<Value> {
        Arc::try_unwrap(self.items).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Estimated resident bytes of the bag and its elements (see
    /// [`Value::approx_bytes`] for the heuristic).
    pub fn approx_bytes(&self) -> u64 {
        64 + self.items.iter().map(Value::approx_bytes).sum::<u64>()
    }

    /// Multiplicity counts of every element, built in one pass.
    fn counts(&self) -> HashMap<&Value, usize> {
        let mut counts = HashMap::with_capacity(self.items.len());
        for v in self.items.iter() {
            *counts.entry(v).or_insert(0) += 1;
        }
        counts
    }

    /// Bag union `++`: concatenation of multiplicities. O(1) when either side is
    /// empty (the other side's elements are shared, not copied).
    pub fn union(&self, other: &Bag) -> Bag {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        let mut items = Vec::with_capacity(self.len() + other.len());
        items.extend(self.items.iter().cloned());
        items.extend(other.items.iter().cloned());
        Bag::from_values(items)
    }

    /// Bag difference (monus) `--`: removes one occurrence from `self` for each
    /// occurrence in `other`.
    pub fn difference(&self, other: &Bag) -> Bag {
        if other.is_empty() {
            return self.clone();
        }
        let mut counts = other.counts();
        let mut items = Vec::new();
        for v in self.items.iter() {
            match counts.get_mut(v) {
                Some(c) if *c > 0 => *c -= 1,
                _ => items.push(v.clone()),
            }
        }
        Bag::from_values(items)
    }

    /// Bag intersection: minimum of multiplicities.
    pub fn intersection(&self, other: &Bag) -> Bag {
        let mut counts = other.counts();
        let mut items = Vec::new();
        for v in self.items.iter() {
            if let Some(c) = counts.get_mut(v) {
                if *c > 0 {
                    *c -= 1;
                    items.push(v.clone());
                }
            }
        }
        Bag::from_values(items)
    }

    /// Whether a value occurs at least once in the bag.
    pub fn contains(&self, value: &Value) -> bool {
        self.items.contains(value)
    }

    /// Multiplicity of a value.
    pub fn multiplicity(&self, value: &Value) -> usize {
        self.items.iter().filter(|v| *v == value).count()
    }

    /// Duplicate-eliminated copy (set semantics), preserving first-occurrence order.
    pub fn distinct(&self) -> Bag {
        let mut seen: HashMap<&Value, ()> = HashMap::with_capacity(self.items.len());
        let mut items = Vec::new();
        for v in self.items.iter() {
            if let Entry::Vacant(slot) = seen.entry(v) {
                slot.insert(());
                items.push(v.clone());
            }
        }
        Bag::from_values(items)
    }

    /// A sorted copy of the elements, used for order-insensitive comparison.
    pub fn canonical(&self) -> Vec<Value> {
        let mut v = (*self.items).clone();
        v.sort();
        v
    }

    /// Whether two bags contain the same elements with the same multiplicities,
    /// regardless of order. Runs on hash counts: O(n) expected.
    pub fn same_elements(&self, other: &Bag) -> bool {
        if self.len() != other.len() {
            return false;
        }
        if Arc::ptr_eq(&self.items, &other.items) {
            return true;
        }
        let mut counts = self.counts();
        for v in other.items.iter() {
            match counts.get_mut(v) {
                Some(c) if *c > 0 => *c -= 1,
                _ => return false,
            }
        }
        true
    }

    /// Whether `self` is contained in `other` as a sub-bag (multiplicity-wise).
    pub fn subbag_of(&self, other: &Bag) -> bool {
        if self.len() > other.len() {
            return false;
        }
        let mut counts = other.counts();
        for v in self.items.iter() {
            match counts.get_mut(v) {
                Some(c) if *c > 0 => *c -= 1,
                _ => return false,
            }
        }
        true
    }
}

impl PartialEq for Bag {
    fn eq(&self, other: &Self) -> bool {
        self.same_elements(other)
    }
}

impl Eq for Bag {}

impl Hash for Bag {
    /// Order-insensitive hash: combines per-element hashes commutatively so equal
    /// bags (same multiset, any order) hash identically.
    fn hash<H: Hasher>(&self, state: &mut H) {
        let mut acc: u64 = 0;
        for v in self.items.iter() {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            acc = acc.wrapping_add(h.finish());
        }
        state.write_usize(self.items.len());
        state.write_u64(acc);
    }
}

impl FromIterator<Value> for Bag {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Bag::from_values(iter.into_iter().collect())
    }
}

impl fmt::Display for Bag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bag(vals: &[i64]) -> Bag {
        Bag::from_values(vals.iter().map(|v| Value::Int(*v)).collect())
    }

    fn hash_of(v: &impl Hash) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn union_preserves_multiplicities() {
        let u = bag(&[1, 2]).union(&bag(&[2, 3]));
        assert_eq!(u.len(), 4);
        assert_eq!(u.multiplicity(&Value::Int(2)), 2);
    }

    #[test]
    fn union_with_empty_shares_elements() {
        let a = bag(&[1, 2, 3]);
        let u = a.union(&Bag::empty());
        assert!(Arc::ptr_eq(&a.items, &u.items));
        let u2 = Bag::empty().union(&a);
        assert!(Arc::ptr_eq(&a.items, &u2.items));
    }

    #[test]
    fn difference_is_monus() {
        let d = bag(&[1, 2, 2, 3]).difference(&bag(&[2, 4]));
        assert_eq!(d.canonical(), bag(&[1, 2, 3]).canonical());
        // removing more than present leaves zero, not negative
        let d2 = bag(&[1]).difference(&bag(&[1, 1]));
        assert!(d2.is_empty());
    }

    #[test]
    fn intersection_takes_min_multiplicity() {
        let i = bag(&[1, 1, 2, 3]).intersection(&bag(&[1, 2, 2]));
        assert_eq!(i.canonical(), bag(&[1, 2]).canonical());
    }

    #[test]
    fn distinct_removes_duplicates_preserving_order() {
        let d = bag(&[3, 1, 3, 2, 1]).distinct();
        assert_eq!(d.items(), &[Value::Int(3), Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn bag_equality_is_order_insensitive() {
        assert_eq!(bag(&[1, 2, 3]), bag(&[3, 2, 1]));
        assert_ne!(bag(&[1, 2]), bag(&[1, 2, 2]));
    }

    #[test]
    fn subbag_relation() {
        assert!(bag(&[1, 2]).subbag_of(&bag(&[2, 1, 3])));
        assert!(!bag(&[1, 1]).subbag_of(&bag(&[1, 2])));
        assert!(Bag::empty().subbag_of(&bag(&[])));
    }

    #[test]
    fn value_mixed_numeric_equality() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert!(Value::Int(2) < Value::Float(2.5));
    }

    #[test]
    fn hash_agrees_with_numeric_equality() {
        assert_eq!(hash_of(&Value::Int(2)), hash_of(&Value::Float(2.0)));
        assert_eq!(hash_of(&Value::Float(0.0)), hash_of(&Value::Float(-0.0)));
        assert_eq!(hash_of(&Value::Int(0)), hash_of(&Value::Float(-0.0)));
        assert_ne!(hash_of(&Value::Int(2)), hash_of(&Value::Int(3)));
    }

    #[test]
    fn bag_hash_is_order_insensitive() {
        assert_eq!(
            hash_of(&Value::Bag(bag(&[1, 2, 3]))),
            hash_of(&Value::Bag(bag(&[3, 1, 2])))
        );
        let nested_a = Value::Bag(Bag::from_values(vec![
            Value::pair(Value::Int(1), Value::str("a")),
            Value::pair(Value::Int(2), Value::str("b")),
        ]));
        let nested_b = Value::Bag(Bag::from_values(vec![
            Value::pair(Value::Int(2), Value::str("b")),
            Value::pair(Value::Int(1), Value::str("a")),
        ]));
        assert_eq!(nested_a, nested_b);
        assert_eq!(hash_of(&nested_a), hash_of(&nested_b));
    }

    #[test]
    fn clone_shares_push_copies_on_write() {
        let a = bag(&[1, 2]);
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.items, &b.items));
        b.push(Value::Int(3));
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn expect_bag_treats_void_as_empty() {
        assert!(Value::Void.expect_bag().unwrap().is_empty());
        assert!(Value::Any.expect_bag().is_err());
        assert!(Value::Int(1).expect_bag().is_err());
    }

    #[test]
    fn display_nested() {
        let v = Value::tuple(vec![Value::str("PEDRO"), Value::Int(1)]);
        assert_eq!(v.to_string(), "{'PEDRO', 1}");
        let b = Bag::from_values(vec![v]);
        assert_eq!(b.to_string(), "[{'PEDRO', 1}]");
    }
}
