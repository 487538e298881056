//! Lexical environments, query-parameter bindings and pattern matching.

use crate::ast::{Literal, Pattern};
use crate::error::EvalError;
use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Named query-parameter bindings: the values a prepared query's `?name`
/// placeholders take for one execution.
///
/// Parameters are ordinary runtime [`Value`]s, so any value the language can
/// produce can be bound — including bags (e.g. the accession *group* of the
/// case study's Q2, probed with `member(?group, x)`). Binding is by name;
/// binding the same name again replaces the previous value.
///
/// ```
/// use iql::{Params, Value};
///
/// let params = Params::new()
///     .with("accession", "ACC00001")
///     .with("limit", 10);
/// assert_eq!(params.get("accession"), Some(&Value::str("ACC00001")));
/// assert_eq!(params.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Params {
    map: BTreeMap<String, Value>,
}

impl Params {
    /// An empty binding set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style binding: returns the set with `name` bound to `value`.
    pub fn with(mut self, name: impl Into<String>, value: impl Into<Value>) -> Self {
        self.set(name, value);
        self
    }

    /// Bind `name` to `value`, replacing any previous binding.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<Value>) {
        self.map.insert(name.into(), value.into());
    }

    /// The value bound to `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.map.get(name)
    }

    /// The bound names, in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.map.keys().map(String::as_str)
    }

    /// Number of bound names.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no parameter is bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl<N: Into<String>, V: Into<Value>> FromIterator<(N, V)> for Params {
    fn from_iter<T: IntoIterator<Item = (N, V)>>(iter: T) -> Self {
        let mut params = Params::new();
        for (name, value) in iter {
            params.set(name, value);
        }
        params
    }
}

/// A lexical environment mapping variable names to values.
///
/// Implemented as a persistent scope chain: each binding is a small frame holding one
/// `(name, value)` pair and an `Arc` pointer to its parent. Cloning an environment is
/// O(1) (it copies the head pointer), and binding a generator variable is O(1) (it
/// prepends a frame) — the evaluator clones an environment per generated row, so this
/// is the difference between O(1) and O(bindings · log bindings) per row. Lookup walks
/// the chain innermost-first, which also gives shadowing for free. Comprehension
/// environments hold a handful of variables, so the linear walk beats a tree.
/// Query parameters live beside the scope chain, not in it: a `?name`
/// placeholder can never be shadowed by a generator binding, and attaching a
/// whole binding set is one `Arc` clone regardless of how many parameters it
/// holds.
#[derive(Debug, Clone, Default)]
pub struct Env {
    head: Option<Arc<Frame>>,
    params: Option<Arc<Params>>,
}

#[derive(Debug)]
struct Frame {
    name: String,
    value: Value,
    parent: Option<Arc<Frame>>,
}

impl Env {
    /// The empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up a variable (innermost binding wins).
    pub fn get(&self, name: &str) -> Option<&Value> {
        let mut frame = self.head.as_deref();
        while let Some(f) = frame {
            if f.name == name {
                return Some(&f.value);
            }
            frame = f.parent.as_deref();
        }
        None
    }

    /// Bind a variable, shadowing any previous binding. O(1): prepends a frame.
    pub fn bind(&mut self, name: impl Into<String>, value: Value) {
        self.head = Some(Arc::new(Frame {
            name: name.into(),
            value,
            parent: self.head.take(),
        }));
    }

    /// A copy of this environment with an extra binding. O(1).
    pub fn with(&self, name: impl Into<String>, value: Value) -> Env {
        let mut e = self.clone();
        e.bind(name, value);
        e
    }

    /// A copy of this environment carrying the given query-parameter bindings
    /// (replacing any previously attached set). O(1) per later clone: the set
    /// is shared behind an `Arc`.
    pub fn with_params(&self, params: Params) -> Env {
        let mut e = self.clone();
        e.params = Some(Arc::new(params));
        e
    }

    /// The value bound to query parameter `?name`, if any.
    pub fn param(&self, name: &str) -> Option<&Value> {
        self.params.as_deref()?.get(name)
    }

    /// Names bound in this environment, in sorted order (shadowed duplicates
    /// appear once).
    pub fn names(&self) -> impl Iterator<Item = &str> {
        let mut names = BTreeSet::new();
        let mut frame = self.head.as_deref();
        while let Some(f) = frame {
            names.insert(f.name.as_str());
            frame = f.parent.as_deref();
        }
        names.into_iter()
    }

    /// Number of distinct bound names.
    pub fn len(&self) -> usize {
        self.names().count()
    }

    /// Whether the environment is empty.
    pub fn is_empty(&self) -> bool {
        self.head.is_none()
    }

    /// The visible bindings as a map (innermost binding per name).
    fn flatten(&self) -> BTreeMap<&str, &Value> {
        let mut map = BTreeMap::new();
        let mut frame = self.head.as_deref();
        while let Some(f) = frame {
            map.entry(f.name.as_str()).or_insert(&f.value);
            frame = f.parent.as_deref();
        }
        map
    }
}

impl PartialEq for Env {
    /// Environments compare by visible bindings (and attached parameters), not
    /// by chain structure.
    fn eq(&self, other: &Self) -> bool {
        self.flatten() == other.flatten()
            && self.params.as_deref().unwrap_or(&Params::new())
                == other.params.as_deref().unwrap_or(&Params::new())
    }
}

/// Attempt to match `value` against `pattern`, extending `env` with the bindings.
///
/// Returns `Ok(true)` if the pattern matches, `Ok(false)` if it does not (e.g. a
/// literal pattern over a different value — the element is simply skipped by the
/// comprehension), and `Err` only for structural mismatches that indicate a programming
/// error (destructuring a non-tuple with a tuple pattern of different shape is treated
/// as a non-match, not an error, to follow comprehension filtering semantics).
pub fn match_pattern(pattern: &Pattern, value: &Value, env: &mut Env) -> Result<bool, EvalError> {
    match pattern {
        Pattern::Wildcard => Ok(true),
        Pattern::Var(name) => {
            env.bind(name.clone(), value.clone());
            Ok(true)
        }
        Pattern::Lit(lit) => Ok(&literal_value(lit) == value),
        Pattern::Tuple(parts) => match value {
            Value::Tuple(items) if items.len() == parts.len() => {
                for (p, v) in parts.iter().zip(items.iter()) {
                    if !match_pattern(p, v, env)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            _ => Ok(false),
        },
    }
}

/// Convert a literal AST node to its runtime value.
pub fn literal_value(lit: &Literal) -> Value {
    match lit {
        Literal::Int(i) => Value::Int(*i),
        Literal::Float(f) => Value::Float(*f),
        Literal::Str(s) => Value::str(s.as_str()),
        Literal::Bool(b) => Value::Bool(*b),
        Literal::Null => Value::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_pattern_binds() {
        let mut env = Env::new();
        assert!(match_pattern(&Pattern::Var("x".into()), &Value::Int(3), &mut env).unwrap());
        assert_eq!(env.get("x"), Some(&Value::Int(3)));
    }

    #[test]
    fn tuple_pattern_destructures() {
        let mut env = Env::new();
        let pat = Pattern::Tuple(vec![Pattern::Var("k".into()), Pattern::Var("v".into())]);
        let val = Value::pair(Value::Int(1), Value::str("P100"));
        assert!(match_pattern(&pat, &val, &mut env).unwrap());
        assert_eq!(env.get("k"), Some(&Value::Int(1)));
        assert_eq!(env.get("v"), Some(&Value::str("P100")));
    }

    #[test]
    fn arity_mismatch_is_a_non_match() {
        let mut env = Env::new();
        let pat = Pattern::Tuple(vec![Pattern::Var("k".into()), Pattern::Var("v".into())]);
        assert!(!match_pattern(&pat, &Value::tuple(vec![Value::Int(1)]), &mut env).unwrap());
        assert!(!match_pattern(&pat, &Value::Int(1), &mut env).unwrap());
    }

    #[test]
    fn literal_pattern_filters() {
        let mut env = Env::new();
        let pat = Pattern::Tuple(vec![
            Pattern::Lit(Literal::Str("PEDRO".into())),
            Pattern::Var("k".into()),
        ]);
        let yes = Value::pair(Value::str("PEDRO"), Value::Int(7));
        let no = Value::pair(Value::str("gpmDB"), Value::Int(7));
        assert!(match_pattern(&pat, &yes, &mut env).unwrap());
        assert!(!match_pattern(&pat, &no, &mut env).unwrap());
    }

    #[test]
    fn with_does_not_mutate_original() {
        let env = Env::new();
        let env2 = env.with("x", Value::Int(1));
        assert!(env.get("x").is_none());
        assert_eq!(env2.get("x"), Some(&Value::Int(1)));
        assert_eq!(env2.len(), 1);
        assert!(env.is_empty());
    }

    #[test]
    fn shadowing_and_distinct_len() {
        let mut env = Env::new();
        env.bind("x", Value::Int(1));
        env.bind("y", Value::Int(2));
        env.bind("x", Value::Int(3));
        assert_eq!(env.get("x"), Some(&Value::Int(3)));
        assert_eq!(env.len(), 2);
        assert_eq!(env.names().collect::<Vec<_>>(), vec!["x", "y"]);
    }

    #[test]
    fn equality_sees_through_chain_structure() {
        let mut a = Env::new();
        a.bind("x", Value::Int(1));
        a.bind("x", Value::Int(2));
        let mut b = Env::new();
        b.bind("x", Value::Int(2));
        assert_eq!(a, b);
        let c = b.with("y", Value::Int(9));
        assert_ne!(b, c);
    }

    #[test]
    fn clones_share_parents_cheaply() {
        let mut base = Env::new();
        base.bind("shared", Value::Int(1));
        // Two children extend the same parent without copying it.
        let left = base.with("l", Value::Int(2));
        let right = base.with("r", Value::Int(3));
        assert_eq!(left.get("shared"), Some(&Value::Int(1)));
        assert_eq!(right.get("shared"), Some(&Value::Int(1)));
        assert!(left.get("r").is_none());
        assert!(right.get("l").is_none());
    }
}
