//! The IQL abstract syntax tree.

use std::fmt;
use std::hash::{Hash, Hasher};

/// A reference to a schema object by its *scheme*, e.g. `⟨⟨protein, accession_num⟩⟩`.
///
/// Scheme parts follow the paper's abbreviated relational convention: a single part
/// names a table, two parts name a column of a table. Longer schemes (including an
/// explicit modelling-language prefix such as `sql`) are also representable.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SchemeRef {
    /// The scheme elements, e.g. `["protein", "accession_num"]`.
    pub parts: Vec<String>,
}

impl SchemeRef {
    /// Build a scheme reference from its parts.
    pub fn new<I, S>(parts: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        SchemeRef {
            parts: parts.into_iter().map(Into::into).collect(),
        }
    }

    /// A scheme naming a table-like object.
    pub fn table(name: impl Into<String>) -> Self {
        SchemeRef::new([name.into()])
    }

    /// A scheme naming a column-like object.
    pub fn column(table: impl Into<String>, column: impl Into<String>) -> Self {
        SchemeRef::new([table.into(), column.into()])
    }

    /// A canonical string key for the scheme (comma-joined parts).
    pub fn key(&self) -> String {
        self.parts.join(",")
    }

    /// Build a new scheme with every part prefixed by `prefix_` (used when federating
    /// schemas to record provenance and disambiguate equal names).
    pub fn prefixed(&self, prefix: &str) -> SchemeRef {
        SchemeRef {
            parts: self.parts.iter().map(|p| format!("{prefix}_{p}")).collect(),
        }
    }
}

impl fmt::Display for SchemeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<<{}>>", self.parts.join(", "))
    }
}

/// Literal constants.
///
/// `Literal` (and therefore every AST type built from it) implements [`Eq`] and
/// [`Hash`] so expressions can key hash maps — most importantly the
/// [`crate::PlanCache`], whose lookups hash the expression instead of
/// pretty-printing it. Floats compare with IEEE equality (so
/// `Float(-0.0) == Float(0.0)`) except that `NaN` equals `NaN` — the surface
/// syntax cannot spell one, but programmatically built expressions can, and
/// cache keying relies on `Eq`'s reflexivity holding for every constructible
/// `Expr`. Hashing canonicalises every `NaN` to one bit pattern, consistently.
#[derive(Debug, Clone)]
pub enum Literal {
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// String (single-quoted in the surface syntax).
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Null / absent value.
    Null,
}

impl PartialEq for Literal {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Literal::Int(a), Literal::Int(b)) => a == b,
            // IEEE equality except NaN == NaN, keeping Eq reflexive for
            // programmatically built expressions (consistent with Hash, which
            // canonicalises every NaN to one bit pattern).
            (Literal::Float(a), Literal::Float(b)) => a == b || (a.is_nan() && b.is_nan()),
            (Literal::Str(a), Literal::Str(b)) => a == b,
            (Literal::Bool(a), Literal::Bool(b)) => a == b,
            (Literal::Null, Literal::Null) => true,
            _ => false,
        }
    }
}

impl Eq for Literal {}

impl Hash for Literal {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Literal::Int(i) => {
                state.write_u8(0);
                i.hash(state);
            }
            Literal::Float(f) => {
                state.write_u8(1);
                // `-0.0 == 0.0` under PartialEq, so both must hash
                // identically; any NaN canonicalises to one bit pattern.
                let bits = if *f == 0.0 {
                    0.0f64.to_bits()
                } else if f.is_nan() {
                    f64::NAN.to_bits()
                } else {
                    f.to_bits()
                };
                bits.hash(state);
            }
            Literal::Str(s) => {
                state.write_u8(2);
                s.hash(state);
            }
            Literal::Bool(b) => {
                state.write_u8(3);
                b.hash(state);
            }
            Literal::Null => state.write_u8(4),
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Int(i) => write!(f, "{i}"),
            // A float with no fractional part must keep its decimal point, or the
            // printed form would reparse as an Int and break round-tripping.
            Literal::Float(x) if x.is_finite() && x.fract() == 0.0 => write!(f, "{x:.1}"),
            Literal::Float(x) => write!(f, "{x}"),
            // Escape backslashes before quotes, or a literal `\` would print as
            // the start of an escape sequence and break round-tripping.
            Literal::Str(s) => write!(f, "'{}'", s.replace('\\', "\\\\").replace('\'', "\\'")),
            Literal::Bool(b) => write!(f, "{b}"),
            Literal::Null => write!(f, "null"),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Equality `=`.
    Eq,
    /// Inequality `<>`.
    Neq,
    /// Less-than `<`.
    Lt,
    /// Less-or-equal `<=`.
    Le,
    /// Greater-than `>`.
    Gt,
    /// Greater-or-equal `>=`.
    Ge,
    /// Addition `+`.
    Add,
    /// Subtraction `-`.
    Sub,
    /// Multiplication `*`.
    Mul,
    /// Division `/`.
    Div,
    /// Bag union `++`.
    BagUnion,
    /// Bag monus (difference) `--`.
    BagDiff,
    /// Logical conjunction `and`.
    And,
    /// Logical disjunction `or`.
    Or,
}

impl BinOp {
    /// Surface-syntax spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Eq => "=",
            BinOp::Neq => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::BagUnion => "++",
            BinOp::BagDiff => "--",
            BinOp::And => "and",
            BinOp::Or => "or",
        }
    }

    /// Binding strength; larger binds tighter.
    pub fn precedence(self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 3,
            BinOp::BagUnion | BinOp::BagDiff => 4,
            BinOp::Add | BinOp::Sub => 5,
            BinOp::Mul | BinOp::Div => 6,
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation `-`.
    Neg,
    /// Logical negation `not`.
    Not,
}

/// Patterns used on the left of generators and `let` bindings.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// Bind the whole value to a variable.
    Var(String),
    /// Destructure a tuple; arity must match.
    Tuple(Vec<Pattern>),
    /// Match anything without binding (`_`).
    Wildcard,
    /// Match only values equal to the literal.
    Lit(Literal),
}

impl Pattern {
    /// The set of variables bound by this pattern, in left-to-right order.
    pub fn bound_vars(&self) -> Vec<&str> {
        match self {
            Pattern::Var(v) => vec![v.as_str()],
            Pattern::Tuple(ps) => ps.iter().flat_map(|p| p.bound_vars()).collect(),
            Pattern::Wildcard | Pattern::Lit(_) => Vec::new(),
        }
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pattern::Var(v) => write!(f, "{v}"),
            Pattern::Tuple(ps) => {
                write!(f, "{{")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, "}}")
            }
            Pattern::Wildcard => write!(f, "_"),
            Pattern::Lit(l) => write!(f, "{l}"),
        }
    }
}

/// A qualifier on the right-hand side of a comprehension.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Qualifier {
    /// `pattern <- source`: iterate over the bag produced by `source`, binding the
    /// pattern for each element.
    Generator { pattern: Pattern, source: Expr },
    /// A boolean filter.
    Filter(Expr),
    /// `let pattern = expr`: bind without iterating.
    Binding { pattern: Pattern, value: Expr },
}

/// An IQL expression.
///
/// `Expr` implements [`Eq`] and [`Hash`] (see [`Literal`] for the float caveat),
/// which is what lets the [`crate::PlanCache`] key cached plans by the expression
/// itself instead of pretty-printing a string key on every lookup.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A literal constant.
    Lit(Literal),
    /// A variable reference.
    Var(String),
    /// A named query parameter `?name`, bound to a concrete value only at
    /// execution time through an [`crate::env::Params`] map.
    ///
    /// Parameters are what make prepared queries plan-stable: a query shape
    /// like `x = ?accession` is one `Expr` (and therefore one
    /// [`crate::PlanCache`] key) no matter which accession is bound, where the
    /// literal-splicing equivalent `x = 'ACC1'` produces a distinct expression
    /// per value and replans every time. The planner treats parameters as
    /// opaque non-constants: they never participate in join-key fusion or the
    /// cost model, and any plan-time-evaluated source mentioning one is
    /// excluded from the plan cache (see [`crate::rewrite::collect_params`]).
    Param(String),
    /// A scheme reference `⟨⟨…⟩⟩`, whose value is the extent of the named schema object.
    Scheme(SchemeRef),
    /// A tuple constructor `{e1, …, en}`.
    Tuple(Vec<Expr>),
    /// A literal bag `[e1, …, en]` (empty `[]` is the empty bag).
    Bag(Vec<Expr>),
    /// A comprehension `[head | q1; …; qn]`.
    Comp {
        /// The element constructor.
        head: Box<Expr>,
        /// Generators, filters and bindings, evaluated left to right.
        qualifiers: Vec<Qualifier>,
    },
    /// Application of a named (built-in) function.
    Apply {
        /// Function name, e.g. `count`.
        function: String,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// A binary operation.
    BinOp {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// A unary operation.
    UnOp {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// `if cond then e1 else e2`.
    If {
        /// Condition (must evaluate to a boolean).
        cond: Box<Expr>,
        /// Value when true.
        then: Box<Expr>,
        /// Value when false.
        otherwise: Box<Expr>,
    },
    /// `let pattern = value in body`.
    Let {
        /// Pattern to bind.
        pattern: Pattern,
        /// Bound expression.
        value: Box<Expr>,
        /// Body in which the bindings are visible.
        body: Box<Expr>,
    },
    /// The `Void` constant — the empty collection (lower bound of unknown extents).
    Void,
    /// The `Any` constant — the unrestricted collection (upper bound of unknown extents).
    Any,
    /// `Range q_l q_u` — a pair of lower/upper bound queries, used by `extend` and
    /// `contract` transformations.
    Range {
        /// Lower-bound query.
        lower: Box<Expr>,
        /// Upper-bound query.
        upper: Box<Expr>,
    },
}

impl Expr {
    /// Shorthand for a string literal expression.
    pub fn str(s: impl Into<String>) -> Expr {
        Expr::Lit(Literal::Str(s.into()))
    }

    /// Shorthand for an integer literal expression.
    pub fn int(i: i64) -> Expr {
        Expr::Lit(Literal::Int(i))
    }

    /// Shorthand for a variable reference.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// Shorthand for a named query-parameter placeholder `?name`.
    pub fn param(name: impl Into<String>) -> Expr {
        Expr::Param(name.into())
    }

    /// The set of parameter names (`?name` placeholders) occurring anywhere in
    /// this expression, in sorted order.
    pub fn params(&self) -> std::collections::BTreeSet<String> {
        crate::rewrite::collect_params(self)
    }

    /// Shorthand for a scheme reference expression.
    pub fn scheme<I, S>(parts: I) -> Expr
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Expr::Scheme(SchemeRef::new(parts))
    }

    /// The canonical `Range Void Any` query used by `extend`/`contract` steps whose
    /// extent is not derivable from the rest of the schema.
    pub fn range_void_any() -> Expr {
        Expr::Range {
            lower: Box::new(Expr::Void),
            upper: Box::new(Expr::Any),
        }
    }

    /// Whether this expression is exactly `Range Void Any` (the paper's notion of a
    /// *trivial* transformation query, excluded from the effort counts).
    pub fn is_range_void_any(&self) -> bool {
        matches!(
            self,
            Expr::Range { lower, upper }
                if matches!(**lower, Expr::Void) && matches!(**upper, Expr::Any)
        )
    }

    /// Whether this expression contains any scheme reference at all.
    pub fn references_schemes(&self) -> bool {
        !crate::rewrite::collect_schemes(self).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_key_and_prefix() {
        let s = SchemeRef::column("protein", "accession_num");
        assert_eq!(s.key(), "protein,accession_num");
        assert_eq!(s.to_string(), "<<protein, accession_num>>");
        let p = s.prefixed("PEDRO");
        assert_eq!(p.parts, vec!["PEDRO_protein", "PEDRO_accession_num"]);
    }

    #[test]
    fn range_void_any_detection() {
        assert!(Expr::range_void_any().is_range_void_any());
        let not_trivial = Expr::Range {
            lower: Box::new(Expr::scheme(["protein"])),
            upper: Box::new(Expr::Any),
        };
        assert!(!not_trivial.is_range_void_any());
        assert!(!Expr::Void.is_range_void_any());
    }

    #[test]
    fn pattern_bound_vars() {
        let p = Pattern::Tuple(vec![
            Pattern::Var("k".into()),
            Pattern::Wildcard,
            Pattern::Tuple(vec![
                Pattern::Var("x".into()),
                Pattern::Lit(Literal::Int(1)),
            ]),
        ]);
        assert_eq!(p.bound_vars(), vec!["k", "x"]);
        assert_eq!(p.to_string(), "{k, _, {x, 1}}");
    }

    #[test]
    fn operator_precedence_ordering() {
        assert!(BinOp::Mul.precedence() > BinOp::Add.precedence());
        assert!(BinOp::Add.precedence() > BinOp::Eq.precedence());
        assert!(BinOp::Eq.precedence() > BinOp::And.precedence());
        assert!(BinOp::And.precedence() > BinOp::Or.precedence());
    }
}
