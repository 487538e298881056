//! Physical operator building blocks for the columnar engine: pattern
//! decomposition into [`SourceTable`]s, pre-decomposed hash-probe tables,
//! compiled filter predicates with typed comparison kernels, and compiled
//! head projections.
//!
//! Everything here is compiled **from** the logical plan's steps — the
//! decomposition of a pattern against a row is the same all-or-nothing match
//! [`crate::env::match_pattern`] performs, done once per source instead of
//! once per probe.

use crate::ast::{BinOp, Expr, Pattern};
use crate::env::{literal_value, Env};
use crate::error::EvalError;
use crate::eval::{Evaluator, ExtentProvider};
use crate::physical::column::{Batch, Bitmap, ColRef, Column, ColumnBuilder};
use crate::value::{float_cmp, Bag, Value};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// A source decomposed into columns: one column per variable the source's
/// pattern(s) bind, in pattern-traversal order (so duplicate names shadow
/// correctly when resolved back to front). Rows that failed the pattern match
/// are excluded at decomposition time.
#[derive(Debug)]
pub(crate) struct SourceTable {
    pub(crate) len: usize,
    pub(crate) cols: Vec<(Arc<str>, Arc<Column>)>,
}

/// Does `value` match `pattern`? The same decision
/// [`crate::env::match_pattern`] makes, without binding.
pub(crate) fn matches(pattern: &Pattern, value: &Value) -> bool {
    match pattern {
        Pattern::Wildcard | Pattern::Var(_) => true,
        Pattern::Lit(lit) => literal_value(lit) == *value,
        Pattern::Tuple(parts) => match value {
            Value::Tuple(items) => {
                items.len() == parts.len()
                    && parts.iter().zip(items.iter()).all(|(p, v)| matches(p, v))
            }
            _ => false,
        },
    }
}

fn collect_binders(pattern: &Pattern, out: &mut Vec<Arc<str>>) {
    match pattern {
        Pattern::Var(name) => out.push(Arc::from(name.as_str())),
        Pattern::Tuple(parts) => parts.iter().for_each(|p| collect_binders(p, out)),
        Pattern::Wildcard | Pattern::Lit(_) => {}
    }
}

fn push_bindings(
    builders: &mut [ColumnBuilder],
    next: &mut usize,
    pattern: &Pattern,
    value: &Value,
) {
    match pattern {
        Pattern::Var(_) => {
            builders[*next].push(value);
            *next += 1;
        }
        Pattern::Tuple(parts) => {
            if let Value::Tuple(items) = value {
                for (p, v) in parts.iter().zip(items.iter()) {
                    push_bindings(builders, next, p, v);
                }
            }
        }
        Pattern::Wildcard | Pattern::Lit(_) => {}
    }
}

/// Builds a [`SourceTable`] by matching rows against a fixed pattern list.
pub(crate) struct TableBuilder {
    names: Vec<Arc<str>>,
    builders: Vec<ColumnBuilder>,
    len: usize,
}

impl TableBuilder {
    pub(crate) fn new(patterns: &[&Pattern]) -> TableBuilder {
        let mut names = Vec::new();
        for p in patterns {
            collect_binders(p, &mut names);
        }
        let builders = (0..names.len()).map(|_| ColumnBuilder::new()).collect();
        TableBuilder {
            names,
            builders,
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Match one row (`val(i)` is the value for `patterns[i]`) and, on success,
    /// append its bindings. Returns whether the row matched.
    pub(crate) fn push_row<'v>(
        &mut self,
        patterns: &[&Pattern],
        val: impl Fn(usize) -> &'v Value,
    ) -> bool {
        if !patterns.iter().enumerate().all(|(i, p)| matches(p, val(i))) {
            return false;
        }
        let mut next = 0;
        for (i, p) in patterns.iter().enumerate() {
            push_bindings(&mut self.builders, &mut next, p, val(i));
        }
        self.len += 1;
        true
    }

    pub(crate) fn finish(self) -> SourceTable {
        SourceTable {
            len: self.len,
            cols: self
                .names
                .into_iter()
                .zip(self.builders)
                .map(|(name, b)| (name, Arc::new(b.finish())))
                .collect(),
        }
    }
}

/// Decompose a single-pattern source (a scan, an evaluated generator source,
/// or one index bucket) into columns.
pub(crate) fn decompose_single<'v>(
    pattern: &Pattern,
    items: impl IntoIterator<Item = &'v Value>,
) -> SourceTable {
    let mut tb = TableBuilder::new(&[pattern]);
    for item in items {
        tb.push_row(&[pattern], |_| item);
    }
    tb.finish()
}

/// A hash-join build side decomposed once at compile time: the buckets'
/// elements are concatenated into one [`SourceTable`] (bucket-internal order
/// preserved) and each key maps to its `(offset, len)` run.
#[derive(Debug)]
pub(crate) struct ProbeTable {
    pub(crate) buckets: HashMap<Value, (u32, u32)>,
    pub(crate) table: SourceTable,
}

impl ProbeTable {
    pub(crate) fn build(pattern: &Pattern, index: &HashMap<Value, Vec<Value>>) -> ProbeTable {
        let mut tb = TableBuilder::new(&[pattern]);
        let mut buckets = HashMap::with_capacity(index.len());
        for (key, bucket) in index {
            let start = tb.len() as u32;
            for element in bucket {
                // Build-side elements were pattern-matched when the index was
                // built, so every row matches again here; a defensive miss
                // merely shortens the run.
                tb.push_row(&[pattern], |_| element);
            }
            let len = tb.len() as u32 - start;
            if len > 0 {
                buckets.insert(key.clone(), (start, len));
            }
        }
        ProbeTable {
            buckets,
            table: tb.finish(),
        }
    }
}

/// The environment the row engine would see at row `i` of `batch`: the base
/// environment plus every batch column bound in binding order (used by
/// per-row fallback expressions).
pub(crate) fn row_env(base: &Env, batch: &Batch, i: usize) -> Env {
    let mut env = base.clone();
    for (name, col) in &batch.cols {
        env.bind(name.as_ref(), col.value(i));
    }
    env
}

/// A comparison operator of a compiled filter kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CmpOp {
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    fn from_binop(op: BinOp) -> Option<CmpOp> {
        Some(match op {
            BinOp::Eq => CmpOp::Eq,
            BinOp::Neq => CmpOp::Neq,
            BinOp::Lt => CmpOp::Lt,
            BinOp::Le => CmpOp::Le,
            BinOp::Gt => CmpOp::Gt,
            BinOp::Ge => CmpOp::Ge,
            _ => return None,
        })
    }

    fn accepts(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Neq => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

/// One operand of a compiled comparison.
#[derive(Debug, Clone)]
pub(crate) enum COperand {
    /// A variable, resolved against the batch's columns (then the base
    /// environment) at execution time.
    Var(String),
    /// A literal constant.
    Lit(Value),
    /// A `?param`, resolved against the execution's parameter set.
    Param(String),
}

/// A compiled filter predicate.
///
/// `Cmp` runs as a typed kernel over column slices. `And` only exists when
/// **both** sides compiled to kernels: [`Value`]'s ordering is total, so
/// evaluating the right side for rows the left side rejected cannot introduce
/// an error the row engine's short-circuit would have skipped. Everything
/// else — boolean connectives over non-kernel operands, function calls,
/// arithmetic — compiles to `Fallback` and evaluates row-at-a-time under a
/// reconstructed environment.
#[derive(Debug, Clone)]
pub(crate) enum CPred {
    Cmp {
        op: CmpOp,
        lhs: COperand,
        rhs: COperand,
    },
    And(Box<CPred>, Box<CPred>),
    Fallback(Expr),
}

fn compile_operand(expr: &Expr) -> Option<COperand> {
    match expr {
        Expr::Var(name) => Some(COperand::Var(name.clone())),
        Expr::Lit(lit) => Some(COperand::Lit(literal_value(lit))),
        Expr::Param(name) => Some(COperand::Param(name.clone())),
        _ => None,
    }
}

fn compile_pred_strict(expr: &Expr) -> Option<CPred> {
    match expr {
        Expr::BinOp { op, lhs, rhs } => {
            if *op == BinOp::And {
                let l = compile_pred_strict(lhs)?;
                let r = compile_pred_strict(rhs)?;
                return Some(CPred::And(Box::new(l), Box::new(r)));
            }
            let op = CmpOp::from_binop(*op)?;
            Some(CPred::Cmp {
                op,
                lhs: compile_operand(lhs)?,
                rhs: compile_operand(rhs)?,
            })
        }
        _ => None,
    }
}

/// Compile a filter expression, falling back to per-row evaluation when it is
/// not a conjunction of comparisons over variables, literals and parameters.
pub(crate) fn compile_pred(expr: &Expr) -> CPred {
    compile_pred_strict(expr).unwrap_or_else(|| CPred::Fallback(expr.clone()))
}

/// An operand resolved against a concrete batch.
enum Resolved<'a> {
    Col(&'a ColRef),
    Const(Value),
}

impl Resolved<'_> {
    fn value(&self, i: usize) -> Value {
        match self {
            Resolved::Col(c) => c.value(i),
            Resolved::Const(v) => v.clone(),
        }
    }
}

fn resolve<'a>(operand: &COperand, batch: &'a Batch, env: &Env) -> Result<Resolved<'a>, EvalError> {
    match operand {
        COperand::Var(name) => {
            if let Some(col) = batch.col(name) {
                Ok(Resolved::Col(col))
            } else if let Some(v) = env.get(name) {
                Ok(Resolved::Const(v.clone()))
            } else {
                Err(EvalError::UnboundVariable(name.clone()))
            }
        }
        COperand::Lit(v) => Ok(Resolved::Const(v.clone())),
        COperand::Param(name) => env
            .param(name)
            .cloned()
            .map(Resolved::Const)
            .ok_or_else(|| EvalError::UnboundParam(name.clone())),
    }
}

/// Run one comparison kernel, clearing rejected rows from `sel`. Typed column
/// pairs compare over the raw vectors; anything else materialises values and
/// uses [`Value`]'s total ordering — either way the decision matches the row
/// engine's `=`/`<`/… exactly, and neither can error.
fn filter_cmp(op: CmpOp, lhs: &Resolved<'_>, rhs: &Resolved<'_>, sel: &mut Bitmap) {
    use Column::{Float, Int, Str};
    match (lhs, rhs) {
        (Resolved::Col(l), Resolved::Const(c)) => match (&*l.col, c) {
            (Int(v), Value::Int(k)) => {
                let (s, k) = (l.start, *k);
                return sel.retain(|i| op.accepts(v[s + i].cmp(&k)));
            }
            (Int(v), Value::Float(k)) => {
                let (s, k) = (l.start, *k);
                return sel.retain(|i| op.accepts(float_cmp(v[s + i] as f64, k)));
            }
            (Float(v), Value::Int(k)) => {
                let (s, k) = (l.start, *k as f64);
                return sel.retain(|i| op.accepts(float_cmp(v[s + i], k)));
            }
            (Float(v), Value::Float(k)) => {
                let (s, k) = (l.start, *k);
                return sel.retain(|i| op.accepts(float_cmp(v[s + i], k)));
            }
            (Str(v), Value::Str(k)) => {
                let s = l.start;
                return sel.retain(|i| op.accepts(v[s + i].as_ref().cmp(k.as_ref())));
            }
            _ => {}
        },
        (Resolved::Const(_), Resolved::Col(_)) => {
            // Flip the comparison so the column side drives the typed loop.
            let flipped = match op {
                CmpOp::Lt => CmpOp::Gt,
                CmpOp::Le => CmpOp::Ge,
                CmpOp::Gt => CmpOp::Lt,
                CmpOp::Ge => CmpOp::Le,
                CmpOp::Eq | CmpOp::Neq => op,
            };
            return filter_cmp(flipped, rhs, lhs, sel);
        }
        (Resolved::Col(l), Resolved::Col(r)) => match (&*l.col, &*r.col) {
            (Int(a), Int(b)) => {
                let (ls, rs) = (l.start, r.start);
                return sel.retain(|i| op.accepts(a[ls + i].cmp(&b[rs + i])));
            }
            (Float(a), Float(b)) => {
                let (ls, rs) = (l.start, r.start);
                return sel.retain(|i| op.accepts(float_cmp(a[ls + i], b[rs + i])));
            }
            (Int(a), Float(b)) => {
                let (ls, rs) = (l.start, r.start);
                return sel.retain(|i| op.accepts(float_cmp(a[ls + i] as f64, b[rs + i])));
            }
            (Float(a), Int(b)) => {
                let (ls, rs) = (l.start, r.start);
                return sel.retain(|i| op.accepts(float_cmp(a[ls + i], b[rs + i] as f64)));
            }
            (Str(a), Str(b)) => {
                let (ls, rs) = (l.start, r.start);
                return sel.retain(|i| op.accepts(a[ls + i].as_ref().cmp(b[rs + i].as_ref())));
            }
            _ => {}
        },
        (Resolved::Const(a), Resolved::Const(b)) => {
            // Row-invariant comparison: decide once.
            if !op.accepts(a.cmp(b)) {
                sel.retain(|_| false);
            }
            return;
        }
    }
    // Generic loop: late-materialise each side and use the total ordering.
    sel.retain(|i| op.accepts(lhs.value(i).cmp(&rhs.value(i))));
}

/// Apply a compiled filter to `batch`, ANDing rejections into its selection
/// bitmap (no compaction — chained filters carry the same bitmap).
pub(crate) fn apply_filter<P: ExtentProvider>(
    ev: &Evaluator<P>,
    pred: &CPred,
    batch: &mut Batch,
    env: &Env,
) -> Result<(), EvalError> {
    match pred {
        CPred::Cmp { op, lhs, rhs } => {
            // The kernel reads columns and writes the bitmap: split the
            // borrows by taking the bitmap out for the duration.
            let mut sel = std::mem::replace(&mut batch.sel, Bitmap::all_set(0));
            let resolved =
                resolve(lhs, batch, env).and_then(|l| Ok((l, resolve(rhs, batch, env)?)));
            match resolved {
                Ok((lhs, rhs)) => filter_cmp(*op, &lhs, &rhs, &mut sel),
                Err(e) => {
                    batch.sel = sel;
                    return Err(e);
                }
            }
            batch.sel = sel;
            Ok(())
        }
        CPred::And(l, r) => {
            apply_filter(ev, l, batch, env)?;
            apply_filter(ev, r, batch, env)
        }
        CPred::Fallback(expr) => {
            let idx: Vec<usize> = batch.sel.ones().collect();
            for i in idx {
                if !ev.eval(expr, &row_env(env, batch, i))?.as_bool()? {
                    batch.sel.clear(i);
                }
            }
            Ok(())
        }
    }
}

/// A compiled head projection: how each output value is assembled from the
/// final batch. Anything beyond nested tuples of variables and literals makes
/// the whole head a `Fallback` evaluated per surviving row.
#[derive(Debug, Clone)]
pub(crate) enum CProj {
    Var(String),
    Lit(Value),
    Tuple(Vec<CProj>),
    Fallback(Expr),
}

fn compile_proj_strict(expr: &Expr) -> Option<CProj> {
    match expr {
        Expr::Var(name) => Some(CProj::Var(name.clone())),
        Expr::Lit(lit) => Some(CProj::Lit(literal_value(lit))),
        Expr::Tuple(items) => Some(CProj::Tuple(
            items
                .iter()
                .map(compile_proj_strict)
                .collect::<Option<Vec<_>>>()?,
        )),
        _ => None,
    }
}

pub(crate) fn compile_proj(expr: &Expr) -> CProj {
    compile_proj_strict(expr).unwrap_or_else(|| CProj::Fallback(expr.clone()))
}

/// A projection resolved against a concrete batch.
enum RProj<'a> {
    Col(&'a ColRef),
    Const(Value),
    Tuple(Vec<RProj<'a>>),
}

impl RProj<'_> {
    fn value(&self, i: usize) -> Value {
        match self {
            RProj::Col(c) => c.value(i),
            RProj::Const(v) => v.clone(),
            RProj::Tuple(items) => Value::tuple(items.iter().map(|p| p.value(i)).collect()),
        }
    }
}

fn resolve_proj<'a>(proj: &CProj, batch: &'a Batch, env: &Env) -> Result<RProj<'a>, EvalError> {
    match proj {
        CProj::Var(name) => {
            if let Some(col) = batch.col(name) {
                Ok(RProj::Col(col))
            } else if let Some(v) = env.get(name) {
                Ok(RProj::Const(v.clone()))
            } else {
                Err(EvalError::UnboundVariable(name.clone()))
            }
        }
        CProj::Lit(v) => Ok(RProj::Const(v.clone())),
        CProj::Tuple(items) => Ok(RProj::Tuple(
            items
                .iter()
                .map(|p| resolve_proj(p, batch, env))
                .collect::<Result<Vec<_>, _>>()?,
        )),
        CProj::Fallback(_) => unreachable!("fallback heads never resolve"),
    }
}

/// Project every selected row of `batch` into `out`, in row order.
pub(crate) fn project<P: ExtentProvider>(
    ev: &Evaluator<P>,
    proj: &CProj,
    batch: &Batch,
    env: &Env,
    out: &mut Bag,
) -> Result<(), EvalError> {
    if let CProj::Fallback(expr) = proj {
        for i in batch.sel.ones() {
            out.push(ev.eval(expr, &row_env(env, batch, i))?);
        }
        return Ok(());
    }
    let resolved = resolve_proj(proj, batch, env)?;
    for i in batch.sel.ones() {
        out.push(resolved.value(i));
    }
    Ok(())
}

/// Evaluate a `let` binding per row of a **dense** batch: rows whose value
/// fails the pattern are dropped, matching rows gain the pattern's columns.
pub(crate) fn apply_bind<P: ExtentProvider>(
    ev: &Evaluator<P>,
    pattern: &Pattern,
    value: &Expr,
    batch: Batch,
    env: &Env,
) -> Result<Batch, EvalError> {
    debug_assert!(batch.sel.is_all_set(), "bind expects a compacted batch");
    // A projection-shaped value (nested tuples of vars/lits) evaluates
    // straight off the columns; anything else reconstructs a row environment.
    let fast = match compile_proj_strict(value) {
        Some(proj) => Some(resolve_proj(&proj, &batch, env)?),
        None => None,
    };
    let mut tb = TableBuilder::new(&[pattern]);
    let mut keep: Vec<u32> = Vec::with_capacity(batch.len);
    for i in 0..batch.len {
        let v = match &fast {
            Some(proj) => proj.value(i),
            None => ev.eval(value, &row_env(env, &batch, i))?,
        };
        if tb.push_row(&[pattern], |_| &v) {
            keep.push(i as u32);
        }
    }
    let table = tb.finish();
    let mut cols: Vec<(Arc<str>, ColRef)> = if keep.len() == batch.len {
        batch.cols
    } else {
        batch
            .cols
            .into_iter()
            .map(|(name, col)| (name, col.gather(&keep)))
            .collect()
    };
    cols.extend(
        table
            .cols
            .into_iter()
            .map(|(name, col)| (name, ColRef::whole(col))),
    );
    Ok(Batch {
        len: keep.len(),
        cols,
        sel: Bitmap::all_set(keep.len()),
    })
}

/// Probe a pre-decomposed hash-join table with each row of a **dense** batch:
/// each input row expands to its bucket run's rows (bucket order preserved),
/// gaining the build pattern's columns.
pub(crate) fn apply_probe(
    probe_vars: &[String],
    table: &ProbeTable,
    batch: Batch,
    env: &Env,
) -> Result<Batch, EvalError> {
    debug_assert!(batch.sel.is_all_set(), "probe expects a compacted batch");
    let operands: Vec<Resolved<'_>> = probe_vars
        .iter()
        .map(|var| {
            if let Some(col) = batch.col(var) {
                Ok(Resolved::Col(col))
            } else if let Some(v) = env.get(var) {
                Ok(Resolved::Const(v.clone()))
            } else {
                Err(EvalError::UnboundVariable(var.clone()))
            }
        })
        .collect::<Result<_, EvalError>>()?;
    let mut left: Vec<u32> = Vec::new();
    let mut right: Vec<u32> = Vec::new();
    for i in 0..batch.len {
        let key = if operands.len() == 1 {
            operands[0].value(i)
        } else {
            Value::tuple(operands.iter().map(|o| o.value(i)).collect())
        };
        if let Some(&(off, cnt)) = table.buckets.get(&key) {
            for j in 0..cnt {
                left.push(i as u32);
                right.push(off + j);
            }
        }
    }
    drop(operands);
    let mut cols: Vec<(Arc<str>, ColRef)> = batch
        .cols
        .into_iter()
        .map(|(name, col)| (name, col.gather(&left)))
        .collect();
    cols.extend(table.table.cols.iter().map(|(name, col)| {
        (
            Arc::clone(name),
            ColRef::whole(Arc::new(col.gather(0, &right))),
        )
    }));
    Ok(Batch {
        len: left.len(),
        cols,
        sel: Bitmap::all_set(left.len()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Literal;

    fn int(i: i64) -> Value {
        Value::Int(i)
    }

    #[test]
    fn decompose_excludes_non_matching_rows() {
        let pat = Pattern::Tuple(vec![
            Pattern::Lit(Literal::Int(1)),
            Pattern::Var("x".into()),
        ]);
        let rows = [
            Value::pair(int(1), int(10)),
            Value::pair(int(2), int(20)),
            Value::pair(int(1), int(30)),
            int(7), // not a tuple at all
        ];
        let table = decompose_single(&pat, rows.iter());
        assert_eq!(table.len, 2);
        assert_eq!(table.cols.len(), 1);
        assert_eq!(table.cols[0].0.as_ref(), "x");
        assert_eq!(table.cols[0].1.value(0), int(10));
        assert_eq!(table.cols[0].1.value(1), int(30));
    }

    #[test]
    fn compile_pred_kernelises_comparison_conjunctions() {
        let expr = crate::parse("x < 3 and y = 'a'").unwrap();
        assert!(matches!(compile_pred(&expr), CPred::And(_, _)));
        let expr = crate::parse("x < 3 and member([1], x)").unwrap();
        assert!(matches!(compile_pred(&expr), CPred::Fallback(_)));
    }

    #[test]
    fn compile_proj_handles_nested_tuples() {
        let expr = crate::parse("{x, {'tag', y}}").unwrap();
        assert!(!matches!(compile_proj(&expr), CProj::Fallback(_)));
        let expr = crate::parse("{x, y + 1}").unwrap();
        assert!(matches!(compile_proj(&expr), CProj::Fallback(_)));
    }
}
