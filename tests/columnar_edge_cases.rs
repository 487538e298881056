//! Edge-case regressions for the vectorised columnar executor: every case
//! pins columnar ≡ row equality (bag order and multiplicities included, and
//! value *variants* preserved — `Int(1)`, never `Float(1.0)`) exactly where
//! the batch representation has seams: empty extents, the [`BATCH_SIZE`]
//! morsel boundary, float hash keys with `NaN`/`±0.0` (canonicalised by
//! `Value`'s hash), mixed-type columns that must degrade to boxed values, and
//! selection bitmaps carried across chained filter kernels.

use iql::env::Env;
use iql::value::{Bag, Value};
use iql::{parse, Evaluator, ExecEngine, MapExtents, StepProbe, BATCH_SIZE};
use std::sync::Arc;

fn extents(named: &[(&str, Vec<Value>)]) -> MapExtents {
    let mut m = MapExtents::new();
    for (name, rows) in named {
        m.insert(*name, Bag::from_values(rows.clone()));
    }
    m
}

fn kv_rows(n: usize) -> Vec<Value> {
    (0..n)
        .map(|i| {
            Value::pair(
                Value::Int((i % 7) as i64),
                Value::str(format!("w{}", i % 3)),
            )
        })
        .collect()
}

/// Evaluate under both engines, assert the columnar engine actually produced
/// the default run's result (via a probe), and return the columnar items
/// after asserting they equal the row engine's.
fn assert_engines_agree(extents: &MapExtents, text: &str) -> Vec<Value> {
    let query = parse(text).unwrap_or_else(|e| panic!("{text} does not parse: {e}"));
    let probe = Arc::new(StepProbe::new());
    let col_ev = Evaluator::new(extents).with_step_probe(Arc::clone(&probe));
    assert_eq!(
        col_ev
            .execution_engine(&query, &Env::new())
            .expect("engine prediction"),
        ExecEngine::Columnar,
        "edge cases must exercise the columnar engine: {text}"
    );
    let columnar = col_ev.eval_closed(&query).expect("columnar evaluation");
    assert!(
        probe.engine_count(ExecEngine::Columnar) >= 1,
        "the columnar engine did not run for {text}"
    );
    let row = Evaluator::new(extents)
        .with_columnar(false)
        .eval_closed(&query)
        .expect("row evaluation");
    let citems = columnar.expect_bag().expect("bag result").items().to_vec();
    let ritems = row.expect_bag().expect("bag result").items().to_vec();
    assert_eq!(citems, ritems, "columnar vs row disagree for {text}");
    citems
}

#[test]
fn empty_extents_produce_empty_bags() {
    let m = extents(&[("empty", vec![]), ("full", kv_rows(10))]);
    for text in [
        // Empty leading source: the pipeline's first expansion yields nothing.
        "[{k, v} | {k, v} <- <<empty>>; k >= 0]",
        // Empty build side: every probe misses.
        "[{a, b} | {k, a} <- <<full>>; {k2, b} <- <<empty>>; k2 = k]",
        // Empty probe side: the build side is constructed but never probed.
        "[{a, b} | {k, a} <- <<empty>>; {k2, b} <- <<full>>; k2 = k]",
    ] {
        assert!(
            assert_engines_agree(&m, text).is_empty(),
            "expected an empty result for {text}"
        );
    }
}

#[test]
fn batch_size_boundary_rows_survive_morsel_streaming() {
    // One row below, exactly at, and one row above the morsel size: the
    // streamed expansion must neither drop nor duplicate rows at the seam,
    // with and without a join stage after it.
    for n in [BATCH_SIZE - 1, BATCH_SIZE, BATCH_SIZE + 1] {
        let m = extents(&[("big", kv_rows(n)), ("small", kv_rows(5))]);
        let filtered = assert_engines_agree(&m, "[{k, v} | {k, v} <- <<big>>; k >= 0]");
        assert_eq!(filtered.len(), n, "row count at boundary {n}");
        assert_engines_agree(
            &m,
            "[{a, b} | {k, a} <- <<big>>; {k2, b} <- <<small>>; k2 = k; b <> 'w1']",
        );
    }
}

#[test]
fn nan_and_signed_zero_float_keys_hash_consistently() {
    // `Value`'s hash canonicalises every NaN to one bit pattern and -0.0 to
    // 0.0, and its total order makes NaN equal only to NaN (above every
    // number) — the typed float kernels and probe-key extraction must
    // reproduce exactly the row engine's bucket membership and comparison
    // outcomes.
    let keys = [f64::NAN, 0.0, -0.0, 1.5, -1.5, f64::NAN];
    let left: Vec<Value> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| Value::pair(Value::Float(*k), Value::Int(i as i64)))
        .collect();
    let right: Vec<Value> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| Value::pair(Value::Float(*k), Value::str(format!("r{i}"))))
        .collect();
    let m = extents(&[("l", left), ("r", right)]);
    assert_engines_agree(&m, "[{a, b} | {k, a} <- <<l>>; {k2, b} <- <<r>>; k2 = k]");
    assert_engines_agree(&m, "[{k, a} | {k, a} <- <<l>>; k >= 0]");
    assert_engines_agree(&m, "[{k, a} | {k, a} <- <<l>>; k = 0]");
}

#[test]
fn mixed_type_columns_fall_back_to_boxed_values() {
    // One variable bound to ints, floats, strings and tuples across rows: the
    // column degrades to boxed values, and every surviving variant must come
    // out exactly as it went in (Int stays Int, Float stays Float).
    let rows = vec![
        Value::pair(Value::Int(1), Value::Int(10)),
        Value::pair(Value::Int(1), Value::Float(1.0)),
        Value::pair(Value::Int(2), Value::str("ten")),
        Value::pair(Value::Int(2), Value::pair(Value::Int(1), Value::Int(2))),
        Value::pair(Value::Int(1), Value::Int(10)),
    ];
    let m = extents(&[("mixed", rows)]);
    let all = assert_engines_agree(&m, "[v | {k, v} <- <<mixed>>; k >= 1]");
    assert_eq!(all[0], Value::Int(10), "Int(10) must not widen");
    assert_eq!(all[1], Value::Float(1.0), "Float(1.0) must stay a float");
    let joined = assert_engines_agree(
        &m,
        "[{a, b} | {k, a} <- <<mixed>>; {k2, b} <- <<mixed>>; k2 = k]",
    );
    assert_eq!(joined.len(), 13, "3*3 + 2*2 join pairs over the mixed keys");
}

#[test]
fn chained_filters_carry_the_selection_bitmap() {
    // Several consecutive filter steps over one generator: each kernel must
    // AND into the selection the previous ones left (never resurrect a
    // cleared row), and compaction afterwards must keep surviving rows in
    // source order.
    let m = extents(&[("s", kv_rows(BATCH_SIZE + 3)), ("t", kv_rows(6))]);
    assert_engines_agree(
        &m,
        "[{k, v} | {k, v} <- <<s>>; k >= 1; v <> 'w0'; k < 6; v <> 'w2'; k <> 3]",
    );
    // The same chain feeding a downstream join and a let-binding, so the
    // filtered batch is compacted and expanded again.
    assert_engines_agree(
        &m,
        "[{m, b} | {k, v} <- <<s>>; k >= 1; v <> 'w0'; k < 6; {k2, b} <- <<t>>; k2 = k; let m = k * 2; m <> 4]",
    );
    // A filter chain that clears every row: downstream operators see only
    // empty selections and the result is empty under both engines.
    assert!(
        assert_engines_agree(&m, "[k | {k, v} <- <<s>>; k < 3; k > 3]").is_empty(),
        "contradictory filters must yield nothing"
    );
}
