//! Input at exactly `MAX_NESTING` survives every recursive walk on a thread
//! with a 2 MiB stack (the default for spawned threads, so for server
//! sessions): parsing, printing, hashing, evaluation on both engines, and
//! dropping. One level more is refused up front by the parser or the decoder.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use iql::codec::{get_value, put_value, Cursor, MAX_NESTING};
use iql::{parse, pretty, Evaluator, MapExtents, Value};

/// Query texts whose trees nest exactly `depth` levels deep.
fn shapes(depth: usize) -> Vec<(&'static str, String)> {
    vec![
        (
            "bags",
            format!("{}1{}", "[".repeat(depth), "]".repeat(depth)),
        ),
        (
            "tuples",
            format!("{}1{}", "{".repeat(depth), "}".repeat(depth)),
        ),
        (
            "negations",
            format!("{}1{}", "-(".repeat(depth), ")".repeat(depth)),
        ),
        (
            "comprehensions",
            format!(
                "{}[1]{}",
                "[x | x <- ".repeat(depth - 1),
                "]".repeat(depth - 1)
            ),
        ),
        (
            "applications",
            format!(
                "{}[1]{}",
                "distinct(".repeat(depth - 1),
                ")".repeat(depth - 1)
            ),
        ),
        ("operator chain", format!("1{}", " + 1".repeat(depth))),
    ]
}

fn hash(value: &impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

fn on_small_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(2 * 1024 * 1024)
        .spawn(f)
        .unwrap()
        .join()
        .expect("no overflow, no panic");
}

#[test]
fn every_walk_survives_max_nesting_on_a_2_mib_stack() {
    on_small_stack(|| {
        let extents = MapExtents::new();
        for (name, text) in shapes(MAX_NESTING) {
            let expr = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            let reparsed = parse(&pretty::print(&expr)).expect("printed text parses");
            assert_eq!(reparsed, expr, "{name} round trip");
            assert_eq!(hash(&reparsed), hash(&expr), "{name}");
            let columnar = Evaluator::new(&extents).eval_closed(&expr);
            let row = Evaluator::new(&extents)
                .with_columnar(false)
                .eval_closed(&expr);
            assert!(columnar.is_ok(), "{name}: {columnar:?}");
            assert_eq!(columnar, row, "{name}");
            drop((expr, reparsed, columnar, row));
        }

        let deep = (0..MAX_NESTING).fold(Value::Int(1), |v, _| Value::tuple(vec![v]));
        let mut bytes = Vec::new();
        put_value(&mut bytes, &deep);
        let mut c = Cursor::new(&bytes);
        assert_eq!(get_value(&mut c), Ok(deep));
        c.finish().unwrap();
    });
}

#[test]
fn one_level_past_max_nesting_is_a_parse_error() {
    for (name, text) in shapes(MAX_NESTING + 1) {
        let err = parse(&text).expect_err(name);
        assert!(err.message.contains("nests deeper"), "{name}: {err}");
    }
}

#[test]
fn hostile_depths_are_parse_errors_on_a_2_mib_stack() {
    on_small_stack(|| {
        for text in [
            format!("{}1{}", "(".repeat(10_000), ")".repeat(10_000)),
            format!("{}1", "- ".repeat(10_000)),
            format!("1{}", " + 1".repeat(100_000)),
            format!("[x | {}x{} <- [1]]", "{".repeat(10_000), "}".repeat(10_000)),
        ] {
            assert!(parse(&text).is_err());
        }
    });
}
