//! The one byte codec of the workspace: the commit log
//! (`relational::wal`) and the wire protocol (`wire`) both write and read
//! [`Value`] trees, strings and checksummed frames through this module.
//!
//! ```text
//! frame := [u32 LE payload length] [u32 LE FNV-1a checksum of payload] [payload]
//! value := 0x00                         -- Null
//!        | 0x01 [u8 0|1]                -- Bool
//!        | 0x02 [i64 LE]                -- Int
//!        | 0x03 [u64 LE float bits]     -- Float
//!        | 0x04 [str]                   -- Str
//!        | 0x05 [u32 LE arity] value*   -- Tuple
//!        | 0x06 [u32 LE len] value*     -- Bag
//!        | 0x07                         -- Void
//!        | 0x08                         -- Any
//! str   := [u32 LE byte length] [UTF-8 bytes]
//! ```
//!
//! The commit log stores scalars only (tags 0x00–0x04); query results and
//! parameters over the wire use the collection tags too.
//!
//! Every decoder is bounds-checked and returns [`CodecError`] instead of
//! panicking, and [`get_value`] refuses trees nested deeper than
//! [`MAX_NESTING`]: a malformed body must surface as a typed error, never
//! take a session down.

use crate::value::{Bag, Value};

/// The deepest nesting any input may reach: tuples and bags inside a decoded
/// value, and brackets, operators and applications inside parsed query text
/// ([`crate::parse`]). Decoding, parsing and every recursive walk downstream
/// (evaluation, printing, hashing, dropping) recurse once per level, so an
/// unbounded depth would let one request overflow a thread's stack.
pub const MAX_NESTING: usize = 64;

/// Bytes of a frame header: payload length, then checksum.
pub const FRAME_HEADER: usize = 8;

/// A body failed to decode (truncated, bad tag, bad UTF-8, too deep,
/// trailing bytes, checksum mismatch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn fail<T>(detail: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError(detail.into()))
}

/// A cursor over a body slice; all decode functions advance it.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Start decoding `bytes` from the front.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    /// Error unless every byte was consumed — trailing garbage inside a
    /// checksummed frame still means a protocol bug or corruption.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            fail(format!(
                "{} trailing bytes after a complete body",
                self.bytes.len() - self.pos
            ))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        match self.bytes.get(self.pos..self.pos.saturating_add(n)) {
            Some(slice) => {
                self.pos += n;
                Ok(slice)
            }
            None => fail(format!(
                "truncated body: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.bytes.len() - self.pos
            )),
        }
    }

    /// Remaining undecoded bytes.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

pub fn get_u8(c: &mut Cursor<'_>) -> Result<u8, CodecError> {
    Ok(c.take(1)?[0])
}

pub fn get_u32(c: &mut Cursor<'_>) -> Result<u32, CodecError> {
    Ok(u32::from_le_bytes(c.take(4)?.try_into().expect("4 bytes")))
}

pub fn get_u64(c: &mut Cursor<'_>) -> Result<u64, CodecError> {
    Ok(u64::from_le_bytes(c.take(8)?.try_into().expect("8 bytes")))
}

pub fn get_str(c: &mut Cursor<'_>) -> Result<String, CodecError> {
    let len = get_u32(c)? as usize;
    if len > c.remaining() {
        return fail(format!(
            "string length {len} exceeds the {} remaining body bytes",
            c.remaining()
        ));
    }
    match std::str::from_utf8(c.take(len)?) {
        Ok(s) => Ok(s.to_string()),
        Err(e) => fail(format!("string is not UTF-8: {e}")),
    }
}

/// Encode one value tree.
pub fn put_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => put_u8(out, 0x00),
        Value::Bool(b) => {
            put_u8(out, 0x01);
            put_u8(out, u8::from(*b));
        }
        Value::Int(i) => {
            put_u8(out, 0x02);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            put_u8(out, 0x03);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            put_u8(out, 0x04);
            put_str(out, s);
        }
        Value::Tuple(items) => {
            put_u8(out, 0x05);
            put_u32(out, items.len() as u32);
            for item in items.iter() {
                put_value(out, item);
            }
        }
        Value::Bag(bag) => {
            put_u8(out, 0x06);
            put_u32(out, bag.len() as u32);
            for item in bag.iter() {
                put_value(out, item);
            }
        }
        Value::Void => put_u8(out, 0x07),
        Value::Any => put_u8(out, 0x08),
    }
}

/// Decode one value tree, refusing one nested deeper than [`MAX_NESTING`].
pub fn get_value(c: &mut Cursor<'_>) -> Result<Value, CodecError> {
    get_nested(c, 0)
}

/// Decode a value that sits inside `depth` enclosing tuples and bags.
fn get_nested(c: &mut Cursor<'_>, depth: usize) -> Result<Value, CodecError> {
    Ok(match get_u8(c)? {
        0x00 => Value::Null,
        0x01 => Value::Bool(get_u8(c)? != 0),
        0x02 => Value::Int(i64::from_le_bytes(c.take(8)?.try_into().expect("8 bytes"))),
        0x03 => Value::Float(f64::from_bits(get_u64(c)?)),
        0x04 => Value::Str(get_str(c)?.into()),
        tag @ (0x05 | 0x06) => {
            if depth == MAX_NESTING {
                return fail(format!("value nests deeper than {MAX_NESTING} levels"));
            }
            let items = get_items(c, depth + 1)?;
            if tag == 0x05 {
                Value::Tuple(items.into())
            } else {
                Value::Bag(Bag::from_values(items))
            }
        }
        0x07 => Value::Void,
        0x08 => Value::Any,
        tag => return fail(format!("unknown value tag 0x{tag:02x}")),
    })
}

/// Decode `[u32 LE count] value*`, each value at `depth`.
fn get_items(c: &mut Cursor<'_>, depth: usize) -> Result<Vec<Value>, CodecError> {
    let count = get_u32(c)? as usize;
    if count > c.remaining() {
        return fail(format!("value count {count} exceeds the remaining body"));
    }
    let mut items = Vec::with_capacity(count);
    for _ in 0..count {
        items.push(get_nested(c, depth)?);
    }
    Ok(items)
}

/// Encode a list of values (`[u32 count] value*`).
pub fn put_values(out: &mut Vec<u8>, values: &[Value]) {
    put_u32(out, values.len() as u32);
    for v in values {
        put_value(out, v);
    }
}

/// Decode a list of values.
pub fn get_values(c: &mut Cursor<'_>) -> Result<Vec<Value>, CodecError> {
    get_items(c, 0)
}

/// Encode a parameter binding set as sorted `(name, value)` pairs.
pub fn put_params(out: &mut Vec<u8>, params: &crate::Params) {
    let mut names: Vec<&str> = params.names().collect();
    names.sort_unstable();
    put_u32(out, names.len() as u32);
    for name in names {
        put_str(out, name);
        put_value(out, params.get(name).expect("name came from the set"));
    }
}

/// Decode a parameter binding set.
pub fn get_params(c: &mut Cursor<'_>) -> Result<crate::Params, CodecError> {
    let count = get_u32(c)? as usize;
    if count > c.remaining() {
        return fail(format!("param count {count} exceeds the remaining body"));
    }
    let mut params = crate::Params::new();
    for _ in 0..count {
        let name = get_str(c)?;
        let value = get_value(c)?;
        params.set(name, value);
    }
    Ok(params)
}

/// 32-bit FNV-1a: tiny, dependency-free, and plenty to catch torn writes
/// and bit rot. It detects corruption; it is not an integrity check against
/// an adversary.
pub fn fnv1a(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// Reserve a frame header at the end of `out` and return where the frame
/// starts; write the payload after it, then seal it with [`end_frame`].
pub fn begin_frame(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    start
}

/// Fill in the header reserved at `start` with the length and checksum of
/// everything written after it.
pub fn end_frame(out: &mut [u8], start: usize) {
    let (header, payload) = out[start..].split_at_mut(FRAME_HEADER);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&fnv1a(payload).to_le_bytes());
}

/// The payload length declared by the frame header at the front of `bytes`,
/// or `None` while fewer than [`FRAME_HEADER`] bytes are there.
pub fn frame_len(bytes: &[u8]) -> Option<usize> {
    if bytes.len() < FRAME_HEADER {
        return None;
    }
    Some(u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as usize)
}

/// The checksummed payload of the frame at the front of `bytes`: `Ok(None)`
/// while the frame is incomplete, an error when the checksum does not match.
/// The frame spans `FRAME_HEADER + payload.len()` bytes.
pub fn frame_payload(bytes: &[u8]) -> Result<Option<&[u8]>, CodecError> {
    let Some(len) = frame_len(bytes) else {
        return Ok(None);
    };
    let Some(payload) = bytes.get(FRAME_HEADER..FRAME_HEADER.saturating_add(len)) else {
        return Ok(None);
    };
    let checksum = u32::from_le_bytes(bytes[4..FRAME_HEADER].try_into().expect("4 bytes"));
    if fnv1a(payload) != checksum {
        return fail("payload checksum mismatch");
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Depth-bounded recursive value strategy (the vendored proptest shim has
    /// no `prop_recursive`, so the recursion is written out directly).
    struct ArbValue {
        depth: usize,
    }

    impl Strategy for ArbValue {
        type Value = Value;
        fn generate(&self, rng: &mut proptest::test_runner::TestRng) -> Value {
            let max_pick = if self.depth == 0 { 7 } else { 9 };
            match rng.usize_in(0..max_pick) {
                0 => Value::Null,
                1 => Value::Void,
                2 => Value::Any,
                3 => Value::Bool(rng.next_u64() & 1 == 1),
                4 => Value::Int(rng.next_u64() as i64),
                5 => Value::Float(rng.f64_in(-1e9..1e9)),
                6 => {
                    let alphabet: Vec<char> = "abcXYZ09 '\\✓".chars().collect();
                    let len = rng.usize_in(0..12);
                    Value::str(
                        (0..len)
                            .map(|_| alphabet[rng.usize_in(0..alphabet.len())])
                            .collect::<String>(),
                    )
                }
                pick => {
                    let inner = ArbValue {
                        depth: self.depth - 1,
                    };
                    let items: Vec<Value> = (0..rng.usize_in(0..4))
                        .map(|_| inner.generate(rng))
                        .collect();
                    if pick == 7 {
                        Value::Tuple(items.into())
                    } else {
                        Value::Bag(Bag::from_values(items))
                    }
                }
            }
        }
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        ArbValue { depth: 3 }
    }

    proptest! {
        #[test]
        fn values_round_trip(value in arb_value()) {
            let mut out = Vec::new();
            put_value(&mut out, &value);
            let mut c = Cursor::new(&out);
            let back = get_value(&mut c).expect("decodes");
            c.finish().expect("no trailing bytes");
            prop_assert_eq!(back, value);
        }

        #[test]
        fn truncated_values_error_instead_of_panicking(value in arb_value(), cut in 0usize..64) {
            let mut out = Vec::new();
            put_value(&mut out, &value);
            if cut < out.len() {
                let truncated = &out[..out.len() - 1 - cut.min(out.len() - 1)];
                let mut c = Cursor::new(truncated);
                // Either the decode fails, or it succeeded on a prefix and the
                // finish check flags what's left — never a panic.
                let _ = get_value(&mut c).and_then(|_| c.finish());
            }
        }
    }

    #[test]
    fn params_round_trip() {
        let params = crate::Params::new()
            .with("acc", "AC'C1")
            .with("n", 7i64)
            .with(
                "bag",
                Value::Bag(Bag::from_values(vec![1.into(), 2.into()])),
            );
        let mut out = Vec::new();
        put_params(&mut out, &params);
        let mut c = Cursor::new(&out);
        let back = get_params(&mut c).expect("decodes");
        c.finish().unwrap();
        assert_eq!(back.get("acc"), params.get("acc"));
        assert_eq!(back.get("n"), params.get("n"));
        assert_eq!(back.get("bag"), params.get("bag"));
        assert_eq!(back.len(), 3);
    }

    /// `depth` one-element tuples wrapped around `Null`.
    fn nested_tuples(depth: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for _ in 0..depth {
            put_u8(&mut out, 0x05);
            put_u32(&mut out, 1);
        }
        put_u8(&mut out, 0x00);
        out
    }

    #[test]
    fn nesting_is_bounded_at_max_nesting() {
        assert!(get_value(&mut Cursor::new(&nested_tuples(MAX_NESTING))).is_ok());
        for depth in [MAX_NESTING + 1, 200_000] {
            let err = get_value(&mut Cursor::new(&nested_tuples(depth))).unwrap_err();
            assert!(err.0.contains("nests deeper"), "{err}");
        }
    }

    #[test]
    fn hostile_counts_do_not_preallocate() {
        // A 4-billion-element bag declaration in a 10-byte body must fail
        // fast, not attempt a 4-billion-slot Vec.
        let mut out = Vec::new();
        put_u8(&mut out, 0x06);
        put_u32(&mut out, u32::MAX);
        let mut c = Cursor::new(&out);
        assert!(get_value(&mut c).is_err());
    }
}
