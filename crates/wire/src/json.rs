//! Hand-rolled JSON codec — the human-readable ObjectMQ transport.
//!
//! JSON cannot represent every [`Value`] distinction, so the codec applies
//! two documented normalizations:
//!
//! * byte strings are wrapped as `{"$bytes":"<hex>"}`;
//! * integers that fit `i64` decode as [`Value::I64`] regardless of whether
//!   they were encoded from `I64` or `U64` (larger ones decode as `U64`);
//! * non-finite floats encode as `null`.

use crate::error::{WireError, WireResult};
use crate::value::Value;
use crate::Codec;

/// The JSON transport.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JsonCodec;

impl Codec for JsonCodec {
    fn encode_into(&self, value: &Value, out: &mut Vec<u8>) {
        let mut text = String::new();
        write_value(&mut text, value);
        out.extend_from_slice(text.as_bytes());
    }

    fn decode(&self, bytes: &[u8]) -> WireResult<Value> {
        let text = std::str::from_utf8(bytes).map_err(|_| WireError::InvalidUtf8)?;
        parse(text)
    }

    fn name(&self) -> &'static str {
        "json"
    }
}

/// Serializes a value as compact JSON text.
pub(crate) fn to_json_string(value: &Value) -> String {
    let mut out = String::with_capacity(64);
    write_value(&mut out, value);
    out
}

fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::I64(v) => out.push_str(&v.to_string()),
        Value::U64(v) => out.push_str(&v.to_string()),
        Value::F64(v) => {
            if v.is_finite() {
                // Debug formatting always includes '.' or 'e', so the text
                // re-parses as a float rather than an integer.
                out.push_str(&format!("{v:?}"));
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Bytes(b) => {
            out.push_str("{\"$bytes\":\"");
            for byte in b {
                out.push_str(&format!("{byte:02x}"));
            }
            out.push_str("\"}");
        }
        Value::List(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, key);
                out.push(':');
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    /// The document, already validated as UTF-8, so string runs are sliced
    /// out of it rather than re-validated.
    src: &'a str,
    text: &'a [u8],
    pos: usize,
}

/// Parses a complete JSON document.
fn parse(text: &str) -> WireResult<Value> {
    let mut p = Parser {
        src: text,
        text: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.text.len() {
        return Err(WireError::TrailingBytes(p.text.len() - p.pos));
    }
    Ok(value)
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> WireError {
        WireError::Json {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.text.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> WireResult<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> WireResult<Value> {
        if self.text[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> WireResult<Value> {
        match self.peek().ok_or(WireError::UnexpectedEof)? {
            b'n' => self.literal("null", Value::Null),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'"' => Ok(Value::Str(self.string()?)),
            b'[' => self.list(),
            b'{' => self.map(),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(self.err(format!("unexpected character '{}'", c as char))),
        }
    }

    fn list(&mut self) -> WireResult<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::List(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::List(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn map(&mut self) -> WireResult<Value> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(finish_map(entries));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> WireResult<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or(WireError::UnexpectedEof)? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek().ok_or(WireError::UnexpectedEof)? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            self.pos += 1;
                            let first = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&first) {
                                // Surrogate pair.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let second = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&second) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined =
                                    0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00);
                                char::from_u32(combined)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(first)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                            // hex4 advanced pos already; skip the +1 below.
                            continue;
                        }
                        c => return Err(self.err(format!("bad escape '\\{}'", c as char))),
                    }
                    self.pos += 1;
                }
                _ => {
                    // Copy the run of unescaped bytes up to the next quote
                    // or backslash as one slice. Both are ASCII, so the run
                    // ends on a char boundary of the validated text, and
                    // every byte is visited once: decoding is linear.
                    let start = self.pos;
                    let run = self.text[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .ok_or(WireError::UnexpectedEof)?;
                    self.pos += run;
                    out.push_str(&self.src[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> WireResult<u32> {
        if self.pos + 4 > self.text.len() {
            return Err(WireError::UnexpectedEof);
        }
        let hex = std::str::from_utf8(&self.text[self.pos..self.pos + 4])
            .map_err(|_| WireError::InvalidUtf8)?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad hex digits"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> WireResult<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let raw =
            std::str::from_utf8(&self.text[start..self.pos]).map_err(|_| WireError::InvalidUtf8)?;
        if is_float {
            raw.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| self.err(format!("bad number `{raw}`")))
        } else if let Ok(v) = raw.parse::<i64>() {
            Ok(Value::I64(v))
        } else if let Ok(v) = raw.parse::<u64>() {
            Ok(Value::U64(v))
        } else {
            Err(self.err(format!("bad number `{raw}`")))
        }
    }
}

/// Recognizes the `{"$bytes": "<hex>"}` wrapper, otherwise keeps the map.
fn finish_map(entries: Vec<(String, Value)>) -> Value {
    if entries.len() == 1 && entries[0].0 == "$bytes" {
        if let Value::Str(hex) = &entries[0].1 {
            if hex.len() % 2 == 0 {
                let mut bytes = Vec::with_capacity(hex.len() / 2);
                let mut valid = true;
                let raw = hex.as_bytes();
                for pair in raw.chunks(2) {
                    match std::str::from_utf8(pair)
                        .ok()
                        .and_then(|h| u8::from_str_radix(h, 16).ok())
                    {
                        Some(b) => bytes.push(b),
                        None => {
                            valid = false;
                            break;
                        }
                    }
                }
                if valid {
                    return Value::Bytes(bytes);
                }
            }
        }
    }
    Value::Map(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(v: &Value) -> Value {
        JsonCodec.decode(&JsonCodec.encode(v)).unwrap()
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::I64(0),
            Value::I64(-123456),
            Value::I64(i64::MAX),
            Value::U64(u64::MAX),
            Value::F64(1.5),
            Value::F64(-0.25),
            Value::Str("plain".into()),
            Value::Str("esc \" \\ \n \t κόσμος".into()),
            Value::Bytes(vec![0xde, 0xad, 0xbe, 0xef]),
        ] {
            assert_eq!(roundtrip(&v), v);
        }
    }

    #[test]
    fn float_integral_value_stays_float() {
        assert_eq!(roundtrip(&Value::F64(2.0)), Value::F64(2.0));
    }

    #[test]
    fn u64_that_fits_normalizes_to_i64() {
        assert_eq!(roundtrip(&Value::U64(5)), Value::I64(5));
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(roundtrip(&Value::F64(f64::INFINITY)), Value::Null);
        assert_eq!(roundtrip(&Value::F64(f64::NAN)), Value::Null);
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let v = parse(" { \"a\" : [ 1 , 2.5 , \"x\" ] , \"b\" : { } } ").unwrap();
        assert_eq!(
            v,
            Value::Map(vec![
                (
                    "a".into(),
                    Value::List(vec![Value::I64(1), Value::F64(2.5), Value::from("x")])
                ),
                ("b".into(), Value::Map(vec![])),
            ])
        );
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(parse(r#""Aé😀""#).unwrap(), Value::Str("Aé😀".into()));
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "\"abc",
            "{\"a\"}",
            "01x",
            "[1 2]",
            "\"\\u12\"",
            "\"\\ud800\"",
            "nulltrailing",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn dollar_bytes_requires_exact_shape() {
        // Two keys: stays a map.
        let v = parse(r#"{"$bytes":"00","x":1}"#).unwrap();
        assert!(matches!(v, Value::Map(_)));
        // Odd-length hex: stays a map.
        let v = parse(r#"{"$bytes":"0"}"#).unwrap();
        assert!(matches!(v, Value::Map(_)));
    }

    /// Normalizes a value the way a JSON round-trip would.
    fn json_normalize(v: &Value) -> Value {
        match v {
            Value::U64(x) if *x <= i64::MAX as u64 => Value::I64(*x as i64),
            Value::F64(x) if !x.is_finite() => Value::Null,
            Value::List(items) => Value::List(items.iter().map(json_normalize).collect()),
            Value::Map(entries) => Value::Map(
                entries
                    .iter()
                    .map(|(k, v)| (k.clone(), json_normalize(v)))
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::I64),
            any::<u64>().prop_map(Value::U64),
            (-1e12f64..1e12).prop_map(Value::F64),
            "\\PC{0,16}".prop_map(Value::Str),
            proptest::collection::vec(any::<u8>(), 0..32).prop_map(Value::Bytes),
        ];
        leaf.prop_recursive(3, 32, 5, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..5).prop_map(Value::List),
                proptest::collection::vec(("\\PC{0,6}", inner), 0..5).prop_map(Value::Map),
            ]
        })
    }

    /// Best-of-5 wall time to decode one JSON string of `len` bytes
    /// (`len` even: the string is made of 2-byte characters).
    fn decode_time(len: usize) -> std::time::Duration {
        let doc = format!("\"{}\"", "é".repeat(len / 2));
        (0..5)
            .map(|_| {
                let start = std::time::Instant::now();
                let v = parse(&doc).unwrap();
                let took = start.elapsed();
                assert!(matches!(&v, Value::Str(s) if s.len() == len));
                took
            })
            .min()
            .unwrap()
    }

    #[test]
    fn string_decode_time_is_linear_in_length() {
        // Doubling the input must not much more than double the work: a
        // decoder that rescans the rest of the document per character is
        // quadratic and takes about 4x as long.
        let small = decode_time(64 * 1024);
        let large = decode_time(128 * 1024);
        assert!(
            large < small * 3,
            "128 KiB took {large:?}, 64 KiB took {small:?}: decoding is not linear"
        );
    }

    proptest! {
        #[test]
        fn prop_json_roundtrip_modulo_normalization(v in arb_value()) {
            let expected = json_normalize(&v);
            prop_assert_eq!(roundtrip(&v), expected);
        }

        #[test]
        fn prop_parser_never_panics(s in "\\PC{0,128}") {
            let _ = parse(&s);
        }
    }
}
