//! A small recursive-descent JSON parser into the vendored
//! [`serde::Value`] model, plus render helpers for raw `Value` trees.
//!
//! The vendored `serde_json` stand-in renders but never parses — so the
//! round-trip half of the CI metrics smoke ("does the emitted snapshot
//! parse back to the same document?") needs an in-repo parser. This one
//! accepts exactly the JSON this workspace emits (no trailing commas,
//! no comments) and is used only by tests, tooling, and the
//! `multi_ap_fence --metrics-out` validator — never on the hot path.

use serde::{Serialize, Value};

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so the cap is what keeps hostile input such as
/// `[[[[…` from overflowing the stack; the snapshot documents this
/// workspace emits nest five levels deep.
pub const MAX_DEPTH: usize = 128;

/// Parse a JSON document into a [`Value`] tree. Errors carry the byte
/// offset of the failure; nesting deeper than [`MAX_DEPTH`] is an error.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

/// Render a raw [`Value`] tree as compact JSON (the vendored
/// `serde_json` only accepts `Serialize` types, which `Value` itself is
/// not).
pub fn render(v: &Value) -> String {
    serde_json::to_string(&Raw(v)).expect("Value rendering is infallible")
}

/// Render a raw [`Value`] tree as pretty-printed JSON.
pub fn render_pretty(v: &Value) -> String {
    serde_json::to_string_pretty(&Raw(v)).expect("Value rendering is infallible")
}

struct Raw<'a>(&'a Value);

impl Serialize for Raw<'_> {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {:?} at byte {}", other, self.pos)),
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        self.skip_ws();
        let mut entries = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            entries.push((k, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 near byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            out.push(
                                char::from_u32(code).ok_or_else(|| {
                                    format!("bad code point at byte {}", self.pos)
                                })?,
                            );
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?} at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                other => {
                    return Err(format!(
                        "unterminated string ({other:?}) at byte {}",
                        self.pos
                    ))
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| format!("bad number at byte {start}"))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| format!("bad number at byte {start}"))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|_| format!("bad number at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_parse() {
        assert_eq!(parse("null"), Ok(Value::Null));
        assert_eq!(parse(" true "), Ok(Value::Bool(true)));
        assert_eq!(parse("42"), Ok(Value::UInt(42)));
        assert_eq!(parse("-7"), Ok(Value::Int(-7)));
        assert_eq!(parse("2.5"), Ok(Value::Float(2.5)));
        assert_eq!(parse("1e3"), Ok(Value::Float(1000.0)));
        assert_eq!(
            parse("\"a\\n\\\"b\\u0041\""),
            Ok(Value::Str("a\n\"bA".into()))
        );
    }

    #[test]
    fn containers_parse_in_order() {
        let v = parse("{\"b\": [1, -2, {\"x\": null}], \"a\": 3}").unwrap();
        match v {
            Value::Object(entries) => {
                // Insertion order is preserved (the Value model is an
                // ordered object).
                assert_eq!(entries[0].0, "b");
                assert_eq!(entries[1].0, "a");
            }
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(parse("").is_err());
        assert!(parse("{\"a\": 1,}").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("1 2").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(200_000);
        let err = parse(&deep).expect_err("unterminated deep nesting");
        assert!(err.contains(&format!("at byte {MAX_DEPTH}")), "{err}");
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok());
        let over = format!(
            "{}{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&over).is_err());
    }

    #[test]
    fn render_parse_round_trip() {
        let v = Value::Object(vec![
            ("name".into(), Value::Str("stage.decode\n".into())),
            ("count".into(), Value::UInt(12)),
            ("delta".into(), Value::Int(-4)),
            ("mean".into(), Value::Float(3.5)),
            (
                "buckets".into(),
                Value::Array(vec![Value::UInt(1), Value::Null, Value::Bool(false)]),
            ),
            ("empty".into(), Value::Object(vec![])),
        ]);
        for text in [render(&v), render_pretty(&v)] {
            let back = parse(&text).expect("own rendering parses");
            assert_eq!(render(&back), render(&v));
        }
    }
}
