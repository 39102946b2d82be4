//! The workspace's one JSON layer: a std-only [`Json`] value with one writer
//! ([`Json::render`]) and one reader ([`parse`]), used for every artifact,
//! trace, bundle and `--json` report, and by `ve-report` to read them back.
//!
//! * [`Json::Num`] keeps the number's text (the constructor's precision, or
//!   the document's digits), so `parse(&v.render()) == Ok(v)` and
//!   re-rendering a parsed artifact reproduces it byte for byte.
//! * Layout: key-sorted objects, one member per line, two-space indent;
//!   arrays of scalars inline, arrays holding a container one element per
//!   line. Strings escape `"`, `\` and every character below U+0020.
//! * Reading is strict RFC 8259: numbers outside the JSON grammar, raw
//!   control characters in strings, lone surrogates, duplicate keys and
//!   trailing content are errors, and so is nesting deeper than 128.

use std::collections::BTreeMap;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// The number's text, as a constructor formatted it or a document wrote it.
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    /// Members render key-sorted regardless of insertion order.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn u64(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    pub fn usize(v: usize) -> Json {
        Json::Num(v.to_string())
    }

    /// `v` rendered with `decimals` fraction digits; non-finite → `null`.
    pub fn f64(v: f64, decimals: usize) -> Json {
        if v.is_finite() {
            Json::Num(format!("{v:.decimals$}"))
        } else {
            Json::Null
        }
    }

    pub fn opt_f64(v: Option<f64>, decimals: usize) -> Json {
        v.map_or(Json::Null, |x| Json::f64(x, decimals))
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj(pairs: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Object member lookup (`None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.get(key),
            _ => None,
        }
    }

    /// Dotted-path lookup: `strategies.ve_full.measured_median_visible_secs`
    /// walks nested objects. A purely numeric segment indexes into an array
    /// (`runs.0.median_ns` style paths).
    pub fn path(&self, dotted: &str) -> Option<&Json> {
        let mut cur = self;
        for seg in dotted.split('.') {
            cur = match cur {
                Json::Obj(_) => cur.get(seg)?,
                Json::Arr(items) => items.get(seg.parse::<usize>().ok()?)?,
                _ => return None,
            };
        }
        Some(cur)
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// The document as newline-terminated text in the module's one layout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        let (open, close, items): (char, char, Vec<(Option<&String>, &Json)>) = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => return out.push_str(n),
            Json::Str(s) => return render_str(out, s),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(m) => ('{', '}', m.iter().map(|(k, v)| (Some(k), v)).collect()),
        };
        let scalars = open == '[' && !items.iter().any(|(_, v)| v.is_container());
        let (lead, sep, tail) = if scalars || items.is_empty() {
            (String::new(), ", ".to_string(), String::new())
        } else {
            let pad = "  ".repeat(indent);
            (
                format!("\n{pad}  "),
                format!(",\n{pad}  "),
                format!("\n{pad}"),
            )
        };
        out.push(open);
        out.push_str(&lead);
        for (i, (key, value)) in items.into_iter().enumerate() {
            if i > 0 {
                out.push_str(&sep);
            }
            if let Some(key) = key {
                render_str(out, key);
                out.push_str(": ");
            }
            value.render_into(out, indent + 1);
        }
        out.push_str(&tail);
        out.push(close);
    }

    fn is_container(&self) -> bool {
        matches!(self, Json::Arr(_) | Json::Obj(_))
    }
}

/// Collects into a [`Json::Arr`].
impl FromIterator<Json> for Json {
    fn from_iter<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Arr(items.into_iter().collect())
    }
}

fn render_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one complete JSON document (strict RFC 8259).
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { src: text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos < text.len() {
        return p.fail("trailing content");
    }
    Ok(value)
}

/// Bounds recursion, so hostile input fails instead of overflowing the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    src: &'a str,
    /// Byte offset of the next unread character.
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn fail<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.eat(byte) {
            Ok(())
        } else {
            self.fail(&format!("expected `{}`", byte as char))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `[0-9]*`; `false` if the run was empty.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// A value nested `depth` containers deep.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'[' | b'{') if depth == MAX_DEPTH => self.fail("nesting too deep"),
            Some(b'[') => {
                let mut items = Vec::new();
                while self.next_item(b']', items.is_empty())? {
                    items.push(self.value(depth + 1)?);
                }
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut members = BTreeMap::new();
                while self.next_item(b'}', members.is_empty())? {
                    self.skip_ws();
                    let key = self.string()?;
                    if members.contains_key(&key) {
                        return self.fail(&format!("duplicate key `{key}`"));
                    }
                    self.skip_ws();
                    self.expect(b':')?;
                    members.insert(key, self.value(depth + 1)?);
                }
                Ok(Json::Obj(members))
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            _ => self.fail("expected a value"),
        }
    }

    /// Steps over the opening bracket (`first`) or the comma before the next
    /// item; `false` once `close` ends the container.
    fn next_item(&mut self, close: u8, first: bool) -> Result<bool, String> {
        self.pos += usize::from(first);
        self.skip_ws();
        if self.eat(close) {
            return Ok(false);
        }
        if !first {
            self.expect(b',')?;
        }
        Ok(true)
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if !self.src[self.pos..].starts_with(lit) {
            return self.fail("invalid literal");
        }
        self.pos += lit.len();
        Ok(value)
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.eat(b'-');
        let nonzero = matches!(self.peek(), Some(b'1'..=b'9'));
        let int = self.eat(b'0') || nonzero && self.digits();
        let frac = !self.eat(b'.') || self.digits();
        let exp = !(self.eat(b'e') || self.eat(b'E')) || {
            let _sign = self.eat(b'+') || self.eat(b'-');
            self.digits()
        };
        if !(int && frac && exp) {
            return self.fail("invalid number");
        }
        Ok(Json::Num(self.src[start..self.pos].to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy up to the next quote, backslash or control character (all
            // ASCII, so the run ends on a char boundary).
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b >= 0x20 && b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(&self.src[run..self.pos]);
            if self.eat(b'"') {
                return Ok(out);
            }
            if !self.eat(b'\\') {
                return self.fail("raw control character or unterminated string");
            }
            let escape = self.peek();
            self.pos += 1;
            out.push(match escape {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => self.code_point()?,
                _ => return self.fail("invalid escape"),
            });
        }
    }

    /// The character of a `\u` escape, joining a UTF-16 surrogate pair.
    fn code_point(&mut self) -> Result<char, String> {
        let high = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&high) {
            let paired = self.eat(b'\\') && self.eat(b'u');
            let low = if paired { self.hex4()? } else { 0 };
            if !(0xDC00..0xE000).contains(&low) {
                return self.fail("lone surrogate");
            }
            0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
        } else {
            high
        };
        // Only an unpaired low surrogate is not a `char` here.
        char::from_u32(code).map_or_else(|| self.fail("lone surrogate"), Ok)
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self.src.get(self.pos..self.pos + 4);
        match hex.filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit())) {
            Some(h) => {
                self.pos += 4;
                u32::from_str_radix(h, 16).map_err(|e| e.to_string())
            }
            None => self.fail("expected four hex digits"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_artifact_shapes() {
        let doc = parse(
            r#"{
                "schema": "vocalexplore/bench_latency/v2",
                "quick": true,
                "strategies": {"ve_full": {"measured_median_visible_secs": 0.725}},
                "pools": [1000, 5000],
                "speedup": null,
                "neg": -1.5e3
            }"#,
        )
        .unwrap();
        let secs = doc.path("strategies.ve_full.measured_median_visible_secs");
        assert_eq!(secs.and_then(Json::as_f64), Some(0.725));
        assert_eq!(doc.get("quick").and_then(Json::as_bool), Some(true));
        assert!(doc.get("speedup").unwrap().is_null());
        assert_eq!(doc.path("pools.1").and_then(Json::as_f64), Some(5000.0));
        assert_eq!(doc.get("neg"), Some(&Json::Num("-1.5e3".to_string())));
        assert_eq!(doc.get("neg").and_then(Json::as_f64), Some(-1500.0));
        let schema = doc.get("schema").and_then(Json::as_str);
        assert_eq!(schema, Some("vocalexplore/bench_latency/v2"));
    }

    #[test]
    fn escapes_round_trip() {
        let doc = parse(r#"{"k": "a\"b\\c\ndA\u0001\/"}"#).unwrap();
        let k = "a\"b\\c\ndA\u{1}/";
        assert_eq!(doc.get("k").and_then(Json::as_str), Some(k));
        let text = Json::str(k).render();
        assert_eq!(text, "\"a\\\"b\\\\c\\ndA\\u0001/\"\n");
        assert_eq!(parse(&text), Ok(Json::str(k)));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "{\"a\": 1,}",
            "[1 2]",
            "[1,]",
            "{\"a\": 1} x",
            "\"open",
            "nul",
            "",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` must not parse");
        }
        assert!(parse(r#""\x""#).is_err() && parse(r#""\u12""#).is_err());
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&format!("{}{}", "[".repeat(128), "]".repeat(128))).is_ok());
    }

    #[test]
    fn rejects_numbers_outside_the_json_grammar() {
        for bad in [
            "+1", ".5", "1.", "01", "-", "-01", "1e", "1e+", "0x10", "1.e3",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` must not parse");
        }
        for good in ["0", "-0", "10", "-1.5", "0.25", "1E-5", "2.5e+10"] {
            assert_eq!(parse(good), Ok(Json::Num(good.to_string())));
        }
    }

    #[test]
    fn rejects_raw_control_characters_in_strings() {
        assert!(parse("\"line\nbreak\"").is_err());
        assert!(parse("\"nul\u{0}\"").is_err());
        // DEL and U+2028 are not control characters in JSON's sense.
        let expected = Json::Arr(vec![Json::str("\u{7f}\u{2028}")]);
        assert_eq!(parse("[\n\t\"\u{7f}\u{2028}\"\r\n]"), Ok(expected));
    }

    #[test]
    fn decodes_surrogate_pairs_and_rejects_lone_surrogates() {
        assert_eq!(parse(r#""\ud83e\udd80""#), Ok(Json::str("🦀")));
        for tail in ["", "x", r"\u0041"] {
            assert!(parse(&format!(r#""\ud83d{tail}""#)).is_err(), "{tail}");
        }
        assert!(parse(r#""\udd80""#).is_err());
    }

    #[test]
    fn rejects_duplicate_keys() {
        let err = parse(r#"{"a": 1, "b": 2, "a": 3}"#).unwrap_err();
        assert!(err.contains("duplicate key `a`"), "{err}");
        assert!(parse(r#"[{"a": 1}, {"a": 2}]"#).is_ok());
    }

    #[test]
    fn missing_paths_are_none_not_panics() {
        let doc = parse(r#"{"a": {"b": 1}}"#).unwrap();
        assert!(doc.path("a.c").is_none() && doc.path("a.b.c").is_none());
        assert!(doc.path("x").is_none());
    }

    #[test]
    fn layout_sorts_keys_and_inlines_only_scalar_arrays() {
        let doc = parse(r#"{"zeta": [4, null, "x"], "alpha": [{"b": true}, []], "empty": {}}"#);
        let expected = "{\n  \"alpha\": [\n    {\n      \"b\": true\n    },\n    []\n  ],\n  \
                        \"empty\": {},\n  \"zeta\": [4, null, \"x\"]\n}\n";
        assert_eq!(doc.map(|d| d.render()), Ok(expected.to_string()));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn next(tape: &mut std::slice::Iter<u32>) -> u32 {
            tape.next().copied().unwrap_or(0)
        }

        /// A code point from the classes the writer must handle: C0
        /// controls, DEL, `"` and `\`, U+2028, astral, other BMP, ASCII.
        fn code_point(word: u32) -> char {
            let pick = word >> 3;
            let code = match word % 8 {
                0 => pick % 0x20,
                1 => 0x7f,
                2 => [0x22, 0x5c][(pick % 2) as usize],
                3 => 0x2028,
                4 => 0x1_0000 + pick % 0x10_0000,
                5 => 0xa0 + pick % 0xd700,
                _ => 0x20 + pick % 0x5f,
            };
            char::from_u32(code).expect("no class reaches the surrogates")
        }

        fn string(tape: &mut std::slice::Iter<u32>) -> String {
            (0..next(tape) % 12)
                .map(|_| code_point(next(tape)))
                .collect()
        }

        /// A random tree drawn off `tape`; an exhausted tape reads zeros,
        /// which bottoms every branch out at `null`.
        fn value(tape: &mut std::slice::Iter<u32>, depth: u32) -> Json {
            let word = next(tape);
            match word % if depth >= 4 { 5 } else { 7 } {
                0 => Json::Null,
                1 => Json::Bool(word & 8 != 0),
                2 => Json::u64(u64::from(next(tape)) << (word % 33)),
                3 => Json::f64(
                    f64::from(next(tape) as i32) / 1024.0,
                    (word >> 3) as usize % 7,
                ),
                4 => Json::Str(string(tape)),
                5 => Json::Arr(
                    (0..next(tape) % 5)
                        .map(|_| value(tape, depth + 1))
                        .collect(),
                ),
                _ => Json::Obj(
                    (0..next(tape) % 5)
                        .map(|_| (string(tape), value(tape, depth + 1)))
                        .collect(),
                ),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]
            #[test]
            fn render_then_parse_is_the_identity(words in collection::vec(any::<u32>(), 0..160)) {
                let v = value(&mut words.iter(), 0);
                let text = v.render();
                prop_assert_eq!(parse(&text), Ok(v), "{}", text);
            }
        }
    }
}
