//! The one JSON writer, plus a reader for the records it writes.
//!
//! Every JSON document the simulator emits — the `--trace` timeline,
//! the Chrome trace, `summary.json` and the `BENCH_<n>.json` records —
//! is built from [`Object`]s and [`Array`]s in one compact layout (no
//! whitespace between tokens); the workspace carries no serialization
//! dependency. [`field`] reads a scalar back by its key path, skipping
//! nested values whole, so a top-level `jobs` is never confused with
//! `host.jobs`; it accepts any whitespace, so pretty-printed records
//! from older versions still parse.

use std::fmt::Write as _;

/// Escape a string for inclusion in a JSON string literal: quotes,
/// backslashes and control characters.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Anything that renders as one JSON value.
pub trait Value {
    /// Append the value's JSON text to `out`.
    fn write(&self, out: &mut String);
}

macro_rules! display_values {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display_values!(bool, u8, u32, u64, usize);

impl Value for &str {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "\"{}\"", escape(self));
    }
}

/// `None` renders as `null`.
impl<T: Value> Value for Option<T> {
    fn write(&self, out: &mut String) {
        match self {
            Some(v) => v.write(out),
            None => out.push_str("null"),
        }
    }
}

/// An `f64` written with a fixed number of decimals (`null` when not
/// finite, which JSON cannot represent).
#[derive(Debug, Clone, Copy)]
pub struct Fixed(pub f64, pub usize);

impl Value for Fixed {
    fn write(&self, out: &mut String) {
        match *self {
            Fixed(v, decimals) if v.is_finite() => {
                let _ = write!(out, "{v:.decimals$}");
            }
            _ => out.push_str("null"),
        }
    }
}

/// Start the next member of a comma-separated object or array body.
fn next(body: &mut String) -> &mut String {
    if !body.is_empty() {
        body.push(',');
    }
    body
}

/// A JSON object under construction; keys keep insertion order.
#[derive(Debug, Default)]
pub struct Object(String);

impl Object {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append `"key":value`.
    pub fn field(mut self, key: &str, value: impl Value) -> Self {
        key.write(next(&mut self.0));
        self.0.push(':');
        value.write(&mut self.0);
        self
    }

    /// The finished document.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.0)
    }
}

impl Value for Object {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{{{}}}", self.0);
    }
}

/// An [`Object`] from `"key" => value` pairs, in order:
/// `object! { "pid" => 3u32, "kind" => "spawn" }`.
#[macro_export]
macro_rules! object {
    ($($key:literal => $value:expr),* $(,)?) => {
        $crate::json::Object::new()$(.field($key, $value))*
    };
}

/// A JSON array under construction.
#[derive(Debug, Default)]
pub struct Array(String);

impl Array {
    /// Append one element.
    pub fn push(&mut self, value: impl Value) {
        value.write(next(&mut self.0));
    }
}

impl Value for Array {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "[{}]", self.0);
    }
}

impl<V: Value> FromIterator<V> for Array {
    fn from_iter<I: IntoIterator<Item = V>>(iter: I) -> Self {
        let mut array = Array::default();
        iter.into_iter().for_each(|value| array.push(value));
        array
    }
}

/// Read the scalar at `path`, a chain of object keys from the document
/// root: the raw token of a number, boolean or `null`, the contents
/// (escapes left as written) of a string. `None` when a key is missing,
/// the value is an object or array, or the document is malformed or
/// truncated.
pub fn field<'a>(doc: &'a str, path: &[&str]) -> Option<&'a str> {
    let mut cursor = Cursor { doc, at: 0 };
    for key in path {
        cursor.enter(key)?;
    }
    if matches!(cursor.peek()?, b'{' | b'[') {
        return None;
    }
    let value = cursor.value()?;
    // A truncated document can end mid-token: only a member followed by
    // `,` or `}` was read whole.
    matches!(cursor.peek(), Some(b',' | b'}')).then_some(value)
}

/// A read position in a JSON document.
struct Cursor<'a> {
    doc: &'a str,
    at: usize,
}

impl<'a> Cursor<'a> {
    /// The next non-whitespace byte, without consuming it.
    fn peek(&mut self) -> Option<u8> {
        let bytes = self.doc.as_bytes();
        while bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
        bytes.get(self.at).copied()
    }

    fn eat(&mut self, byte: u8) -> Option<()> {
        (self.peek()? == byte).then(|| self.at += 1)
    }

    /// Consume a string literal, returning its contents.
    fn string(&mut self) -> Option<&'a str> {
        self.eat(b'"')?;
        let start = self.at;
        loop {
            match *self.doc.as_bytes().get(self.at)? {
                b'\\' => self.at += 2,
                b'"' => break,
                _ => self.at += 1,
            }
        }
        self.at += 1;
        Some(&self.doc[start..self.at - 1])
    }

    /// Consume one value: a string (returning its contents), a scalar
    /// token, or a whole object or array (returning its text).
    fn value(&mut self) -> Option<&'a str> {
        let start = self.at;
        let mut depth = 0usize;
        loop {
            match self.peek()? {
                b'"' if depth == 0 => return self.string(),
                b'"' => {
                    self.string()?;
                    continue;
                }
                b'{' | b'[' => depth += 1,
                b'}' | b']' if depth > 0 => depth -= 1,
                b',' | b'}' | b']' if depth == 0 => break,
                _ => {}
            }
            self.at += 1;
            let byte = self.doc.as_bytes().get(self.at);
            if depth == 0 && byte.is_none_or(u8::is_ascii_whitespace) {
                break;
            }
        }
        let value = self.doc[start..self.at].trim();
        (!value.is_empty()).then_some(value)
    }

    /// Step into the object at the cursor and stop before the value of
    /// `key`, skipping every earlier member whole.
    fn enter(&mut self, key: &str) -> Option<()> {
        self.eat(b'{')?;
        loop {
            if self.string()? == key {
                return self.eat(b':');
            }
            self.eat(b':')?;
            self.value()?;
            self.eat(b',')?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(escape(r#"a "b" \c"#), r#"a \"b\" \\c"#);
        assert_eq!(escape("tab\tnl\ncr\r\u{1}"), "tab\\u0009nl\\u000acr\\u000d\\u0001");
        assert_eq!(escape("µs → ok"), "µs → ok", "non-ASCII passes through");
        let doc = Object::new().field("k\"ey", "v\\al\n").finish();
        assert_eq!(doc, r#"{"k\"ey":"v\\al\u000a"}"#);
    }

    #[test]
    fn builds_nested_objects_and_arrays_compactly() {
        let inner = Object::new().field("on", true).field("off", false).field("none", None::<u64>);
        let list: Array = [1u64, 2, 3].into_iter().collect();
        let nested: Array = (0..2u32).map(|i| Object::new().field("i", i)).collect();
        let doc = Object::new()
            .field("n", 42u64)
            .field("s", "x")
            .field("some", Some(7u8))
            .field("inner", inner)
            .field("list", list)
            .field("empty", Array::default())
            .field("nested", nested)
            .field("obj", Object::new())
            .finish();
        assert_eq!(
            doc,
            r#"{"n":42,"s":"x","some":7,"inner":{"on":true,"off":false,"none":null},"list":[1,2,3],"empty":[],"nested":[{"i":0},{"i":1}],"obj":{}}"#
        );
    }

    #[test]
    fn fixed_precision_floats() {
        let doc = Object::new()
            .field("a", Fixed(1.0, 6))
            .field("b", Fixed(117_468_186.84, 1))
            .field("c", Fixed(0.70304, 4))
            .field("d", Fixed(2.5, 0))
            .field("nan", Fixed(f64::NAN, 1))
            .field("inf", Fixed(f64::INFINITY, 1))
            .finish();
        assert_eq!(doc, r#"{"a":1.000000,"b":117468186.8,"c":0.7030,"d":2,"nan":null,"inf":null}"#);
    }

    #[test]
    fn reader_follows_key_paths_not_first_matches() {
        let doc = r#"{"host":{"jobs":4,"name":"a,b}"},"list":[{"jobs":9},"]"],"jobs":1,
                     "baseline":{"rate":2.5,"flag":true,"gone":null},"rate":7.0}"#;
        assert_eq!(field(doc, &["jobs"]), Some("1"));
        assert_eq!(field(doc, &["host", "jobs"]), Some("4"));
        assert_eq!(field(doc, &["host", "name"]), Some("a,b}"));
        assert_eq!(field(doc, &["rate"]), Some("7.0"));
        assert_eq!(field(doc, &["baseline", "rate"]), Some("2.5"));
        assert_eq!(field(doc, &["baseline", "flag"]), Some("true"));
        assert_eq!(field(doc, &["baseline", "gone"]), Some("null"));
        assert_eq!(field(doc, &["host"]), None, "containers are not scalars");
        assert_eq!(field(doc, &["list", "jobs"]), None, "arrays have no keys");
        assert_eq!(field(doc, &["missing"]), None);
        assert_eq!(field(doc, &["host", "missing"]), None);
    }

    #[test]
    fn reader_round_trips_the_writer_and_tolerates_layout() {
        let doc = Object::new()
            .field("name", "q\"uote")
            .field("inner", Object::new().field("x", 3u64))
            .field("x", 5u64)
            .finish();
        assert_eq!(field(&doc, &["name"]), Some(r#"q\"uote"#), "escapes are left as written");
        assert_eq!(field(&doc, &["inner", "x"]), Some("3"));
        assert_eq!(field(&doc, &["x"]), Some("5"));
        let pretty = "{\n  \"a\": {\"b\": [1, 2]},\n  \"c\" :\t\"d\"\n}\n";
        assert_eq!(field(pretty, &["c"]), Some("d"));
        for broken in ["", "{", "{\"c\"", "{\"a\":{\"b\":1", "{\"c\":\"d", "[1,2]", "{\"a\" 1}"] {
            assert_eq!(field(broken, &["c"]), None, "{broken:?}");
        }
        // Records on disk are outside input: no truncation may panic.
        let doc = r#"{"a":{"b":[1,"x\"y",{"c":null}]},"é":"ü","n":-1.5e3}"#;
        assert_eq!(field(doc, &["n"]), Some("-1.5e3"));
        assert_eq!(field(doc, &["é"]), Some("ü"));
        for (end, _) in doc.char_indices() {
            assert_eq!(field(&doc[..end], &["n"]), None, "{end}");
            let _ = field(&doc[..end], &["a", "b"]);
        }
    }
}
