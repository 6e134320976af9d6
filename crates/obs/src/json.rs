//! A serde-free JSON tree: the workspace's single JSON emitter.
//!
//! Every stats surface in the stack used to hand-roll `format!` strings;
//! this module replaces them with one value tree whose rendering is
//! unit-tested (escaping included) and whose output is one balanced JSON
//! value by construction.
//!
//! Object keys keep **insertion order** — existing consumers pin exact
//! key sequences in tests, so `Obj` is a vec of pairs, not a map.
//!
//! Floating-point output goes through validated constructors:
//! [`Json::fixed`] renders with a fixed number of decimals (the
//! `{:.6}`-style outputs the stats surfaces already pin), [`Json::f64`]
//! with shortest-round-trip formatting; both refuse NaN/infinity by
//! rendering `null` (JSON has no tokens for them).

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A pre-rendered numeric token (see [`Json::fixed`] / [`Json::f64`]).
    Num(String),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object builder.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` (builder style; preserves insertion order).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn field(mut self, key: &str, value: Json) -> Json {
        match &mut self {
            Json::Obj(pairs) => pairs.push((key.to_string(), value)),
            // INVARIANT: documented panic — `field()` on a non-object is a
            // builder misuse at the call site.
            other => panic!("field() on non-object {other:?}"),
        }
        self
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A finite float rendered with exactly `decimals` fraction digits
    /// (the `format!("{:.N}")` the legacy stats surfaces pinned);
    /// non-finite values render `null`.
    pub fn fixed(v: f64, decimals: usize) -> Json {
        if v.is_finite() {
            Json::Num(format!("{v:.decimals$}"))
        } else {
            Json::Null
        }
    }

    /// A finite float with default formatting; non-finite renders `null`.
    pub fn f64(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(format!("{v}"))
        } else {
            Json::Null
        }
    }

    /// Renders the tree as compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => out.push_str(&v.to_string()),
            Json::I64(v) => out.push_str(&v.to_string()),
            Json::Num(tok) => out.push_str(tok),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Writes `s` as a quoted JSON string, escaping quotes, backslashes and
/// control characters (`\n`/`\r`/`\t` short forms, `\u00XX` otherwise).
fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render_their_tokens() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Bool(false).render(), "false");
        assert_eq!(Json::U64(u64::MAX).render(), "18446744073709551615");
        assert_eq!(Json::I64(-7).render(), "-7");
        assert_eq!(Json::str("hi").render(), "\"hi\"");
    }

    #[test]
    fn fixed_decimals_match_legacy_format_strings() {
        assert_eq!(Json::fixed(1.6, 4).render(), "1.6000");
        assert_eq!(Json::fixed(0.0, 6).render(), "0.000000");
        assert_eq!(Json::fixed(2.0 / 3.0, 6).render(), "0.666667");
        assert_eq!(Json::fixed(f64::NAN, 4).render(), "null");
        assert_eq!(Json::fixed(f64::INFINITY, 4).render(), "null");
        assert_eq!(Json::f64(1.5).render(), "1.5");
        assert_eq!(Json::f64(f64::NEG_INFINITY).render(), "null");
    }

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        assert_eq!(
            Json::str("a\"b\\c\nd\te\rf").render(),
            "\"a\\\"b\\\\c\\nd\\te\\rf\""
        );
        assert_eq!(Json::str("\u{1}\u{1f}").render(), "\"\\u0001\\u001f\"");
        // Keys are escaped too.
        assert_eq!(
            Json::obj().field("we\"ird", Json::U64(1)).render(),
            "{\"we\\\"ird\":1}"
        );
        // Non-ASCII passes through unescaped (JSON is UTF-8).
        assert_eq!(Json::str("é∀").render(), "\"é∀\"");
    }

    #[test]
    fn nesting_and_key_order_are_preserved() {
        let j = Json::obj()
            .field("z", Json::U64(1))
            .field("a", Json::Arr(vec![Json::Null, Json::Bool(true)]))
            .field("r", Json::obj().field("pre", Json::U64(1)));
        assert_eq!(j.render(), "{\"z\":1,\"a\":[null,true],\"r\":{\"pre\":1}}");
    }

    #[test]
    #[should_panic(expected = "field() on non-object")]
    fn field_on_scalar_panics() {
        let _ = Json::U64(1).field("k", Json::Null);
    }
}
