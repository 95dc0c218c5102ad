//! The JSON the benchmark writes. Its own writer, not
//! `corm_bench::report::Json`: every item of the program the benchmark uses
//! is an item a later change cannot remove without editing the benchmark.

use std::fmt::Write;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    UInt(u64),
    /// Rendered with every digit Rust's shortest round-trip form has.
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Fields keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Compact, single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write!(out, "{b}").unwrap(),
            Json::UInt(n) => write!(out, "{n}").unwrap(),
            Json::Float(x) if x.is_finite() => write!(out, "{x:?}").unwrap(),
            Json::Float(_) => out.push_str("null"),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
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
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_ordered_and_escaped() {
        let j = Json::obj([
            ("b", Json::Bool(true)),
            ("n", Json::UInt(u64::MAX)),
            ("x", Json::Float(0.1 + 0.2)),
            ("whole", Json::Float(3.0)),
            ("nan", Json::Float(f64::NAN)),
            ("s", Json::Str("a\"b\\c\n".into())),
            ("a", Json::Arr(vec![Json::Null, Json::UInt(1)])),
        ]);
        assert_eq!(
            j.render(),
            "{\"b\":true,\"n\":18446744073709551615,\"x\":0.30000000000000004,\"whole\":3.0,\
             \"nan\":null,\"s\":\"a\\\"b\\\\c\\u000a\",\"a\":[null,1]}"
        );
    }
}
