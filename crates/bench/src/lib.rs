//! Gate-example support, with no dependencies: the [`json`] emitter the
//! gate examples write their `BENCH_*.json` artifacts with, and the
//! [`gate`] they check their claims through.
//!
//! The paper's tables and figures print from the `paper_figures` example
//! (README's "Regenerating paper figures and tables"); `perfbench`
//! measures the simulator's host time.

pub mod gate;

pub mod json {
    //! Minimal JSON emitter for machine-readable `BENCH_*.json` bench
    //! artifacts.
    //!
    //! The build environment has no crates.io access and the workspace
    //! vendors no serialization framework, so this is a small
    //! hand-rolled value tree + serializer: enough to persist bench rows
    //! (numbers, strings, arrays, objects) deterministically across PRs.
    //! Object keys keep insertion order so emitted artifacts diff cleanly.

    use std::fmt::Write as _;
    use std::io;
    use std::path::Path;

    /// A JSON value.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Json {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// A finite number (non-finite values serialize as `null`, like
        /// serde_json's lossy float mode).
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Json>),
        /// An object with insertion-ordered keys.
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        /// Convenience string constructor.
        pub fn str(s: impl Into<String>) -> Json {
            Json::Str(s.into())
        }

        /// Convenience object constructor from `(key, value)` pairs.
        pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
            Json::Obj(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        }

        /// Serializes with two-space indentation and a trailing newline.
        fn to_pretty(&self) -> String {
            let mut out = String::new();
            self.write(&mut out, 0);
            out.push('\n');
            out
        }

        fn write(&self, out: &mut String, indent: usize) {
            let pad = "  ".repeat(indent);
            match self {
                Json::Null => out.push_str("null"),
                Json::Bool(b) => {
                    let _ = write!(out, "{b}");
                }
                Json::Num(n) => {
                    if n.is_finite() {
                        let _ = write!(out, "{n}");
                    } else {
                        out.push_str("null");
                    }
                }
                Json::Str(s) => write_escaped(out, s),
                Json::Arr(items) => {
                    if items.is_empty() {
                        out.push_str("[]");
                        return;
                    }
                    out.push_str("[\n");
                    for (i, item) in items.iter().enumerate() {
                        let _ = write!(out, "{pad}  ");
                        item.write(out, indent + 1);
                        out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                    }
                    let _ = write!(out, "{pad}]");
                }
                Json::Obj(fields) => {
                    if fields.is_empty() {
                        out.push_str("{}");
                        return;
                    }
                    out.push_str("{\n");
                    for (i, (k, v)) in fields.iter().enumerate() {
                        let _ = write!(out, "{pad}  ");
                        write_escaped(out, k);
                        out.push_str(": ");
                        v.write(out, indent + 1);
                        out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                    }
                    let _ = write!(out, "{pad}}}");
                }
            }
        }
    }

    impl From<f64> for Json {
        fn from(v: f64) -> Json {
            Json::Num(v)
        }
    }

    impl From<usize> for Json {
        fn from(v: usize) -> Json {
            Json::Num(v as f64)
        }
    }

    fn write_escaped(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// Writes a value as pretty JSON to `path`.
    pub fn write_file(path: impl AsRef<Path>, value: &Json) -> io::Result<()> {
        std::fs::write(path, value.to_pretty())
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn nested_values_serialize_with_stable_layout() {
            let v = Json::obj([
                ("bench", Json::str("decode")),
                (
                    "rows",
                    Json::Arr(vec![Json::obj([
                        ("tps", Json::Num(12.5)),
                        ("batch", Json::from(8usize)),
                        ("ok", Json::Bool(true)),
                    ])]),
                ),
                ("empty", Json::Arr(vec![])),
            ]);
            let s = v.to_pretty();
            assert_eq!(
                s,
                "{\n  \"bench\": \"decode\",\n  \"rows\": [\n    {\n      \"tps\": 12.5,\n      \"batch\": 8,\n      \"ok\": true\n    }\n  ],\n  \"empty\": []\n}\n"
            );
        }

        #[test]
        fn strings_escape_and_nonfinite_numbers_null() {
            let v = Json::Arr(vec![
                Json::str("a\"b\\c\nd"),
                Json::Num(f64::NAN),
                Json::Null,
            ]);
            assert_eq!(
                v.to_pretty(),
                "[\n  \"a\\\"b\\\\c\\nd\",\n  null,\n  null\n]\n"
            );
        }
    }
}
