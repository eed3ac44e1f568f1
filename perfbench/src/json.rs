//! A minimal JSON object writer (the benchmark has no serde).

/// An ordered JSON object under construction.
#[derive(Debug, Clone, Default)]
pub struct Obj(Vec<(String, String)>);

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values become `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj(Vec::new())
    }

    /// Adds a raw, already-encoded value.
    pub fn raw(mut self, key: &str, json: String) -> Obj {
        self.0.push((key.to_string(), json));
        self
    }

    /// Adds a number.
    pub fn num(self, key: &str, v: f64) -> Obj {
        self.raw(key, number(v))
    }

    /// Adds a string.
    pub fn str(self, key: &str, v: &str) -> Obj {
        self.raw(key, quote(v))
    }

    /// Adds a boolean.
    pub fn bool(self, key: &str, v: bool) -> Obj {
        self.raw(key, v.to_string())
    }

    /// Adds a nested object.
    pub fn obj(self, key: &str, v: Obj) -> Obj {
        self.raw(key, v.render())
    }

    /// Encodes the object on one line.
    pub fn render(&self) -> String {
        let fields: Vec<String> =
            self.0.iter().map(|(k, v)| format!("{}: {v}", quote(k))).collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_objects_and_escapes() {
        let o = Obj::new()
            .bool("ok", true)
            .num("n", 1.5)
            .num("bad", f64::NAN)
            .str("s", "a\"b\\c\n")
            .obj("m", Obj::new().num("x", 2.0));
        assert_eq!(
            o.render(),
            r#"{"ok": true, "n": 1.5, "bad": null, "s": "a\"b\\c\u000a", "m": {"x": 2}}"#
        );
    }
}
