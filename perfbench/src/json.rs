//! Just enough JSON writing for the benchmark's output lines.

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; `null` for a value JSON cannot hold.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// An object built key by key, in insertion order.
#[derive(Debug, Default)]
pub struct Object(Vec<(String, String)>);

impl Object {
    /// An empty object.
    pub fn new() -> Object {
        Object::default()
    }

    /// Add a member whose value is already JSON.
    pub fn raw(&mut self, key: &str, value: String) -> &mut Object {
        self.0.push((key.to_string(), value));
        self
    }

    /// Add a string member.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Object {
        self.raw(key, string(value))
    }

    /// Add a number member.
    pub fn num(&mut self, key: &str, value: f64) -> &mut Object {
        self.raw(key, number(value))
    }

    /// The object's text.
    pub fn finish(&self) -> String {
        let members: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {v}", string(k)))
            .collect();
        format!("{{{}}}", members.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_valid_members() {
        let mut o = Object::new();
        o.str("a\"b", "x\ny")
            .num("n", 1.25)
            .num("bad", f64::NAN)
            .raw("o", "{}".into());
        assert_eq!(
            o.finish(),
            r#"{"a\"b": "x\ny", "n": 1.25, "bad": null, "o": {}}"#
        );
        assert_eq!(number(1e-7), "0.0000001");
        assert_eq!(number(3.0), "3");
    }
}
