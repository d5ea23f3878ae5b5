//! The one JSON writer: the Chrome trace export and every body the
//! serve tier answers with (metrics, health, models, inference, errors).
//! Each key is written beside its value (`w.key(k).raw(v)`), the writer
//! places every `,` and `:`, and a container opens and closes around a
//! closure, so output cannot be unbalanced or mis-separated. Numbers
//! are written by their `Display` form or at a fixed precision.
//!
//! ```
//! let json = mfdfp_obs::json::object(|w| {
//!     w.key("name").str("a\"b");
//!     w.key("mean").fixed(1.25, 1);
//!     w.key("sizes").values([1, 2]);
//! });
//! assert_eq!(json, r#"{"name":"a\"b","mean":1.2,"sizes":[1,2]}"#);
//! ```

use std::fmt::{Display, Write as _};

/// Renders one JSON object whose members `body` writes.
pub fn object(body: impl FnOnce(&mut JsonWriter)) -> String {
    let mut w = JsonWriter::default();
    w.object(body);
    w.out
}

/// A streaming JSON text builder; see the [module docs](self).
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Whether the next key or value follows a sibling and needs a `,`.
    comma: bool,
}

impl JsonWriter {
    /// An object member's key; the value written next completes it.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.str(key);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// A string value, quoted and escaped.
    pub fn str(&mut self, s: &str) {
        self.separate();
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    /// A value written verbatim by its `Display` form: an integer, a
    /// bool, or JSON text rendered elsewhere.
    pub fn raw(&mut self, value: impl Display) {
        self.separate();
        let _ = write!(self.out, "{value}"); // writing to a String cannot fail
    }

    /// A float with exactly `decimals` fractional digits.
    pub fn fixed(&mut self, value: f64, decimals: usize) {
        self.raw(format_args!("{value:.decimals$}"));
    }

    /// An array of values written verbatim.
    pub fn values<T: Display>(&mut self, items: impl IntoIterator<Item = T>) {
        self.array(|w| items.into_iter().for_each(|item| w.raw(item)));
    }

    /// An object whose members `body` writes.
    pub fn object(&mut self, body: impl FnOnce(&mut Self)) {
        self.container('{', body, '}');
    }

    /// An array whose elements `body` writes.
    pub fn array(&mut self, body: impl FnOnce(&mut Self)) {
        self.container('[', body, ']');
    }

    fn container(&mut self, open: char, body: impl FnOnce(&mut Self), close: char) {
        self.separate();
        self.out.push(open);
        self.comma = false;
        body(self);
        self.out.push(close);
        self.comma = true;
    }

    /// Starts a value: a `,` if it follows a sibling.
    fn separate(&mut self) {
        if std::mem::replace(&mut self.comma, true) {
            self.out.push(',');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separators_are_placed_by_the_writer() {
        let json = object(|w| {
            w.key("empty").object(|_| {});
            w.key("nested").array(|w| {
                w.object(|w| w.key("a").raw(1));
                w.array(|_| {});
                w.raw(true);
            });
            w.key("last").values(Vec::<u8>::new());
        });
        assert_eq!(json, r#"{"empty":{},"nested":[{"a":1},[],true],"last":[]}"#);
    }

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        let json = object(|w| w.key("k\"\\").str("a\"b\\c\nd\u{1f}é"));
        assert_eq!(json, r#"{"k\"\\":"a\"b\\c\u000ad\u001fé"}"#);
    }
}
