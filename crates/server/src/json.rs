//! The one JSON writer behind every document and event line the server
//! renders (no serde: the workspace builds offline). A record lists its
//! fields once, in a [`Fields`] impl; this module makes every format
//! decision: key quoting, separators, string escaping, `null` for
//! `None`, float precision, and brace padding.

use std::fmt::Write as _;

/// How an object or list is punctuated: its opening, what goes before
/// its first entry, between entries, and its closing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Layout(&'static str, &'static str, &'static str, &'static str);

/// `{"a": 1, "b": 2}`: an event line and its `stages`.
pub(crate) const BARE: Layout = Layout("{", "", ", ", "}");
/// `{ "a": 1, "b": 2 }`: a metrics section, a connection row, a span.
pub(crate) const PADDED: Layout = Layout("{ ", "", ", ", " }");
/// A whole document: one field per line, indented two spaces.
pub(crate) const DOCUMENT: Layout = Layout("{", "\n  ", ",\n  ", "\n}\n");
/// A list in a document: one [`PADDED`] record per line, indented four.
const ROWS: Layout = Layout("[", "\n    ", ",\n    ", "\n  ]");

/// A record rendered as a JSON object: its field list, in order.
pub(crate) trait Fields {
    /// Writes every field into `o`.
    fn fields(&self, o: &mut Object<'_>);
}

/// Implements [`Fields`] for records whose values are written as they
/// are, keyed by their field names or, as `key = field`, renamed.
macro_rules! plain_fields {
    ($($record:ty: $($key:ident $(= $field:ident)?),+;)+) => {$(
        impl $crate::json::Fields for $record {
            fn fields(&self, o: &mut $crate::json::Object<'_>) {
                $(o.field(stringify!($key), $crate::json::plain_fields!(@ self $key $($field)?));)+
            }
        }
    )+};
    (@ $this:ident $key:ident) => { $this.$key };
    (@ $this:ident $key:ident $field:ident) => { $this.$field };
}
pub(crate) use plain_fields;

/// A JSON value.
pub(crate) trait Value {
    /// Appends the value's JSON text to `out`.
    fn write(&self, out: &mut String);
}

/// A float written with a fixed number of decimals other than an
/// `f64`'s six.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fixed(pub f64, pub usize);

/// An object being written into a string.
pub(crate) struct Object<'a> {
    out: &'a mut String,
    layout: Layout,
    /// Written before the next entry.
    next: &'static str,
}

/// Renders one object laid out as `layout` into a new string.
pub(crate) fn render(layout: Layout, capacity: usize, f: impl FnOnce(&mut Object<'_>)) -> String {
    let mut out = String::with_capacity(capacity);
    Object::write(&mut out, layout, f);
    out
}

impl<'a> Object<'a> {
    fn write(out: &'a mut String, layout: Layout, f: impl FnOnce(&mut Object<'_>)) {
        out.push_str(layout.0);
        let next = layout.1;
        f(&mut Object {
            out: &mut *out,
            layout,
            next,
        });
        out.push_str(layout.3);
    }

    /// Starts the next entry and returns where its text goes.
    fn entry(&mut self) -> &mut String {
        self.out.push_str(self.next);
        self.next = self.layout.2;
        self.out
    }

    fn key(&mut self, key: &str) -> &mut String {
        let out = self.entry();
        out.push('"');
        out.push_str(key);
        out.push_str("\": ");
        out
    }

    /// `"key": value`.
    pub(crate) fn field(&mut self, key: &str, value: impl Value) -> &mut Self {
        value.write(self.key(key));
        self
    }

    /// `"key": {…}`, holding what `f` writes.
    pub(crate) fn object(
        &mut self,
        key: &str,
        l: Layout,
        f: impl FnOnce(&mut Object),
    ) -> &mut Self {
        Object::write(self.key(key), l, f);
        self
    }

    /// `"key": {…}`, holding `record`'s fields.
    pub(crate) fn record(&mut self, key: &str, layout: Layout, record: &impl Fields) -> &mut Self {
        self.object(key, layout, |o| record.fields(o))
    }

    /// `"key": [`, then one [`PADDED`] record per line, then `]`.
    pub(crate) fn rows<T: Fields>(&mut self, key: &str, rows: &[T]) -> &mut Self {
        Object::write(self.key(key), ROWS, |list| {
            for row in rows {
                Object::write(list.entry(), PADDED, |o| row.fields(o));
            }
        });
        self
    }

    /// Writes `sep` instead of the layout's separator before the next
    /// field only: to share a document line, or to break a record's.
    pub(crate) fn next_sep(&mut self, sep: &'static str) -> &mut Self {
        self.next = sep;
        self
    }
}

impl<T: Value> Value for Option<T> {
    fn write(&self, out: &mut String) {
        match self {
            Some(v) => v.write(out),
            None => out.push_str("null"),
        }
    }
}

/// Six decimals: seconds to the microsecond.
impl Value for f64 {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self:.6}");
    }
}

impl Value for Fixed {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{:.*}", self.1, self.0);
    }
}

/// Written as `Display` writes them.
macro_rules! display_value {
    ($($t:ty)*) => {$(
        impl Value for $t {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display_value!(bool u8 i64);

/// Unsigned integers, in decimal, without the formatting machinery: an
/// event line holds a dozen of them.
impl Value for u64 {
    fn write(&self, out: &mut String) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut v = *self;
        loop {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
    }
}

impl Value for usize {
    fn write(&self, out: &mut String) {
        (*self as u64).write(out)
    }
}

/// A quoted string: `"` and `\` are backslash-escaped and control
/// characters written as `\u00XX`; everything else passes through.
impl Value for &str {
    fn write(&self, out: &mut String) {
        out.push('"');
        let mut rest = *self;
        while let Some(at) = rest
            .bytes()
            .position(|b| b == b'"' || b == b'\\' || b < 0x20)
        {
            out.push_str(&rest[..at]);
            match rest.as_bytes()[at] {
                b'"' => out.push_str("\\\""),
                b'\\' => out.push_str("\\\\"),
                b => {
                    let _ = write!(out, "\\u{b:04x}");
                }
            }
            rest = &rest[at + 1..];
        }
        out.push_str(rest);
        out.push('"');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(v: impl Value) -> String {
        let mut out = String::new();
        v.write(&mut out);
        out
    }

    #[test]
    fn integers_match_display() {
        for v in [0u64, 7, 10, 99, 100, 1_000_001, u64::MAX] {
            assert_eq!(value(v), v.to_string());
        }
        for v in [0i64, -1, 42, i64::MIN, i64::MAX] {
            assert_eq!(value(v), v.to_string());
        }
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_control_bytes() {
        assert_eq!(value("plain é"), "\"plain é\"");
        assert_eq!(value("a\"b\\c\u{1}\n"), "\"a\\\"b\\\\c\\u0001\\u000a\"");
        assert_eq!(value(None::<u64>), "null");
        assert_eq!(value(Some(Fixed(2.0 / 3.0, 4))), "0.6667");
    }

    #[test]
    fn layouts_punctuate_empty_and_nested_objects() {
        let doc = render(DOCUMENT, 0, |o| {
            o.field("a", 1u64)
                .next_sep(", ")
                .field("b", true)
                .object("c", PADDED, |_| {})
                .object("d", BARE, |d| {
                    d.field("e", "f").field("g", 2u8);
                });
        });
        assert_eq!(
            doc,
            "{\n  \"a\": 1, \"b\": true,\n  \"c\": {  },\n  \"d\": {\"e\": \"f\", \"g\": 2}\n}\n"
        );
    }
}
