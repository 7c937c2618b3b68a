//! Shorthand for building `mvbc_metrics::json` documents.

use mvbc_metrics::json::JsonValue;

/// An object from `(key, value)` pairs, in the order given.
pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

pub fn num(value: f64) -> JsonValue {
    JsonValue::Num(value)
}

pub fn text(value: &str) -> JsonValue {
    JsonValue::Str(value.to_owned())
}
