//! Offline stand-in for `serde`.
//!
//! The build environment has no network access, so the workspace ships a
//! minimal serialization framework under the same crate name. Instead of
//! serde's visitor architecture, types convert to and from a JSON-like
//! [`Value`] tree; the companion `serde_json` shim renders and parses the
//! tree as real JSON text. The `#[derive(Serialize, Deserialize)]` macros
//! (from the `serde_derive` shim) generate the conversions with serde's
//! standard data model: structs as objects, tuples as arrays, unit enum
//! variants as strings, data-carrying variants as single-key objects, and
//! newtype structs as their transparent inner value.

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A JSON-like value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A number (integer or float).
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved for stable output.
    Object(Vec<(String, Value)>),
}

/// A JSON number, keeping 64-bit integers exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// An unsigned integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A float.
    F64(f64),
}

impl Value {
    /// The object entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Looks up a key, if this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()
            .and_then(|entries| entries.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }

    /// The value at a JSON Pointer such as `/fleet/products/0/fleet_weight`
    /// (object keys and array indices, no `~` escapes; `""` is the whole
    /// value), if present.
    pub fn pointer_mut(&mut self, pointer: &str) -> Option<&mut Value> {
        if !(pointer.is_empty() || pointer.starts_with('/')) {
            return None;
        }
        pointer
            .split('/')
            .skip(1)
            .try_fold(self, |at, token| match at {
                Value::Object(entries) => {
                    entries.iter_mut().find(|(k, _)| k == token).map(|(_, v)| v)
                }
                Value::Array(items) => items.get_mut(token.parse::<usize>().ok()?),
                _ => None,
            })
    }
}

/// A deserialization error with a human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct DeError(pub String);

impl DeError {
    /// An error from a custom message.
    pub fn msg(text: impl Into<String>) -> DeError {
        DeError(text.into())
    }

    /// A "expected X while deserializing Y" error.
    pub fn expected(what: &str, context: &str) -> DeError {
        DeError(format!("expected {what} while deserializing {context}"))
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// Conversion into the [`Value`] tree.
pub trait Serialize {
    /// Serializes `self` into a value tree.
    fn to_value(&self) -> Value;
}

/// Conversion out of the [`Value`] tree.
pub trait Deserialize: Sized {
    /// Deserializes an instance from a value tree.
    ///
    /// # Errors
    ///
    /// Returns a [`DeError`] describing the first mismatch encountered.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

// Identity conversions so callers can work with raw JSON trees — e.g.
// `serde_json::from_str::<Value>(text)` to validate arbitrary documents.
impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

/// Fetches and deserializes a required object field (used by derived
/// `Deserialize` impls).
///
/// # Errors
///
/// Returns an error if the key is missing or its value fails to parse.
pub fn field<T: Deserialize>(
    entries: &[(String, Value)],
    key: &str,
    context: &str,
) -> Result<T, DeError> {
    let value = entries
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| DeError(format!("missing field `{key}` in {context}")))?;
    T::from_value(value).map_err(|e| DeError(format!("field `{key}` of {context}: {}", e.0)))
}

/// Rejects an object key that is not one of `known` (used by derived
/// `Deserialize` impls of `#[serde(deny_unknown_fields)]` structs).
///
/// # Errors
///
/// Names the first unknown key, the type it sits in and the keys it takes.
pub fn deny_unknown_fields(
    entries: &[(String, Value)],
    known: &[&str],
    context: &str,
) -> Result<(), DeError> {
    match entries.iter().find(|(k, _)| !known.contains(&k.as_str())) {
        None => Ok(()),
        Some((key, _)) => Err(DeError(format!(
            "unknown field `{key}` in {context}, expected one of `{}`",
            known.join("`, `")
        ))),
    }
}

/// Fetches and deserializes an optional object field (used by derived
/// `Deserialize` impls for `#[serde(default)]` fields): a missing key
/// yields `Ok(None)` so the caller can substitute its default.
///
/// # Errors
///
/// Returns an error only if the key is present but its value fails to
/// parse.
pub fn opt_field<T: Deserialize>(
    entries: &[(String, Value)],
    key: &str,
    context: &str,
) -> Result<Option<T>, DeError> {
    match entries.iter().find(|(k, _)| k == key) {
        None => Ok(None),
        Some((_, value)) => T::from_value(value)
            .map(Some)
            .map_err(|e| DeError(format!("field `{key}` of {context}: {}", e.0))),
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::U64(*self as u64))
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n = match v {
                    Value::Number(Number::U64(n)) => *n,
                    Value::Number(Number::I64(n)) if *n >= 0 => *n as u64,
                    Value::Number(Number::F64(f))
                        if f.fract() == 0.0 && *f >= 0.0 && *f <= u64::MAX as f64 =>
                    {
                        *f as u64
                    }
                    _ => return Err(DeError::expected("unsigned integer", stringify!($t))),
                };
                <$t>::try_from(n)
                    .map_err(|_| DeError(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let n = *self as i64;
                if n >= 0 {
                    Value::Number(Number::U64(n as u64))
                } else {
                    Value::Number(Number::I64(n))
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n = match v {
                    Value::Number(Number::I64(n)) => *n,
                    Value::Number(Number::U64(n)) if *n <= i64::MAX as u64 => *n as i64,
                    Value::Number(Number::F64(f)) if f.fract() == 0.0 => *f as i64,
                    _ => return Err(DeError::expected("integer", stringify!($t))),
                };
                <$t>::try_from(n)
                    .map_err(|_| DeError(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::F64(*self as f64))
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Number(Number::F64(f)) => Ok(*f as $t),
                    Value::Number(Number::U64(n)) => Ok(*n as $t),
                    Value::Number(Number::I64(n)) => Ok(*n as $t),
                    _ => Err(DeError::expected("number", stringify!($t))),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(DeError::expected("bool", "bool")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::String(s) => Ok(s.clone()),
            _ => Err(DeError::expected("string", "String")),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::String(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            _ => Err(DeError::expected("single-character string", "char")),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Box::new(T::from_value(v)?))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(inner) => inner.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let items = v
            .as_array()
            .ok_or_else(|| DeError::expected("array", "Vec"))?;
        items.iter().map(T::from_value).collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let items = v
            .as_array()
            .ok_or_else(|| DeError::expected("array", "fixed-size array"))?;
        if items.len() != N {
            return Err(DeError(format!(
                "expected array of length {N}, got {}",
                items.len()
            )));
        }
        let parsed: Vec<T> = items.iter().map(T::from_value).collect::<Result<_, _>>()?;
        parsed
            .try_into()
            .map_err(|_| DeError::msg("array length changed during parse"))
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let items = v.as_array().ok_or_else(|| DeError::expected("array", "tuple"))?;
                let expect = [$($idx),+].len();
                if items.len() != expect {
                    return Err(DeError(format!(
                        "expected tuple of length {expect}, got {}",
                        items.len()
                    )));
                }
                Ok(($($name::from_value(&items[$idx])?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
}

// Map keys go through their own Serialize/Deserialize impls (as in
// serde_json): a string key is used verbatim and a scalar key becomes its
// text form, so enum keys roundtrip by variant name.
fn key_to_string(key: Value) -> String {
    match key {
        Value::String(s) => s,
        Value::Number(Number::U64(u)) => u.to_string(),
        Value::Number(Number::I64(i)) => i.to_string(),
        Value::Number(Number::F64(f)) => format!("{f:?}"),
        Value::Bool(b) => b.to_string(),
        other => panic!("unsupported map key shape: {other:?}"),
    }
}

fn key_from_string<K: Deserialize>(key: &str, context: &str) -> Result<K, DeError> {
    // Try the key as a string first (covers String and unit-enum keys),
    // then as each numeric shape, then as a bool.
    K::from_value(&Value::String(key.to_string()))
        .or_else(|first| {
            if let Ok(u) = key.parse::<u64>() {
                K::from_value(&Value::Number(Number::U64(u)))
            } else if let Ok(i) = key.parse::<i64>() {
                K::from_value(&Value::Number(Number::I64(i)))
            } else if let Ok(f) = key.parse::<f64>() {
                K::from_value(&Value::Number(Number::F64(f)))
            } else if let Ok(b) = key.parse::<bool>() {
                K::from_value(&Value::Bool(b))
            } else {
                Err(first)
            }
        })
        .map_err(|e| DeError(format!("bad map key `{key}` for {context}: {}", e.0)))
}

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn to_value(&self) -> Value {
        // Sort keys for stable, order-independent output.
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (key_to_string(k.to_value()), v.to_value()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(entries)
    }
}

impl<K, V, S> Deserialize for HashMap<K, V, S>
where
    K: Deserialize + Eq + std::hash::Hash,
    V: Deserialize,
    S: std::hash::BuildHasher + Default,
{
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let entries = value
            .as_object()
            .ok_or_else(|| DeError::expected("map", "map"))?;
        entries
            .iter()
            .map(|(k, v)| Ok((key_from_string(k, "HashMap")?, V::from_value(v)?)))
            .collect()
    }
}

impl<T: Serialize> Serialize for std::collections::BTreeSet<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + Ord> Deserialize for std::collections::BTreeSet<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            _ => Err(DeError::expected("array", "BTreeSet")),
        }
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (key_to_string(k.to_value()), v.to_value()))
                .collect(),
        )
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let entries = value
            .as_object()
            .ok_or_else(|| DeError::expected("map", "map"))?;
        entries
            .iter()
            .map(|(k, v)| Ok((key_from_string(k, "BTreeMap")?, V::from_value(v)?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(i32::from_value(&(-7i32).to_value()).unwrap(), -7);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
    }

    #[test]
    fn containers_roundtrip() {
        let v = vec![1u32, 2, 3];
        assert_eq!(Vec::<u32>::from_value(&v.to_value()).unwrap(), v);
        let arr = [1.0f64, 2.0];
        assert_eq!(<[f64; 2]>::from_value(&arr.to_value()).unwrap(), arr);
        let pair = (3u32, 900u32);
        assert_eq!(<(u32, u32)>::from_value(&pair.to_value()).unwrap(), pair);
        let opt: Option<u8> = None;
        assert_eq!(Option::<u8>::from_value(&opt.to_value()).unwrap(), None);
    }

    #[test]
    fn f64_accepts_integer_tokens() {
        assert_eq!(
            f64::from_value(&Value::Number(Number::U64(365))).unwrap(),
            365.0
        );
    }

    #[test]
    fn out_of_range_integers_error() {
        assert!(u8::from_value(&Value::Number(Number::U64(300))).is_err());
    }
}
