//! Serde-style serialization traits and blanket impls for std types.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Duration;

use crate::{Json, JsonError};

/// Types that can render themselves as a [`Json`] value.
///
/// The in-repo stand-in for serde's trait of the same name. Structs and
/// fieldless enums get it from `#[derive(Serialize)]`: a named-field struct
/// becomes an object keyed by field name in declaration order, a newtype its
/// inner value, another tuple struct an array, a unit struct `null` and an
/// enum its variant name. Implement it by hand only for another shape.
pub trait Serialize {
    /// Converts `self` into a JSON value.
    fn to_json(&self) -> Json;
}

/// Types that can be rebuilt from a [`Json`] value.
///
/// The in-repo stand-in for serde's trait of the same name, derived with
/// `#[derive(Deserialize)]` for the shapes [`Serialize`] lists. A derived
/// impl reports a missing field or an unknown variant by name. Implement it
/// by hand for another shape, or to keep loading documents written before a
/// field existed.
pub trait Deserialize: Sized {
    /// Rebuilds a value from JSON.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first shape mismatch.
    fn from_json(value: &Json) -> Result<Self, JsonError>;
}

impl Serialize for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl Deserialize for Json {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(value.clone())
    }
}

impl Serialize for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::new(format!(
                "expected bool, found {}",
                other.kind()
            ))),
        }
    }
}

impl Serialize for String {
    fn to_json(&self) -> Json {
        Json::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value.expect_str().map(str::to_owned)
    }
}

impl Serialize for str {
    fn to_json(&self) -> Json {
        Json::String(self.to_owned())
    }
}

impl Serialize for f64 {
    fn to_json(&self) -> Json {
        Json::Number(*self)
    }
}

impl Deserialize for f64 {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value.expect_number()
    }
}

macro_rules! impl_json_int {
    ($($ty:ty),+) => {
        $(
            impl Serialize for $ty {
                /// # Panics
                ///
                /// Panics if the value cannot be represented exactly as an
                /// `f64` (magnitude above 2^53) — silent precision loss on a
                /// round-trip would be worse than a loud failure.
                fn to_json(&self) -> Json {
                    let as_f64 = *self as f64;
                    assert!(
                        as_f64 as $ty == *self,
                        "{} value {} is not exactly representable in JSON",
                        stringify!($ty),
                        self
                    );
                    Json::Number(as_f64)
                }
            }

            impl Deserialize for $ty {
                fn from_json(value: &Json) -> Result<Self, JsonError> {
                    let n = value.expect_number()?;
                    if n.fract() != 0.0 {
                        return Err(JsonError::new(format!(
                            "expected integer, found {n}"
                        )));
                    }
                    if n < <$ty>::MIN as f64 || n > <$ty>::MAX as f64 {
                        return Err(JsonError::new(format!(
                            "integer {n} out of range for {}", stringify!($ty)
                        )));
                    }
                    Ok(n as $ty)
                }
            }
        )+
    };
}

impl_json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: Serialize> Serialize for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value.expect_array()?.iter().map(T::from_json).collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(Serialize::to_json).collect())
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_json(&self) -> Json {
        Json::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let items = value.expect_array()?;
        if items.len() != 2 {
            return Err(JsonError::new(format!(
                "expected 2-element array, found {} elements",
                items.len()
            )));
        }
        Ok((A::from_json(&items[0])?, B::from_json(&items[1])?))
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Array(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let items = value.expect_array()?;
        if items.len() != 3 {
            return Err(JsonError::new(format!(
                "expected 3-element array, found {} elements",
                items.len()
            )));
        }
        Ok((
            A::from_json(&items[0])?,
            B::from_json(&items[1])?,
            C::from_json(&items[2])?,
        ))
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_json(&self) -> Json {
        Json::Object(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::Object(pairs) => pairs
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_json(v)?)))
                .collect(),
            other => Err(JsonError::new(format!(
                "expected object, found {}",
                other.kind()
            ))),
        }
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    /// Keys are emitted in sorted order so that output is deterministic.
    fn to_json(&self) -> Json {
        let mut pairs: Vec<(&String, &V)> = self.iter().collect();
        pairs.sort_by_key(|(k, _)| k.as_str());
        Json::Object(
            pairs
                .into_iter()
                .map(|(k, v)| (k.clone(), v.to_json()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::Object(pairs) => pairs
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_json(v)?)))
                .collect(),
            other => Err(JsonError::new(format!(
                "expected object, found {}",
                other.kind()
            ))),
        }
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value.expect_array()?.iter().map(T::from_json).collect()
    }
}

impl Serialize for Duration {
    /// Durations serialize as fractional seconds, matching how the paper
    /// reports runtimes.
    fn to_json(&self) -> Json {
        Json::Number(self.as_secs_f64())
    }
}

impl Deserialize for Duration {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let secs = value.expect_number()?;
        if !secs.is_finite() || secs < 0.0 {
            return Err(JsonError::new(format!("invalid duration {secs}")));
        }
        Ok(Duration::from_secs_f64(secs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_str, to_string};

    #[test]
    fn integer_bounds_are_checked() {
        assert!(from_str::<u8>("300").is_err());
        assert!(from_str::<u64>("-1").is_err());
        assert!(from_str::<u64>("1.5").is_err());
        assert_eq!(from_str::<i32>("-42").unwrap(), -42);
    }

    #[test]
    #[should_panic(expected = "not exactly representable")]
    fn oversized_integers_fail_loudly_instead_of_corrupting() {
        let _ = to_string(&((1u64 << 53) + 1));
    }

    #[test]
    fn durations_serialize_as_seconds() {
        let d = Duration::from_millis(1500);
        assert_eq!(to_string(&d), "1.5");
        assert_eq!(from_str::<Duration>("1.5").unwrap(), d);
        assert!(from_str::<Duration>("-1").is_err());
    }

    #[test]
    fn maps_round_trip() {
        let mut m = BTreeMap::new();
        m.insert("a".to_owned(), 1u64);
        m.insert("b".to_owned(), 2u64);
        let back: BTreeMap<String, u64> = from_str(&to_string(&m)).unwrap();
        assert_eq!(back, m);
    }
}
