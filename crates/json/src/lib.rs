//! A self-contained JSON interchange layer for the biochip workspace.
//!
//! The build environment of this workspace is fully offline, so the usual
//! `serde`/`serde_json` pair is not available. This crate is the in-repo
//! substitute: a [`Json`] value type with a strict parser and compact/pretty
//! printers, plus serde-style [`Serialize`]/[`Deserialize`] traits. As in
//! serde, the same names also import the `#[derive(Serialize, Deserialize)]`
//! macros (from the in-repo `serde_derive` crate), so one `use` line brings
//! in both the traits and their derives.
//!
//! Every pipeline stage (assay → schedule → architecture → layout →
//! execution report) serializes through this crate, which defines the
//! on-disk contracts of the `biochip` CLI.
//!
//! # Example
//!
//! ```
//! use biochip_json::{from_str, to_string_pretty, Deserialize, Serialize};
//!
//! #[derive(Debug, PartialEq, Serialize, Deserialize)]
//! struct Point {
//!     x: u64,
//!     y: u64,
//! }
//!
//! let p = Point { x: 3, y: 4 };
//! let text = to_string_pretty(&p);
//! assert_eq!(text, "{\n  \"x\": 3,\n  \"y\": 4\n}\n");
//! let back: Point = from_str(&text)?;
//! assert_eq!(p, back);
//! # Ok::<(), biochip_json::JsonError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod canonical;
mod parse;
mod print;
mod traits;
mod value;

pub use canonical::{
    canonical_hash, canonicalize, chain_key, content_key, content_key_hex, key_hex,
};
pub use parse::parse;
pub use serde_derive::{Deserialize, Serialize};
pub use traits::{Deserialize, Serialize};
pub use value::{Json, JsonError};

/// Serializes a value to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
    value.to_json().to_compact()
}

/// Serializes a value to a pretty-printed JSON string (two-space indent,
/// trailing newline).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = value.to_json().to_pretty();
    out.push('\n');
    out
}

/// Parses a JSON document and deserializes it into `T`.
///
/// # Errors
///
/// Returns a [`JsonError`] if the text is not valid JSON or does not match
/// the shape `T` expects.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, JsonError> {
    let value = parse(text)?;
    T::from_json(&value)
}
