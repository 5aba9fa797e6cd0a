//! Hand-rolled `#[derive(Serialize)]` / `#[derive(Deserialize)]` macros.
//!
//! The offline build cannot fetch `serde_derive` (nor `syn`/`quote`), so this
//! crate parses the item's `TokenStream` directly. It supports exactly the
//! shapes used in this workspace:
//!
//! * structs with named fields → JSON objects keyed by field name,
//! * newtype structs (`struct OpId(pub usize)`) → the inner value,
//! * other tuple structs → JSON arrays,
//! * unit structs → `null`,
//! * fieldless enums → the variant name as a JSON string.
//!
//! Generic types and `#[serde(...)]` attributes are rejected with a compile
//! error. The generated impls name `::biochip_json::{Serialize, Deserialize}`,
//! and `biochip_json` re-exports these macros beside those traits, so
//! callers depend on `biochip-json` alone and write
//! `use biochip_json::{Deserialize, Serialize};`.

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives `biochip_json::Serialize`.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Trait::Serialize)
}

/// Derives `biochip_json::Deserialize`.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, Trait::Deserialize)
}

#[derive(Clone, Copy, PartialEq)]
enum Trait {
    Serialize,
    Deserialize,
}

enum Shape {
    Named(Vec<String>),
    Tuple(usize),
    Unit,
    Enum(Vec<String>),
}

struct Item {
    name: String,
    shape: Shape,
}

fn expand(input: TokenStream, which: Trait) -> TokenStream {
    let item = match parse_item(input) {
        Ok(item) => item,
        Err(message) => {
            return format!("::core::compile_error!({message:?});")
                .parse()
                .unwrap();
        }
    };
    let code = match which {
        Trait::Serialize => serialize_impl(&item),
        Trait::Deserialize => deserialize_impl(&item),
    };
    code.parse().unwrap()
}

fn serialize_impl(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::Named(fields) => {
            let pairs: Vec<String> = fields
                .iter()
                .map(|f| format!("({f:?}, ::biochip_json::Serialize::to_json(&self.{f}))"))
                .collect();
            format!("::biochip_json::Json::object([{}])", pairs.join(", "))
        }
        Shape::Tuple(1) => "::biochip_json::Serialize::to_json(&self.0)".to_owned(),
        Shape::Tuple(arity) => {
            let items: Vec<String> = (0..*arity)
                .map(|i| format!("::biochip_json::Serialize::to_json(&self.{i})"))
                .collect();
            format!(
                "::biochip_json::Json::Array(::std::vec![{}])",
                items.join(", ")
            )
        }
        Shape::Unit => "::biochip_json::Json::Null".to_owned(),
        Shape::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| format!("{name}::{v} => {v:?},"))
                .collect();
            format!(
                "::biochip_json::Json::String(::std::string::String::from(match self {{ {} }}))",
                arms.join(" ")
            )
        }
    };
    format!(
        "impl ::biochip_json::Serialize for {name} {{\n\
             fn to_json(&self) -> ::biochip_json::Json {{ {body} }}\n\
         }}"
    )
}

fn deserialize_impl(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::Named(fields) => {
            let inits: Vec<String> = fields
                .iter()
                .map(|f| format!("{f}: value.field({f:?})?"))
                .collect();
            format!(
                "::core::result::Result::Ok(Self {{ {} }})",
                inits.join(", ")
            )
        }
        Shape::Tuple(1) => {
            "::core::result::Result::Ok(Self(::biochip_json::Deserialize::from_json(value)?))"
                .to_owned()
        }
        Shape::Tuple(arity) => {
            let inits: Vec<String> = (0..*arity)
                .map(|i| format!("::biochip_json::Deserialize::from_json(&items[{i}])?"))
                .collect();
            format!(
                "let items = value.expect_array()?;\n\
                 if items.len() != {arity} {{\n\
                     return ::core::result::Result::Err(::biochip_json::JsonError::new(\
                         ::std::format!(\"expected {arity}-element array for {name}\")));\n\
                 }}\n\
                 ::core::result::Result::Ok(Self({}))",
                inits.join(", ")
            )
        }
        Shape::Unit => "::core::result::Result::Ok(Self)".to_owned(),
        Shape::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| format!("{v:?} => ::core::result::Result::Ok({name}::{v}),"))
                .collect();
            format!(
                "match value.expect_str()? {{\n\
                     {}\n\
                     other => ::core::result::Result::Err(::biochip_json::JsonError::new(\
                         ::std::format!(\"unknown {name} variant `{{other}}`\"))),\n\
                 }}",
                arms.join("\n")
            )
        }
    };
    format!(
        "impl ::biochip_json::Deserialize for {name} {{\n\
             fn from_json(value: &::biochip_json::Json) -> ::core::result::Result<Self, ::biochip_json::JsonError> {{\n\
                 {body}\n\
             }}\n\
         }}"
    )
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let mut tokens = input.into_iter().peekable();

    // Skip outer attributes (e.g. doc comments) and the visibility qualifier.
    let kind = loop {
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                tokens.next(); // the [...] group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                if let Some(TokenTree::Group(g)) = tokens.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        tokens.next(); // pub(crate) etc.
                    }
                }
            }
            Some(TokenTree::Ident(id)) => {
                let word = id.to_string();
                if word == "struct" || word == "enum" {
                    break word;
                }
                return Err(format!("derive does not support `{word}` items"));
            }
            Some(other) => return Err(format!("unexpected token `{other}`")),
            None => return Err("unexpected end of item".to_owned()),
        }
    };

    let name = match tokens.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected item name, found `{other:?}`")),
    };

    if let Some(TokenTree::Punct(p)) = tokens.peek() {
        if p.as_char() == '<' {
            return Err(format!("cannot derive for generic type `{name}`"));
        }
    }

    let shape = if kind == "enum" {
        match tokens.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Enum(parse_variants(g.stream(), &name)?)
            }
            _ => return Err(format!("expected `{{ ... }}` after `enum {name}`")),
        }
    } else {
        match tokens.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Named(parse_named_fields(g.stream())?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::Unit,
            other => return Err(format!("unsupported struct body `{other:?}`")),
        }
    };

    Ok(Item { name, shape })
}

/// Parses `name: Type, ...` inside a braced struct body, returning the field
/// names. Types are skipped with `<`/`>` depth tracking so commas inside
/// generic arguments do not split fields.
fn parse_named_fields(stream: TokenStream) -> Result<Vec<String>, String> {
    let mut fields = Vec::new();
    let mut tokens = stream.into_iter().peekable();
    loop {
        // Skip field attributes and visibility.
        let ident = loop {
            match tokens.next() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    tokens.next();
                }
                Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                    if let Some(TokenTree::Group(g)) = tokens.peek() {
                        if g.delimiter() == Delimiter::Parenthesis {
                            tokens.next();
                        }
                    }
                }
                Some(TokenTree::Ident(id)) => break id.to_string(),
                Some(other) => return Err(format!("unexpected token `{other}` in struct body")),
                None => return Ok(fields),
            }
        };
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            _ => return Err(format!("expected `:` after field `{ident}`")),
        }
        fields.push(ident);
        // Skip the type until a top-level comma.
        let mut angle_depth = 0usize;
        loop {
            match tokens.next() {
                Some(TokenTree::Punct(p)) if p.as_char() == '<' => angle_depth += 1,
                Some(TokenTree::Punct(p)) if p.as_char() == '>' => {
                    angle_depth = angle_depth.saturating_sub(1);
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ',' && angle_depth == 0 => break,
                Some(_) => {}
                None => return Ok(fields),
            }
        }
    }
}

/// Counts the fields of a tuple struct body by top-level commas.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut count = 0usize;
    let mut saw_token = false;
    let mut angle_depth = 0usize;
    for token in stream {
        match token {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => {
                angle_depth = angle_depth.saturating_sub(1);
            }
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                count += 1;
                saw_token = false;
            }
            _ => saw_token = true,
        }
    }
    count + usize::from(saw_token)
}

/// Parses the variants of a fieldless enum; variants with payloads are
/// rejected.
fn parse_variants(stream: TokenStream, enum_name: &str) -> Result<Vec<String>, String> {
    let mut variants = Vec::new();
    let mut tokens = stream.into_iter().peekable();
    loop {
        let ident = loop {
            match tokens.next() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    tokens.next();
                }
                Some(TokenTree::Ident(id)) => break id.to_string(),
                Some(other) => {
                    return Err(format!("unexpected token `{other}` in enum `{enum_name}`"));
                }
                None => return Ok(variants),
            }
        };
        variants.push(ident);
        match tokens.next() {
            None => return Ok(variants),
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
            Some(TokenTree::Group(_)) => {
                return Err(format!(
                    "cannot derive for enum `{enum_name}`: variants with fields are not supported"
                ));
            }
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                // Skip an explicit discriminant.
                loop {
                    match tokens.next() {
                        Some(TokenTree::Punct(q)) if q.as_char() == ',' => break,
                        Some(_) => {}
                        None => return Ok(variants),
                    }
                }
            }
            Some(other) => {
                return Err(format!("unexpected token `{other}` in enum `{enum_name}`"));
            }
        }
    }
}
