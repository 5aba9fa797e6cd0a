//! The shapes `#[derive(Serialize, Deserialize)]` gives, used through the
//! `biochip_json` re-export as every workspace crate uses it.

use biochip_json::{from_str, to_string, Deserialize, Serialize};

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Sample {
    name: String,
    count: usize,
    ratio: f64,
    tags: Vec<String>,
    parent: Option<u64>,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Mode {
    Fast,
    Thorough,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Id(u32);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Pair(u32, String);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Marker;

#[test]
fn named_struct_round_trips_in_declaration_order() {
    let s = Sample {
        name: "pcr".into(),
        count: 7,
        ratio: 0.25,
        tags: vec!["a".into(), "b".into()],
        parent: None,
    };
    let text = to_string(&s);
    assert_eq!(
        text,
        r#"{"name":"pcr","count":7,"ratio":0.25,"tags":["a","b"],"parent":null}"#
    );
    assert_eq!(from_str::<Sample>(&text).unwrap(), s);
}

#[test]
fn enum_serializes_as_its_variant_name() {
    assert_eq!(to_string(&Mode::Thorough), r#""Thorough""#);
    assert_eq!(from_str::<Mode>(r#""Fast""#).unwrap(), Mode::Fast);
}

#[test]
fn unknown_variant_is_rejected_by_name() {
    let err = from_str::<Mode>(r#""Slow""#).unwrap_err();
    assert!(
        err.to_string().contains("unknown Mode variant `Slow`"),
        "{err}"
    );
}

#[test]
fn missing_field_is_reported_by_name() {
    let err = from_str::<Sample>(r#"{"name":"x"}"#).unwrap_err();
    assert!(err.to_string().contains("count"), "{err}");
}

#[test]
fn newtype_serializes_as_its_inner_value() {
    assert_eq!(to_string(&Id(42)), "42");
    assert_eq!(from_str::<Id>("42").unwrap(), Id(42));
}

#[test]
fn tuple_struct_is_an_array_of_its_exact_length() {
    let pair = Pair(1, "a".into());
    assert_eq!(to_string(&pair), r#"[1,"a"]"#);
    assert_eq!(from_str::<Pair>(r#"[1,"a"]"#).unwrap(), pair);
    for bad in ["[1]", r#"[1,"a",2]"#] {
        let err = from_str::<Pair>(bad).unwrap_err();
        assert!(
            err.to_string()
                .contains("expected 2-element array for Pair"),
            "{bad}: {err}"
        );
    }
}

#[test]
fn unit_struct_serializes_as_null() {
    assert_eq!(to_string(&Marker), "null");
    assert_eq!(from_str::<Marker>("null").unwrap(), Marker);
}
