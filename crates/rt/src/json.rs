//! Minimal JSON tree, parser and serializer — the subset of
//! `serde`/`serde_json` the workspace uses.
//!
//! Types opt in with the [`ToJson`]/[`FromJson`] traits; the
//! [`json_struct!`](crate::json_struct), [`json_enum!`](crate::json_enum),
//! [`json_enum_newtype!`](crate::json_enum_newtype) and
//! [`json_newtype!`](crate::json_newtype) macros generate both impls from
//! a field/variant list, replacing `#[derive(Serialize, Deserialize)]`.
//!
//! Encoding matches `serde_json`'s external conventions: structs are
//! objects, unit enum variants are strings, newtype variants are
//! single-key objects, tuples are arrays, `Option::None` is `null`.
//! Non-finite floats (NaN/±inf — e.g. from diverging faulty training)
//! serialise to `null` instead of producing invalid JSON, and `null`
//! deserialises back to NaN.
//!
//! Numbers are kept as their exact decimal token, so `u64` seeds
//! round-trip losslessly and floats round-trip bit-exactly via Rust's
//! shortest-representation formatting.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its exact decimal token.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

/// A parse or decode error.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    msg: String,
}

impl JsonError {
    /// Builds an error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Compact serialization.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization (two-space indent, like `serde_json`).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(tok) => out.push_str(tok),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, depth + 1);
            }),
            Json::Obj(fields) => write_seq(out, indent, depth, '{', '}', fields.len(), |out, i| {
                write_escaped(out, &fields[i].0);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                fields[i].1.write(out, indent, depth + 1);
            }),
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat(' ').take(width * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat(' ').take(width * depth));
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

/// Deepest array/object nesting inside the top-level value that [`parse`]
/// accepts. The parser recurses once per level, so unbounded nesting
/// would let hostile input overflow the stack; past this depth it
/// returns a [`JsonError`] instead.
pub const MAX_DEPTH: usize = 512;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &str) -> JsonError {
        JsonError::new(format!("{what} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    /// A value nested one level inside an array or object.
    fn nested(&mut self) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let value = self.value();
        self.depth -= 1;
        value
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek().ok_or_else(|| self.err("unexpected end of input"))? {
            b'n' => {
                if self.eat_literal("null") {
                    Ok(Json::Null)
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            b't' => {
                if self.eat_literal("true") {
                    Ok(Json::Bool(true))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            b'f' => {
                if self.eat_literal("false") {
                    Ok(Json::Bool(false))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            b'"' => Ok(Json::Str(self.string()?)),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.nested()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            b'{' => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let value = self.nested()?;
                    fields.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            b'-' | b'0'..=b'9' => self.number(),
            _ => Err(self.err("unexpected character")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let tok = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if tok.is_empty() || tok == "-" || tok.parse::<f64>().is_err() {
            return Err(self.err("invalid number"));
        }
        Ok(Json::Num(tok.to_string()))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if !self.eat_literal("\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                let lo = self.hex4()?;
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                _ => {
                    // Consume one UTF-8 character.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().ok_or_else(|| self.err("unterminated string"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid unicode escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos += 4;
        Ok(v)
    }
}

/// Parses a JSON document into a [`Json`] tree.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut parser = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing characters"));
    }
    Ok(value)
}

// ---------------------------------------------------------------------
// ToJson / FromJson
// ---------------------------------------------------------------------

/// Serialization into a [`Json`] tree (replaces `serde::Serialize`).
pub trait ToJson {
    /// The JSON encoding of `self`.
    fn to_json(&self) -> Json;
}

/// Deserialization from a [`Json`] tree (replaces `serde::Deserialize`).
pub trait FromJson: Sized {
    /// Decodes a value, with a descriptive error on shape mismatch.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

/// Serializes `value` compactly (mirrors `serde_json::to_string`).
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> Result<String, JsonError> {
    Ok(value.to_json().to_compact())
}

/// Serializes `value` with indentation (mirrors
/// `serde_json::to_string_pretty`).
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> Result<String, JsonError> {
    Ok(value.to_json().to_pretty())
}

/// Parses and decodes in one step (mirrors `serde_json::from_str`).
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&parse(text)?)
}

/// Decodes field `name` of object `v` — the workhorse of
/// [`json_struct!`](crate::json_struct).
pub fn field<T: FromJson>(v: &Json, name: &str) -> Result<T, JsonError> {
    let inner = v
        .get(name)
        .ok_or_else(|| JsonError::new(format!("missing field `{name}`")))?;
    T::from_json(inner).map_err(|e| JsonError::new(format!("field `{name}`: {e}")))
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::new(format!("expected bool, got {other}"))),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) => Ok(s.clone()),
            other => Err(JsonError::new(format!("expected string, got {other}"))),
        }
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

macro_rules! json_int {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(self.to_string())
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                match v {
                    Json::Num(tok) => tok.parse::<$t>().map_err(|_| {
                        JsonError::new(format!(
                            "number {tok} out of range for {}",
                            stringify!($t)
                        ))
                    }),
                    other => Err(JsonError::new(format!(
                        "expected integer, got {other}"
                    ))),
                }
            }
        }
    )+};
}
json_int!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

macro_rules! json_float {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                if self.is_finite() {
                    // Rust's shortest round-trip formatting: parsing the
                    // token back as $t recovers the exact bits.
                    Json::Num(format!("{self}"))
                } else {
                    // NaN/±inf (diverging faulty training) → null, like
                    // serde_json, instead of emitting invalid JSON.
                    Json::Null
                }
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                match v {
                    Json::Num(tok) => tok
                        .parse::<$t>()
                        .map_err(|_| JsonError::new(format!("invalid float {tok}"))),
                    // Inverse of the non-finite → null encoding.
                    Json::Null => Ok(<$t>::NAN),
                    other => Err(JsonError::new(format!("expected number, got {other}"))),
                }
            }
        }
    )+};
}
json_float!(f32, f64);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Arr(items) => items.iter().map(T::from_json).collect(),
            other => Err(JsonError::new(format!("expected array, got {other}"))),
        }
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let items: Vec<T> = Vec::from_json(v)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| JsonError::new(format!("expected array of {N}, got {len}")))
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

macro_rules! json_tuple {
    ($(($($name:ident : $idx:tt),+)),+) => {$(
        impl<$($name: ToJson),+> ToJson for ($($name,)+) {
            fn to_json(&self) -> Json {
                Json::Arr(vec![$(self.$idx.to_json()),+])
            }
        }
        impl<$($name: FromJson),+> FromJson for ($($name,)+) {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                const LEN: usize = [$($idx),+].len();
                match v {
                    Json::Arr(items) if items.len() == LEN => {
                        Ok(($($name::from_json(&items[$idx])?,)+))
                    }
                    other => Err(JsonError::new(format!(
                        "expected {LEN}-tuple, got {other}"
                    ))),
                }
            }
        }
    )+};
}
json_tuple!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3)
);

// ---------------------------------------------------------------------
// Impl-generating macros (the `#[derive(Serialize, Deserialize)]`
// replacements)
// ---------------------------------------------------------------------

/// Generates [`ToJson`](crate::json::ToJson) +
/// [`FromJson`](crate::json::FromJson) for a struct with named fields.
///
/// ```
/// struct Point { x: f64, y: f64 }
/// fare_rt::json_struct!(Point { x, y });
/// let p: Point = fare_rt::json::from_str(r#"{"x":1.5,"y":-2.0}"#).unwrap();
/// assert_eq!(p.x, 1.5);
/// ```
#[macro_export]
macro_rules! json_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        $crate::json_struct_to!($ty { $($field),+ });
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                Ok(Self {
                    $($field: $crate::json::field(v, stringify!($field))?),+
                })
            }
        }
    };
}

/// Serialize-only variant of [`json_struct!`](crate::json_struct), for
/// types with non-deserializable fields (e.g. `&'static str`).
#[macro_export]
macro_rules! json_struct_to {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((
                        stringify!($field).to_string(),
                        $crate::json::ToJson::to_json(&self.$field),
                    )),+
                ])
            }
        }
    };
}

/// Generates both traits for an enum of **unit** variants, encoded as
/// `"VariantName"` (serde's external tagging).
#[macro_export]
macro_rules! json_enum {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                match self {
                    $(Self::$variant =>
                        $crate::json::Json::Str(stringify!($variant).to_string())),+
                }
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                match v {
                    $($crate::json::Json::Str(s) if s == stringify!($variant) =>
                        Ok(Self::$variant),)+
                    other => Err($crate::json::JsonError::new(format!(
                        "unknown {} variant: {other}",
                        stringify!($ty)
                    ))),
                }
            }
        }
    };
}

/// Generates both traits for an enum of **newtype** variants, encoded as
/// `{"VariantName": payload}` (serde's external tagging).
#[macro_export]
macro_rules! json_enum_newtype {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                match self {
                    $(Self::$variant(inner) => $crate::json::Json::Obj(vec![(
                        stringify!($variant).to_string(),
                        $crate::json::ToJson::to_json(inner),
                    )])),+
                }
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                $(if let Some(inner) = v.get(stringify!($variant)) {
                    return Ok(Self::$variant($crate::json::FromJson::from_json(inner)?));
                })+
                Err($crate::json::JsonError::new(format!(
                    "unknown {} variant: {v}",
                    stringify!($ty)
                )))
            }
        }
    };
}

/// Generates both traits for a single-field tuple struct, encoded as the
/// bare inner value (serde's newtype-struct convention).
#[macro_export]
macro_rules! json_newtype {
    ($ty:ident) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::ToJson::to_json(&self.0)
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                Ok(Self($crate::json::FromJson::from_json(v)?))
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trip_basic() {
        let text = r#"{"a":[1,2.5,-3],"b":null,"c":true,"d":"x\ny"}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.to_compact(), text);
    }

    #[test]
    fn string_escaping() {
        let nasty = "quote\" backslash\\ newline\n tab\t ctrl\u{1} unicode\u{1F600}";
        let json = to_string(nasty).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, nasty);
    }

    #[test]
    fn non_finite_floats_serialize_to_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "null");
        assert_eq!(to_string(&f32::NEG_INFINITY).unwrap(), "null");
        let back: f64 = from_str("null").unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn floats_round_trip_bit_exact() {
        for v in [0.1f64, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, -2.5e-17] {
            let back: f64 = from_str(&to_string(&v).unwrap()).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
        for v in [0.1f32, 1.0 / 3.0f32, f32::MIN_POSITIVE, 3.4e38f32] {
            let back: f32 = from_str(&to_string(&v).unwrap()).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
    }

    #[test]
    fn u64_round_trips_losslessly() {
        for v in [0u64, 42, u64::MAX, u64::MAX - 1, 1 << 53] {
            let back: u64 = from_str(&to_string(&v).unwrap()).unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn containers_round_trip() {
        let v: (Vec<usize>, Option<f64>, [u8; 3]) = (vec![1, 2, 3], None, [7, 8, 9]);
        let json = to_string(&v).unwrap();
        let back: (Vec<usize>, Option<f64>, [u8; 3]) = from_str(&json).unwrap();
        assert_eq!(back.0, v.0);
        assert!(back.1.is_none());
        assert_eq!(back.2, v.2);
    }

    #[test]
    fn pretty_printing_shape() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Num("1".into())),
            ("b".into(), Json::Arr(vec![Json::Bool(true)])),
        ]);
        assert_eq!(v.to_pretty(), "{\n  \"a\": 1,\n  \"b\": [\n    true\n  ]\n}");
    }

    #[test]
    fn unicode_escapes_parse() {
        let v: String = from_str(r#""A😀""#).unwrap();
        assert_eq!(v, "A\u{1F600}");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn parse_bounds_nesting_depth() {
        let deep = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        assert!(parse(&deep(MAX_DEPTH + 1)).is_ok());
        let err = parse(&deep(MAX_DEPTH + 2)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than"), "{err}");
        // Far past the limit, as hostile input would be: an error, not a
        // stack overflow.
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(200_000)).is_err());
    }

    #[derive(Debug)]
    struct Point {
        x: f64,
        y: f64,
    }
    crate::json_struct!(Point { x, y });

    #[derive(Debug, PartialEq)]
    enum Kind {
        Alpha,
        Beta,
    }
    crate::json_enum!(Kind { Alpha, Beta });

    #[derive(Debug, PartialEq)]
    struct Wrap(i16);
    crate::json_newtype!(Wrap);

    #[derive(Debug, PartialEq)]
    enum Payload {
        Int(i32),
        Text(String),
    }
    crate::json_enum_newtype!(Payload { Int, Text });

    #[test]
    fn macros_generate_round_trips() {
        let p: Point = from_str(r#"{"x":1.5,"y":-2.0}"#).unwrap();
        assert_eq!((p.x, p.y), (1.5, -2.0));
        assert_eq!(to_string(&p).unwrap(), r#"{"x":1.5,"y":-2}"#);

        assert_eq!(to_string(&Kind::Beta).unwrap(), r#""Beta""#);
        assert_eq!(from_str::<Kind>(r#""Alpha""#).unwrap(), Kind::Alpha);
        assert!(from_str::<Kind>(r#""Gamma""#).is_err());

        assert_eq!(to_string(&Wrap(-7)).unwrap(), "-7");
        assert_eq!(from_str::<Wrap>("-7").unwrap(), Wrap(-7));

        let payload = Payload::Text("hi".into());
        let json = to_string(&payload).unwrap();
        assert_eq!(json, r#"{"Text":"hi"}"#);
        assert_eq!(from_str::<Payload>(&json).unwrap(), payload);
        assert_eq!(
            from_str::<Payload>(r#"{"Int":3}"#).unwrap(),
            Payload::Int(3)
        );
    }

    #[test]
    fn missing_field_error_names_field() {
        let err = from_str::<Point>(r#"{"x":1}"#).unwrap_err();
        assert!(err.to_string().contains("`y`"), "{err}");
    }
}
