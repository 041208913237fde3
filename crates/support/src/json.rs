//! JSON without `serde`: a value type, parser, writer, and the
//! [`ToJson`] / [`FromJson`] traits with derive-like impl macros.
//!
//! Determinism is part of the contract: map- and set-like containers are
//! serialized with sorted keys, struct fields in declaration order, and
//! floats in Rust's shortest round-trip form — so equal values always
//! produce byte-identical JSON, which the workspace's reproducibility
//! tests rely on.
//!
//! # Example
//!
//! ```
//! use smash_support::json::{FromJson, Json, ToJson};
//!
//! #[derive(Debug, PartialEq)]
//! struct Point { x: i64, y: i64 }
//! smash_support::impl_json_struct!(Point { x, y });
//!
//! let p = Point { x: 3, y: -4 };
//! let s = smash_support::json::to_string(&p);
//! assert_eq!(s, r#"{"x":3,"y":-4}"#);
//! let back: Point = smash_support::json::from_str(&s).unwrap();
//! assert_eq!(back, p);
//! ```

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::net::Ipv4Addr;

/// A parsed JSON value.
///
/// Objects preserve insertion order (they are written exactly as built);
/// integers keep full 64-bit precision instead of flowing through `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A negative integer (or any integer parsed with a leading `-`).
    Int(i64),
    /// A non-negative integer.
    UInt(u64),
    /// A number with a fractional part or exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The object's key/value pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// The array's elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// A one-word description of the value's type, for error messages.
    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) | Json::UInt(_) => "integer",
            Json::Float(_) => "float",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// A parse or conversion error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

// ---------------------------------------------------------------- writer

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn float_into(x: f64, out: &mut String) {
    if x.is_finite() {
        // `{:?}` is Rust's shortest round-trip representation and always
        // contains a `.` or exponent for non-integral semantics; integral
        // floats print as e.g. `1.0`, still valid JSON.
        out.push_str(&format!("{x:?}"));
    } else {
        // Like serde_json: non-finite numbers have no JSON form.
        out.push_str("null");
    }
}

fn write_compact(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(i) => out.push_str(&i.to_string()),
        Json::UInt(u) => out.push_str(&u.to_string()),
        Json::Float(x) => float_into(*x, out),
        Json::Str(s) => escape_into(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(k, out);
                out.push(':');
                write_compact(val, out);
            }
            out.push('}');
        }
    }
}

fn write_pretty(v: &Json, indent: usize, out: &mut String) {
    const PAD: &str = "  ";
    match v {
        Json::Arr(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&PAD.repeat(indent + 1));
                write_pretty(item, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&PAD.repeat(indent));
            out.push(']');
        }
        Json::Obj(fields) if !fields.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&PAD.repeat(indent + 1));
                escape_into(k, out);
                out.push_str(": ");
                write_pretty(val, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&PAD.repeat(indent));
            out.push('}');
        }
        other => write_compact(other, out),
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        write_compact(self, &mut s);
        f.write_str(&s)
    }
}

// ---------------------------------------------------------------- parser

/// Deepest nesting of arrays and objects the parser accepts. The
/// grammar is recursive, so without a bound one line of `[` bytes
/// overflows the stack of whatever thread parses it; 128 levels is far
/// beyond any document this workspace writes.
pub const MAX_DEPTH: usize = 128;

/// A cursor over JSON text: the one grammar behind both [`parse`] (which
/// builds a [`Json`] tree) and callers that decode a fixed shape
/// straight into their own types, skipping members they do not need.
///
/// Every method consumes leading whitespace, reads exactly one token or
/// value, and applies the same checks as [`parse`]: strings reject
/// unescaped control characters, bad escapes and lone surrogates;
/// containers nest at most [`MAX_DEPTH`] deep. Strings are scanned run
/// by run, so parsing is linear in the input.
///
/// ```
/// use smash_support::json::Scanner;
///
/// let mut s = Scanner::new(r#"{"id": 7, "tags": ["x", {"y": null}]}"#);
/// let mut id = None;
/// s.object(|s, key| {
///     if key == "id" {
///         id = Some(s.number()?);
///         Ok(())
///     } else {
///         s.skip_value()
///     }
/// })
/// .unwrap();
/// s.finish().unwrap();
/// assert_eq!(id, Some(smash_support::json::Json::UInt(7)));
/// ```
pub struct Scanner<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Scanner<'a> {
    /// A scanner at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Self {
            src,
            pos: 0,
            depth: 0,
        }
    }

    fn fail<T>(&self, msg: &str) -> Result<T, JsonError> {
        err(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.src.as_bytes().get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    /// The unread input.
    fn rest(&self) -> &'a [u8] {
        self.src.as_bytes().get(self.pos..).unwrap_or_default()
    }

    /// The input from `start` up to the cursor.
    fn since(&self, start: usize) -> &'a str {
        // lint:allow(index): the cursor only rests on char boundaries: it steps over ASCII bytes and over plain runs, which end before an ASCII byte or at the end
        &self.src[start..self.pos]
    }

    /// The first byte of the next token after whitespace, without
    /// consuming it (`None` at end of input). Callers use it to pick a
    /// reader: `"` a string, `-` or a digit a number, `{` an object.
    pub fn peek_token(&mut self) -> Option<u8> {
        self.skip_ws();
        self.peek()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.fail(&format!("expected `{}`", b as char))
        }
    }

    fn eat_literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.rest().starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            self.fail(&format!("expected `{lit}`"))
        }
    }

    /// Checks that only whitespace remains.
    ///
    /// # Errors
    ///
    /// Fails on trailing characters.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.src.len() {
            return self.fail("trailing characters");
        }
        Ok(())
    }

    /// Reads one value into a [`Json`] tree.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first syntax violation.
    pub fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek_token() {
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|s| {
                    items.push(s.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                self.object(|s, key| {
                    fields.push((key.into_owned(), s.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(fields))
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => self.fail(&format!("unexpected byte `{}`", b as char)),
            None => self.fail("unexpected end of input"),
        }
    }

    /// Reads and discards one value, with every check [`value`](Self::value)
    /// makes but without building a tree or copying a string.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first syntax violation.
    pub fn skip_value(&mut self) -> Result<(), JsonError> {
        match self.peek_token() {
            Some(b'"') => {
                self.eat(b'"')?;
                self.string_tail(None)
            }
            Some(b'[') => self.array(Self::skip_value),
            Some(b'{') => self.object(|s, _| s.skip_value()),
            _ => self.value().map(drop),
        }
    }

    fn enter(&mut self, open: u8) -> Result<(), JsonError> {
        self.skip_ws();
        self.eat(open)?;
        if self.depth >= MAX_DEPTH {
            return self.fail(&format!("nesting deeper than {MAX_DEPTH}"));
        }
        self.depth += 1;
        Ok(())
    }

    /// Reads one array, calling `item` once per element; `item` must
    /// consume exactly that element.
    fn array<F>(&mut self, mut item: F) -> Result<(), JsonError>
    where
        F: FnMut(&mut Self) -> Result<(), JsonError>,
    {
        self.enter(b'[')?;
        if self.peek_token() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            item(self)?;
            match self.peek_token() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return self.fail("expected `,` or `]`"),
            }
        }
    }

    /// Reads one object, calling `member(self, key)` once per member in
    /// input order (duplicate keys included); `member` must consume
    /// exactly that member's value.
    ///
    /// # Errors
    ///
    /// Returns the first syntax violation, or the first error `member`
    /// returns.
    pub fn object<F>(&mut self, mut member: F) -> Result<(), JsonError>
    where
        F: FnMut(&mut Self, Cow<'a, str>) -> Result<(), JsonError>,
    {
        self.enter(b'{')?;
        if self.peek_token() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            member(self, key)?;
            match self.peek_token() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return self.fail("expected `,` or `}`"),
            }
        }
    }

    /// Reads one string. A string without escapes is borrowed from the
    /// input; only escaped strings are copied.
    ///
    /// # Errors
    ///
    /// Fails on a non-string, an unterminated string, an unescaped
    /// control character, a bad escape or a lone surrogate.
    pub fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.skip_ws();
        self.eat(b'"')?;
        let start = self.pos;
        self.skip_plain();
        if self.peek() == Some(b'"') {
            let s = self.since(start);
            self.pos += 1;
            return Ok(Cow::Borrowed(s));
        }
        let mut out = self.since(start).to_owned();
        self.string_tail(Some(&mut out))?;
        Ok(Cow::Owned(out))
    }

    /// Advances over the run of bytes that need no attention: everything
    /// but `"`, `\` and control bytes. UTF-8 continuation bytes are
    /// ≥ 0x80, so the run always ends on a char boundary.
    fn skip_plain(&mut self) {
        let rest = self.rest();
        self.pos += rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .unwrap_or(rest.len());
    }

    /// Scans the rest of a string whose opening quote is consumed,
    /// appending its decoded text to `out` when one is given.
    fn string_tail(&mut self, mut out: Option<&mut String>) -> Result<(), JsonError> {
        loop {
            let start = self.pos;
            self.skip_plain();
            if let Some(o) = out.as_deref_mut() {
                o.push_str(self.since(start));
            }
            match self.peek() {
                None => return self.fail("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.escape()?;
                    if let Some(o) = out.as_deref_mut() {
                        o.push(c);
                    }
                }
                Some(_) => return self.fail("unescaped control character"),
            }
        }
    }

    /// Decodes one escape sequence whose backslash is consumed.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{08}',
            Some(b'f') => '\u{0C}',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode_escape();
            }
            _ => return self.fail("bad escape"),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .src
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| JsonError("truncated \\u escape".into()))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| JsonError("bad \\u escape".into()))?;
        self.pos += 4;
        Ok(v)
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // Surrogate pair: expect \uXXXX low surrogate.
            let bytes = self.src.as_bytes();
            if bytes.get(self.pos) == Some(&b'\\') && bytes.get(self.pos + 1) == Some(&b'u') {
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return self.fail("bad low surrogate");
                }
                let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                return char::from_u32(c).ok_or_else(|| JsonError("bad surrogate pair".into()));
            }
            return self.fail("lone high surrogate");
        }
        char::from_u32(hi).ok_or_else(|| JsonError("bad \\u escape".into()))
    }

    /// Reads one number as [`Json::UInt`] (non-negative integers that fit
    /// `u64`), [`Json::Int`] (negative integers that fit `i64`, and `-0`)
    /// or [`Json::Float`] (everything else).
    ///
    /// # Errors
    ///
    /// Fails when the next token is not a number.
    pub fn number(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut saw_digit = false;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
            saw_digit = true;
        }
        if !saw_digit {
            return self.fail("expected digits");
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = self.since(start);
        if integral {
            if let Some(stripped) = text.strip_prefix('-') {
                if stripped != "0" {
                    if let Ok(i) = text.parse::<i64>() {
                        return Ok(Json::Int(i));
                    }
                } else {
                    return Ok(Json::Int(0));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        match text.parse::<f64>() {
            Ok(x) => Ok(Json::Float(x)),
            Err(_) => self.fail("bad number"),
        }
    }
}

/// Parses a string into a [`Json`] value.
///
/// # Errors
///
/// Returns a [`JsonError`] describing the first syntax violation.
pub fn parse(s: &str) -> Result<Json, JsonError> {
    let mut p = Scanner::new(s);
    let v = p.value()?;
    p.finish()?;
    Ok(v)
}

// ---------------------------------------------------------------- traits

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// Converts `self` into a JSON value.
    fn to_json(&self) -> Json;
}

/// Conversion from a [`Json`] value.
pub trait FromJson: Sized {
    /// Builds `Self` from a JSON value.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the value has the wrong shape.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

/// Serializes `value` to compact JSON.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    write_compact(&value.to_json(), &mut out);
    out
}

/// Serializes `value` to human-readable, 2-space-indented JSON.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    write_pretty(&value.to_json(), 0, &mut out);
    out
}

/// Parses `s` and converts it to `T`.
///
/// # Errors
///
/// Returns a [`JsonError`] on malformed JSON or a shape mismatch.
pub fn from_str<T: FromJson>(s: &str) -> Result<T, JsonError> {
    T::from_json(&parse(s)?)
}

// ------------------------------------------------------- primitive impls

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
            other => err(format!("expected bool, got {}", other.kind())),
        }
    }
}

macro_rules! impl_json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::UInt(*self as u64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let u = match v {
                    Json::UInt(u) => *u,
                    Json::Int(i) if *i >= 0 => *i as u64,
                    Json::Float(x) if x.fract() == 0.0 && *x >= 0.0 && *x <= u64::MAX as f64 => {
                        *x as u64
                    }
                    other => return err(format!(
                        "expected unsigned integer, got {}", other.kind()
                    )),
                };
                <$t>::try_from(u).map_err(|_| JsonError(format!(
                    "integer {u} out of range for {}", stringify!($t)
                )))
            }
        }
    )*};
}
impl_json_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                let i = *self as i64;
                if i >= 0 { Json::UInt(i as u64) } else { Json::Int(i) }
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let i = match v {
                    Json::Int(i) => *i,
                    Json::UInt(u) if *u <= i64::MAX as u64 => *u as i64,
                    Json::Float(x) if x.fract() == 0.0 && x.abs() < 9.0e18 => *x as i64,
                    other => return err(format!(
                        "expected integer, got {}", other.kind()
                    )),
                };
                <$t>::try_from(i).map_err(|_| JsonError(format!(
                    "integer {i} out of range for {}", stringify!($t)
                )))
            }
        }
    )*};
}
impl_json_int!(i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Float(x) => Ok(*x),
            Json::Int(i) => Ok(*i as f64),
            Json::UInt(u) => Ok(*u as f64),
            Json::Null => Ok(f64::NAN), // non-finite floats serialize as null
            other => err(format!("expected number, got {}", other.kind())),
        }
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Float(*self as f64)
    }
}

impl FromJson for f32 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        f64::from_json(v).map(|x| x as f32)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_owned())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) => Ok(s.clone()),
            other => err(format!("expected string, got {}", other.kind())),
        }
    }
}

impl ToJson for Ipv4Addr {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl FromJson for Ipv4Addr {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) => s
                .parse()
                .map_err(|_| JsonError(format!("bad IPv4 literal `{s}`"))),
            other => err(format!("expected IPv4 string, got {}", other.kind())),
        }
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
            other => err(format!("expected array, got {}", other.kind())),
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_arr() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => err("expected 2-element array"),
        }
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

impl<A: FromJson, B: FromJson, C: FromJson> FromJson for (A, B, C) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_arr() {
            Some([a, b, c]) => Ok((A::from_json(a)?, B::from_json(b)?, C::from_json(c)?)),
            _ => err("expected 3-element array"),
        }
    }
}

/// Maps serialize as objects with keys sorted, for deterministic output.
impl<V: ToJson> ToJson for HashMap<String, V> {
    fn to_json(&self) -> Json {
        let mut keys: Vec<&String> = self.keys().collect();
        keys.sort();
        Json::Obj(
            keys.into_iter()
                .map(|k| (k.clone(), self[k].to_json()))
                .collect(),
        )
    }
}

impl<V: FromJson> FromJson for HashMap<String, V> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Obj(fields) => fields
                .iter()
                .map(|(k, val)| Ok((k.clone(), V::from_json(val)?)))
                .collect(),
            other => err(format!("expected object, got {}", other.kind())),
        }
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

impl<V: FromJson> FromJson for BTreeMap<String, V> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Obj(fields) => fields
                .iter()
                .map(|(k, val)| Ok((k.clone(), V::from_json(val)?)))
                .collect(),
            other => err(format!("expected object, got {}", other.kind())),
        }
    }
}

/// Sets serialize as sorted arrays, for deterministic output.
impl ToJson for HashSet<String> {
    fn to_json(&self) -> Json {
        let mut items: Vec<&String> = self.iter().collect();
        items.sort();
        Json::Arr(items.into_iter().map(|s| Json::Str(s.clone())).collect())
    }
}

impl FromJson for HashSet<String> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Vec::<String>::from_json(v).map(|v| v.into_iter().collect())
    }
}

impl<T: ToJson + Ord> ToJson for BTreeSet<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson + Ord> FromJson for BTreeSet<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Vec::<T>::from_json(v).map(|v| v.into_iter().collect())
    }
}

// ------------------------------------------------------- field helpers

/// Looks up a required struct field.
///
/// # Errors
///
/// Fails when the key is missing or its value has the wrong shape.
pub fn req_field<T: FromJson>(obj: &[(String, Json)], name: &str) -> Result<T, JsonError> {
    match obj.iter().find(|(k, _)| k == name) {
        Some((_, v)) => T::from_json(v).map_err(|e| JsonError(format!("field `{name}`: {}", e.0))),
        None => err(format!("missing field `{name}`")),
    }
}

/// Looks up an optional struct field, defaulting when absent (the
/// `#[serde(default)]` replacement for format evolution).
///
/// # Errors
///
/// Fails only when the key is present with the wrong shape.
pub fn opt_field<T: FromJson + Default>(
    obj: &[(String, Json)],
    name: &str,
) -> Result<T, JsonError> {
    match obj.iter().find(|(k, _)| k == name) {
        Some((_, v)) => T::from_json(v).map_err(|e| JsonError(format!("field `{name}`: {}", e.0))),
        None => Ok(T::default()),
    }
}

/// Token-muncher collecting `(name, value)` pairs for `to_json`.
/// Internal to [`impl_json_struct!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __json_push_fields {
    ($self:ident, $vec:ident,) => {};
    ($self:ident, $vec:ident, $f:ident ? $(, $($rest:tt)*)?) => {
        $vec.push((
            stringify!($f).to_owned(),
            $crate::json::ToJson::to_json(&$self.$f),
        ));
        $crate::__json_push_fields!($self, $vec, $($($rest)*)?);
    };
    ($self:ident, $vec:ident, $f:ident $(, $($rest:tt)*)?) => {
        $vec.push((
            stringify!($f).to_owned(),
            $crate::json::ToJson::to_json(&$self.$f),
        ));
        $crate::__json_push_fields!($self, $vec, $($($rest)*)?);
    };
}

/// Token-muncher building the `Self { … }` literal for `from_json`;
/// `field ?` defaults when the key is missing. Internal to
/// [`impl_json_struct!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __json_from_fields {
    ($obj:ident, { $($acc:tt)* },) => {
        Self { $($acc)* }
    };
    ($obj:ident, { $($acc:tt)* }, $f:ident ? $(, $($rest:tt)*)?) => {
        $crate::__json_from_fields!(
            $obj,
            { $($acc)* $f: $crate::json::opt_field($obj, stringify!($f))?, },
            $($($rest)*)?
        )
    };
    ($obj:ident, { $($acc:tt)* }, $f:ident $(, $($rest:tt)*)?) => {
        $crate::__json_from_fields!(
            $obj,
            { $($acc)* $f: $crate::json::req_field($obj, stringify!($f))?, },
            $($($rest)*)?
        )
    };
}

/// Implements [`ToJson`](crate::json::ToJson) and [`FromJson`](crate::json::FromJson)
/// for a struct with named fields, serialized as a JSON object in
/// declaration order. Append `?` to a field name to default it when the
/// key is absent (format evolution, the old `#[serde(default)]`).
///
/// ```
/// # use smash_support::impl_json_struct;
/// #[derive(Debug, PartialEq, Default)]
/// struct Rec { id: u32, tags: Vec<String>, extra: u32 }
/// impl_json_struct!(Rec { id, tags, extra? });
///
/// let r: Rec = smash_support::json::from_str(r#"{"id":4,"tags":[]}"#).unwrap();
/// assert_eq!(r, Rec { id: 4, tags: vec![], extra: 0 });
/// ```
#[macro_export]
macro_rules! impl_json_struct {
    ($ty:ty { $($fields:tt)* }) => {
        impl $crate::json::ToJson for $ty {
            // With a single-field struct the expansion is one push after
            // `Vec::new()`, which trips `vec_init_then_push`.
            #[allow(clippy::vec_init_then_push)]
            fn to_json(&self) -> $crate::json::Json {
                let mut fields: Vec<(String, $crate::json::Json)> = Vec::new();
                $crate::__json_push_fields!(self, fields, $($fields)*);
                $crate::json::Json::Obj(fields)
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                let obj = v.as_obj().ok_or_else(|| $crate::json::JsonError(
                    format!("expected object for {}", stringify!($ty)),
                ))?;
                Ok($crate::__json_from_fields!(obj, {}, $($fields)*))
            }
        }
    };
}

/// Implements [`ToJson`](crate::json::ToJson) and [`FromJson`](crate::json::FromJson)
/// for a fieldless enum, serialized as the variant name string (serde's
/// unit-variant convention).
///
/// ```
/// # use smash_support::impl_json_enum;
/// #[derive(Debug, PartialEq)]
/// enum Color { Red, Blue }
/// impl_json_enum!(Color { Red, Blue });
///
/// assert_eq!(smash_support::json::to_string(&Color::Red), r#""Red""#);
/// let c: Color = smash_support::json::from_str(r#""Blue""#).unwrap();
/// assert_eq!(c, Color::Blue);
/// ```
#[macro_export]
macro_rules! impl_json_enum {
    ($ty:ty { $($variant:ident),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                let name = match self {
                    $(<$ty>::$variant => stringify!($variant)),*
                };
                $crate::json::Json::Str(name.to_owned())
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                match v.as_str() {
                    $(Some(stringify!($variant)) => Ok(<$ty>::$variant),)*
                    Some(other) => Err($crate::json::JsonError(format!(
                        "unknown {} variant `{other}`", stringify!($ty),
                    ))),
                    None => Err($crate::json::JsonError(format!(
                        "expected string for {}", stringify!($ty),
                    ))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for src in [
            "null",
            "true",
            "false",
            "0",
            "-7",
            "18446744073709551615",
            "1.5",
            "-2.25e3",
            "\"hi\"",
        ] {
            let v = parse(src).unwrap();
            let s = to_string(&v);
            assert_eq!(parse(&s).unwrap(), v, "src = {src}");
        }
    }

    #[test]
    fn integers_keep_precision() {
        assert_eq!(
            parse("9007199254740993").unwrap(),
            Json::UInt(9007199254740993)
        );
        assert_eq!(
            parse("-9007199254740993").unwrap(),
            Json::Int(-9007199254740993)
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "a\"b\\c\nd\te\u{08}\u{0C}\r ünîcødé 🦀 \u{1}";
        let json = to_string(&s.to_owned());
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn unicode_escape_parsing() {
        let v: String = from_str(r#""\u0041\u00e9\ud83e\udd80""#).unwrap();
        assert_eq!(v, "Aé🦀");
    }

    #[test]
    fn nested_structures_parse() {
        let v = parse(r#" { "a" : [1, 2.5, {"b": null}], "c": [] } "#).unwrap();
        assert_eq!(v.get("c"), Some(&Json::Arr(vec![])));
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[2].get("b"), Some(&Json::Null));
    }

    #[test]
    fn malformed_inputs_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "01x",
            "\"\\q\"",
            "nul",
            "[1] extra",
            "{'a':1}",
        ] {
            assert!(parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn float_round_trip_is_exact() {
        for x in [0.1f64, 1.0 / 3.0, 1e-300, 123456.789, -0.0, 2.0f64.powi(60)] {
            let s = to_string(&x);
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "x = {x}, s = {s}");
        }
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(to_string(&f64::NAN), "null");
        assert_eq!(to_string(&f64::INFINITY), "null");
    }

    #[test]
    fn maps_serialize_sorted() {
        let mut m = HashMap::new();
        m.insert("zebra".to_owned(), 1u32);
        m.insert("apple".to_owned(), 2u32);
        m.insert("mango".to_owned(), 3u32);
        assert_eq!(to_string(&m), r#"{"apple":2,"mango":3,"zebra":1}"#);
    }

    #[test]
    fn sets_serialize_sorted() {
        let mut s = HashSet::new();
        s.insert("b".to_owned());
        s.insert("a".to_owned());
        assert_eq!(to_string(&s), r#"["a","b"]"#);
    }

    #[test]
    fn option_round_trips() {
        assert_eq!(to_string(&None::<u32>), "null");
        assert_eq!(from_str::<Option<u32>>("null").unwrap(), None);
        assert_eq!(from_str::<Option<u32>>("5").unwrap(), Some(5));
    }

    #[test]
    fn ipv4_round_trips() {
        let ip: Ipv4Addr = "10.0.0.255".parse().unwrap();
        let s = to_string(&ip);
        assert_eq!(s, r#""10.0.0.255""#);
        assert_eq!(from_str::<Ipv4Addr>(&s).unwrap(), ip);
    }

    #[derive(Debug, PartialEq, Default)]
    struct Demo {
        name: String,
        count: u32,
        ratio: f64,
        alias: Option<String>,
        extra: u32,
    }
    impl_json_struct!(Demo { name, count, ratio, alias, extra? });

    #[test]
    fn struct_macro_round_trips() {
        let d = Demo {
            name: "x".into(),
            count: 3,
            ratio: 0.5,
            alias: None,
            extra: 9,
        };
        let s = to_string(&d);
        assert_eq!(
            s,
            r#"{"name":"x","count":3,"ratio":0.5,"alias":null,"extra":9}"#
        );
        assert_eq!(from_str::<Demo>(&s).unwrap(), d);
    }

    #[test]
    fn struct_macro_defaults_marked_fields() {
        let d: Demo = from_str(r#"{"name":"y","count":1,"ratio":2.0,"alias":"z"}"#).unwrap();
        assert_eq!(d.extra, 0);
        assert_eq!(d.alias.as_deref(), Some("z"));
    }

    #[test]
    fn struct_macro_rejects_missing_required() {
        assert!(from_str::<Demo>(r#"{"count":1,"ratio":2.0,"alias":null}"#).is_err());
    }

    #[derive(Debug, PartialEq)]
    enum Kind {
        Alpha,
        Beta,
    }
    impl_json_enum!(Kind { Alpha, Beta });

    #[test]
    fn enum_macro_round_trips() {
        assert_eq!(to_string(&Kind::Alpha), r#""Alpha""#);
        assert_eq!(from_str::<Kind>(r#""Beta""#).unwrap(), Kind::Beta);
        assert!(from_str::<Kind>(r#""Gamma""#).is_err());
        assert!(from_str::<Kind>("3").is_err());
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = parse(r#"{"a":[1,2],"b":{"c":true},"d":[]}"#).unwrap();
        let pretty = to_string_pretty(&v);
        assert!(pretty.contains('\n'));
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let e = parse(&deep).unwrap_err();
        assert!(e.0.contains("nesting deeper than 128"), "got: {e}");
        // Far past the limit, in arrays and objects alike, and through
        // the tree-free skip: an error, never a stack overflow.
        let hostile = format!("{{\"x\":{}", "[".repeat(10_000));
        assert!(parse(&hostile).is_err());
        assert!(parse(&"{\"a\":".repeat(10_000)).is_err());
        let mut s = Scanner::new(&hostile);
        assert!(s.skip_value().is_err());
    }

    #[test]
    #[cfg_attr(miri, ignore = "wall-clock bound, meaningless under an interpreter")]
    fn string_scan_is_linear() {
        // A quadratic scan takes hours on these inputs even in release;
        // a linear one takes well under a second in debug.
        let start = std::time::Instant::now();
        let long = format!("\"{}\"", "a".repeat(8 << 20));
        assert_eq!(parse(&long).unwrap().as_str().map(str::len), Some(8 << 20));
        let mut obj = String::from("{");
        let mut i = 0;
        while obj.len() < 4 << 20 {
            obj.push_str(&format!("\"k{i}\":\"v\\u00e9{i}\","));
            i += 1;
        }
        obj.push_str("\"end\":\"\"}");
        assert_eq!(parse(&obj).unwrap().as_obj().map(<[_]>::len), Some(i + 1));
        let elapsed = start.elapsed();
        assert!(
            elapsed.as_secs() < 20,
            "8 MiB + 4 MiB parse took {elapsed:?}"
        );
    }

    #[test]
    fn scanner_borrows_plain_strings_and_skips_members() {
        let mut s =
            Scanner::new(r#" {"a": "plain", "b": "esc\u0041", "c": [1, {"d": "x"}], "e": -0} "#);
        let mut seen = Vec::new();
        s.object(|s, key| {
            match key.as_ref() {
                "a" | "b" => {
                    let v = s.string()?;
                    seen.push((
                        key.into_owned(),
                        matches!(v, Cow::Borrowed(_)),
                        v.into_owned(),
                    ));
                }
                "e" => assert_eq!(s.number()?, Json::Int(0)),
                _ => s.skip_value()?,
            }
            Ok(())
        })
        .unwrap();
        s.finish().unwrap();
        assert_eq!(
            seen,
            vec![
                ("a".to_owned(), true, "plain".to_owned()),
                ("b".to_owned(), false, "escA".to_owned()),
            ]
        );
    }

    #[test]
    fn skip_value_rejects_what_parse_rejects() {
        for src in [
            "\"\\q\"",
            "\"\\ud800\"",
            "\"\\ud800\\u0041\"",
            "\"a\u{1}b\"",
            "\"open",
            "[1,]",
            "{\"a\" 1}",
            "-",
            "1e",
            "tru",
            "[1, 2.5, {\"b\": null}, \"\\ud83e\\udd80\"]",
        ] {
            let mut s = Scanner::new(src);
            let skipped = s.skip_value().and_then(|()| s.finish());
            assert_eq!(skipped.is_ok(), parse(src).is_ok(), "src = {src}");
        }
    }

    #[test]
    fn serialization_is_deterministic() {
        let mut m = HashMap::new();
        for i in 0..50 {
            m.insert(format!("key{i}"), i);
        }
        assert_eq!(to_string(&m), to_string(&m.clone()));
    }
}
