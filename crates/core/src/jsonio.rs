//! Minimal flat-JSON field extractors, and the one codec every resume
//! token is written and read with: the solver's
//! [`crate::solver::Frontier`], the metered best-response
//! [`crate::best_response::BestResponseFrontier`], and the round-robin
//! and dynamics trajectory checkpoints in `bncg-dynamics`.
//!
//! The workspace is offline (no `serde`), and every token is a flat JSON
//! object whose values are unsigned integers, short known strings, or
//! arrays of unsigned integers — so a handful of scanning extractors is
//! the whole parser. None of the emitted tokens contain strings with
//! embedded braces or brackets, which is the (documented) assumption the
//! nested-object extractors [`object_field`] and [`split_object`] rely
//! on.
//!
//! ## The token codec
//!
//! [`TokenWriter`] and [`TokenReader`] hold the layout rules once:
//!
//! * `"v"`, the token type's layout version, comes first; a reader
//!   refuses any other version, so a token from a build with a different
//!   enumeration layout is rejected instead of reinterpreted;
//! * the fields follow in the type's fixed order, and a token nested in
//!   another (a checkpoint's interrupted `"scan"`) comes last;
//! * the reader splits the nested token off before reading its host's
//!   fields, which share names with it (`instance`, `evals`, …);
//! * a missing or out-of-range field fails the whole token with one
//!   error shape, naming the token type and the field.

use crate::GameError;
use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::str::FromStr;

/// Extracts `"key": <u64>` from a flat JSON object.
#[must_use]
pub fn u64_field(json: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts `"key": "<str>"` from a flat JSON object.
#[must_use]
pub fn str_field<'j>(json: &'j str, key: &str) -> Option<&'j str> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start().strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(&rest[..end])
}

/// Extracts `"key": [u64, …]` from a flat JSON object. An empty array
/// yields an empty vector; a malformed element yields `None` (the caller
/// rejects the whole token rather than resuming from partial garbage).
#[must_use]
pub fn u64_list_field(json: &str, key: &str) -> Option<Vec<u64>> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start().strip_prefix('[')?;
    let end = rest.find(']')?;
    let body = rest[..end].trim();
    if body.is_empty() {
        return Some(Vec::new());
    }
    body.split(',').map(|tok| tok.trim().parse().ok()).collect()
}

/// Extracts the balanced `{…}` object value of `"key": {…}`, brace
/// counting only (valid because no emitted token carries braces inside
/// strings). Returns the slice including the outer braces, ready to hand
/// to the nested token's own parser.
#[must_use]
pub fn object_field<'j>(json: &'j str, key: &str) -> Option<&'j str> {
    object_span(json, key).map(|(_, start, end)| &json[start..end])
}

/// Splits the nested object `"key": {…}` off `json`: returns `json` with
/// that span (key included) cut out, plus the object verbatim. Nested
/// tokens share field names with their host (`evals`, `instance`, …),
/// so the host's own fields must be read from the returned head, never
/// from `json` — wherever in the line the nested object sits.
#[must_use]
pub fn split_object<'j>(json: &'j str, key: &str) -> (Cow<'j, str>, Option<&'j str>) {
    match object_span(json, key) {
        None => (Cow::Borrowed(json), None),
        Some((key_at, start, end)) => (
            Cow::Owned([&json[..key_at], &json[end..]].concat()),
            Some(&json[start..end]),
        ),
    }
}

/// Byte offsets of `"key": {…}`: where the key starts, and where its
/// object value starts and ends.
fn object_span(json: &str, key: &str) -> Option<(usize, usize, usize)> {
    let needle = format!("\"{key}\":");
    let key_at = json.find(&needle)?;
    let value = &json[key_at + needle.len()..];
    let start = json.len() - value.trim_start().len();
    if !json[start..].starts_with('{') {
        return None;
    }
    let mut depth = 0usize;
    for (i, c) in json[start..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some((key_at, start, start + i + 1));
                }
            }
            _ => {}
        }
    }
    None
}

/// Renders a `u64` slice as a JSON array (`[1,2,3]`).
#[must_use]
pub fn render_u64_list(values: &[u64]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
    out
}

/// The key a checkpoint's interrupted scan token is nested under.
const NESTED: &str = "scan";

/// Writes a resume token: `"v"` first, the fields in call order, and
/// the nested token, if any, last.
#[derive(Debug)]
#[must_use]
pub struct TokenWriter(String);

impl TokenWriter {
    /// Opens a token of layout version `layout`.
    pub fn new(layout: u64) -> Self {
        TokenWriter(format!("{{\"v\":{layout}"))
    }

    /// Appends `"key":value`.
    pub fn int(self, key: &str, value: u64) -> Self {
        self.raw(key, value)
    }

    /// Appends `"key":[…]`.
    pub fn ints(self, key: &str, values: impl IntoIterator<Item = u64>) -> Self {
        let values: Vec<u64> = values.into_iter().collect();
        self.raw(key, render_u64_list(&values))
    }

    /// Appends `"key":"value"`; `value` must be escape-free.
    pub fn str(self, key: &str, value: &str) -> Self {
        self.raw(key, format_args!("\"{value}\""))
    }

    /// Closes the token, with the `nested` token last under `"scan"`.
    pub fn finish(self, nested: Option<String>) -> String {
        let mut token = match nested {
            Some(nested) => self.raw(NESTED, nested).0,
            None => self.0,
        };
        token.push('}');
        token
    }

    fn raw(mut self, key: &str, value: impl fmt::Display) -> Self {
        let _ = write!(self.0, ",\"{key}\":{value}");
        self
    }
}

/// Reads a resume token written by [`TokenWriter`]. Every call fails
/// with [`GameError::Unsupported`]; a field read's error reads
/// `malformed <token>: missing or invalid "<field>"`.
#[derive(Debug)]
pub struct TokenReader<'j> {
    what: &'static str,
    head: Cow<'j, str>,
    nested: Option<&'j str>,
}

impl<'j> TokenReader<'j> {
    /// Opens `json` as a `what` token, with the token nested under
    /// `"scan"` split off; `"v"` must be `layout`.
    pub fn new(json: &'j str, what: &'static str, layout: u64) -> Result<Self, GameError> {
        let (head, nested) = split_object(json, NESTED);
        let reader = TokenReader { what, head, nested };
        match reader.int::<u64>("v")? {
            v if v == layout => Ok(reader),
            v => Err(GameError::Unsupported {
                reason: format!("{what} has layout version {v}, this build speaks {layout}"),
            }),
        }
    }

    /// The integer field `key`, which must fit `T`.
    pub fn int<T: TryFrom<u64>>(&self, key: &str) -> Result<T, GameError> {
        let value = u64_field(&self.head, key).and_then(|x| x.try_into().ok());
        self.field(key, value)
    }

    /// The integer list `key`, whose every element must fit `T`.
    pub fn ints<T: TryFrom<u64>>(&self, key: &str) -> Result<Vec<T>, GameError> {
        let list = u64_list_field(&self.head, key)
            .and_then(|xs| xs.into_iter().map(|x| x.try_into().ok()).collect());
        self.field(key, list)
    }

    /// The `0`/`1` field `key`.
    pub fn flag(&self, key: &str) -> Result<bool, GameError> {
        let flag = u64_field(&self.head, key).filter(|&x| x <= 1);
        self.field(key, flag.map(|x| x == 1))
    }

    /// The string field `key`.
    pub fn str(&self, key: &str) -> Result<&str, GameError> {
        self.field(key, str_field(&self.head, key))
    }

    /// The nested token, when there is one, read by its own type.
    pub fn nested<T: FromStr<Err = GameError>>(&self) -> Result<Option<T>, GameError> {
        self.nested.map(str::parse).transpose()
    }

    fn field<T>(&self, key: &str, value: Option<T>) -> Result<T, GameError> {
        value.ok_or_else(|| GameError::Unsupported {
            reason: format!("malformed {}: missing or invalid \"{key}\"", self.what),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_round_trip() {
        let json = "{\"v\":1,\"name\":\"bne\",\"xs\":[3, 5,8],\"empty\":[],\
                     \"inner\":{\"a\":2,\"b\":[9]},\"tail\":7}";
        assert_eq!(u64_field(json, "v"), Some(1));
        assert_eq!(u64_field(json, "tail"), Some(7));
        assert_eq!(str_field(json, "name"), Some("bne"));
        assert_eq!(u64_list_field(json, "xs"), Some(vec![3, 5, 8]));
        assert_eq!(u64_list_field(json, "empty"), Some(Vec::new()));
        let inner = object_field(json, "inner").unwrap();
        assert_eq!(inner, "{\"a\":2,\"b\":[9]}");
        assert_eq!(u64_field(inner, "a"), Some(2));
        let (head, split) = split_object(json, "inner");
        assert_eq!(split, Some(inner));
        assert_eq!(u64_field(&head, "a"), None, "the nested fields are cut out");
        assert_eq!(u64_field(&head, "tail"), Some(7));
        assert_eq!(split_object(json, "v"), (json.into(), None));
        assert_eq!(u64_field(json, "missing"), None);
        assert_eq!(object_field(json, "v"), None);
    }

    #[test]
    fn malformed_lists_are_rejected_whole() {
        assert_eq!(u64_list_field("{\"xs\":[1,x]}", "xs"), None);
        assert_eq!(u64_list_field("{\"xs\":1}", "xs"), None);
    }

    #[test]
    fn render_matches_parser() {
        for xs in [vec![], vec![42], vec![1, 2, 3]] {
            let json = format!("{{\"xs\":{}}}", render_u64_list(&xs));
            assert_eq!(u64_list_field(&json, "xs"), Some(xs));
        }
    }

    #[test]
    fn codec_writes_v_first_and_the_nested_token_last() {
        let inner = TokenWriter::new(2).int("evals", 5).finish(None);
        let json = TokenWriter::new(1)
            .str("name", "bne")
            .int("evals", 9)
            .ints("xs", [3, 5])
            .ints("empty", [])
            .finish(Some(inner.clone()));
        assert_eq!(
            json,
            "{\"v\":1,\"name\":\"bne\",\"evals\":9,\"xs\":[3,5],\"empty\":[],\
             \"scan\":{\"v\":2,\"evals\":5}}"
        );
        let r = TokenReader::new(&json, "test token", 1).unwrap();
        assert_eq!(r.str("name").unwrap(), "bne");
        assert_eq!(
            r.int::<u64>("evals").unwrap(),
            9,
            "the host's field, not the nested one"
        );
        assert_eq!(r.ints::<u32>("xs").unwrap(), vec![3, 5]);
        assert_eq!(r.ints::<u64>("empty").unwrap(), Vec::<u64>::new());
        assert_eq!(r.nested.unwrap(), inner);
    }

    #[test]
    fn codec_rejects_with_one_error_shape() {
        let reason = |e: GameError| match e {
            GameError::Unsupported { reason } => reason,
            other => panic!("{other:?}"),
        };
        let json = "{\"v\":1,\"big\":4294967296,\"flag\":2,\"xs\":[1,x]}";
        let r = TokenReader::new(json, "test token", 1).unwrap();
        for e in [
            r.int::<u32>("big").unwrap_err(),
            r.int::<u64>("missing").unwrap_err(),
            r.flag("flag").unwrap_err(),
            r.ints::<u64>("xs").unwrap_err(),
            r.str("big").unwrap_err(),
        ] {
            assert!(reason(e).starts_with("malformed test token: missing or invalid \""));
        }
        assert_eq!(r.int::<u64>("big").unwrap(), 1 << 32);
        let stale = reason(TokenReader::new("{\"v\":9}", "test token", 1).unwrap_err());
        assert!(stale.contains("layout version 9"), "{stale}");
        for hostile in ["{\"v\":\"}", "nonsense", ""] {
            assert!(TokenReader::new(hostile, "test token", 1).is_err());
        }
    }
}
