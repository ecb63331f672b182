//! Minimal flat-JSON field extractors shared by the serializable resume
//! tokens — the solver's [`crate::solver::Frontier`], the metered
//! best-response [`crate::best_response::BestResponseFrontier`], and the
//! round-robin trajectory checkpoint in `bncg-dynamics`.
//!
//! The workspace is offline (no `serde`), and every token is a flat JSON
//! object whose values are unsigned integers, short known strings, or
//! arrays of unsigned integers — so a handful of scanning extractors is
//! the whole parser. None of the emitted tokens contain strings with
//! embedded braces or brackets, which is the (documented) assumption the
//! nested-object extractors [`object_field`] and [`split_object`] rely
//! on.

use std::borrow::Cow;

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
}
