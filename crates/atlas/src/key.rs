//! Atlas keys: canonical graph6 strings transliterated into the
//! record dialect's safe alphabet.
//!
//! The atlas keys every instance by the graph6 encoding of its
//! **canonical representative** ([`bncg_graph::iso::canonical_form`]),
//! so isomorphic queries collapse onto one entry. Raw graph6 bytes span
//! `63..=126`, which includes `\`, `{`, `}`, `[` and `]` — characters
//! the repo's escape-free flat-JSON dialect ([`bncg_core::jsonio`])
//! cannot carry inside a string. Stored keys therefore use a bijective
//! transliteration onto the base64url alphabet: graph6 byte `b` maps to
//! `SAFE[b - 63]`. The graph6 string stays the logical, CLI-facing key;
//! the safe form is what travels in records and requests.

use bncg_core::GameError;
use bncg_graph::{graph6, iso, Graph, BITSET_MAX_N};

/// The 64-character target alphabet: index `i` encodes graph6 byte
/// `63 + i`. Every character is safe inside the escape-free dialect.
const SAFE: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";

/// Transliterates a graph6 string into the safe record alphabet.
///
/// # Errors
///
/// Returns [`GameError::Unsupported`] if `graph6` contains a byte
/// outside the graph6 range `63..=126`.
pub(crate) fn safe_key(graph6: &str) -> Result<String, GameError> {
    graph6
        .bytes()
        .map(|b| {
            if (63..=126).contains(&b) {
                Ok(char::from(SAFE[(b - 63) as usize]))
            } else {
                Err(GameError::Unsupported {
                    reason: format!("byte {b} is outside the graph6 alphabet"),
                })
            }
        })
        .collect()
}

/// Inverse of [`safe_key`]: recovers the graph6 string.
///
/// # Errors
///
/// Returns [`GameError::Unsupported`] if `key` contains a character
/// outside the safe alphabet.
pub(crate) fn graph6_of_key(key: &str) -> Result<String, GameError> {
    key.bytes()
        .map(|b| {
            SAFE.iter()
                .position(|&s| s == b)
                .map(|i| char::from(63 + i as u8))
                .ok_or_else(|| GameError::Unsupported {
                    reason: format!("'{}' is not a safe-key character", char::from(b)),
                })
        })
        .collect()
}

/// The canonical atlas identity of an instance: its safe key, its
/// canonical representative, and the permutation mapping the instance's
/// labels onto the representative's (`perm[u]` is `u`'s canonical
/// label). The permutation is what translates a stored witness back to
/// the query's labels.
///
/// # Errors
///
/// Returns [`GameError::Unsupported`] if the graph has more than
/// [`BITSET_MAX_N`] nodes, the bit-row domain of
/// [`iso::canonical_form`] (far beyond atlas sizes).
pub fn instance_key(g: &Graph) -> Result<(String, Graph, Vec<u32>), GameError> {
    if g.n() > BITSET_MAX_N {
        return Err(GameError::Unsupported {
            reason: format!(
                "canonical keys need n ≤ {BITSET_MAX_N}, the graph has {} nodes",
                g.n()
            ),
        });
    }
    let (canon, perm) = iso::canonical_form(g);
    let g6 = graph6::encode(&canon).map_err(|e| GameError::Unsupported {
        reason: format!("graph does not encode as graph6: {e}"),
    })?;
    Ok((safe_key(&g6)?, canon, perm))
}

/// Decodes a safe key back to its canonical representative graph.
///
/// # Errors
///
/// Returns [`GameError::Unsupported`] if the key is not a transliterated
/// graph6 string.
pub fn graph_of_key(key: &str) -> Result<Graph, GameError> {
    let g6 = graph6_of_key(key)?;
    graph6::decode(&g6).map_err(|e| GameError::Unsupported {
        reason: format!("key does not decode as graph6: {e}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bncg_graph::generators;

    #[test]
    fn transliteration_round_trips_every_graph6_byte() {
        let all: String = (63u8..=126).map(char::from).collect();
        let safe = safe_key(&all).unwrap();
        assert!(safe.bytes().all(|b| SAFE.contains(&b)));
        assert_eq!(graph6_of_key(&safe).unwrap(), all);
    }

    #[test]
    fn transliteration_rejects_foreign_bytes() {
        assert!(safe_key(" ").is_err());
        assert!(graph6_of_key("*").is_err());
    }

    #[test]
    fn instance_keys_refuse_graphs_past_the_bit_row_domain() {
        assert!(matches!(
            instance_key(&generators::path(65)),
            Err(GameError::Unsupported { .. })
        ));
        assert!(instance_key(&generators::path(64)).is_ok());
    }

    #[test]
    fn instance_keys_are_isomorphism_invariant_and_decodable() {
        let mut rng = bncg_graph::test_rng(67);
        for _ in 0..10 {
            let g = generators::random_connected(7, 0.4, &mut rng);
            let perm = generators::random_permutation(7, &mut rng);
            let (key_a, canon, to_canon) = instance_key(&g).unwrap();
            let (key_b, _, _) = instance_key(&g.relabeled(&perm)).unwrap();
            assert_eq!(key_a, key_b);
            assert_eq!(g.relabeled(&to_canon), canon);
            assert_eq!(graph_of_key(&key_a).unwrap(), canon);
        }
    }
}
