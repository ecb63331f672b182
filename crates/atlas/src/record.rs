//! The atlas record: one stability verdict for one (canonical graph,
//! concept, α) triple, as a single flat-JSON line.
//!
//! Wire shape (escape-free dialect, [`bncg_core::jsonio`]):
//!
//! ```text
//! {"key":"EFz_","n":6,"concept":"bne","alpha":"3/2","verdict":"stable","evals":118}
//! {"key":"EFz_","n":6,"concept":"bse","alpha":"2","verdict":"unstable","evals":7,"witness":{"kind":"add","u":0,"v":3}}
//! {"key":"EFz_","n":6,"concept":"bne","alpha":"5","verdict":"exhausted","evals":2048,"frontier":{...}}
//! ```
//!
//! Field order is fixed and the nested `witness`/`frontier` object comes
//! last, so the flat extractors never confuse an outer field with one
//! inside the nested object (none of the outer names — `key`, `n`,
//! `concept`, `alpha`, `verdict`, `evals` — occur inside witness or
//! frontier tokens). Witness moves are stored in **canonical labels**;
//! [`crate::Atlas::lookup`] relabels them back to the query's labels.

use bncg_core::solver::Frontier;
use bncg_core::{jsonio, Alpha, Concept, CostModelSpec, GameError, Move, Verdict};
use std::fmt;
use std::str::FromStr;

/// The stored outcome of a stability check, stripped of run-local
/// accounting (timings, per-run prune counters) so that a rebuilt atlas
/// is byte-identical regardless of wall clock or thread scheduling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoredVerdict {
    /// Certified stable.
    Stable,
    /// Certified unstable, with the violating move in canonical labels.
    Unstable(Move),
    /// The build budget ran out mid-scan; the frontier token resumes it.
    Exhausted(String),
}

impl StoredVerdict {
    /// Collapses a live solver [`Verdict`] to its storable core, plus
    /// the eval count charged for it.
    #[must_use]
    pub fn of_verdict(v: &Verdict) -> (StoredVerdict, u64) {
        match v {
            Verdict::Stable { evals, .. } => (StoredVerdict::Stable, *evals),
            Verdict::Unstable { witness, evals, .. } => {
                (StoredVerdict::Unstable(witness.clone()), *evals)
            }
            Verdict::Exhausted { frontier, progress } => (
                StoredVerdict::Exhausted(frontier.to_json()),
                progress.evals_total,
            ),
        }
    }

    /// `Some(true)`/`Some(false)` for conclusive verdicts, `None` when
    /// exhausted — mirrors [`Verdict::is_stable`].
    #[must_use]
    pub fn is_stable(&self) -> Option<bool> {
        match self {
            StoredVerdict::Stable => Some(true),
            StoredVerdict::Unstable(_) => Some(false),
            StoredVerdict::Exhausted(_) => None,
        }
    }
}

/// One atlas entry: the verdict for `concept` on the canonical graph
/// named by `key` at price `alpha`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtlasRecord {
    /// Safe-alphabet canonical key ([`crate::key`]).
    pub key: String,
    /// Node count of the instance (denormalized for range scans).
    pub n: u32,
    /// The solution concept checked.
    pub concept: Concept,
    /// The exact edge price.
    pub alpha: Alpha,
    /// The cost model the verdict was priced under. Elided on the wire
    /// and in index keys when it is the default, so every pre-existing
    /// corpus line (all default-model) parses and indexes unchanged.
    pub model: CostModelSpec,
    /// The stored outcome.
    pub verdict: StoredVerdict,
    /// Candidate evaluations the build charged for this entry (0 for
    /// polynomial concepts). Summing this column reconstructs the
    /// builder's budget-pool position exactly.
    pub evals: u64,
}

impl fmt::Display for AtlasRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{\"key\":\"{}\",\"n\":{},\"concept\":\"{}\",\"alpha\":\"{}\",",
            self.key,
            self.n,
            self.concept.token(),
            self.alpha
        )?;
        if !self.model.is_default() {
            write!(f, "\"cost_model\":\"{}\",", self.model.token())?;
        }
        match &self.verdict {
            StoredVerdict::Stable => {
                write!(f, "\"verdict\":\"stable\",\"evals\":{}}}", self.evals)
            }
            StoredVerdict::Unstable(witness) => write!(
                f,
                "\"verdict\":\"unstable\",\"evals\":{},\"witness\":{}}}",
                self.evals,
                witness.render_json()
            ),
            StoredVerdict::Exhausted(frontier) => write!(
                f,
                "\"verdict\":\"exhausted\",\"evals\":{},\"frontier\":{frontier}}}",
                self.evals
            ),
        }
    }
}

impl FromStr for AtlasRecord {
    type Err = GameError;

    fn from_str(line: &str) -> Result<Self, GameError> {
        let missing = |field: &str| GameError::Unsupported {
            reason: format!("atlas record is missing \"{field}\": {line}"),
        };
        let key = jsonio::str_field(line, "key").ok_or_else(|| missing("key"))?;
        let n = jsonio::u64_field(line, "n").ok_or_else(|| missing("n"))?;
        let concept: Concept = jsonio::str_field(line, "concept")
            .ok_or_else(|| missing("concept"))?
            .parse()?;
        let alpha: Alpha = jsonio::str_field(line, "alpha")
            .ok_or_else(|| missing("alpha"))?
            .parse()?;
        let model = match jsonio::str_field(line, "cost_model") {
            None => CostModelSpec::SumDistances,
            Some(t) => t.parse()?,
        };
        let evals = jsonio::u64_field(line, "evals").ok_or_else(|| missing("evals"))?;
        let verdict = match jsonio::str_field(line, "verdict").ok_or_else(|| missing("verdict"))? {
            "stable" => StoredVerdict::Stable,
            "unstable" => StoredVerdict::Unstable(Move::parse_json(
                jsonio::object_field(line, "witness").ok_or_else(|| missing("witness"))?,
            )?),
            "exhausted" => StoredVerdict::Exhausted(
                jsonio::object_field(line, "frontier")
                    .ok_or_else(|| missing("frontier"))?
                    .to_string(),
            ),
            other => {
                return Err(GameError::Unsupported {
                    reason: format!("unknown atlas verdict \"{other}\""),
                })
            }
        };
        Ok(AtlasRecord {
            key: key.to_string(),
            n: u32::try_from(n).map_err(|_| missing("n"))?,
            concept,
            alpha,
            model,
            verdict,
            evals,
        })
    }
}

impl AtlasRecord {
    /// The composite index key identifying this entry within the atlas:
    /// `"{key}|{concept token}|{alpha}"`, with `|{cost model token}`
    /// appended only for non-default models — default-model keys are
    /// byte-identical to every pre-existing corpus index. `|` cannot
    /// occur in any component, so the composite is collision-free.
    #[must_use]
    pub(crate) fn index_key(&self) -> String {
        let mut key = index_key(&self.key, self.concept, self.alpha);
        if !self.model.is_default() {
            key.push('|');
            key.push_str(&self.model.token());
        }
        key
    }

    /// Reconstructs the frontier token of an exhausted entry.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::Unsupported`] if the verdict is not
    /// `Exhausted` or the stored token fails to parse.
    pub fn frontier(&self) -> Result<Frontier, GameError> {
        match &self.verdict {
            StoredVerdict::Exhausted(token) => token.parse(),
            _ => Err(GameError::Unsupported {
                reason: "record is not exhausted; it has no frontier".to_string(),
            }),
        }
    }
}

/// Builds the composite in-memory index key for a (safe key, concept, α)
/// triple. See [`AtlasRecord::index_key`].
#[must_use]
pub(crate) fn index_key(safe_key: &str, concept: Concept, alpha: Alpha) -> String {
    format!("{safe_key}|{}|{alpha}", concept.token())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<AtlasRecord> {
        vec![
            AtlasRecord {
                key: "EFz-".to_string(),
                n: 6,
                concept: Concept::Bswe,
                alpha: Alpha::from_ratio(3, 2).unwrap(),
                model: CostModelSpec::SumDistances,
                verdict: StoredVerdict::Stable,
                evals: 0,
            },
            AtlasRecord {
                key: "EFz-".to_string(),
                n: 6,
                concept: Concept::Bne,
                alpha: Alpha::integer(2).unwrap(),
                model: CostModelSpec::Generalized(bncg_core::Utility::Capped(2)),
                verdict: StoredVerdict::Unstable(Move::Neighborhood {
                    center: 1,
                    remove: vec![0],
                    add: vec![3, 4],
                }),
                evals: 37,
            },
        ]
    }

    #[test]
    fn records_round_trip_through_their_line_form() {
        for rec in samples() {
            let line = rec.to_string();
            assert_eq!(line.parse::<AtlasRecord>().unwrap(), rec, "{line}");
        }
    }

    #[test]
    fn exhausted_records_round_trip_with_live_frontier_tokens() {
        use bncg_core::{ExecPolicy, Solver, StabilityQuery};
        // A BSE scan over 9-node target graphs cannot finish inside one
        // poll quantum, so a 5-eval budget reliably exhausts.
        let g = bncg_graph::generators::star(9);
        let query = StabilityQuery::new(Concept::Bse, &g, Alpha::integer(3).unwrap());
        let verdict = Solver::new(ExecPolicy::default().with_eval_budget(5))
            .check(&query)
            .unwrap();
        let (stored, evals) = StoredVerdict::of_verdict(&verdict);
        assert!(matches!(stored, StoredVerdict::Exhausted(_)));
        let rec = AtlasRecord {
            key: "H".to_string(),
            n: 9,
            concept: Concept::Bse,
            alpha: Alpha::integer(3).unwrap(),
            model: CostModelSpec::SumDistances,
            verdict: stored,
            evals,
        };
        let parsed: AtlasRecord = rec.to_string().parse().unwrap();
        assert_eq!(parsed, rec);
        assert_eq!(
            parsed.frontier().unwrap().evals(),
            verdict.frontier().unwrap().evals()
        );
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!("{\"n\":6}".parse::<AtlasRecord>().is_err());
        assert!(
            "{\"key\":\"E\",\"n\":6,\"concept\":\"bne\",\"alpha\":\"2\",\"verdict\":\"odd\",\"evals\":0}"
                .parse::<AtlasRecord>()
                .is_err()
        );
        // An unstable verdict without its witness object is torn, not valid.
        assert!(
            "{\"key\":\"E\",\"n\":6,\"concept\":\"bne\",\"alpha\":\"2\",\"verdict\":\"unstable\",\"evals\":3}"
                .parse::<AtlasRecord>()
                .is_err()
        );
    }

    #[test]
    fn index_keys_are_distinct_across_triples() {
        let recs = samples();
        assert_ne!(recs[0].index_key(), recs[1].index_key());
        assert_eq!(recs[0].index_key(), "EFz-|bswe|3/2");
        assert_eq!(recs[1].index_key(), "EFz-|bne|2|generalized:cap2");
    }

    #[test]
    fn default_model_lines_stay_byte_identical_and_legacy_lines_parse() {
        let rec = &samples()[0];
        assert!(
            !rec.to_string().contains("cost_model"),
            "default-model records must serialize without the field"
        );
        // A corpus line written before the field existed.
        let legacy = "{\"key\":\"E\",\"n\":6,\"concept\":\"bne\",\"alpha\":\"2\",\
                      \"verdict\":\"stable\",\"evals\":4}";
        let parsed: AtlasRecord = legacy.parse().unwrap();
        assert_eq!(parsed.model, CostModelSpec::SumDistances);
        // Non-default records round-trip through their line form.
        let rec = &samples()[1];
        assert!(rec
            .to_string()
            .contains("\"cost_model\":\"generalized:cap2\""));
        assert_eq!(rec.to_string().parse::<AtlasRecord>().unwrap(), *rec);
    }
}
