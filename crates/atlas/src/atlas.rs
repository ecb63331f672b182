//! The atlas proper: an in-memory composite index over a line backing,
//! plus canonical-key lookup with witness relabeling.
//!
//! Everything here is derived from the backing's line sequence at open
//! time — the index, the eval total, the entry count. The atlas never
//! stores derived state on disk, which is what lets an interrupted
//! build resume from nothing but the store itself.

use crate::backing::MemoryBacking;
use crate::key;
use crate::record::{index_key, AtlasRecord, StoredVerdict};
use bncg_core::{Alpha, Concept, GameError, Move};
use bncg_graph::enumerate::MAX_GRAPH_CLASS_NODES;
use bncg_graph::Graph;
use std::collections::HashMap;

/// A successful atlas lookup.
#[derive(Debug, Clone)]
pub struct Hit {
    /// The stored record (witness still in canonical labels).
    pub record: AtlasRecord,
    /// The stored witness relabeled into the **query's** vertex labels,
    /// if the verdict is unstable.
    pub witness: Option<Move>,
}

/// A stability corpus over a pluggable [`MemoryBacking`].
#[derive(Debug)]
pub struct Atlas<B: MemoryBacking> {
    backing: B,
    /// Composite `"{key}|{token}|{alpha}"` → line index. Later entries
    /// win, so a resumed build that re-derives a torn tail line simply
    /// re-points the index.
    index: HashMap<String, u64>,
    /// Σ of the `evals` column — the builder's budget-pool position.
    evals_total: u64,
}

impl<B: MemoryBacking> Atlas<B> {
    /// Opens an atlas over `backing`, replaying every stored line into
    /// the index.
    ///
    /// # Errors
    ///
    /// [`GameError::Unsupported`] if the backing fails or any line is
    /// not a parsable [`AtlasRecord`] (the backing's torn-tail repair
    /// runs before this, so a parse failure here is real corruption).
    pub fn open(backing: B) -> Result<Self, GameError> {
        let mut index = HashMap::new();
        let mut evals_total = 0u64;
        let mut parse_error: Option<GameError> = None;
        backing.for_each_line(&mut |i, line| {
            if parse_error.is_some() {
                return;
            }
            match line.parse::<AtlasRecord>() {
                Ok(rec) => {
                    evals_total += rec.evals;
                    index.insert(rec.index_key(), i);
                }
                Err(e) => parse_error = Some(e),
            }
        })?;
        if let Some(e) = parse_error {
            return Err(e);
        }
        Ok(Atlas {
            backing,
            index,
            evals_total,
        })
    }

    /// Number of stored records.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.backing.len()
    }

    /// Whether the atlas holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.backing.is_empty()
    }

    /// Σ of the stored `evals` column: the exact budget-pool position
    /// the builder had after producing these records.
    #[must_use]
    pub fn evals_total(&self) -> u64 {
        self.evals_total
    }

    /// Torn tail lines the backing dropped at open time (see
    /// [`MemoryBacking::dropped_tail`]).
    #[must_use]
    pub fn dropped_tail(&self) -> u64 {
        self.backing.dropped_tail()
    }

    /// The record at line `index`.
    ///
    /// # Errors
    ///
    /// [`GameError::Unsupported`] if out of range or unparsable.
    pub fn record(&self, index: u64) -> Result<AtlasRecord, GameError> {
        self.backing.read_line(index)?.parse()
    }

    /// Streams every record in append order.
    ///
    /// # Errors
    ///
    /// [`GameError::Unsupported`] on backing failure or a corrupt line.
    pub(crate) fn for_each_record(
        &self,
        visit: &mut dyn FnMut(u64, &AtlasRecord),
    ) -> Result<(), GameError> {
        let mut parse_error: Option<GameError> = None;
        self.backing.for_each_line(&mut |i, line| {
            if parse_error.is_some() {
                return;
            }
            match line.parse::<AtlasRecord>() {
                Ok(rec) => visit(i, &rec),
                Err(e) => parse_error = Some(e),
            }
        })?;
        match parse_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Appends a record and indexes it.
    ///
    /// # Errors
    ///
    /// Propagates backing failures.
    pub fn append(&mut self, record: &AtlasRecord) -> Result<(), GameError> {
        self.append_rendered(record.to_string(), record.index_key(), record.evals)
    }

    /// Appends a record already rendered as its `line`, under its
    /// precomputed `index_key`, moving the line into the backing.
    ///
    /// # Errors
    ///
    /// Propagates backing failures.
    pub(crate) fn append_rendered(
        &mut self,
        line: String,
        index_key: String,
        evals: u64,
    ) -> Result<(), GameError> {
        let at = self.backing.len();
        self.backing.append_owned(line)?;
        self.evals_total += evals;
        self.index.insert(index_key, at);
        Ok(())
    }

    /// Makes room in the index for `additional` more records, so a
    /// build appending a whole level rehashes it once.
    pub(crate) fn reserve(&mut self, additional: u64) {
        self.index
            .reserve(usize::try_from(additional).unwrap_or(usize::MAX));
    }

    /// Exact-triple fetch by safe key (no canonicalization — the caller
    /// asserts the key is already canonical).
    ///
    /// # Errors
    ///
    /// [`GameError::Unsupported`] if an indexed line fails to re-read.
    pub fn get(
        &self,
        safe_key: &str,
        concept: Concept,
        alpha: Alpha,
    ) -> Result<Option<AtlasRecord>, GameError> {
        match self.index.get(&index_key(safe_key, concept, alpha)) {
            Some(&at) => Ok(Some(self.record(at)?)),
            None => Ok(None),
        }
    }

    /// Looks up the stability of `g` under `concept` at price `alpha`:
    /// canonicalizes `g`, probes the index, and — on an unstable hit —
    /// relabels the stored witness back into `g`'s own vertex labels so
    /// it is directly replayable on the query graph.
    ///
    /// Returns `Ok(None)` on a miss. A graph with more than
    /// [`MAX_GRAPH_CLASS_NODES`] nodes is a miss without keying: no
    /// build can store its class, and canonicalizing a large symmetric
    /// graph can take minutes. An `Exhausted` record is returned as a
    /// hit (`witness: None`); callers that need a conclusive answer
    /// treat it as a miss and fall through to a live check.
    ///
    /// # Errors
    ///
    /// [`GameError::Unsupported`] if the graph cannot be keyed or an
    /// indexed line fails to re-read.
    pub fn lookup(
        &self,
        g: &Graph,
        concept: Concept,
        alpha: Alpha,
    ) -> Result<Option<Hit>, GameError> {
        if g.n() > MAX_GRAPH_CLASS_NODES {
            return Ok(None);
        }
        let (safe, _canon, to_canon) = key::instance_key(g)?;
        let Some(record) = self.get(&safe, concept, alpha)? else {
            return Ok(None);
        };
        let witness = match &record.verdict {
            StoredVerdict::Unstable(w) => {
                // `to_canon[u]` is u's canonical label; the stored
                // witness speaks canonical labels, so map through the
                // inverse to recover the query's labels.
                let mut from_canon = vec![0u32; to_canon.len()];
                for (u, &c) in to_canon.iter().enumerate() {
                    from_canon[c as usize] = u as u32;
                }
                Some(w.relabeled(&from_canon))
            }
            _ => None,
        };
        Ok(Some(Hit { record, witness }))
    }

    /// Flushes the backing.
    ///
    /// # Errors
    ///
    /// Propagates backing failures.
    pub fn flush(&mut self) -> Result<(), GameError> {
        self.backing.flush()
    }

    /// Read access to the backing (tests inspect segment geometry).
    #[must_use]
    pub fn backing(&self) -> &B {
        &self.backing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::RamBacking;
    use bncg_core::delta::move_improves_all;
    use bncg_graph::generators;

    fn alpha(s: &str) -> Alpha {
        s.parse().unwrap()
    }

    #[test]
    fn lookup_canonicalizes_and_relabels_witnesses() {
        // Path P5 at α = 1/2: the endpoints profitably add an edge —
        // every relabeling of the path must hit the same stored record
        // and get a witness valid in its own labels.
        let g = generators::path(5);
        let concept = Concept::Bae;
        let a = alpha("1/2");
        let live = concept.find_violation(&g, a).unwrap().unwrap();
        let (safe, _canon, to_canon) = key::instance_key(&g).unwrap();
        let canon_witness = live.relabeled(&to_canon);

        let mut atlas = Atlas::open(RamBacking::new()).unwrap();
        atlas
            .append(&AtlasRecord {
                key: safe,
                n: 5,
                concept,
                alpha: a,
                model: bncg_core::CostModelSpec::SumDistances,
                verdict: StoredVerdict::Unstable(canon_witness),
                evals: 0,
            })
            .unwrap();

        let mut rng = bncg_graph::test_rng(41);
        for _ in 0..6 {
            let perm = generators::random_permutation(5, &mut rng);
            let h = g.relabeled(&perm);
            let hit = atlas.lookup(&h, concept, a).unwrap().unwrap();
            assert_eq!(hit.record.verdict.is_stable(), Some(false));
            let w = hit.witness.unwrap();
            // The relabeled witness must be a strict improvement on the
            // *query* graph: replay it and check every mover improves.
            assert!(
                move_improves_all(&h, a, &w).unwrap(),
                "witness {w:?} does not improve on the relabeled path"
            );
        }
    }

    #[test]
    fn misses_and_exhausted_records_do_not_fabricate_witnesses() {
        let g = generators::cycle(5);
        let (safe, _, _) = key::instance_key(&g).unwrap();
        let mut atlas = Atlas::open(RamBacking::new()).unwrap();
        assert!(atlas.lookup(&g, Concept::Re, alpha("2")).unwrap().is_none());
        atlas
            .append(&AtlasRecord {
                key: safe,
                n: 5,
                concept: Concept::Bne,
                alpha: alpha("2"),
                model: bncg_core::CostModelSpec::SumDistances,
                verdict: StoredVerdict::Exhausted(
                    "{\"concept\":\"bne\",\"unit\":0,\"mask\":0,\"evals\":9}".to_string(),
                ),
                evals: 9,
            })
            .unwrap();
        let hit = atlas.lookup(&g, Concept::Bne, alpha("2")).unwrap().unwrap();
        assert_eq!(hit.record.verdict.is_stable(), None);
        assert!(hit.witness.is_none());
        // Different α or concept is still a miss.
        assert!(atlas
            .lookup(&g, Concept::Bne, alpha("3"))
            .unwrap()
            .is_none());
        assert!(atlas
            .lookup(&g, Concept::Bse, alpha("2"))
            .unwrap()
            .is_none());
    }

    #[test]
    fn lookups_past_the_class_ceiling_miss_without_keying() {
        // Canonicalizing cycle(32) runs for minutes; the size guard must
        // answer first.
        let mut atlas = Atlas::open(RamBacking::new()).unwrap();
        crate::build(&mut atlas, &crate::BuildSpec::standard(3), 10_000, None).unwrap();
        let start = std::time::Instant::now();
        let c32 = generators::cycle(32);
        assert!(atlas
            .lookup(&c32, Concept::Re, alpha("2"))
            .unwrap()
            .is_none());
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "the guard did not short-circuit: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn open_rederives_index_and_eval_totals() {
        let mut backing = RamBacking::new();
        let g = generators::star(6);
        let (safe, _, _) = key::instance_key(&g).unwrap();
        for (i, c) in [Concept::Re, Concept::Bae, Concept::Bne]
            .into_iter()
            .enumerate()
        {
            backing
                .append_line(
                    &AtlasRecord {
                        key: safe.clone(),
                        n: 6,
                        concept: c,
                        alpha: alpha("3"),
                        model: bncg_core::CostModelSpec::SumDistances,
                        verdict: StoredVerdict::Stable,
                        evals: 10 * (i as u64 + 1),
                    }
                    .to_string(),
                )
                .unwrap();
        }
        let atlas = Atlas::open(backing).unwrap();
        assert_eq!(atlas.len(), 3);
        assert_eq!(atlas.evals_total(), 60);
        let hit = atlas.lookup(&g, Concept::Bne, alpha("3")).unwrap().unwrap();
        assert_eq!(hit.record.evals, 30);
    }

    #[test]
    fn open_rejects_corrupt_lines() {
        let mut backing = RamBacking::new();
        backing.append_line("{\"not\":\"a record\"}").unwrap();
        assert!(Atlas::open(backing).is_err());
    }
}
