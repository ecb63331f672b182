//! Append-only persistence for tenant grants and weights.
//!
//! The daemon's control plane is tiny — `grant` lines fund tenants and
//! set their scheduling weights — but losing it on restart zeroes out
//! every provisioned tenant. This module journals each control action
//! as one line of the repo's escape-free flat JSON to `grants.jsonl`,
//! with the same torn-tail discipline as the atlas segments
//! (`bncg_atlas`): a crash mid-append leaves at most one line without a
//! trailing newline, and `GrantJournal::open` truncates that torn
//! tail before replaying, so replay never interprets half a record.
//!
//! The journal is a log of *events*, not a snapshot: a tenant granted
//! 50 then topped up by 25 appears as two lines whose replay reproduces
//! the cumulative 75. Weights are absolute (last write wins). Usage
//! (`used`) is deliberately not journaled — a restart refunds in-flight
//! work, which is the forgiving failure mode.

use bncg_core::jsonio;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

/// File name used when the journal path is a directory.
pub(crate) const GRANTS_FILE: &str = "grants.jsonl";

/// One replayed control-plane action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum GrantEvent {
    /// `{"tenant":…,"evals":…}` — fund the tenant by `evals`
    /// (create-with-exactly on first sight, top-up afterwards — the
    /// same semantics as the live `grant` op).
    Grant {
        /// The funded tenant.
        tenant: String,
        /// Evaluations granted by this event.
        evals: u64,
    },
    /// `{"tenant":…,"weight":…}` — set the tenant's scheduling weight
    /// (absolute; the latest line wins).
    Weight {
        /// The reweighted tenant.
        tenant: String,
        /// The stored weight (≥ 1).
        weight: u64,
    },
}

/// The open journal: an append handle.
#[derive(Debug)]
pub(crate) struct GrantJournal {
    file: File,
}

impl GrantJournal {
    /// Opens (creating if absent) the journal at `path` — a file path,
    /// or a directory under which [`GRANTS_FILE`] is used. Returns the
    /// journal plus every complete event already on disk, in append
    /// order; a torn trailing line is truncated away, not replayed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures (open, read, truncate).
    pub fn open(path: &Path) -> io::Result<(GrantJournal, Vec<GrantEvent>)> {
        let path = if path.is_dir() {
            path.join(GRANTS_FILE)
        } else {
            path.to_path_buf()
        };
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)?;
        let mut raw = Vec::new();
        file.read_to_end(&mut raw)?;
        let complete = match raw.iter().rposition(|&b| b == b'\n') {
            Some(last) => last + 1,
            None => 0,
        };
        if complete < raw.len() {
            file.set_len(complete as u64)?;
        }
        let mut events = Vec::new();
        for line in String::from_utf8_lossy(&raw[..complete]).lines() {
            let Some(tenant) = jsonio::str_field(line, "tenant") else {
                continue;
            };
            if let Some(evals) = jsonio::u64_field(line, "evals") {
                events.push(GrantEvent::Grant {
                    tenant: tenant.to_string(),
                    evals,
                });
            }
            if let Some(weight) = jsonio::u64_field(line, "weight") {
                events.push(GrantEvent::Weight {
                    tenant: tenant.to_string(),
                    weight,
                });
            }
        }
        Ok((GrantJournal { file }, events))
    }

    /// Appends a funding event.
    ///
    /// # Errors
    ///
    /// Propagates the write failure; the in-memory grant has already
    /// been applied by the caller, so a failed append degrades to
    /// non-persistence, not to a rejected grant.
    pub(crate) fn record_grant(&mut self, tenant: &str, evals: u64) -> io::Result<()> {
        self.append(tenant, "evals", evals)
    }

    /// Appends a reweighting event (absolute weight).
    ///
    /// # Errors
    ///
    /// Propagates the write failure (see [`GrantJournal::record_grant`]).
    pub(crate) fn record_weight(&mut self, tenant: &str, weight: u64) -> io::Result<()> {
        self.append(tenant, "weight", weight)
    }

    fn append(&mut self, tenant: &str, key: &str, value: u64) -> io::Result<()> {
        // Wire-parsed tenant names are already alphabet-restricted; an
        // embedder-supplied name that would break the escape-free line
        // format is skipped rather than journaled corrupt.
        if !crate::protocol::valid_tenant_name(tenant) {
            return Ok(());
        }
        self.file
            .write_all(format!("{{\"tenant\":\"{tenant}\",\"{key}\":{value}}}\n").as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bncg-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn events_replay_in_append_order() {
        let dir = tmpdir("replay");
        let (mut j, events) = GrantJournal::open(&dir).unwrap();
        assert!(events.is_empty());
        j.record_grant("alice", 50).unwrap();
        j.record_grant("alice", 25).unwrap();
        j.record_weight("bob", 4).unwrap();
        drop(j);
        let (_, events) = GrantJournal::open(&dir).unwrap();
        assert_eq!(
            events,
            vec![
                GrantEvent::Grant {
                    tenant: "alice".into(),
                    evals: 50
                },
                GrantEvent::Grant {
                    tenant: "alice".into(),
                    evals: 25
                },
                GrantEvent::Weight {
                    tenant: "bob".into(),
                    weight: 4
                },
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_not_replayed() {
        let dir = tmpdir("torn");
        let (mut j, _) = GrantJournal::open(&dir).unwrap();
        j.record_grant("alice", 50).unwrap();
        let path = dir.join(GRANTS_FILE);
        drop(j);
        // Simulate a crash mid-append: a partial record with no newline.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"tenant\":\"mallory\",\"evals\":99")
            .unwrap();
        drop(f);
        let (mut j, events) = GrantJournal::open(&dir).unwrap();
        assert_eq!(events.len(), 1, "torn line must not replay: {events:?}");
        // The truncated file accepts fresh appends cleanly.
        j.record_weight("alice", 2).unwrap();
        drop(j);
        let (_, events) = GrantJournal::open(&dir).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1],
            GrantEvent::Weight {
                tenant: "alice".into(),
                weight: 2
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_names_are_not_journaled() {
        let dir = tmpdir("hostile");
        let (mut j, _) = GrantJournal::open(&dir).unwrap();
        j.record_grant("ok", 1).unwrap();
        j.record_grant("evil\"name", 2).unwrap();
        drop(j);
        let (_, events) = GrantJournal::open(&dir).unwrap();
        assert_eq!(events.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
