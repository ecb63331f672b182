//! The line-delimited JSON wire protocol: one request object per line in,
//! one response object per line out (correlated by `id`, not by order).
//!
//! The full schema lives in `docs/PROTOCOL.md`; this module is the
//! executable half. Parsing is built on [`bncg_core::jsonio`] — the same
//! escape-free flat-JSON toolkit the resume tokens use — which imposes
//! the protocol's two structural rules:
//!
//! * **no escapes anywhere**: strings never contain `"`, `\`, braces, or
//!   brackets (tenant names are validated against that alphabet, and
//!   outbound free text is passed through [`sanitize`]);
//! * **`"resume"` carries the nested token verbatim** — a solver
//!   [`Frontier`](bncg_core::Frontier) for `check`, a
//!   [`BestResponseFrontier`](bncg_core::BestResponseFrontier) for
//!   `best_response`, a [`round_robin::Checkpoint`] for `trajectory`, a
//!   [`DynamicsCheckpoint`] for `dynamics`. Nested tokens share field
//!   names with the request (`evals`, `instance`, …), so the parser
//!   splits the resume object off *before* reading the request's own
//!   fields and the split is position-independent (clients should still
//!   put `resume` last, as every emitted token does).
//!
//! Graphs travel as a node count `n` plus `edges`, an array of edges
//! packed one per `u64` as `(u << 32) | v` — not graph6, whose alphabet
//! contains `\` and would break the no-escape rule.
//!
//! [`round_robin::Checkpoint`]: bncg_dynamics::round_robin::Checkpoint
//! [`DynamicsCheckpoint`]: bncg_dynamics::DynamicsCheckpoint

use bncg_core::{jsonio, Alpha, Concept, CostModelSpec, Move};
use bncg_graph::Graph;

/// Tenant used when a request omits the `tenant` field.
pub const DEFAULT_TENANT: &str = "public";

/// Hard node-count ceiling per request. Polynomial concepts would happily
/// run far larger, but each resident query carries an `n × n` distance
/// matrix, so the daemon bounds the per-query memory a client can demand.
pub const MAX_N: usize = 1024;

/// Longest tenant name the registry accepts.
pub const MAX_TENANT_LEN: usize = 64;

/// A parsed request line.
#[derive(Debug, Clone)]
pub enum Request {
    /// `op:"check"` — a stability query for `concept` on the instance.
    Check {
        /// Client-chosen correlation id (echoed in the response).
        id: u64,
        /// Tenant whose budget pool meters the work.
        tenant: String,
        /// The queried solution concept.
        concept: Concept,
        /// Edge price α.
        alpha: Alpha,
        /// Cost model the query prices moves under (absent field on the
        /// wire → [`CostModelSpec::SumDistances`]).
        cost_model: CostModelSpec,
        /// The instance graph.
        graph: Graph,
        /// A previously returned resume token, verbatim.
        resume: Option<String>,
        /// Per-query wall-clock allowance in milliseconds.
        deadline_ms: Option<u64>,
        /// `"stream":1` — emit a `progress` frame per requeued slice
        /// before the final response line.
        stream: bool,
    },
    /// `op:"best_response"` — the best feasible neighborhood move of
    /// `agent`.
    BestResponse {
        /// Client-chosen correlation id.
        id: u64,
        /// Tenant whose budget pool meters the work.
        tenant: String,
        /// The optimizing agent.
        agent: u32,
        /// Edge price α.
        alpha: Alpha,
        /// Cost model the query prices moves under.
        cost_model: CostModelSpec,
        /// The instance graph.
        graph: Graph,
        /// A previously returned resume token, verbatim.
        resume: Option<String>,
        /// Per-query wall-clock allowance in milliseconds.
        deadline_ms: Option<u64>,
        /// `"stream":1` — emit a `progress` frame per requeued slice.
        stream: bool,
    },
    /// `op:"trajectory"` — round-robin best-response dynamics from the
    /// instance, for at most `rounds` rounds.
    Trajectory {
        /// Client-chosen correlation id.
        id: u64,
        /// Tenant whose budget pool meters the work.
        tenant: String,
        /// Edge price α.
        alpha: Alpha,
        /// Cost model the dynamics price activations under.
        cost_model: CostModelSpec,
        /// The starting graph (on resume: the `final_edges` of the shed
        /// response the token came from).
        graph: Graph,
        /// Round cap (a round activates every agent once).
        rounds: usize,
        /// A previously returned resume token, verbatim.
        resume: Option<String>,
        /// Per-query wall-clock allowance in milliseconds.
        deadline_ms: Option<u64>,
        /// `"stream":1` — emit a `progress` frame per requeued slice
        /// (round, moves, evals so far) before the final line.
        stream: bool,
    },
    /// `op:"dynamics"` — improving-move dynamics under `concept`
    /// (deterministic first-violation rule), for at most `steps` moves.
    Dynamics {
        /// Client-chosen correlation id.
        id: u64,
        /// Tenant whose budget pool meters the work.
        tenant: String,
        /// The concept whose violations drive the dynamics.
        concept: Concept,
        /// Edge price α.
        alpha: Alpha,
        /// Cost model the dynamics price moves under.
        cost_model: CostModelSpec,
        /// The starting graph (on resume: the `final_edges` of the shed
        /// response the token came from).
        graph: Graph,
        /// Step cap.
        steps: usize,
        /// A previously returned resume token, verbatim.
        resume: Option<String>,
        /// Per-query wall-clock allowance in milliseconds.
        deadline_ms: Option<u64>,
        /// `"stream":1` — emit a `progress` frame per requeued slice
        /// (steps, evals so far) before the final line.
        stream: bool,
    },
    /// `op:"atlas_lookup"` — a stability query answered from the
    /// precomputed atlas when the instance's canonical class is stored
    /// (zero solver cost), falling through to a scheduled live check
    /// otherwise. Same payload as `check`.
    AtlasLookup {
        /// Client-chosen correlation id (echoed in the response).
        id: u64,
        /// Tenant whose budget pool meters a live fall-through.
        tenant: String,
        /// The queried solution concept.
        concept: Concept,
        /// Edge price α.
        alpha: Alpha,
        /// Cost model the query prices moves under. A non-default model
        /// always falls through to a live check — the atlas corpus is
        /// priced under the default model only.
        cost_model: CostModelSpec,
        /// The instance graph.
        graph: Graph,
        /// A previously returned resume token, verbatim (only a live
        /// fall-through ever emits one).
        resume: Option<String>,
        /// Per-query wall-clock allowance in milliseconds.
        deadline_ms: Option<u64>,
        /// `"stream":1` — emit a `progress` frame per requeued slice of
        /// a live fall-through (an atlas hit answers in one frame).
        stream: bool,
    },
    /// `op:"grant"` — control plane: fund a tenant and/or set its
    /// scheduling weight. `evals` creates the tenant with exactly that
    /// grant (or tops an existing tenant up); `weight` is absolute. At
    /// least one of the two must be present.
    Grant {
        /// Client-chosen correlation id.
        id: u64,
        /// The tenant to fund or reweight.
        tenant: String,
        /// Evaluations to grant, when present.
        evals: Option<u64>,
        /// Deficit round-robin weight to store (clamped to ≥ 1), when
        /// present.
        weight: Option<u64>,
    },
    /// `op:"stats"` — control plane: queue depth and per-tenant
    /// accounting.
    Stats {
        /// Client-chosen correlation id.
        id: u64,
    },
    /// `op:"shutdown"` — control plane: stop accepting connections,
    /// drain in-flight queries, exit.
    Shutdown {
        /// Client-chosen correlation id.
        id: u64,
    },
}

impl Request {
    /// The request's correlation id.
    #[must_use]
    pub fn id(&self) -> u64 {
        match self {
            Request::Check { id, .. }
            | Request::BestResponse { id, .. }
            | Request::Trajectory { id, .. }
            | Request::Dynamics { id, .. }
            | Request::AtlasLookup { id, .. }
            | Request::Grant { id, .. }
            | Request::Stats { id }
            | Request::Shutdown { id } => *id,
        }
    }
}

/// A request the daemon refuses to run, answered with
/// `{"id":…,"ok":0,"error":"bad_request","reason":…}`.
#[derive(Debug, Clone)]
pub struct BadRequest {
    /// The offending request's id (0 when even that was unreadable).
    pub id: u64,
    /// Human-readable cause (sanitized before serialization).
    pub reason: String,
}

/// Splits the `"resume": {…}` object off a request line, returning the
/// line with that span removed plus the object verbatim. Nested tokens
/// share field names with the request, so every other field must be
/// extracted from the returned head, never from the raw line.
#[must_use]
pub fn split_resume(line: &str) -> (String, Option<String>) {
    let Some(obj) = jsonio::object_field(line, "resume") else {
        return (line.to_string(), None);
    };
    // `object_field` returns a subslice of `line`; recover its offset to
    // cut the `"resume": {…}` span (key included) out of the head.
    let obj_start = obj.as_ptr() as usize - line.as_ptr() as usize;
    let key_start = line[..obj_start].rfind("\"resume\"").unwrap_or(obj_start);
    let mut head = String::with_capacity(line.len() - obj.len());
    head.push_str(&line[..key_start]);
    head.push_str(&line[obj_start + obj.len()..]);
    (head, Some(obj.to_string()))
}

/// Parses one request line.
///
/// # Errors
///
/// [`BadRequest`] with the line's `id` (0 if absent) and the cause; the
/// caller serializes it as an error response instead of dropping the
/// line silently.
pub fn parse_request(line: &str) -> Result<Request, BadRequest> {
    let (head, resume) = split_resume(line);
    let id = jsonio::u64_field(&head, "id").unwrap_or(0);
    let bad = |reason: String| BadRequest { id, reason };
    let op = jsonio::str_field(&head, "op")
        .ok_or_else(|| bad("missing \"op\"".into()))?
        .to_string();
    let tenant = || -> Result<String, BadRequest> {
        let name = jsonio::str_field(&head, "tenant").unwrap_or(DEFAULT_TENANT);
        validate_tenant(name).map_err(&bad)?;
        Ok(name.to_string())
    };
    let alpha = || -> Result<Alpha, BadRequest> {
        jsonio::str_field(&head, "alpha")
            .ok_or_else(|| bad("missing \"alpha\"".into()))?
            .parse()
            .map_err(|e| bad(format!("bad \"alpha\": {e}")))
    };
    let concept = || -> Result<Concept, BadRequest> {
        jsonio::str_field(&head, "concept")
            .ok_or_else(|| bad("missing \"concept\"".into()))?
            .parse()
            .map_err(|e| bad(format!("bad \"concept\": {e}")))
    };
    let graph = || parse_graph(&head).map_err(&bad);
    let cost_model = || -> Result<CostModelSpec, BadRequest> {
        match jsonio::str_field(&head, "cost_model") {
            None => Ok(CostModelSpec::SumDistances),
            Some(t) => t
                .parse()
                .map_err(|e| bad(format!("bad \"cost_model\": {e}"))),
        }
    };
    let deadline_ms = jsonio::u64_field(&head, "deadline_ms");
    let stream = jsonio::u64_field(&head, "stream").unwrap_or(0) != 0;
    match op.as_str() {
        "check" => Ok(Request::Check {
            id,
            tenant: tenant()?,
            concept: concept()?,
            alpha: alpha()?,
            cost_model: cost_model()?,
            graph: graph()?,
            resume,
            deadline_ms,
            stream,
        }),
        "best_response" => Ok(Request::BestResponse {
            id,
            tenant: tenant()?,
            agent: u32::try_from(
                jsonio::u64_field(&head, "agent").ok_or_else(|| bad("missing \"agent\"".into()))?,
            )
            .map_err(|_| bad("\"agent\" overflows u32".into()))?,
            alpha: alpha()?,
            cost_model: cost_model()?,
            graph: graph()?,
            resume,
            deadline_ms,
            stream,
        }),
        "trajectory" => Ok(Request::Trajectory {
            id,
            tenant: tenant()?,
            alpha: alpha()?,
            cost_model: cost_model()?,
            graph: graph()?,
            rounds: jsonio::u64_field(&head, "rounds").unwrap_or(100) as usize,
            resume,
            deadline_ms,
            stream,
        }),
        "dynamics" => Ok(Request::Dynamics {
            id,
            tenant: tenant()?,
            concept: concept()?,
            alpha: alpha()?,
            cost_model: cost_model()?,
            graph: graph()?,
            steps: jsonio::u64_field(&head, "steps").unwrap_or(1000) as usize,
            resume,
            deadline_ms,
            stream,
        }),
        "atlas_lookup" => Ok(Request::AtlasLookup {
            id,
            tenant: tenant()?,
            concept: concept()?,
            alpha: alpha()?,
            cost_model: cost_model()?,
            graph: graph()?,
            resume,
            deadline_ms,
            stream,
        }),
        "grant" => {
            let evals = jsonio::u64_field(&head, "evals");
            let weight = jsonio::u64_field(&head, "weight");
            if evals.is_none() && weight.is_none() {
                return Err(bad("grant needs \"evals\" and/or \"weight\"".into()));
            }
            Ok(Request::Grant {
                id,
                tenant: tenant()?,
                evals,
                weight,
            })
        }
        "stats" => Ok(Request::Stats { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        other => Err(bad(format!("unknown op {other:?}"))),
    }
}

/// Whether `name` fits the wire protocol's tenant alphabet (used by the
/// grants journal to refuse names that would corrupt the line format).
pub(crate) fn valid_tenant_name(name: &str) -> bool {
    validate_tenant(name).is_ok()
}

fn validate_tenant(name: &str) -> Result<(), String> {
    if name.is_empty() || name.len() > MAX_TENANT_LEN {
        return Err(format!(
            "tenant name must be 1..={MAX_TENANT_LEN} characters"
        ));
    }
    if !name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.' | '@'))
    {
        return Err("tenant name may only contain ASCII alphanumerics, \
                    '-', '_', '.', '@'"
            .into());
    }
    Ok(())
}

fn parse_graph(head: &str) -> Result<Graph, String> {
    let n = jsonio::u64_field(head, "n").ok_or("missing \"n\"")? as usize;
    if n > MAX_N {
        return Err(format!("\"n\" exceeds the daemon's limit of {MAX_N}"));
    }
    let packed = jsonio::u64_list_field(head, "edges").unwrap_or_default();
    let edges = packed.iter().map(|&p| unpack_edge(p));
    Graph::from_edges(n, edges).map_err(|e| format!("bad \"edges\": {e}"))
}

/// Packs an edge as `(u << 32) | v` for the `edges` wire arrays.
#[must_use]
pub fn pack_edge(u: u32, v: u32) -> u64 {
    (u64::from(u) << 32) | u64::from(v)
}

/// Inverse of [`pack_edge`].
#[must_use]
pub fn unpack_edge(p: u64) -> (u32, u32) {
    ((p >> 32) as u32, p as u32)
}

/// Renders a graph's edge set as a packed-edge JSON array (the
/// `final_edges` response field).
#[must_use]
pub fn render_edges(g: &Graph) -> String {
    let packed: Vec<u64> = g.edges().map(|(u, v)| pack_edge(u, v)).collect();
    jsonio::render_u64_list(&packed)
}

/// Renders a witness [`Move`] as a JSON object (`witness`/`move`
/// response fields). Edge pairs are packed like the wire arrays. This is
/// [`Move::render_json`] — the atlas stores witnesses in the identical
/// format, so a stored verdict serves byte-for-byte like a live one.
#[must_use]
pub fn render_move(mv: &Move) -> String {
    mv.render_json()
}

/// Makes free text (error reasons) safe for the escape-free wire format:
/// quotes, backslashes, braces, brackets, and control characters are
/// replaced, not escaped. Lossy by design — these strings are for
/// humans, never re-parsed.
#[must_use]
pub fn sanitize(text: &str) -> String {
    text.chars()
        .map(|c| match c {
            '"' => '\'',
            '\\' => '/',
            '{' | '[' => '(',
            '}' | ']' => ')',
            c if c.is_control() => ' ',
            c => c,
        })
        .collect()
}

/// One per-tenant row of the `stats` response: pool accounting merged
/// with the scheduler's queue-side view.
#[derive(Debug, Clone)]
pub struct TenantRow {
    /// Tenant name (sanitized before rendering).
    pub name: String,
    /// Lifetime evaluations granted.
    pub granted: u64,
    /// Lifetime evaluations consumed.
    pub used: u64,
    /// Deficit round-robin weight.
    pub weight: u64,
    /// Jobs queued (not currently running a slice).
    pub queued: u64,
    /// Jobs mid-slice right now.
    pub in_flight: u64,
    /// Cumulative milliseconds this tenant's jobs have spent queued
    /// (summed over every dispatch, so it only grows).
    pub waited_ms: u64,
}

/// Renders one `stats` tenant row. The name passes through
/// [`sanitize`] — a hostile registered name can garble *its own* label
/// but cannot break the response line's structure.
#[must_use]
pub fn render_tenant_row(row: &TenantRow) -> String {
    format!(
        "{{\"tenant\":\"{}\",\"granted\":{},\"used\":{},\"weight\":{},\
         \"queued\":{},\"in_flight\":{},\"waited_ms\":{}}}",
        sanitize(&row.name),
        row.granted,
        row.used,
        row.weight,
        row.queued,
        row.in_flight,
        row.waited_ms
    )
}

/// Renders one streaming `progress` frame from a job's freshly
/// serialized resume token. The token is the scheduler's own
/// checkpoint, so the frame reports exactly what a shed would resume
/// from: cumulative `evals`, plus whichever of `round`/`moves`/`steps`
/// the op's checkpoint carries. Distinguished from the final line by
/// `"progress":1`; correlated by `id` like every response.
#[must_use]
pub fn progress_frame(id: u64, op: &str, slices: u64, token: &str) -> String {
    let mut out =
        format!("{{\"id\":{id},\"ok\":1,\"op\":\"{op}\",\"progress\":1,\"slices\":{slices}");
    for key in ["evals", "round", "moves", "steps"] {
        if let Some(v) = jsonio::u64_field(token, key) {
            out.push_str(&format!(",\"{key}\":{v}"));
        }
    }
    out.push('}');
    out
}

/// Renders the uniform error response:
/// `{"id":…,"ok":0,"error":…,"reason":…}` plus, when partial work
/// exists, the `resume` token (and for trajectory ops the
/// `final_edges` to restart it against).
#[must_use]
pub fn error_response(
    id: u64,
    error: &str,
    reason: &str,
    resume: Option<&str>,
    final_edges: Option<&str>,
) -> String {
    let mut out = format!(
        "{{\"id\":{id},\"ok\":0,\"error\":\"{error}\",\"reason\":\"{}\"",
        sanitize(reason)
    );
    if let Some(edges) = final_edges {
        out.push_str(",\"final_edges\":");
        out.push_str(edges);
    }
    if let Some(token) = resume {
        out.push_str(",\"resume\":");
        out.push_str(token);
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bncg_graph::generators;

    #[test]
    fn check_request_round_trips() {
        let g = generators::path(5);
        let line = format!(
            "{{\"id\":7,\"op\":\"check\",\"tenant\":\"acme\",\"concept\":\"bne\",\
             \"alpha\":\"3/2\",\"n\":5,\"edges\":{}}}",
            render_edges(&g)
        );
        let Request::Check {
            id,
            tenant,
            concept,
            alpha,
            cost_model,
            graph,
            resume,
            deadline_ms,
            stream,
        } = parse_request(&line).unwrap()
        else {
            panic!("wrong op")
        };
        assert_eq!(id, 7);
        assert_eq!(tenant, "acme");
        assert_eq!(concept, Concept::Bne);
        assert_eq!(alpha, "3/2".parse().unwrap());
        assert_eq!(cost_model, CostModelSpec::SumDistances);
        assert_eq!(graph, g);
        assert!(resume.is_none());
        assert!(deadline_ms.is_none());
        assert!(!stream);
    }

    #[test]
    fn stream_flag_and_grant_weight_parse() {
        let line = "{\"id\":4,\"op\":\"trajectory\",\"alpha\":\"2\",\"n\":3,\
                    \"edges\":[1,4294967298],\"stream\":1}";
        let Request::Trajectory { stream, .. } = parse_request(line).unwrap() else {
            panic!("wrong op")
        };
        assert!(stream);
        let Request::Grant { evals, weight, .. } =
            parse_request("{\"id\":5,\"op\":\"grant\",\"tenant\":\"a\",\"weight\":3}").unwrap()
        else {
            panic!("wrong op")
        };
        assert_eq!(evals, None);
        assert_eq!(weight, Some(3));
        let Request::Grant { evals, weight, .. } =
            parse_request("{\"id\":5,\"op\":\"grant\",\"tenant\":\"a\",\"evals\":10,\"weight\":2}")
                .unwrap()
        else {
            panic!("wrong op")
        };
        assert_eq!(evals, Some(10));
        assert_eq!(weight, Some(2));
    }

    #[test]
    fn hostile_tenant_names_cannot_break_stats_rows() {
        // Registered through an embedder (the wire rejects these at
        // parse time), a hostile name must not yield an unparseable or
        // field-spoofing row.
        let row = TenantRow {
            name: "evil\",\"granted\":999999,\"x\":\"".into(),
            granted: 7,
            used: 2,
            weight: 1,
            queued: 0,
            in_flight: 0,
            waited_ms: 0,
        };
        let json = render_tenant_row(&row);
        assert_eq!(jsonio::u64_field(&json, "granted"), Some(7), "{json}");
        assert_eq!(jsonio::u64_field(&json, "used"), Some(2));
        assert_eq!(json.matches('{').count(), 1, "one object only: {json}");
        assert_eq!(json.matches('"').count() % 2, 0, "quotes must balance");
    }

    #[test]
    fn progress_frames_extract_checkpoint_counters() {
        let token = "{\"v\":1,\"instance\":9,\"round\":3,\"agent\":2,\"moved\":1,\
                     \"moves\":5,\"evals\":480,\"seen\":[],\
                     \"scan\":{\"v\":1,\"agent\":2,\"instance\":9,\"pos\":7,\"evals\":12,\"best\":0}}";
        let frame = progress_frame(11, "trajectory", 4, token);
        assert_eq!(jsonio::u64_field(&frame, "id"), Some(11));
        assert_eq!(jsonio::u64_field(&frame, "progress"), Some(1));
        assert_eq!(jsonio::u64_field(&frame, "slices"), Some(4));
        assert_eq!(
            jsonio::u64_field(&frame, "evals"),
            Some(480),
            "the checkpoint's own cumulative evals, not the nested scan's: {frame}"
        );
        assert_eq!(jsonio::u64_field(&frame, "round"), Some(3));
        assert_eq!(jsonio::u64_field(&frame, "moves"), Some(5));
        assert_eq!(jsonio::str_field(&frame, "op"), Some("trajectory"));
    }

    #[test]
    fn cost_model_field_parses_and_defaults() {
        let line = "{\"id\":2,\"op\":\"check\",\"concept\":\"bne\",\"alpha\":\"2\",\
                    \"cost_model\":\"generalized:cap2\",\"n\":3,\"edges\":[1,4294967298]}";
        let Request::Check { cost_model, .. } = parse_request(line).unwrap() else {
            panic!("wrong op")
        };
        assert_eq!(cost_model.token(), "generalized:cap2");
        let err = parse_request(
            "{\"id\":2,\"op\":\"check\",\"concept\":\"bne\",\"alpha\":\"2\",\
             \"cost_model\":\"bogus\",\"n\":3,\"edges\":[1]}",
        )
        .unwrap_err();
        assert!(err.reason.contains("cost_model"), "{:?}", err.reason);
    }

    #[test]
    fn resume_object_is_split_off_before_field_extraction() {
        // The nested token deliberately carries a *different* "concept"
        // and "evals" — request parsing must never read into it, even
        // with the resume object in front of the request's own fields.
        let line = "{\"id\":1,\"op\":\"check\",\
                    \"resume\":{\"v\":1,\"concept\":\"bse\",\"instance\":9,\
                    \"unit\":2,\"pos\":4,\"evals\":55},\
                    \"concept\":\"bne\",\"alpha\":\"2\",\"n\":3,\"edges\":[1,4294967298]}";
        let Request::Check {
            concept, resume, ..
        } = parse_request(line).unwrap()
        else {
            panic!("wrong op")
        };
        assert_eq!(concept, Concept::Bne);
        let token = resume.unwrap();
        assert_eq!(jsonio::u64_field(&token, "evals"), Some(55));
        assert_eq!(jsonio::str_field(&token, "concept"), Some("bse"));
    }

    #[test]
    fn malformed_requests_name_their_cause() {
        for (line, needle) in [
            ("{\"id\":3}", "op"),
            ("{\"id\":3,\"op\":\"frobnicate\"}", "unknown op"),
            (
                "{\"id\":3,\"op\":\"check\",\"alpha\":\"2\",\"n\":4}",
                "concept",
            ),
            (
                "{\"id\":3,\"op\":\"check\",\"concept\":\"bne\",\"n\":4}",
                "alpha",
            ),
            (
                "{\"id\":3,\"op\":\"check\",\"concept\":\"bne\",\"alpha\":\"2\"}",
                "\"n\"",
            ),
            (
                "{\"id\":3,\"op\":\"check\",\"concept\":\"bne\",\"alpha\":\"2\",\
                 \"n\":4,\"edges\":[38654705664]}",
                "edges",
            ),
            (
                "{\"id\":3,\"op\":\"grant\",\"tenant\":\"a{b\",\"evals\":5}",
                "tenant",
            ),
            ("{\"id\":3,\"op\":\"grant\",\"tenant\":\"ok\"}", "evals"),
            (
                "{\"id\":3,\"op\":\"check\",\"concept\":\"bne\",\"alpha\":\"2\",\
                 \"n\":9999999}",
                "limit",
            ),
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.id, 3);
            assert!(
                err.reason.contains(needle),
                "reason {:?} must mention {needle:?}",
                err.reason
            );
        }
    }

    #[test]
    fn packed_edges_round_trip() {
        let g = generators::random_connected(9, 0.4, &mut bncg_graph::test_rng(5));
        let json = format!("{{\"n\":9,\"edges\":{}}}", render_edges(&g));
        assert_eq!(parse_graph(&json).unwrap(), g);
    }

    #[test]
    fn sanitize_strips_structure() {
        let dirty = "bad \"alpha\": {x\\y} [z]\n";
        let clean = sanitize(dirty);
        assert!(!clean.contains('"') && !clean.contains('\\'));
        assert!(!clean.contains('{') && !clean.contains('['));
        let resp = error_response(4, "bad_request", dirty, None, None);
        assert_eq!(jsonio::u64_field(&resp, "id"), Some(4));
        assert_eq!(jsonio::u64_field(&resp, "ok"), Some(0));
        assert_eq!(jsonio::str_field(&resp, "error"), Some("bad_request"));
    }

    #[test]
    fn moves_render_as_flat_objects() {
        let mv = Move::Neighborhood {
            center: 3,
            remove: vec![1],
            add: vec![5, 7],
        };
        let json = render_move(&mv);
        assert_eq!(jsonio::str_field(&json, "kind"), Some("neighborhood"));
        assert_eq!(jsonio::u64_field(&json, "center"), Some(3));
        assert_eq!(jsonio::u64_list_field(&json, "add"), Some(vec![5, 7]));
        let mv = Move::Coalition {
            members: vec![0, 2],
            remove_edges: vec![(0, 1)],
            add_edges: vec![(0, 2)],
        };
        let json = render_move(&mv);
        assert_eq!(
            jsonio::u64_list_field(&json, "remove_edges"),
            Some(vec![pack_edge(0, 1)])
        );
    }

    /// The move block of `docs/PROTOCOL.md` shows one rendered move of
    /// each kind; every line must be exactly what the wire emits.
    #[test]
    fn protocol_doc_move_block_matches_the_renderer() {
        let doc = include_str!("../../../docs/PROTOCOL.md");
        let moves = [
            Move::BilateralAdd { u: 0, v: 4 },
            Move::Remove {
                agent: 0,
                target: 1,
            },
            Move::Swap {
                agent: 2,
                old: 1,
                new: 5,
            },
            Move::Neighborhood {
                center: 0,
                remove: vec![1],
                add: vec![4, 7],
            },
            Move::Coalition {
                members: vec![0, 3],
                remove_edges: vec![(0, 1)],
                add_edges: vec![(0, 3)],
            },
        ];
        for mv in &moves {
            let line = render_move(mv);
            assert!(
                doc.lines().any(|l| l == line),
                "docs/PROTOCOL.md lacks the rendered move line {line}"
            );
        }
    }
}
