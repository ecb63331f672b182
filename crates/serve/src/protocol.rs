//! The line-delimited JSON wire protocol: one request object per line in,
//! one response object per line out (correlated by `id`, not by order).
//!
//! This module is the whole wire boundary. [`parse_request`] turns a
//! line into a [`Request`] — every compute op parses straight into the
//! scheduler's [`QuerySpec`] — and every line the daemon writes is a
//! [`Response`], encoded by its one `Display` impl. The full schema
//! lives in `docs/PROTOCOL.md`. Both halves are built on
//! [`bncg_core::jsonio`] — the same escape-free flat-JSON toolkit the
//! resume tokens use — which imposes the protocol's two structural
//! rules:
//!
//! * **no escapes anywhere**: strings never contain `"`, `\`, braces, or
//!   brackets (tenant names are validated against that alphabet, and
//!   the encoder passes outbound free text through `sanitize`);
//! * **`"resume"` carries a nested token**, parsed with the request into
//!   the op's typed [`Token`] — a solver [`Frontier`] for `check`, a
//!   [`BestResponseFrontier`] for `best_response`, a
//!   [`round_robin::Checkpoint`] for `trajectory`, a
//!   [`DynamicsCheckpoint`] for `dynamics` — so a malformed token is
//!   refused as `bad_resume` when the line is read, and every token the
//!   daemon echoes is its own rendering of the parsed one. Nested tokens
//!   share field names with the request (`evals`, `instance`, …), so the
//!   parser splits the resume object off ([`jsonio::split_object`])
//!   *before* reading the request's own fields and the split is
//!   position-independent (clients should still put `resume` last, as
//!   every emitted token does).
//!
//! Graphs travel as a node count `n` plus `edges`, an array of edges
//! packed one per `u64` as `(u << 32) | v` — not graph6, whose alphabet
//! contains `\` and would break the no-escape rule.
//!
//! [`round_robin::Checkpoint`]: Checkpoint

use crate::scheduler::{QuerySpec, Work};
use bncg_core::{
    jsonio, Alpha, BestResponseFrontier, Concept, CostModelSpec, Frontier, GameError, Move,
};
use bncg_dynamics::round_robin::Checkpoint;
use bncg_dynamics::DynamicsCheckpoint;
use bncg_graph::Graph;
use std::fmt;

/// Tenant used when a request omits the `tenant` field.
pub(crate) const DEFAULT_TENANT: &str = "public";

/// Hard node-count ceiling per request. Polynomial concepts would happily
/// run far larger, but each resident query carries an `n × n` distance
/// matrix, so the daemon bounds the per-query memory a client can demand.
pub const MAX_N: usize = 1024;

/// Longest tenant name the registry accepts.
pub(crate) const MAX_TENANT_LEN: usize = 64;

/// A parsed request line.
#[derive(Debug, Clone)]
pub enum Request {
    /// A compute op — `check`, `atlas_lookup`, `best_response`,
    /// `trajectory` or `dynamics` — as the work the scheduler runs.
    Query {
        /// The query: id, tenant, payload, resume token, deadline.
        spec: QuerySpec,
        /// `"stream":1` — emit a `progress` frame per requeued slice
        /// before the final response line.
        stream: bool,
        /// `op:"atlas_lookup"` — answer `spec` (always a check) from the
        /// precomputed atlas when the instance's canonical class is
        /// stored, and fall through to a scheduled live check otherwise.
        lookup: bool,
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

/// A request the daemon refuses to run, answered with
/// `{"id":…,"ok":0,"error":…,"reason":…}`.
#[derive(Debug, Clone)]
pub struct BadRequest {
    /// The offending request's id (0 when even that was unreadable).
    pub id: u64,
    /// [`ErrorClass::BadResume`] for a malformed `resume` token,
    /// [`ErrorClass::BadRequest`] for anything else.
    pub error: ErrorClass,
    /// Human-readable cause (sanitized before serialization).
    pub reason: String,
}

/// Parses one request line. Fields are read in a fixed order per op
/// (tenant first), so a line with several faults names the same first
/// one every time.
///
/// # Errors
///
/// [`BadRequest`] with the line's `id` (0 if absent) and the cause; the
/// caller answers it with an error response instead of dropping the
/// line silently.
pub fn parse_request(line: &str) -> Result<Request, BadRequest> {
    let (head, resume) = jsonio::split_object(line, "resume");
    let head: &str = &head;
    let id = jsonio::u64_field(head, "id").unwrap_or(0);
    let bad = |reason: String| BadRequest {
        id,
        error: ErrorClass::BadRequest,
        reason,
    };
    let op = jsonio::str_field(head, "op").ok_or_else(|| bad("missing \"op\"".into()))?;
    let tenant = || -> Result<String, BadRequest> {
        let name = jsonio::str_field(head, "tenant").unwrap_or(DEFAULT_TENANT);
        validate_tenant(name).map_err(&bad)?;
        Ok(name.to_string())
    };
    let alpha = || -> Result<Alpha, BadRequest> {
        jsonio::str_field(head, "alpha")
            .ok_or_else(|| bad("missing \"alpha\"".into()))?
            .parse()
            .map_err(|e| bad(format!("bad \"alpha\": {e}")))
    };
    let concept = || -> Result<Concept, BadRequest> {
        jsonio::str_field(head, "concept")
            .ok_or_else(|| bad("missing \"concept\"".into()))?
            .parse()
            .map_err(|e| bad(format!("bad \"concept\": {e}")))
    };
    let graph = || parse_graph(head).map_err(&bad);
    let cost_model = || -> Result<CostModelSpec, BadRequest> {
        match jsonio::str_field(head, "cost_model") {
            None => Ok(CostModelSpec::SumDistances),
            Some(t) => t
                .parse()
                .map_err(|e| bad(format!("bad \"cost_model\": {e}"))),
        }
    };
    match op {
        "check" | "atlas_lookup" | "best_response" | "trajectory" | "dynamics" => {
            let tenant = tenant()?;
            let work = match op {
                "best_response" => Work::BestResponse {
                    agent: u32::try_from(
                        jsonio::u64_field(head, "agent")
                            .ok_or_else(|| bad("missing \"agent\"".into()))?,
                    )
                    .map_err(|_| bad("\"agent\" overflows u32".into()))?,
                    alpha: alpha()?,
                    cost_model: cost_model()?,
                    graph: graph()?,
                },
                "trajectory" => Work::Trajectory {
                    alpha: alpha()?,
                    cost_model: cost_model()?,
                    graph: graph()?,
                    rounds: jsonio::u64_field(head, "rounds").unwrap_or(100) as usize,
                },
                "dynamics" => Work::Dynamics {
                    concept: concept()?,
                    alpha: alpha()?,
                    cost_model: cost_model()?,
                    graph: graph()?,
                    steps: jsonio::u64_field(head, "steps").unwrap_or(1000) as usize,
                },
                _ => Work::Check {
                    concept: concept()?,
                    alpha: alpha()?,
                    cost_model: cost_model()?,
                    graph: graph()?,
                },
            };
            // A `resume` that is not a balanced object was not split off.
            let resume = match resume {
                None if head.contains("\"resume\":") => Err(GameError::Unsupported {
                    reason: "\"resume\" is not a balanced object".into(),
                }),
                resume => resume.map(|token| Token::parse(&work, token)).transpose(),
            }
            .map_err(|e| BadRequest {
                error: ErrorClass::BadResume,
                ..bad(e.to_string())
            })?;
            Ok(Request::Query {
                spec: QuerySpec {
                    id,
                    tenant,
                    work,
                    resume,
                    deadline_ms: jsonio::u64_field(head, "deadline_ms"),
                },
                stream: jsonio::u64_field(head, "stream").unwrap_or(0) != 0,
                lookup: op == "atlas_lookup",
            })
        }
        "grant" => {
            let evals = jsonio::u64_field(head, "evals");
            let weight = jsonio::u64_field(head, "weight");
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

/// Makes free text (error reasons, tenant names) safe for the
/// escape-free wire format: quotes, backslashes, braces, brackets, and
/// control characters are replaced, not escaped. Lossy by design — these
/// strings are for humans, never re-parsed.
#[must_use]
pub(crate) fn sanitize(text: &str) -> String {
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

/// Where an `atlas_lookup` verdict came from (the `source` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The precomputed corpus: zero solver cost.
    Atlas,
    /// A scheduled live check — the instance missed the corpus.
    Live,
}

/// The class of an error response (the `error` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// An unparsable line, unknown op or concept, or malformed fields.
    BadRequest,
    /// A resume token that does not parse or does not match the query.
    BadResume,
    /// The tenant's budget pool is drained or expired.
    Shed,
    /// The query's `deadline_ms` passed.
    Deadline,
    /// The daemon is stopping.
    Shutdown,
}

impl ErrorClass {
    /// The wire token.
    #[must_use]
    pub(crate) fn token(self) -> &'static str {
        match self {
            ErrorClass::BadRequest => "bad_request",
            ErrorClass::BadResume => "bad_resume",
            ErrorClass::Shed => "shed",
            ErrorClass::Deadline => "deadline",
            ErrorClass::Shutdown => "shutdown",
        }
    }
}

/// A query's resume token, typed from the request line to every line
/// that carries it (progress counters, `shed`/`deadline` echoes).
/// `Display` writes the token itself.
#[derive(Debug, Clone)]
pub enum Token {
    /// A `check`'s solver frontier.
    Check(Frontier),
    /// A `best_response` scan's frontier.
    BestResponse(BestResponseFrontier),
    /// A `trajectory`'s round-robin checkpoint (boxed: it is large).
    Trajectory(Box<Checkpoint>),
    /// A `dynamics` run's checkpoint.
    Dynamics(DynamicsCheckpoint),
}

impl Token {
    /// Parses `token` as the kind of token `work` resumes from.
    ///
    /// # Errors
    ///
    /// The token type's parse error: a missing or malformed field, or a
    /// layout version this build does not speak.
    pub fn parse(work: &Work, token: &str) -> Result<Token, GameError> {
        Ok(match work {
            Work::Check { .. } => Token::Check(token.parse()?),
            Work::BestResponse { .. } => Token::BestResponse(token.parse()?),
            Work::Trajectory { .. } => Token::Trajectory(Box::new(token.parse()?)),
            Work::Dynamics { .. } => Token::Dynamics(token.parse()?),
        })
    }

    pub(crate) fn op(&self) -> &'static str {
        match self {
            Token::Check(_) => "check",
            Token::BestResponse(_) => "best_response",
            Token::Trajectory(_) => "trajectory",
            Token::Dynamics(_) => "dynamics",
        }
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Check(t) => t.fmt(f),
            Token::BestResponse(t) => t.fmt(f),
            Token::Trajectory(t) => t.fmt(f),
            Token::Dynamics(t) => t.fmt(f),
        }
    }
}

/// One response line. Its `Display` impl is the wire encoder: every line
/// the daemon writes goes through it, and free text (error reasons,
/// tenant names) is passed through `sanitize` there, once.
#[derive(Debug, Clone)]
pub enum Response {
    /// A `check` verdict, or an `atlas_lookup` verdict when `source` is
    /// set.
    Verdict {
        /// The request's id.
        id: u64,
        /// `None` for `check`; the answer's origin for `atlas_lookup`.
        source: Option<Source>,
        /// The violating move; `None` means stable.
        witness: Option<Move>,
        /// Cumulative evaluations of the resume chain.
        evals: u64,
        /// Slices this submission took.
        slices: u64,
    },
    /// A `best_response` answer.
    BestResponse {
        /// The request's id.
        id: u64,
        /// The optimal improving move; `None` when nothing improves.
        best: Option<Move>,
        /// Cumulative evaluations of the resume chain.
        evals: u64,
        /// Slices this submission took.
        slices: u64,
    },
    /// A finished `trajectory`.
    Trajectory {
        /// The request's id.
        id: u64,
        /// Whether the dynamics reached a stable state.
        converged: bool,
        /// Whether they revisited a state.
        cycled: bool,
        /// Rounds started.
        rounds: u64,
        /// Moves applied.
        moves: u64,
        /// Cumulative evaluations of the resume chain.
        evals: u64,
        /// Slices this submission took.
        slices: u64,
        /// The graph reached.
        final_edges: Graph,
    },
    /// A finished `dynamics` run.
    Dynamics {
        /// The request's id.
        id: u64,
        /// Whether the dynamics reached a stable state.
        converged: bool,
        /// Moves applied.
        steps: u64,
        /// Cumulative evaluations of the resume chain.
        evals: u64,
        /// Slices this submission took.
        slices: u64,
        /// The graph reached.
        final_edges: Graph,
    },
    /// A `grant` acknowledgement.
    Grant {
        /// The request's id.
        id: u64,
        /// The tenant (sanitized on output).
        tenant: String,
        /// The pool's new lifetime grant.
        granted: u64,
        /// The stored scheduling weight.
        weight: u64,
    },
    /// The `stats` snapshot.
    Stats {
        /// The request's id.
        id: u64,
        /// Queued plus in-flight queries.
        resident: u64,
        /// Lookups the atlas answered.
        atlas_hits: u64,
        /// Lookups that fell through to a live check.
        atlas_misses: u64,
        /// Per-tenant rows, sorted by name.
        tenants: Vec<TenantRow>,
    },
    /// The `shutdown` acknowledgement.
    Shutdown {
        /// The request's id.
        id: u64,
    },
    /// A streaming `progress` frame, sent per requeued slice before the
    /// final line.
    Progress {
        /// The request's id.
        id: u64,
        /// `Some(Live)` for an `atlas_lookup` fall-through.
        source: Option<Source>,
        /// Slices dispatched so far.
        slices: u64,
        /// The token the query would resume from; the frame reports its
        /// cumulative counters.
        token: Token,
    },
    /// An error: `{"id":…,"ok":0,"error":…,"reason":…}` plus, when partial
    /// work exists, the `final_edges` to resume against (dynamics ops)
    /// and the `resume` token.
    Error {
        /// The request's id (0 when even that was unreadable).
        id: u64,
        /// The error class.
        error: ErrorClass,
        /// Human-readable cause (sanitized on output).
        reason: String,
        /// The advanced graph of a suspended trajectory or dynamics run.
        final_edges: Option<Graph>,
        /// The resume token of a suspended query.
        resume: Option<Token>,
    },
}

impl Response {
    /// An error response without partial work.
    #[must_use]
    pub(crate) fn error(id: u64, error: ErrorClass, reason: impl Into<String>) -> Response {
        Response::Error {
            id,
            error,
            reason: reason.into(),
            final_edges: None,
            resume: None,
        }
    }

    /// Marks a live check's verdict or progress frame as an
    /// `atlas_lookup` fall-through (`"source":"live"`); every other line
    /// passes unchanged.
    #[must_use]
    pub(crate) fn live_lookup(mut self) -> Response {
        if let Response::Verdict { source, .. } | Response::Progress { source, .. } = &mut self {
            *source = Some(Source::Live);
        }
        self
    }
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Response::Verdict {
                id,
                source,
                witness,
                evals,
                slices,
            } => {
                head(f, *id, "check", *source)?;
                match witness {
                    None => f.write_str(",\"verdict\":\"stable\"")?,
                    Some(mv) => write!(
                        f,
                        ",\"verdict\":\"unstable\",\"witness\":{}",
                        mv.render_json()
                    )?,
                }
                write!(f, ",\"evals\":{evals},\"slices\":{slices}")?;
            }
            Response::BestResponse {
                id,
                best,
                evals,
                slices,
            } => {
                head(f, *id, "best_response", None)?;
                write!(f, ",\"improving\":{}", u8::from(best.is_some()))?;
                if let Some(mv) = best {
                    write!(f, ",\"move\":{}", mv.render_json())?;
                }
                write!(f, ",\"evals\":{evals},\"slices\":{slices}")?;
            }
            Response::Trajectory {
                id,
                converged,
                cycled,
                rounds,
                moves,
                evals,
                slices,
                final_edges,
            } => {
                head(f, *id, "trajectory", None)?;
                write!(
                    f,
                    ",\"converged\":{},\"cycled\":{},\"rounds\":{rounds},\"moves\":{moves},\
                     \"evals\":{evals},\"slices\":{slices},\"final_edges\":{}",
                    u8::from(*converged),
                    u8::from(*cycled),
                    render_edges(final_edges)
                )?;
            }
            Response::Dynamics {
                id,
                converged,
                steps,
                evals,
                slices,
                final_edges,
            } => {
                head(f, *id, "dynamics", None)?;
                write!(
                    f,
                    ",\"converged\":{},\"steps\":{steps},\"evals\":{evals},\"slices\":{slices},\
                     \"final_edges\":{}",
                    u8::from(*converged),
                    render_edges(final_edges)
                )?;
            }
            Response::Grant {
                id,
                tenant,
                granted,
                weight,
            } => {
                head(f, *id, "grant", None)?;
                write!(
                    f,
                    ",\"tenant\":\"{}\",\"granted\":{granted},\"weight\":{weight}",
                    sanitize(tenant)
                )?;
            }
            Response::Stats {
                id,
                resident,
                atlas_hits,
                atlas_misses,
                tenants,
            } => {
                head(f, *id, "stats", None)?;
                write!(
                    f,
                    ",\"resident\":{resident},\"atlas_hits\":{atlas_hits},\
                     \"atlas_misses\":{atlas_misses},\"tenants\":["
                )?;
                for (i, row) in tenants.iter().enumerate() {
                    // A hostile embedder-registered name can garble its
                    // own label but never the line's structure.
                    write!(
                        f,
                        "{}{{\"tenant\":\"{}\",\"granted\":{},\"used\":{},\"weight\":{},\
                         \"queued\":{},\"in_flight\":{},\"waited_ms\":{}}}",
                        if i == 0 { "" } else { "," },
                        sanitize(&row.name),
                        row.granted,
                        row.used,
                        row.weight,
                        row.queued,
                        row.in_flight,
                        row.waited_ms
                    )?;
                }
                f.write_str("]")?;
            }
            Response::Shutdown { id } => head(f, *id, "shutdown", None)?,
            Response::Progress {
                id,
                source,
                slices,
                token,
            } => {
                head(f, *id, token.op(), *source)?;
                write!(f, ",\"progress\":1,\"slices\":{slices}")?;
                match token {
                    Token::Check(t) => write!(f, ",\"evals\":{}", t.evals())?,
                    Token::BestResponse(t) => write!(f, ",\"evals\":{}", t.evals())?,
                    Token::Trajectory(t) => write!(
                        f,
                        ",\"evals\":{},\"round\":{},\"moves\":{}",
                        t.evals(),
                        t.round(),
                        t.moves()
                    )?,
                    Token::Dynamics(t) => {
                        write!(f, ",\"evals\":{},\"steps\":{}", t.evals(), t.steps())?;
                    }
                }
            }
            Response::Error {
                id,
                error,
                reason,
                final_edges,
                resume,
            } => {
                write!(
                    f,
                    "{{\"id\":{id},\"ok\":0,\"error\":\"{}\",\"reason\":\"{}\"",
                    error.token(),
                    sanitize(reason)
                )?;
                if let Some(g) = final_edges {
                    write!(f, ",\"final_edges\":{}", render_edges(g))?;
                }
                if let Some(token) = resume {
                    write!(f, ",\"resume\":{token}")?;
                }
            }
        }
        f.write_str("}")
    }
}

/// Opens a success line. A `source` makes it an `atlas_lookup` line,
/// whatever op produced it.
fn head(f: &mut fmt::Formatter<'_>, id: u64, op: &str, source: Option<Source>) -> fmt::Result {
    write!(f, "{{\"id\":{id},\"ok\":1,\"op\":\"")?;
    match source {
        None => write!(f, "{op}\""),
        Some(Source::Atlas) => f.write_str("atlas_lookup\",\"source\":\"atlas\""),
        Some(Source::Live) => f.write_str("atlas_lookup\",\"source\":\"live\""),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bncg_graph::generators;

    fn query(line: &str) -> (QuerySpec, bool, bool) {
        match parse_request(line) {
            Ok(Request::Query {
                spec,
                stream,
                lookup,
            }) => (spec, stream, lookup),
            other => panic!("not a query: {other:?}"),
        }
    }

    #[test]
    fn check_request_round_trips() {
        let g = generators::path(5);
        let line = format!(
            "{{\"id\":7,\"op\":\"check\",\"tenant\":\"acme\",\"concept\":\"bne\",\
             \"alpha\":\"3/2\",\"n\":5,\"edges\":{}}}",
            render_edges(&g)
        );
        let (spec, stream, lookup) = query(&line);
        let Work::Check {
            concept,
            graph,
            alpha,
            cost_model,
        } = spec.work
        else {
            panic!("wrong work")
        };
        assert_eq!(spec.id, 7);
        assert_eq!(spec.tenant, "acme");
        assert_eq!(concept, Concept::Bne);
        assert_eq!(alpha, "3/2".parse().unwrap());
        assert_eq!(cost_model, CostModelSpec::SumDistances);
        assert_eq!(graph, g);
        assert!(spec.resume.is_none());
        assert!(spec.deadline_ms.is_none());
        assert!(!stream && !lookup);
        let (spec, _, lookup) = query(&line.replace("\"check\"", "\"atlas_lookup\""));
        assert!(lookup && matches!(spec.work, Work::Check { .. }));
    }

    #[test]
    fn stream_flag_and_grant_weight_parse() {
        let line = "{\"id\":4,\"op\":\"trajectory\",\"alpha\":\"2\",\"n\":3,\
                    \"edges\":[1,4294967298],\"stream\":1}";
        let (spec, stream, _) = query(line);
        assert!(stream);
        assert!(matches!(spec.work, Work::Trajectory { rounds: 100, .. }));
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
    fn cost_model_field_parses_and_defaults() {
        let line = "{\"id\":2,\"op\":\"check\",\"concept\":\"bne\",\"alpha\":\"2\",\
                    \"cost_model\":\"generalized:cap2\",\"n\":3,\"edges\":[1,4294967298]}";
        let Work::Check { cost_model, .. } = query(line).0.work else {
            panic!("wrong work")
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
        let spec = query(line).0;
        assert!(matches!(
            spec.work,
            Work::Check {
                concept: Concept::Bne,
                ..
            }
        ));
        let Some(Token::Check(token)) = spec.resume else {
            panic!("a check resumes from a solver frontier")
        };
        assert_eq!(token.evals(), 55);
        assert_eq!(token.concept(), Concept::Bse);
    }

    /// One token of every kind, as the daemon rendered it before the
    /// shared token codec existed: each must parse off a request line
    /// and render back to the same bytes.
    #[test]
    fn tokens_reparse_to_their_captured_bytes() {
        let cases = [
            (
                "check",
                "{\"v\":1,\"concept\":\"bne\",\"instance\":5161074781288730101,\"unit\":21,\
                 \"pos\":2,\"evals\":64}",
            ),
            (
                "check",
                "{\"v\":1,\"concept\":\"kbse2\",\"instance\":5161074781288730101,\"unit\":41,\
                 \"pos\":2,\"evals\":82}",
            ),
            (
                "best_response",
                "{\"v\":1,\"agent\":0,\"instance\":16336122045506462097,\"pos\":65,\
                 \"evals\":63,\"best\":1,\"rem\":[],\"add\":[7]}",
            ),
            (
                "best_response",
                "{\"v\":1,\"agent\":0,\"instance\":1428705414428936918,\"pos\":32768,\
                 \"evals\":0,\"best\":0}",
            ),
            (
                "trajectory",
                "{\"v\":1,\"instance\":10240883479024335684,\"round\":1,\"agent\":1,\
                 \"moved\":1,\"moves\":1,\"evals\":301,\
                 \"seen\":[6869320145233986599,16559690108631573988],\"scan\":{\"v\":1,\
                 \"agent\":1,\"instance\":10240883479024335684,\"pos\":65,\"evals\":47,\
                 \"best\":1,\"rem\":[],\"add\":[5]}}",
            ),
            (
                "trajectory",
                "{\"v\":1,\"instance\":4994889152472239189,\"round\":2,\"agent\":1,\
                 \"moved\":0,\"moves\":3,\"evals\":462,\"seen\":[6869320145233986599,\
                 11178428825825422259,12096612611247428918,16559690108631573988]}",
            ),
            (
                "dynamics",
                "{\"v\":1,\"instance\":7282081228905141435,\"steps\":2,\"evals\":35,\
                 \"scan\":{\"v\":1,\"concept\":\"bne\",\"instance\":7282081228905141435,\
                 \"unit\":1,\"pos\":2,\"evals\":29}}",
            ),
            (
                "dynamics",
                "{\"v\":1,\"instance\":0,\"steps\":5,\"evals\":32}",
            ),
        ];
        let line = |op: &str, token: &str| {
            format!(
                "{{\"id\":9,\"op\":\"{op}\",\"concept\":\"bne\",\"agent\":0,\"alpha\":\"2\",\
                 \"n\":2,\"edges\":[1],\"resume\":{token}}}"
            )
        };
        for (op, token) in cases {
            let resume = query(&line(op, token)).0.resume.expect("a token");
            assert_eq!(resume.op(), op);
            assert_eq!(resume.to_string(), token);
        }
        // A token that does not parse is refused with the line.
        for (op, token) in cases {
            let truncated = &token[..token.rfind(',').expect("several fields")];
            for hostile in ["{\"v\":\"}", "{\"v\":2}", truncated] {
                let err = parse_request(&line(op, hostile)).unwrap_err();
                assert_eq!((err.id, err.error), (9, ErrorClass::BadResume), "{hostile}");
            }
        }
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

    /// Reads every field of `line` back with `jsonio`, given the line's
    /// keys in order: each must read as exactly the text between its key
    /// and the next, so none is unreadable or shadowed by an earlier key
    /// of the same name (a nested token's `evals`, say). `tenants` rows
    /// are read back row by row.
    fn assert_reads_back(line: &str, keys: &str) {
        let keys: Vec<&str> = keys.split(' ').collect();
        let mut rest = line.strip_prefix('{').expect("an object");
        for (i, key) in keys.iter().enumerate() {
            rest = rest.strip_prefix(&format!("\"{key}\":")).expect(key);
            let end = keys.get(i + 1).map_or(rest.len() - 1, |next| {
                rest.find(&format!(",\"{next}\":")).expect(next)
            });
            let value = &rest[..end];
            rest = &rest[end..];
            rest = rest.strip_prefix(',').unwrap_or(rest);
            match value.as_bytes()[0] {
                b'"' => assert_eq!(jsonio::str_field(line, key), Some(&value[1..end - 1])),
                b'{' => assert_eq!(jsonio::object_field(line, key), Some(value)),
                b'[' if *key == "tenants" => {
                    for row in value[2..end - 2].split("},{") {
                        assert_reads_back(&format!("{{{row}}}"), TENANT_ROW);
                    }
                }
                b'[' => {
                    let list = jsonio::u64_list_field(line, key).expect(key);
                    assert_eq!(jsonio::render_u64_list(&list), value);
                }
                _ => assert_eq!(
                    jsonio::u64_field(line, key),
                    Some(value.parse().expect(key))
                ),
            }
        }
        assert_eq!(rest, "}", "{line} has fields past {keys:?}");
    }

    const TENANT_ROW: &str = "tenant granted used weight queued in_flight waited_ms";

    /// One value of every response shape, encoded and compared to the
    /// line the daemon wrote for it before the typed encoder existed,
    /// then parsed back field by field.
    #[test]
    fn responses_encode_to_the_captured_lines_and_parse_back() {
        let p6_plus =
            Graph::from_edges(6, [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let row = |name: &str, granted, used| TenantRow {
            name: name.into(),
            granted,
            used,
            weight: 1,
            queued: 0,
            in_flight: 0,
            waited_ms: 0,
        };
        let cases = [
            (
                Response::Verdict {
                    id: 1,
                    source: Some(Source::Atlas),
                    witness: Some(Move::BilateralAdd { u: 0, v: 3 }),
                    evals: 0,
                    slices: 0,
                },
                "{\"id\":1,\"ok\":1,\"op\":\"atlas_lookup\",\"source\":\"atlas\",\
                 \"verdict\":\"unstable\",\"witness\":{\"kind\":\"add\",\"u\":0,\"v\":3},\
                 \"evals\":0,\"slices\":0}",
                "id ok op source verdict witness evals slices",
            ),
            (
                Response::Progress {
                    id: 3,
                    source: None,
                    slices: 1,
                    token: Token::Check(
                        "{\"v\":1,\"concept\":\"bne\",\"instance\":0,\"unit\":0,\"pos\":0,\
                         \"evals\":64}"
                            .parse()
                            .unwrap(),
                    ),
                }
                .live_lookup(),
                "{\"id\":3,\"ok\":1,\"op\":\"atlas_lookup\",\"source\":\"live\",\
                 \"progress\":1,\"slices\":1,\"evals\":64}",
                "id ok op source progress slices evals",
            ),
            (
                Response::Verdict {
                    id: 3,
                    source: None,
                    witness: None,
                    evals: 120,
                    slices: 2,
                }
                .live_lookup(),
                "{\"id\":3,\"ok\":1,\"op\":\"atlas_lookup\",\"source\":\"live\",\
                 \"verdict\":\"stable\",\"evals\":120,\"slices\":2}",
                "id ok op source verdict evals slices",
            ),
            (
                Response::Progress {
                    id: 4,
                    source: None,
                    slices: 3,
                    token: Token::Trajectory(Box::new(
                        "{\"v\":1,\"instance\":0,\"round\":2,\"agent\":0,\"moved\":0,\
                         \"moves\":1,\"evals\":46,\"seen\":[]}"
                            .parse()
                            .unwrap(),
                    )),
                },
                "{\"id\":4,\"ok\":1,\"op\":\"trajectory\",\"progress\":1,\"slices\":3,\
                 \"evals\":46,\"round\":2,\"moves\":1}",
                "id ok op progress slices evals round moves",
            ),
            (
                Response::Trajectory {
                    id: 4,
                    converged: true,
                    cycled: false,
                    rounds: 2,
                    moves: 1,
                    evals: 58,
                    slices: 4,
                    final_edges: p6_plus.clone(),
                },
                "{\"id\":4,\"ok\":1,\"op\":\"trajectory\",\"converged\":1,\"cycled\":0,\
                 \"rounds\":2,\"moves\":1,\"evals\":58,\"slices\":4,\
                 \"final_edges\":[1,4,4294967298,8589934595,12884901892,17179869189]}",
                "id ok op converged cycled rounds moves evals slices final_edges",
            ),
            (
                Response::Progress {
                    id: 14,
                    source: None,
                    slices: 1,
                    token: Token::Dynamics(
                        "{\"v\":1,\"instance\":0,\"steps\":5,\"evals\":32}"
                            .parse()
                            .unwrap(),
                    ),
                },
                "{\"id\":14,\"ok\":1,\"op\":\"dynamics\",\"progress\":1,\"slices\":1,\
                 \"evals\":32,\"steps\":5}",
                "id ok op progress slices evals steps",
            ),
            (
                Response::Dynamics {
                    id: 5,
                    converged: true,
                    steps: 1,
                    evals: 29,
                    slices: 1,
                    final_edges: p6_plus.clone(),
                },
                "{\"id\":5,\"ok\":1,\"op\":\"dynamics\",\"converged\":1,\"steps\":1,\
                 \"evals\":29,\"slices\":1,\
                 \"final_edges\":[1,4,4294967298,8589934595,12884901892,17179869189]}",
                "id ok op converged steps evals slices final_edges",
            ),
            (
                Response::Grant {
                    id: 6,
                    tenant: "poor".into(),
                    granted: 20,
                    weight: 1,
                },
                "{\"id\":6,\"ok\":1,\"op\":\"grant\",\"tenant\":\"poor\",\"granted\":20,\
                 \"weight\":1}",
                "id ok op tenant granted weight",
            ),
            (
                Response::Error {
                    id: 7,
                    error: ErrorClass::Shed,
                    reason: "tenant budget pool is drained".into(),
                    final_edges: Some(p6_plus),
                    resume: Some(Token::Trajectory(Box::new(
                        "{\"v\":1,\"instance\":16550291332460309889,\"round\":1,\"agent\":4,\
                         \"moved\":1,\"moves\":1,\"evals\":22,\
                         \"seen\":[2248340315589134886,13140582344453966690]}"
                            .parse()
                            .unwrap(),
                    ))),
                }
                .live_lookup(),
                "{\"id\":7,\"ok\":0,\"error\":\"shed\",\"reason\":\"tenant budget pool is \
                 drained\",\"final_edges\":[1,4,4294967298,8589934595,12884901892,\
                 17179869189],\"resume\":{\"v\":1,\"instance\":16550291332460309889,\
                 \"round\":1,\"agent\":4,\"moved\":1,\"moves\":1,\"evals\":22,\
                 \"seen\":[2248340315589134886,13140582344453966690]}}",
                "id ok error reason final_edges resume",
            ),
            (
                Response::BestResponse {
                    id: 8,
                    best: Some(Move::Neighborhood {
                        center: 0,
                        remove: vec![],
                        add: vec![4, 7, 10],
                    }),
                    evals: 2046,
                    slices: 31,
                },
                "{\"id\":8,\"ok\":1,\"op\":\"best_response\",\"improving\":1,\
                 \"move\":{\"kind\":\"neighborhood\",\"center\":0,\"remove\":[],\
                 \"add\":[4,7,10]},\"evals\":2046,\"slices\":31}",
                "id ok op improving move evals slices",
            ),
            (
                Response::error(0, ErrorClass::BadRequest, "missing \"op\""),
                "{\"id\":0,\"ok\":0,\"error\":\"bad_request\",\"reason\":\"missing 'op'\"}",
                "id ok error reason",
            ),
            (
                Response::Stats {
                    id: 12,
                    resident: 0,
                    atlas_hits: 2,
                    atlas_misses: 1,
                    tenants: vec![row("poor", 20, 22), row("public", u64::MAX, 527)],
                },
                "{\"id\":12,\"ok\":1,\"op\":\"stats\",\"resident\":0,\"atlas_hits\":2,\
                 \"atlas_misses\":1,\"tenants\":[{\"tenant\":\"poor\",\"granted\":20,\
                 \"used\":22,\"weight\":1,\"queued\":0,\"in_flight\":0,\"waited_ms\":0},\
                 {\"tenant\":\"public\",\"granted\":18446744073709551615,\"used\":527,\
                 \"weight\":1,\"queued\":0,\"in_flight\":0,\"waited_ms\":0}]}",
                "id ok op resident atlas_hits atlas_misses tenants",
            ),
            (
                Response::Shutdown { id: 13 },
                "{\"id\":13,\"ok\":1,\"op\":\"shutdown\"}",
                "id ok op",
            ),
        ];
        for (response, line, keys) in &cases {
            assert_eq!(response.to_string(), *line);
            assert_reads_back(line, keys);
        }
    }

    #[test]
    fn hostile_text_cannot_break_a_line() {
        // Error reasons echo client input, and an embedder can register
        // any tenant name (the wire rejects these at parse time): the
        // encoder must keep either from spoofing fields or unbalancing
        // the line.
        let hostile = "evil\",\"granted\":999999,\"x\":{\\[\n";
        let clean = sanitize(hostile);
        assert!(
            !clean.contains(['"', '\\', '{', '[', '}', ']', '\n']),
            "{clean}"
        );
        let row = TenantRow {
            name: hostile.into(),
            granted: 7,
            used: 2,
            weight: 1,
            queued: 0,
            in_flight: 0,
            waited_ms: 0,
        };
        let stats = Response::Stats {
            id: 1,
            resident: 0,
            atlas_hits: 0,
            atlas_misses: 0,
            tenants: vec![row],
        }
        .to_string();
        assert_reads_back(&stats, "id ok op resident atlas_hits atlas_misses tenants");
        assert_eq!(jsonio::str_field(&stats, "tenant"), Some(clean.as_str()));
        assert_eq!(jsonio::u64_field(&stats, "granted"), Some(7), "{stats}");
        let error = Response::error(4, ErrorClass::BadRequest, hostile).to_string();
        assert_reads_back(&error, "id ok error reason");
        assert_eq!(jsonio::str_field(&error, "reason"), Some(clean.as_str()));
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
            let line = mv.render_json();
            assert!(
                doc.lines().any(|l| l == line),
                "docs/PROTOCOL.md lacks the rendered move line {line}"
            );
        }
    }
}
