//! # bncg-serve
//!
//! A long-running stability-checking daemon over the game surface of
//! [`bncg_core`]: clients connect over TCP, send one line-delimited
//! JSON request per query — stability checks, best responses,
//! round-robin trajectories, improving-move dynamics — and receive one
//! response line per request, correlated by `id` rather than order.
//!
//! The interesting part is not the sockets, it is the **time-slicing
//! scheduler** underneath ([`scheduler`]). The solver surface's anytime
//! contract — every stopped scan returns a serializable frontier whose
//! resumption replays the *identical* verdict — means a query does not
//! need a dedicated thread for its whole lifetime. Instead, each
//! resident query runs as a chain of bounded evaluation slices through
//! a fixed worker pool; a slice that exhausts its quantum requeues at
//! the back of the run queue with its frontier in hand. Thousands of
//! concurrent queries interleave fairly over a handful of workers, and
//! the chain's final verdict, witness, and cumulative evaluation count
//! equal an uninterrupted run's (the property the `serve` end-to-end
//! tests and the `sched_slicing_overhead` CI kernel pin down).
//!
//! Fairness across clients is two-layered. **Budget** caps total
//! compute: every query names a **tenant**, each tenant owns a
//! [`BudgetPool`], and a drained pool sheds that tenant's queries with
//! **zero further work** — carrying their resume tokens, so shed work
//! is suspended rather than lost ([`tenant`]). **Weight** shapes
//! latency: tenants hold per-tenant queues drained by weighted
//! deficit round-robin, so a tenant with ten thousand queued checks
//! delays another tenant's single query by at most one round of
//! slices, and a weight set via `grant` skews throughput
//! proportionally ([`scheduler`]). Grants and weights are journaled
//! append-only (the `journal` module) and replayed on restart.
//!
//! The front end is a single **readiness loop** ([`server`], over the
//! `poll(2)` substrate in [`reactor`]): non-blocking sockets, one
//! thread for every connection, per-connection buffers with
//! backpressure. Queries submitted with `"stream":1` additionally emit
//! a `progress` frame per requeued slice before the final line.
//!
//! The wire format ([`protocol`]) is the repo's escape-free flat-JSON
//! dialect — the same [`bncg_core::jsonio`] toolkit the resume tokens
//! themselves use, so tokens embed in requests and responses verbatim.
//! It is one module's decision: request lines parse straight into a
//! scheduler [`QuerySpec`], and every line the daemon writes is a typed
//! [`Response`] encoded by its one `Display` impl. The full schema is
//! documented in `docs/PROTOCOL.md`.
//!
//! ## Quickstart
//!
//! ```
//! use bncg_serve::server::{Server, ServerConfig};
//! use std::io::{BufRead, BufReader, Write};
//! use std::net::TcpStream;
//!
//! let server = Server::start(ServerConfig::default())?;
//! let mut conn = TcpStream::connect(server.addr())?;
//! // A path of 5 nodes is not pairwise stable at α = 2: the ends
//! // profit from a joint shortcut edge.
//! conn.write_all(
//!     b"{\"id\":1,\"op\":\"check\",\"concept\":\"ps\",\"alpha\":\"2\",\
//!       \"n\":5,\"edges\":[1,4294967298,8589934595,12884901892]}\n",
//! )?;
//! let mut line = String::new();
//! BufReader::new(conn.try_clone()?).read_line(&mut line)?;
//! assert!(line.contains("\"verdict\":\"unstable\""));
//! server.stop();
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! [`BudgetPool`]: bncg_core::BudgetPool
//! [`ExecPolicy::batch_budget`]: bncg_core::ExecPolicy::batch_budget

#![warn(missing_docs)]
#![warn(clippy::all)]

mod journal;

pub mod atlas;
pub mod protocol;
pub mod reactor;
pub mod scheduler;
pub mod server;
pub mod tenant;

pub use atlas::AtlasService;
pub use protocol::{parse_request, Response, TenantRow};
pub use scheduler::{QuerySpec, Scheduler, SchedulerConfig, Work};
pub use server::{Server, ServerConfig};
