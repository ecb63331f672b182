//! End-to-end daemon tests: a real TCP server on an ephemeral port,
//! concurrent clients from multiple tenants, and the two contracts the
//! serving layer exists for —
//!
//! 1. **exactness through the scheduler**: every verdict delivered over
//!    the wire equals a direct in-process `Solver`/dynamics run on the
//!    same instance, slicing and interleaving notwithstanding;
//! 2. **fair-share isolation**: a tenant draining its budget pool gets
//!    shed (with a resume token), while another tenant's concurrent
//!    queries all complete.

use bncg_core::jsonio;
use bncg_core::solver::{Solver, StabilityQuery, Verdict};
use bncg_core::{Alpha, Concept};
use bncg_dynamics::round_robin;
use bncg_graph::{generators, Graph};
use bncg_serve::protocol::{pack_edge, render_edges, unpack_edge};
use bncg_serve::scheduler::SchedulerConfig;
use bncg_serve::server::{Server, ServerConfig};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// One client connection: send request lines, collect response lines
/// keyed by id (responses arrive in completion order, not send order).
struct Client {
    sock: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let sock = TcpStream::connect(server.addr()).expect("connect");
        let reader = BufReader::new(sock.try_clone().expect("clone"));
        Client { sock, reader }
    }

    fn send(&mut self, line: &str) {
        self.sock.write_all(line.as_bytes()).expect("send");
        self.sock.write_all(b"\n").expect("send");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "server closed the connection unexpectedly");
        line.trim().to_string()
    }

    /// Receives `count` responses and indexes them by id.
    fn collect(&mut self, count: usize) -> HashMap<u64, String> {
        let mut by_id = HashMap::new();
        for _ in 0..count {
            let line = self.recv();
            let id = jsonio::u64_field(&line, "id").expect("response id");
            assert!(by_id.insert(id, line).is_none(), "duplicate response id");
        }
        by_id
    }
}

fn check_line(id: u64, tenant: &str, concept: &str, alpha: &str, g: &Graph) -> String {
    format!(
        "{{\"id\":{id},\"op\":\"check\",\"tenant\":\"{tenant}\",\"concept\":\"{concept}\",\
         \"alpha\":\"{alpha}\",\"n\":{},\"edges\":{}}}",
        g.n(),
        render_edges(g)
    )
}

/// Splits the flat per-tenant row objects out of a `stats` response's
/// `"tenants":[…]` array (rows are escape-free and unnested, so
/// brace-matching is trivial).
fn tenant_rows(stats: &str) -> Vec<String> {
    let marker = "\"tenants\":[";
    let Some(open) = stats.find(marker) else {
        return Vec::new();
    };
    let body = &stats[open + marker.len()..];
    let end = body.find(']').unwrap_or(body.len());
    let mut rows = Vec::new();
    let mut rest = &body[..end];
    while let Some(lb) = rest.find('{') {
        let rb = rest[lb..].find('}').expect("flat row") + lb;
        rows.push(rest[lb..=rb].to_string());
        rest = &rest[rb + 1..];
    }
    rows
}

fn small_server() -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        scheduler: SchedulerConfig {
            workers: 2,
            slice: 256,
            default_grant: u64::MAX,
            journal: None,
        },
        ..ServerConfig::default()
    })
    .expect("bind")
}

#[test]
fn concurrent_mixed_queries_match_direct_runs() {
    let server = small_server();
    let alpha = Alpha::integer(2).unwrap();
    let mut alice = Client::connect(&server);
    let mut bob = Client::connect(&server);

    // Alice: a batch of checks across the concept ladder plus a C40 BNE
    // scan that needs multiple 256-eval slices.
    let instances: Vec<(u64, Concept, Alpha, Graph)> = vec![
        (1, Concept::Ps, alpha, generators::path(6)),
        (2, Concept::Re, alpha, generators::path(6)),
        (3, Concept::Bne, alpha, generators::star(12)),
        (
            4,
            Concept::Bne,
            Alpha::integer(370).unwrap(),
            generators::cycle(40),
        ),
        (5, Concept::KBse(2), alpha, generators::cycle(6)),
    ];
    for (id, concept, a, g) in &instances {
        alice.send(&check_line(
            *id,
            "alice",
            &concept.token(),
            &format!("{a}"),
            g,
        ));
    }
    // Bob: a trajectory and a best response, interleaved with Alice's
    // checks on the same two workers.
    let start = generators::path(9);
    bob.send(&format!(
        "{{\"id\":10,\"op\":\"trajectory\",\"tenant\":\"bob\",\"alpha\":\"2\",\
         \"n\":{},\"edges\":{},\"rounds\":100}}",
        start.n(),
        render_edges(&start)
    ));
    let br_graph = generators::path(12);
    bob.send(&format!(
        "{{\"id\":11,\"op\":\"best_response\",\"tenant\":\"bob\",\"agent\":0,\
         \"alpha\":\"2\",\"n\":{},\"edges\":{}}}",
        br_graph.n(),
        render_edges(&br_graph)
    ));

    let alice_responses = alice.collect(instances.len());
    let bob_responses = bob.collect(2);

    // Every check verdict equals the direct solver run.
    for (id, concept, a, g) in &instances {
        let line = &alice_responses[id];
        assert_eq!(jsonio::u64_field(line, "ok"), Some(1), "{line}");
        let direct = Solver::default()
            .check(&StabilityQuery::new(*concept, g, *a))
            .unwrap();
        let expect = match direct {
            Verdict::Stable { .. } => "stable",
            Verdict::Unstable { .. } => "unstable",
            Verdict::Exhausted { .. } => unreachable!("unbudgeted"),
        };
        assert_eq!(
            jsonio::str_field(line, "verdict"),
            Some(expect),
            "id {id}: {line}"
        );
    }
    // The C40 scan (120 priced candidates) cannot fit one 256-slice...
    // it can. But the slice accounting must still be reported.
    assert!(jsonio::u64_field(&alice_responses[&4], "slices").unwrap() >= 1);

    // Bob's trajectory equals the direct round-robin run.
    let line = &bob_responses[&10];
    assert_eq!(jsonio::u64_field(line, "ok"), Some(1), "{line}");
    let direct = round_robin::run(&start, alpha, 100).unwrap();
    assert_eq!(
        jsonio::u64_field(line, "converged"),
        Some(u64::from(direct.converged))
    );
    assert_eq!(jsonio::u64_field(line, "moves"), Some(direct.moves as u64));
    let wire_edges = jsonio::u64_list_field(line, "final_edges").unwrap();
    let wire_graph =
        Graph::from_edges(start.n(), wire_edges.iter().map(|&p| unpack_edge(p))).unwrap();
    assert_eq!(wire_graph, direct.final_graph);

    // Bob's best response found the improving move a path end has.
    let line = &bob_responses[&11];
    assert_eq!(jsonio::u64_field(line, "ok"), Some(1), "{line}");
    assert_eq!(jsonio::u64_field(line, "improving"), Some(1));

    server.stop();
}

#[test]
fn drained_tenant_sheds_while_others_complete() {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        scheduler: SchedulerConfig {
            workers: 2,
            slice: 64,
            default_grant: u64::MAX,
            journal: None,
        },
        ..ServerConfig::default()
    })
    .expect("bind");
    let mut ops = Client::connect(&server);
    let mut mallory = Client::connect(&server);
    let mut alice = Client::connect(&server);

    // Fund mallory with a pool far below the C40 scan's 120 evals.
    ops.send("{\"id\":1,\"op\":\"grant\",\"tenant\":\"mallory\",\"evals\":50}");
    let line = ops.recv();
    assert_eq!(jsonio::u64_field(&line, "ok"), Some(1), "{line}");
    assert_eq!(jsonio::u64_field(&line, "granted"), Some(50));

    let big = generators::cycle(40);
    let alpha_big = "370";
    mallory.send(&check_line(20, "mallory", "bne", alpha_big, &big));
    for id in 30..35 {
        alice.send(&check_line(id, "alice", "bne", alpha_big, &big));
    }

    // Mallory is shed with a resume token…
    let line = mallory.recv();
    assert_eq!(jsonio::u64_field(&line, "ok"), Some(0), "{line}");
    assert_eq!(jsonio::str_field(&line, "error"), Some("shed"));
    let token = jsonio::object_field(&line, "resume")
        .expect("shed carries the frontier")
        .to_string();

    // …while every one of Alice's identical queries completes exactly.
    for (_, line) in alice.collect(5) {
        assert_eq!(jsonio::u64_field(&line, "ok"), Some(1), "{line}");
        assert_eq!(jsonio::str_field(&line, "verdict"), Some("stable"));
        assert_eq!(jsonio::u64_field(&line, "evals"), Some(120));
    }

    // An operator top-up plus the shed token finishes Mallory's scan
    // with the cumulative eval count intact — shed work is suspended,
    // never lost.
    ops.send("{\"id\":2,\"op\":\"grant\",\"tenant\":\"mallory\",\"evals\":1000}");
    ops.recv();
    mallory.send(&format!(
        "{{\"id\":21,\"op\":\"check\",\"tenant\":\"mallory\",\"concept\":\"bne\",\
         \"alpha\":\"370\",\"n\":40,\"edges\":{},\"resume\":{token}}}",
        render_edges(&big)
    ));
    let line = mallory.recv();
    assert_eq!(jsonio::u64_field(&line, "ok"), Some(1), "{line}");
    assert_eq!(jsonio::str_field(&line, "verdict"), Some("stable"));
    assert_eq!(jsonio::u64_field(&line, "evals"), Some(120));

    // Stats reflect both tenants' accounting.
    ops.send("{\"id\":3,\"op\":\"stats\"}");
    let line = ops.recv();
    assert_eq!(jsonio::u64_field(&line, "ok"), Some(1), "{line}");
    assert!(line.contains("\"tenant\":\"mallory\""), "{line}");
    assert!(line.contains("\"tenant\":\"alice\""), "{line}");

    server.stop();
}

#[test]
fn malformed_lines_get_structured_errors_and_shutdown_drains() {
    let server = small_server();
    let mut client = Client::connect(&server);

    client.send("this is not json");
    let line = client.recv();
    assert_eq!(jsonio::u64_field(&line, "ok"), Some(0));
    assert_eq!(jsonio::str_field(&line, "error"), Some("bad_request"));

    client.send("{\"id\":8,\"op\":\"check\",\"concept\":\"bogus\",\"alpha\":\"2\",\"n\":4}");
    let line = client.recv();
    assert_eq!(jsonio::u64_field(&line, "id"), Some(8));
    assert_eq!(jsonio::str_field(&line, "error"), Some("bad_request"));

    // A graph over the node ceiling is refused before any work happens.
    client.send(&format!(
        "{{\"id\":9,\"op\":\"check\",\"concept\":\"re\",\"alpha\":\"1\",\"n\":{}}}",
        bncg_serve::protocol::MAX_N + 1
    ));
    let line = client.recv();
    assert_eq!(jsonio::str_field(&line, "error"), Some("bad_request"));

    client.send("{\"id\":99,\"op\":\"shutdown\"}");
    let line = client.recv();
    assert_eq!(jsonio::u64_field(&line, "ok"), Some(1));
    server.wait();

    // The daemon is gone: new queries cannot reach it.
    assert!(
        TcpStream::connect(server.addr())
            .map(|mut s| {
                // Accept-loop raced shut: even if the OS still accepts,
                // writes on the dead daemon see EOF promptly.
                let _ = s.write_all(b"{\"id\":1,\"op\":\"stats\"}\n");
                let mut buf = String::new();
                BufReader::new(s)
                    .read_line(&mut buf)
                    .map(|n| n == 0)
                    .unwrap_or(true)
            })
            .unwrap_or(true),
        "daemon must not answer after shutdown"
    );
}

#[test]
fn deadline_zero_answers_promptly() {
    let server = small_server();
    let mut client = Client::connect(&server);
    let big = generators::cycle(40);
    client.send(&format!(
        "{{\"id\":40,\"op\":\"check\",\"tenant\":\"dl\",\"concept\":\"bne\",\
         \"alpha\":\"370\",\"n\":40,\"edges\":{},\"deadline_ms\":0}}",
        render_edges(&big)
    ));
    let line = client.recv();
    assert_eq!(jsonio::u64_field(&line, "ok"), Some(0), "{line}");
    assert_eq!(jsonio::str_field(&line, "error"), Some("deadline"));
    server.stop();
}

#[test]
fn hostile_resume_tokens_are_refused_and_valid_ones_echo_exactly() {
    // A frontier of the C40 BNE scan at α = 370, as the daemon renders it.
    let token = "{\"v\":1,\"concept\":\"bne\",\"instance\":5161074781288730101,\
                 \"unit\":21,\"pos\":2,\"evals\":64}";
    let hostile = [
        "{\"v\":\"}",
        "{\"v\":1,\"concept\":\"bne\",\"instance\":\\\"5161074781288730101,\
         \"unit\":21,\"pos\":2,\"evals\":64}",
    ];
    let server = small_server();
    let mut client = Client::connect(&server);
    client.send("{\"id\":1,\"op\":\"grant\",\"tenant\":\"dry\",\"evals\":0}");
    client.recv();
    let c40 = render_edges(&generators::cycle(40));
    // A late query (deadline_ms:0) and a drained tenant's query.
    let queries = [
        ("deadline", "\"tenant\":\"late\",\"deadline_ms\":0"),
        ("shed", "\"tenant\":\"dry\""),
    ];
    let mut id = 1;
    for (class, fields) in queries {
        for resume in hostile.iter().chain([&token]) {
            id += 1;
            client.send(&format!(
                "{{\"id\":{id},\"op\":\"check\",{fields},\"concept\":\"bne\",\
                 \"alpha\":\"370\",\"n\":40,\"edges\":{c40},\"resume\":{resume}}}"
            ));
            let line = client.recv();
            assert_eq!(
                line.matches('"').count() % 2,
                0,
                "unbalanced quotes: {line}"
            );
            assert_eq!(jsonio::u64_field(&line, "id"), Some(id), "{line}");
            assert_eq!(jsonio::u64_field(&line, "ok"), Some(0), "{line}");
            if *resume == token {
                assert_eq!(jsonio::str_field(&line, "error"), Some(class), "{line}");
                assert_eq!(jsonio::object_field(&line, "resume"), Some(token), "{line}");
            } else {
                assert_eq!(
                    jsonio::str_field(&line, "error"),
                    Some("bad_resume"),
                    "{line}"
                );
                assert!(jsonio::str_field(&line, "reason").is_some(), "{line}");
                assert_eq!(jsonio::object_field(&line, "resume"), None, "{line}");
            }
        }
    }
    server.stop();
}

#[test]
fn oversized_line_tail_is_never_parsed_as_requests() {
    // Regression: the old front end read a request line through a
    // `take(MAX_LINE)` cap and left the oversized line's tail in the
    // stream, where it was parsed as follow-on requests — a client
    // (or proxy) could smuggle requests inside an overlong line. The
    // readiness loop answers `bad_request` exactly once and discards
    // through the terminating newline.
    let server = small_server();
    let mut client = Client::connect(&server);

    let mut line = vec![b'x'; bncg_serve::server::MAX_LINE + 64];
    // A perfectly valid request sits in the tail beyond the cap; it
    // must never be answered.
    line.extend_from_slice(b"{\"id\":666,\"op\":\"stats\"}");
    line.push(b'\n');
    client.sock.write_all(&line).expect("send oversized");

    client.send("{\"id\":700,\"op\":\"stats\"}");
    let first = client.recv();
    assert_eq!(jsonio::u64_field(&first, "id"), Some(0), "{first}");
    assert_eq!(jsonio::str_field(&first, "error"), Some("bad_request"));
    let second = client.recv();
    assert_eq!(
        jsonio::u64_field(&second, "id"),
        Some(700),
        "the smuggled id 666 must not be answered: {second}"
    );
    assert_eq!(jsonio::u64_field(&second, "ok"), Some(1));

    server.stop();
}

#[test]
fn hostile_tenant_names_are_rejected_at_parse() {
    let server = small_server();
    let mut client = Client::connect(&server);
    // A name that would break the escape-free response format never
    // reaches the registry: the restricted alphabet rejects it.
    client.send("{\"id\":12,\"op\":\"grant\",\"tenant\":\"e vil\",\"evals\":5}");
    let line = client.recv();
    assert_eq!(jsonio::u64_field(&line, "id"), Some(12));
    assert_eq!(jsonio::str_field(&line, "error"), Some("bad_request"));
    // A grant carrying neither evals nor weight is meaningless.
    client.send("{\"id\":13,\"op\":\"grant\",\"tenant\":\"ok\"}");
    let line = client.recv();
    assert_eq!(jsonio::str_field(&line, "error"), Some("bad_request"));
    server.stop();
}

#[test]
fn weighted_round_robin_isolates_light_tenant_over_the_wire() {
    // One worker, a tiny quantum, and a heavy tenant flooding the
    // daemon with multi-slice scans: a light tenant's single cheap
    // query must complete while the flood is still mostly resident.
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        scheduler: SchedulerConfig {
            workers: 1,
            slice: 8,
            default_grant: u64::MAX,
            journal: None,
        },
        ..ServerConfig::default()
    })
    .expect("bind");
    let mut client = Client::connect(&server);

    // One write delivers the whole batch: 100 multi-slice heavy scans,
    // then the light query — so the light query is enqueued while the
    // flood is resident, regardless of wire latencies. Responses come
    // back in completion order.
    let big = generators::cycle(40);
    let mut batch = String::new();
    for id in 100..200 {
        batch.push_str(&check_line(id, "heavy", "bne", "370", &big));
        batch.push('\n');
    }
    // P5 at α = 2 is the quickstart instance: unstable, one slice.
    batch.push_str(&check_line(7, "light", "ps", "2", &generators::path(5)));
    batch.push('\n');
    client.sock.write_all(batch.as_bytes()).expect("send batch");

    let mut light_position = None;
    for position in 0..101 {
        let line = client.recv();
        let id = jsonio::u64_field(&line, "id").expect("id");
        assert_eq!(jsonio::u64_field(&line, "ok"), Some(1), "{line}");
        if id == 7 {
            assert_eq!(jsonio::str_field(&line, "verdict"), Some("unstable"));
            light_position = Some(position);
        } else {
            // Fairness reorders; it never drops or corrupts.
            assert_eq!(jsonio::str_field(&line, "verdict"), Some("stable"));
            assert_eq!(jsonio::u64_field(&line, "evals"), Some(120));
        }
    }
    // FIFO would answer the light query dead last (position 100);
    // round-robin dispatch answers it within one round of the tenants
    // active at its enqueue, i.e. near the front of the stream.
    let position = light_position.expect("light response");
    assert!(
        position <= 20,
        "light query answered at completion position {position} of 101 \
         — the heavy flood delayed it like FIFO would"
    );

    // The stats rows expose the scheduling-side accounting.
    client.send("{\"id\":8,\"op\":\"stats\"}");
    let stats = client.recv();
    let tenants = tenant_rows(&stats);
    let heavy_row = tenants
        .iter()
        .find(|r| jsonio::str_field(r, "tenant") == Some("heavy"))
        .expect("heavy row");
    assert_eq!(jsonio::u64_field(heavy_row, "weight"), Some(1), "{stats}");
    assert_eq!(jsonio::u64_field(heavy_row, "used"), Some(12000), "{stats}");
    assert!(
        jsonio::u64_field(heavy_row, "waited_ms").is_some(),
        "{stats}"
    );
    server.stop();
}

#[test]
fn streaming_emits_progress_frames_then_the_identical_final_line() {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        scheduler: SchedulerConfig {
            workers: 1,
            slice: 16,
            default_grant: u64::MAX,
            journal: None,
        },
        ..ServerConfig::default()
    })
    .expect("bind");
    let mut client = Client::connect(&server);
    let start = generators::path(9);
    let request = format!(
        "{{\"id\":31,\"op\":\"trajectory\",\"tenant\":\"s\",\"alpha\":\"2\",\
         \"n\":{},\"edges\":{},\"rounds\":100",
        start.n(),
        render_edges(&start)
    );

    client.send(&format!("{request},\"stream\":1}}"));
    let mut frames = Vec::new();
    let streamed_final = loop {
        let line = client.recv();
        assert_eq!(jsonio::u64_field(&line, "id"), Some(31), "{line}");
        if jsonio::u64_field(&line, "progress") == Some(1) {
            frames.push(line);
        } else {
            break line;
        }
    };
    assert!(
        !frames.is_empty(),
        "a multi-slice trajectory must emit progress frames"
    );
    let mut last_evals = 0;
    for frame in &frames {
        assert_eq!(jsonio::str_field(frame, "op"), Some("trajectory"));
        assert_eq!(jsonio::u64_field(frame, "ok"), Some(1), "{frame}");
        let evals = jsonio::u64_field(frame, "evals").expect("frame evals");
        assert!(evals > last_evals, "evals must be monotone: {frame}");
        last_evals = evals;
    }
    assert!(
        jsonio::u64_field(&streamed_final, "evals").unwrap() >= last_evals,
        "{streamed_final}"
    );

    // The same request without the flag produces a byte-identical
    // final line: streaming adds visibility, it never perturbs the
    // resume chain.
    client.send(&format!("{request}}}"));
    let plain = client.recv();
    assert_eq!(streamed_final, plain);
    server.stop();
}

#[test]
fn grants_and_weights_survive_a_daemon_restart() {
    let dir = std::env::temp_dir().join(format!("bncg-e2e-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journaled = || {
        Server::start(ServerConfig {
            addr: "127.0.0.1:0".into(),
            scheduler: SchedulerConfig {
                workers: 1,
                slice: 256,
                default_grant: 0,
                journal: Some(dir.clone()),
            },
            ..ServerConfig::default()
        })
        .expect("bind")
    };

    let server = journaled();
    let mut ops = Client::connect(&server);
    ops.send("{\"id\":1,\"op\":\"grant\",\"tenant\":\"alice\",\"evals\":50,\"weight\":3}");
    let line = ops.recv();
    assert_eq!(jsonio::u64_field(&line, "granted"), Some(50), "{line}");
    assert_eq!(jsonio::u64_field(&line, "weight"), Some(3), "{line}");
    ops.send("{\"id\":2,\"op\":\"grant\",\"tenant\":\"alice\",\"evals\":25}");
    let line = ops.recv();
    assert_eq!(jsonio::u64_field(&line, "granted"), Some(75), "{line}");
    server.stop();
    drop(server);

    // A crash mid-append leaves a torn tail; replay must ignore it.
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("grants.jsonl"))
            .unwrap();
        f.write_all(b"{\"tenant\":\"mallory\",\"evals\":9999")
            .unwrap();
    }

    let server = journaled();
    let mut ops = Client::connect(&server);
    ops.send("{\"id\":3,\"op\":\"stats\"}");
    let stats = ops.recv();
    let tenants = tenant_rows(&stats);
    let alice = tenants
        .iter()
        .find(|r| jsonio::str_field(r, "tenant") == Some("alice"))
        .unwrap_or_else(|| panic!("alice must replay from the journal: {stats}"));
    assert_eq!(jsonio::u64_field(alice, "granted"), Some(75), "{stats}");
    assert_eq!(jsonio::u64_field(alice, "weight"), Some(3), "{stats}");
    assert!(
        !tenants
            .iter()
            .any(|r| jsonio::str_field(r, "tenant") == Some("mallory")),
        "torn tail must not replay: {stats}"
    );
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn packed_edge_layout_is_stable() {
    // The wire format commits to (u << 32) | v — a client-visible
    // contract documented in docs/PROTOCOL.md.
    assert_eq!(pack_edge(1, 2), 4294967298);
    assert_eq!(unpack_edge(4294967298), (1, 2));
}
