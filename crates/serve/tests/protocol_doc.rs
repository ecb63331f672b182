//! `docs/PROTOCOL.md` against the wire: replays the request lines of
//! three captured sessions — "A real session", the first block of
//! "A weighted, streamed session" and "A cost-model session" — through
//! an in-process daemon started with the configuration each section
//! names, and compares every response line byte for byte.
//!
//! Abbreviated edge arrays (`[…path12…]`) expand to the named
//! generator's packed edges. Two things are not compared exactly:
//! `waited_ms` (wall-clock queue wait) is masked, and a `final_edges`
//! array the doc cuts short with `…` must match up to the cut.

use bncg_atlas::{build, Atlas, BuildSpec, DynAtlas, MemoryBacking, RamBacking};
use bncg_graph::generators;
use bncg_serve::protocol::render_edges;
use bncg_serve::scheduler::SchedulerConfig;
use bncg_serve::server::{Server, ServerConfig};
use bncg_serve::AtlasService;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const DOC: &str = include_str!("../../../docs/PROTOCOL.md");

/// The first fenced `text` block after the `## {heading}` line.
fn session_block(heading: &str) -> &'static str {
    let at = DOC
        .find(&format!("\n## {heading}\n"))
        .unwrap_or_else(|| panic!("docs/PROTOCOL.md lacks the section {heading:?}"));
    let open = at + DOC[at..].find("```text\n").expect("a text block") + "```text\n".len();
    let len = DOC[open..].find("```").expect("a closed text block");
    &DOC[open..open + len]
}

/// The block's requests, each with the response lines the doc shows.
fn exchanges(block: &str) -> Vec<(String, Vec<String>)> {
    let mut out: Vec<(String, Vec<String>)> = Vec::new();
    for line in block.lines() {
        if let Some(request) = line.strip_prefix("→ ") {
            out.push((expand(request), Vec::new()));
        } else if let Some(response) = line.strip_prefix("← ") {
            let (_, responses) = out.last_mut().expect("a response follows its request");
            responses.push(expand(response));
        }
    }
    out
}

/// Replaces the doc's `[…path12…]`-style abbreviations with the packed
/// edges of the named generator.
fn expand(line: &str) -> String {
    let mut line = line.to_string();
    for (name, g) in [
        ("path9", generators::path(9)),
        ("path12", generators::path(12)),
        ("cycle40", generators::cycle(40)),
    ] {
        line = line.replace(&format!("[…{name}…]"), &render_edges(&g));
    }
    line
}

/// Masks every `"waited_ms":<digits>` value.
fn mask_waited(line: &str) -> String {
    let key = "\"waited_ms\":";
    let parts: Vec<&str> = line
        .split(key)
        .map(|part| part.trim_start_matches(|c: char| c.is_ascii_digit()))
        .collect();
    parts.join(&format!("{key}_"))
}

/// Whether `wire` is the line the doc shows: equal once `waited_ms` is
/// masked, where a `…` in the doc stands for the rest of an edge array.
fn doc_matches(doc: &str, wire: &str) -> bool {
    let (doc, wire) = (mask_waited(doc), mask_waited(wire));
    match doc.split_once('…') {
        None => doc == wire,
        Some((head, tail)) => {
            wire.len() >= head.len() + tail.len()
                && wire.starts_with(head)
                && wire.ends_with(tail)
                && wire[head.len()..wire.len() - tail.len()]
                    .chars()
                    .all(|c| c.is_ascii_digit() || c == ',')
        }
    }
}

/// Replays `block` over one connection to a daemon started with
/// `config`, one request at a time, and compares every response.
fn replay(block: &str, config: ServerConfig) {
    let server = Server::start(config).expect("start daemon");
    let mut sock = TcpStream::connect(server.addr()).expect("connect");
    // A missing response line fails the test instead of hanging it.
    sock.set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut reader = BufReader::new(sock.try_clone().expect("clone"));
    let session = exchanges(block);
    assert!(!session.is_empty(), "no requests in the block");
    for (request, expected) in session {
        sock.write_all(format!("{request}\n").as_bytes())
            .expect("send");
        for doc in expected {
            let mut wire = String::new();
            reader.read_line(&mut wire).expect("recv");
            let wire = wire.trim_end();
            assert!(
                doc_matches(&doc, wire),
                "docs/PROTOCOL.md drifted from the wire\n request: {request}\n      doc: {doc}\n     wire: {wire}"
            );
        }
    }
    server.stop();
}

/// A daemon configuration with `workers` and `slice`, no journal and
/// no atlas.
fn daemon(workers: usize, slice: u64) -> ServerConfig {
    ServerConfig {
        scheduler: SchedulerConfig {
            workers,
            slice,
            default_grant: u64::MAX,
            journal: None,
        },
        ..ServerConfig::default()
    }
}

#[test]
fn the_real_session_replays_byte_for_byte() {
    replay(session_block("A real session"), daemon(2, 64));
}

#[test]
fn the_weighted_streamed_session_replays_byte_for_byte() {
    let dir =
        std::env::temp_dir().join(format!("bncg-protocol-doc-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("journal dir");
    let mut config = daemon(2, 256);
    config.scheduler.journal = Some(dir.clone());
    replay(session_block("A weighted, streamed session"), config);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pins a shed check's token (id 7), the model-bound `bad_resume`
/// reason (id 9) and the resumed chain's `evals`/`slices` (id 10). The
/// doc's corpus is `atlas build --max-n 6`, built here in memory.
#[test]
fn the_cost_model_session_replays_byte_for_byte() {
    let backing: Box<dyn MemoryBacking + Send + Sync> = Box::new(RamBacking::new());
    let mut atlas: DynAtlas = Atlas::open(backing).expect("open a RAM atlas");
    let report = build(&mut atlas, &BuildSpec::standard(6), u64::MAX, None).expect("build");
    assert!(report.complete, "an unmetered build completes");
    let mut config = daemon(2, 64);
    config.atlas = Arc::new(AtlasService::with_atlas(atlas));
    replay(session_block("A cost-model session"), config);
}

#[test]
fn abbreviations_and_masks_are_strict_elsewhere() {
    assert!(doc_matches(
        "{\"final_edges\":[1,4,…]}",
        "{\"final_edges\":[1,4,7,9]}"
    ));
    assert!(!doc_matches(
        "{\"final_edges\":[1,4,…]}",
        "{\"final_edges\":[1,5,7]}"
    ));
    assert!(!doc_matches(
        "{\"final_edges\":[1,…],\"x\":1}",
        "{\"final_edges\":[1,2],\"y\":3,\"x\":1}"
    ));
    assert!(doc_matches("{\"waited_ms\":0}", "{\"waited_ms\":12}"));
    assert!(!doc_matches("{\"used\":0}", "{\"used\":12}"));
}
