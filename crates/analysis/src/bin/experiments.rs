//! The `experiments` binary: regenerate any table or figure of the paper,
//! or run a one-off stability query through the unified solver.
//!
//! ```text
//! experiments <command> [--quick] [--json]
//!             [--threads N] [--budget EVALS] [--deadline-ms MS]
//!             [--batch-budget EVALS]
//!
//! commands:
//!   all        every experiment (the EXPERIMENTS.md artifact)
//!   table1     all six Table 1 rows
//!   ps|bswe|bge|bne|3bse|bse   a single Table 1 row
//!   fig1a fig1b fig2 fig3 fig4 fig5 fig6 fig7 fig8
//!   cycles     Lemma 2.4 (cycle BSE windows)
//!   prop316    Proposition 3.16
//!   prop322    Proposition 3.22
//!   dynamics   the cooperation-ladder simulation; with any of the
//!              instance flags below it instead runs ONE anytime
//!              round-robin trajectory:
//!              --alpha A  --n N  --rounds R
//!              --family star|path|cycle|clique|tree|gnp [--p P] [--seed S]
//!              --graph6 G6 (exact start state, overrides --family)
//!              [--resume '<checkpoint json>'] continues an exhausted
//!              trajectory (pair it with the printed --graph6 token)
//!   roundrobin round-robin best-response census (converge/cycle/cap)
//!   treesvgraphs  tree vs general-graph equilibria at tiny n
//!   structure  BSwE tree-depth structure scan
//!   windows    named-family stability windows
//!   curve      exact stability-probability curve
//!   ablations  design-choice ablations (delta engines, pruning)
//!   check      one stability query through the solver:
//!              --concept re|bae|ps|bswe|bge|bne|kbse<k>|bse
//!              --alpha A (rational, e.g. 3/2)   --n N
//!              --family star|path|cycle|clique|tree|gnp [--p P] [--seed S]
//!              [--resume '<frontier json>'] to continue an exhausted scan
//!   serve      the stability-checking daemon (line-delimited JSON over
//!              TCP; see docs/PROTOCOL.md):
//!              --port P (default 7421; 0 = ephemeral)  --workers N
//!              --slice EVALS (per scheduling slice)
//!              --grant EVALS (default per-tenant budget; unmetered if
//!              omitted) — blocks until a `shutdown` request arrives
//!              --atlas DIR serves `atlas_lookup` hits from a
//!              precomputed corpus at zero solver cost
//!              --journal DIR persists tenant grants/weights to
//!              DIR/grants.jsonl and replays them on restart
//!   query      send request lines to a running daemon:
//!              --addr HOST:PORT (default 127.0.0.1:7421)
//!              --line '<json>' sends one request; without it, every
//!              stdin line is sent and its response printed
//!   atlas      the precomputed stability corpus (docs/ARCHITECTURE.md):
//!              atlas build --dir DIR [--max-n N] [--step-limit K]
//!                resumable canonical walk; --batch-budget pools one
//!                eval budget over the WHOLE atlas (resume included)
//!              atlas query --dir DIR --concept C --alpha A
//!                (--graph6 G6 | --family F --n N [--p P] [--seed S])
//!              atlas verify --dir DIR [--sample K] [--seed S]
//!                [--max-n N] — replays stored entries against a live
//!                solver and demands exact verdict/witness equality
//!
//! flags:
//!   --quick        reduced instance sizes/samples for every report
//!   --json         emit reports as JSON instead of plain text
//!   --threads N    solver worker threads per query batch (sweep commands
//!                  and check; round-robin runs are inherently sequential)
//!   --budget E     solver eval budget per query (anytime: exhaust, not
//!                  fail); for round-robin trajectories it is the
//!                  run-level pool every metered activation drains —
//!                  partial work survives in the checkpoint
//!   --deadline-ms M  solver wall-clock allowance per query (per run for
//!                  round-robin trajectories)
//!   --batch-budget E  one shared eval pool for a whole enumeration
//!                  sweep (Table 1 rows, `all`): instances past the
//!                  drained pool are load-shed into the exhausted count
//!   --atlas DIR    consult a precomputed stability corpus before the
//!                  solver (table1 rows, `all`): stored verdicts are
//!                  served at zero solver cost and never touch the
//!                  shared pool
//!   --cost-model M price agents under a non-default cost model:
//!                  sum_distances (default), generalized[:id|:cap<k>|:quad],
//!                  or adversary_robust. Applies to table1 and its sweep
//!                  rows (paper bounds become reference values), check,
//!                  single dynamics trajectories, and ablations; the
//!                  atlas serves default-model verdicts only, so
//!                  non-default sweeps always run live
//!
//! The solver flags apply to the commands that execute stability
//! queries: `check`, the Table 1 enumeration sweeps (via
//! `Solver::check_many`), `roundrobin`, and single `dynamics`
//! trajectories (metered best-response activations). Budgets and
//! deadlines only ever bite on the exponential concepts — the
//! polynomial ps/bswe rows complete eagerly, so for them `--threads`
//! is the only flag with any effect. The remaining reports certify
//! fixed constructions and ignore the solver flags entirely.
//! ```

use bncg_analysis::{dynamics_exp, figures, propositions, report::Report, run_all, table1};
use bncg_atlas::{Atlas, BuildSpec, Cursor, DiskBacking, DynAtlas, MemoryBacking};
use bncg_core::solver::{ExecPolicy, Frontier, Solver, StabilityQuery, Verdict};
use bncg_core::{Alpha, Concept, CostModelSpec, GameError};
use bncg_dynamics::round_robin;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

/// Flags that consume the following argument (needed to tell the command
/// token apart from a flag value).
const VALUE_FLAGS: [&str; 26] = [
    "--threads",
    "--cost-model",
    "--budget",
    "--deadline-ms",
    "--batch-budget",
    "--concept",
    "--alpha",
    "--n",
    "--family",
    "--p",
    "--seed",
    "--resume",
    "--rounds",
    "--graph6",
    "--port",
    "--workers",
    "--slice",
    "--grant",
    "--journal",
    "--addr",
    "--line",
    "--atlas",
    "--dir",
    "--max-n",
    "--sample",
    "--step-limit",
];

/// `flag_value` with strict parsing: a present-but-unparsable or
/// present-but-valueless flag is an error, never a silent fallback to
/// defaults (a dropped `--budget` would otherwise run an unbounded scan
/// the user believes is capped).
fn parsed_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, GameError> {
    match flag_value(args, name) {
        None if args.iter().any(|a| a == name) => Err(GameError::Unsupported {
            reason: format!("missing value for {name}"),
        }),
        None => Ok(None),
        Some(v) => v
            .parse::<T>()
            .map(Some)
            .map_err(|_| GameError::Unsupported {
                reason: format!("invalid value {v:?} for {name}"),
            }),
    }
}

/// Strict string-flag accessor: present-without-value is an error, same
/// contract as `parsed_flag` (a `--resume` whose token was eaten by
/// shell quoting must not silently restart the scan from zero).
fn string_flag(args: &[String], name: &str) -> Result<Option<String>, GameError> {
    match flag_value(args, name) {
        None if args.iter().any(|a| a == name) => Err(GameError::Unsupported {
            reason: format!("missing value for {name}"),
        }),
        v => Ok(v),
    }
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    let prefixed = format!("{name}=");
    for (i, a) in args.iter().enumerate() {
        if let Some(v) = a.strip_prefix(&prefixed) {
            return Some(v.to_string());
        }
        if a == name {
            return args.get(i + 1).cloned();
        }
    }
    None
}

/// The `index`-th positional (non-flag) token: 0 is the command, 1 the
/// subcommand (`atlas build`).
fn positional_token(args: &[String], index: usize) -> Option<String> {
    let mut skip_next = false;
    let mut seen = 0;
    for a in args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a.starts_with("--") {
            skip_next = VALUE_FLAGS.contains(&a.as_str()) && !a.contains('=');
            continue;
        }
        if seen == index {
            return Some(a.clone());
        }
        seen += 1;
    }
    None
}

fn command_token(args: &[String]) -> Option<String> {
    positional_token(args, 0)
}

fn usage() -> &'static str {
    "try: all, table1, ps, bswe, bge, bne, 3bse, bse, fig1a..fig8, cycles, \
     prop316, prop322, dynamics, roundrobin, treesvgraphs, structure, \
     windows, curve, ablations, check, serve, query, atlas\n\
     flags: --quick, --json; --budget EVALS and --deadline-ms MS bound the \
     exponential-concept queries (check, the 3bse/bse rows of table1/all, \
     roundrobin, single dynamics trajectories); --batch-budget EVALS pools \
     one eval budget across a whole enumeration sweep; --threads N \
     parallelizes the sweeps (polynomial rows complete eagerly and cannot \
     exhaust); --atlas DIR serves sweep verdicts from a precomputed \
     corpus; --cost-model M prices agents under a non-default model \
     (table1/ps/bswe/3bse/bse, check, dynamics trajectories, ablations); \
     `check` adds --concept, --alpha, --n, --family, --p, \
     --seed, --resume; `dynamics` with --family/--graph6/--n/--rounds/\
     --resume runs one anytime round-robin trajectory; `serve` starts the \
     line-JSON daemon (--port, --workers, --slice, --grant, --atlas, \
     --journal) and \
     `query` talks to one (--addr, --line or stdin); `atlas \
     build|query|verify --dir DIR` maintains the corpus itself"
}

/// Builds the instance graph for the `check` command.
fn build_graph(family: &str, n: usize, p: f64, seed: u64) -> Result<bncg_graph::Graph, GameError> {
    use bncg_graph::generators;
    Ok(match family {
        "star" => generators::star(n),
        "path" => generators::path(n),
        "cycle" => generators::cycle(n),
        "clique" => generators::clique(n),
        "tree" => generators::random_tree(n, &mut bncg_graph::test_rng(seed)),
        "gnp" => generators::random_connected(n, p, &mut bncg_graph::test_rng(seed)),
        other => {
            return Err(GameError::Unsupported {
                reason: format!(
                    "unknown graph family {other:?}; expected star, path, \
                     cycle, clique, tree, or gnp"
                ),
            })
        }
    })
}

/// The `check` command: one solver query, printable end to end — the
/// service-shaped surface (budget in, verdict or resume token out).
fn run_check(
    args: &[String],
    policy: &ExecPolicy,
    model: CostModelSpec,
) -> Result<String, GameError> {
    let concept: Concept = string_flag(args, "--concept")?
        .unwrap_or_else(|| "bne".into())
        .parse()?;
    let alpha: Alpha = string_flag(args, "--alpha")?
        .unwrap_or_else(|| "2".into())
        .parse()?;
    let n: usize = parsed_flag(args, "--n")?.unwrap_or(16);
    let p: f64 = parsed_flag(args, "--p")?.unwrap_or(0.3);
    let seed: u64 = parsed_flag(args, "--seed")?.unwrap_or(0xB2C6);
    if !(0.0..=1.0).contains(&p) {
        return Err(GameError::Unsupported {
            reason: format!("--p must be a probability in [0, 1], got {p}"),
        });
    }
    let family = string_flag(args, "--family")?.unwrap_or_else(|| "gnp".into());
    let g = build_graph(&family, n, p, seed)?;

    let mut query = StabilityQuery::new(concept, &g, alpha).with_cost_model(model);
    if let Some(token) = string_flag(args, "--resume")? {
        let frontier: Frontier = token.parse()?;
        query = query.resume(frontier);
    }
    let verdict = Solver::new(policy.clone()).check(&query)?;
    let mut head = format!(
        "check {concept} on {family} (n = {n}, α = {alpha}, {} edges)",
        g.m()
    );
    if !model.is_default() {
        head.push_str(&format!(" under {}", model.token()));
    }
    Ok(match verdict {
        Verdict::Stable {
            evals,
            pruned,
            elapsed,
            ..
        } => format!(
            "{head}\nverdict: stable\nevals: {evals}\npruned: {pruned}\nelapsed: {elapsed:?}"
        ),
        Verdict::Unstable {
            witness,
            evals,
            elapsed,
            ..
        } => format!(
            "{head}\nverdict: unstable\nwitness: {witness}\nevals: {evals}\nelapsed: {elapsed:?}"
        ),
        Verdict::Exhausted { frontier, progress } => format!(
            "{head}\nverdict: exhausted ({}/{} units, {} evals, {:?})\n\
             frontier: {frontier}\nresume with: --resume '{frontier}'",
            progress.units_done, progress.units_total, progress.evals_total, progress.elapsed
        ),
    })
}

/// The single-trajectory `dynamics` mode: one anytime round-robin run —
/// budget in, partial trajectory plus a resumable checkpoint out. On
/// exhaustion the final state is printed as graph6 so the follow-up
/// `--resume` invocation can name the exact interrupted state (the
/// checkpoint's fingerprint validation rejects anything else).
fn run_trajectory(
    args: &[String],
    policy: &ExecPolicy,
    model: CostModelSpec,
) -> Result<String, GameError> {
    let alpha: Alpha = string_flag(args, "--alpha")?
        .unwrap_or_else(|| "2".into())
        .parse()?;
    let n: usize = parsed_flag(args, "--n")?.unwrap_or(12);
    let p: f64 = parsed_flag(args, "--p")?.unwrap_or(0.3);
    let seed: u64 = parsed_flag(args, "--seed")?.unwrap_or(0xB2C6);
    let rounds: usize = parsed_flag(args, "--rounds")?.unwrap_or(400);
    let (g, from) = match string_flag(args, "--graph6")? {
        Some(code) => {
            let g = bncg_graph::graph6::decode(&code).map_err(|e| GameError::Unsupported {
                reason: format!("invalid --graph6 token: {e}"),
            })?;
            (g, format!("graph6 {code}"))
        }
        None => {
            let family = string_flag(args, "--family")?.unwrap_or_else(|| "tree".into());
            (build_graph(&family, n, p, seed)?, family)
        }
    };
    let out = match string_flag(args, "--resume")? {
        Some(token) => {
            let checkpoint: round_robin::Checkpoint = token.parse()?;
            round_robin::resume_under(&g, alpha, model, rounds, policy, &checkpoint)?
        }
        None => round_robin::run_with_policy_under(&g, alpha, model, rounds, policy)?,
    };
    let status = if out.converged {
        "converged (BNE reached)"
    } else if out.cycled {
        "cycled (state revisited)"
    } else if out.exhausted {
        "exhausted (budget/deadline/cancel)"
    } else {
        "round cap reached"
    };
    let mut text = format!(
        "dynamics trajectory on {from} (n = {}, α = {alpha})\n\
         status: {status}\nrounds: {}\nmoves: {} ({} this slice)\nevals: {}",
        g.n(),
        out.rounds,
        out.moves,
        out.history.len(),
        out.evals
    );
    if let Some(checkpoint) = &out.checkpoint {
        let g6 = bncg_graph::graph6::encode(&out.final_graph).map_err(GameError::Graph)?;
        text.push_str(&format!(
            "\ncheckpoint: {checkpoint}\nresume with: dynamics --alpha {alpha} \
             --rounds {rounds} --graph6 '{g6}' --resume '{checkpoint}'"
        ));
    }
    Ok(text)
}

/// The `serve` command: start the stability-checking daemon and block
/// until a `shutdown` request arrives on the wire (docs/PROTOCOL.md has
/// the request schemas).
fn run_serve(args: &[String]) -> Result<String, GameError> {
    let port: u16 = parsed_flag(args, "--port")?.unwrap_or(7421);
    let mut scheduler = bncg_serve::SchedulerConfig::default();
    if let Some(workers) = parsed_flag::<usize>(args, "--workers")? {
        if workers == 0 {
            return Err(GameError::Unsupported {
                reason: "--workers must be at least 1".into(),
            });
        }
        scheduler.workers = workers;
    }
    if let Some(slice) = parsed_flag::<u64>(args, "--slice")? {
        scheduler.slice = slice.max(1);
    }
    if let Some(grant) = parsed_flag::<u64>(args, "--grant")? {
        scheduler.default_grant = grant;
    }
    if let Some(dir) = string_flag(args, "--journal")? {
        scheduler.journal = Some(std::path::PathBuf::from(dir));
    }
    let atlas = match load_atlas(args)? {
        Some(atlas) => {
            println!("atlas loaded: {} records", atlas.len());
            std::sync::Arc::new(bncg_serve::AtlasService::with_atlas(atlas))
        }
        None => std::sync::Arc::new(bncg_serve::AtlasService::empty()),
    };
    let server = bncg_serve::Server::start(bncg_serve::ServerConfig {
        addr: format!("127.0.0.1:{port}"),
        scheduler,
        atlas,
    })
    .map_err(|e| GameError::Unsupported {
        reason: format!("cannot bind 127.0.0.1:{port}: {e}"),
    })?;
    println!("serving on {} (send a shutdown op to stop)", server.addr());
    server.wait();
    Ok("daemon stopped".into())
}

/// Loads the corpus named by `--atlas DIR` (for the sweep commands and
/// the daemon), if the flag is present.
fn load_atlas(args: &[String]) -> Result<Option<DynAtlas>, GameError> {
    let Some(dir) = string_flag(args, "--atlas")? else {
        return Ok(None);
    };
    let backing = DiskBacking::open(Path::new(&dir))?;
    let boxed: Box<dyn MemoryBacking + Send + Sync> = Box::new(backing);
    Atlas::open(boxed).map(Some)
}

/// The `atlas` command: build, probe, or differentially verify the
/// disk-resident corpus behind `--atlas` / the daemon's `atlas_lookup`.
fn run_atlas(args: &[String], policy: &ExecPolicy) -> Result<String, GameError> {
    let dir = string_flag(args, "--dir")?.ok_or_else(|| GameError::Unsupported {
        reason: "atlas needs --dir DIR (the corpus directory)".into(),
    })?;
    let sub = positional_token(args, 1).unwrap_or_else(|| "build".into());
    match sub.as_str() {
        "build" => {
            let max_n: u32 = parsed_flag(args, "--max-n")?.unwrap_or(8);
            let step_limit: Option<u64> = parsed_flag(args, "--step-limit")?;
            let budget = policy.batch_budget.unwrap_or(u64::MAX);
            let spec = BuildSpec::standard(max_n);
            let backing = DiskBacking::open(Path::new(&dir))?;
            let mut atlas = Atlas::open(backing)?;
            let report = bncg_atlas::build(&mut atlas, &spec, budget, step_limit)?;
            let cursor = Cursor::of_atlas(&atlas, &spec);
            Ok(format!(
                "atlas build in {dir} (spec n ≤ {max_n})\n\
                 appended: {}\nskipped (resume prefix): {}\n\
                 evals charged: {} (pool at {})\nrederived torn tail: {}\n\
                 status: {}\ncursor: {cursor}",
                report.appended,
                report.skipped,
                report.evals_charged,
                report.pool_used,
                report.rederived_tail,
                if report.complete {
                    "complete".to_string()
                } else {
                    "interrupted (rerun the same command to resume)".to_string()
                },
            ))
        }
        "query" => {
            let concept: Concept = string_flag(args, "--concept")?
                .unwrap_or_else(|| "bne".into())
                .parse()?;
            let alpha: Alpha = string_flag(args, "--alpha")?
                .unwrap_or_else(|| "2".into())
                .parse()?;
            let g = match string_flag(args, "--graph6")? {
                Some(code) => {
                    bncg_graph::graph6::decode(&code).map_err(|e| GameError::Unsupported {
                        reason: format!("invalid --graph6 token: {e}"),
                    })?
                }
                None => {
                    let n: usize = parsed_flag(args, "--n")?.unwrap_or(6);
                    let p: f64 = parsed_flag(args, "--p")?.unwrap_or(0.3);
                    let seed: u64 = parsed_flag(args, "--seed")?.unwrap_or(0xB2C6);
                    let family = string_flag(args, "--family")?.unwrap_or_else(|| "path".into());
                    build_graph(&family, n, p, seed)?
                }
            };
            let backing = DiskBacking::open(Path::new(&dir))?;
            let atlas = Atlas::open(backing)?;
            let head = format!(
                "atlas query {concept} at α = {alpha} on n = {} ({} records in {dir})",
                g.n(),
                atlas.len()
            );
            Ok(match atlas.lookup(&g, concept, alpha)? {
                None => format!("{head}\nmiss: not in the corpus (fall back to `check`)"),
                Some(hit) => {
                    let mut text = format!("{head}\nhit: {}", hit.record);
                    if let Some(witness) = &hit.witness {
                        text.push_str(&format!("\nwitness (query labels): {witness}"));
                    }
                    text
                }
            })
        }
        "verify" => {
            let sample: u64 = parsed_flag(args, "--sample")?.unwrap_or(64);
            let seed: u64 = parsed_flag(args, "--seed")?.unwrap_or(0xA71A5);
            let max_n: u32 = parsed_flag(args, "--max-n")?.unwrap_or(8);
            let backing = DiskBacking::open(Path::new(&dir))?;
            let atlas = Atlas::open(backing)?;
            let report = bncg_atlas::verify_atlas(&atlas, sample, seed, max_n)?;
            Ok(format!(
                "atlas verify in {dir} (sample {sample}, seed {seed}, n ≤ {max_n})\n\
                 eligible: {}\nreplayed: {} (all matched the live solver exactly)\n\
                 skipped exhausted: {}",
                report.eligible, report.replayed, report.skipped_exhausted
            ))
        }
        other => Err(GameError::Unsupported {
            reason: format!("unknown atlas subcommand {other:?}; try build, query, or verify"),
        }),
    }
}

/// The `query` command: a line-oriented client for a running daemon.
/// One request per line in, one response line out, in order.
fn run_query(args: &[String]) -> Result<String, GameError> {
    use std::io::{BufRead, BufReader, Write};
    let addr = string_flag(args, "--addr")?.unwrap_or_else(|| "127.0.0.1:7421".into());
    let sock = std::net::TcpStream::connect(&addr).map_err(|e| GameError::Unsupported {
        reason: format!("cannot connect to {addr}: {e}"),
    })?;
    let mut reader = BufReader::new(sock.try_clone().map_err(|e| GameError::Unsupported {
        reason: format!("cannot clone connection: {e}"),
    })?);
    let mut sock = sock;
    let mut exchange = |line: &str| -> Result<String, GameError> {
        sock.write_all(line.as_bytes())
            .and_then(|()| sock.write_all(b"\n"))
            .map_err(|e| GameError::Unsupported {
                reason: format!("send failed: {e}"),
            })?;
        let mut response = String::new();
        reader
            .read_line(&mut response)
            .map_err(|e| GameError::Unsupported {
                reason: format!("receive failed: {e}"),
            })?;
        Ok(response.trim_end().to_string())
    };
    if let Some(line) = string_flag(args, "--line")? {
        return exchange(&line);
    }
    let stdin = std::io::stdin();
    let mut out = Vec::new();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| GameError::Unsupported {
            reason: format!("stdin read failed: {e}"),
        })?;
        if line.trim().is_empty() {
            continue;
        }
        out.push(exchange(&line)?);
    }
    Ok(out.join("\n"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let mut policy = ExecPolicy::default();
    match (
        parsed_flag::<usize>(&args, "--threads"),
        parsed_flag::<u64>(&args, "--budget"),
        parsed_flag::<u64>(&args, "--deadline-ms"),
        parsed_flag::<u64>(&args, "--batch-budget"),
    ) {
        (Ok(threads), Ok(budget), Ok(deadline_ms), Ok(batch)) => {
            if let Some(t) = threads {
                policy.threads = t;
            }
            policy.eval_budget = budget;
            policy.deadline = deadline_ms.map(Duration::from_millis);
            policy.batch_budget = batch;
        }
        (t, b, d, p) => {
            for e in [t.err(), b.err(), d.err(), p.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return ExitCode::FAILURE;
        }
    }
    let command = command_token(&args).unwrap_or_else(|| "all".into());
    let model: CostModelSpec = match string_flag(&args, "--cost-model") {
        Ok(Some(token)) => match token.parse() {
            Ok(m) => m,
            Err(e) => {
                eprintln!("invalid --cost-model: {e}");
                return ExitCode::FAILURE;
            }
        },
        Ok(None) => CostModelSpec::SumDistances,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // The flag applies to the commands that price agents: a non-default
    // model on any other command is an error, never silently dropped.
    let model_aware = [
        "table1",
        "ps",
        "bswe",
        "3bse",
        "bse",
        "check",
        "dynamics",
        "ablations",
    ];
    if !model.is_default() && !model_aware.contains(&command.as_str()) {
        eprintln!(
            "--cost-model applies to: {}; `{command}` prices under the default model only",
            model_aware.join(", ")
        );
        return ExitCode::FAILURE;
    }

    // `dynamics` doubles as the single-trajectory anytime runner when
    // any instance-selecting flag is present; bare `dynamics` keeps its
    // ladder-report meaning.
    let trajectory_mode = ["--family", "--graph6", "--n", "--rounds", "--resume"]
        .iter()
        .any(|f| {
            let prefixed = format!("{f}=");
            args.iter().any(|a| a == f || a.starts_with(&prefixed))
        });

    // The sweep commands consult `--atlas DIR` when present; loading it
    // up front keeps one corpus open across all six Table 1 rows.
    let atlas = match load_atlas(&args) {
        Ok(atlas) => atlas,
        Err(e) => {
            eprintln!("cannot load --atlas corpus: {e}");
            return ExitCode::FAILURE;
        }
    };

    let render = |r: Report| if json { r.to_json() } else { r.render() };
    let result = match command.as_str() {
        "all" => run_all(quick, &policy, atlas.as_ref()).map(render),
        "table1" => table1::full_table(quick, &policy, atlas.as_ref(), model).map(render),
        "check" => run_check(&args, &policy, model),
        "serve" => run_serve(&args),
        "query" => run_query(&args),
        "atlas" => run_atlas(&args, &policy),
        "dynamics" if trajectory_mode => run_trajectory(&args, &policy, model),
        other => {
            let mut r = Report::new();
            let run = match other {
                "ps" => table1::row_ps(&mut r, quick, &policy, atlas.as_ref(), model),
                "bswe" => table1::row_bswe(&mut r, quick, &policy, atlas.as_ref(), model),
                "bge" => table1::row_bge(&mut r, quick),
                "bne" => table1::row_bne(&mut r, quick),
                "3bse" => table1::row_3bse(&mut r, quick, &policy, atlas.as_ref(), model),
                "bse" => table1::row_bse(&mut r, quick, &policy, atlas.as_ref(), model),
                "fig1a" => figures::fig1a(&mut r, quick),
                "fig1b" => figures::fig1b(&mut r, quick),
                "fig2" => figures::fig2(&mut r, quick),
                "fig3" => figures::fig3(&mut r, quick),
                "fig4" => figures::fig4(&mut r, quick),
                "fig5" => figures::fig5(&mut r, quick),
                "fig6" => figures::fig6(&mut r, quick),
                "fig7" => figures::fig7(&mut r, quick),
                "fig8" => figures::fig8(&mut r, quick),
                "cycles" => propositions::cycles_bse(&mut r, quick),
                "prop316" => propositions::prop_3_16(&mut r, quick),
                "prop322" => propositions::prop_3_22(&mut r, quick),
                "dynamics" => dynamics_exp::ladder(&mut r, quick),
                "structure" => bncg_analysis::structure::bswe_depth(&mut r, quick),
                "windows" => bncg_analysis::windows_exp::named_windows(&mut r, quick),
                "curve" => bncg_analysis::exact_curve::curve_report(&mut r, quick),
                "roundrobin" => dynamics_exp::round_robin_census(&mut r, quick, &policy),
                "treesvgraphs" => dynamics_exp::trees_vs_graphs(&mut r, quick),
                "ablations" => bncg_analysis::ablations::delta_engines(&mut r, quick)
                    .and_then(|()| bncg_analysis::ablations::kbse_restriction(&mut r, quick))
                    .and_then(|()| bncg_analysis::ablations::parallel_scan(&mut r, quick))
                    .and_then(|()| bncg_analysis::ablations::incremental_engine(&mut r, quick))
                    .and_then(|()| bncg_analysis::ablations::pruning(&mut r, quick))
                    .and_then(|()| bncg_analysis::ablations::generator(&mut r, quick))
                    .and_then(|()| bncg_analysis::ablations::trajectory_pruning(&mut r, quick))
                    .and_then(|()| bncg_analysis::ablations::cost_models(&mut r, quick)),
                _ => {
                    eprintln!("unknown command: {other}");
                    eprintln!("{}", usage());
                    return ExitCode::FAILURE;
                }
            };
            run.map(|()| render(r))
        }
    };

    match result {
        Ok(text) => {
            println!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("experiment failed: {e}");
            ExitCode::FAILURE
        }
    }
}
