//! The seeded inputs every workload draws from, and the one-shot oracle
//! their answers are checked against.
//!
//! Instances are a function of structure (family, size, α, a fixed shape
//! seed) and of the run's seed, which relabels them; nothing is filtered
//! on measured time or evaluations, so a parent and a change run
//! identical inputs for the same seed. Families whose exact checks have
//! unbounded cost on random instances (BNE on random trees with n ≥ 20
//! at α = n, BSE on arbitrary 8-node graphs) are excluded by
//! construction.

use crate::util::Rng;
use bncg_core::delta::move_improves_all;
use bncg_core::{
    jsonio, Alpha, BudgetPool, Concept, CostModelSpec, ExecPolicy, Frontier, Move, Solver,
    StabilityQuery, Verdict,
};
use bncg_dynamics::round_robin;
use bncg_graph::{generators, Graph};
use bncg_serve::protocol::pack_edge;
use std::time::{Duration, Instant};

/// Round cap of every trajectory request.
pub const ROUNDS: usize = 100;

/// The daemon's default slice quantum (evaluations per slice).
pub const SLICE: u64 = 2048;

/// Instance families; the per-layer solver metrics are keyed by them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    Bne,
    Kbse2,
    Kbse3,
    Bse,
    Traj,
    Poly,
    Atlas,
}

impl Group {
    pub fn label(self) -> &'static str {
        match self {
            Group::Bne => "bne",
            Group::Kbse2 => "kbse2",
            Group::Kbse3 => "kbse3",
            Group::Bse => "bse",
            Group::Traj => "traj",
            Group::Poly => "poly",
            Group::Atlas => "atlas",
        }
    }

    /// The light latency class: atlas hits and polynomial concepts.
    /// Everything else (exponential concepts, trajectories) is heavy.
    pub fn light(self) -> bool {
        matches!(self, Group::Poly | Group::Atlas)
    }
}

/// What one instance asks.
#[derive(Debug, Clone)]
pub enum Task {
    Check { concept: Concept, alpha: Alpha },
    Trajectory { alpha: Alpha },
}

/// Seed of the catalog's shapes. The shapes are a function of structure
/// only, identical for every run; a run's `--seed` relabels every
/// instance ([`relabel`]) and drives its request stream. Fresh random
/// shapes per seed would move the cost mix itself from seed to seed
/// (whether a random tree is BNE-stable changes its check cost 100×).
pub const SHAPE_SEED: u64 = 0x0b1c_a7a1_05ee_d001;

/// Gives every instance a uniformly random vertex labeling.
pub fn relabel(instances: &mut [Instance], rng: &mut Rng) {
    for inst in instances {
        inst.graph = inst.graph.relabeled(&rng.permutation(inst.graph.n()));
    }
}

/// The one-shot answer a task must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    Verdict {
        stable: bool,
        witness: Option<Move>,
        evals: u64,
    },
    Trajectory {
        moves: usize,
        rounds: usize,
        evals: u64,
        converged: bool,
        final_edges: Vec<u64>,
    },
}

#[derive(Debug, Clone)]
pub struct Instance {
    pub group: Group,
    pub graph: Graph,
    pub task: Task,
    pub expect: Option<Expect>,
}

impl Instance {
    fn check(group: Group, graph: Graph, concept: Concept, alpha: Alpha) -> Instance {
        Instance {
            group,
            graph,
            task: Task::Check { concept, alpha },
            expect: None,
        }
    }

    pub fn alpha(&self) -> Alpha {
        match self.task {
            Task::Check { alpha, .. } | Task::Trajectory { alpha } => alpha,
        }
    }

    /// The request line (newline-terminated) for this instance. Atlas
    /// instances go out as `atlas_lookup`, trajectories as `trajectory`,
    /// everything else as `check`.
    pub fn request(&self, id: u64, tenant: &str, stream: bool) -> String {
        let edges: Vec<u64> = self.graph.edges().map(|(u, v)| pack_edge(u, v)).collect();
        let mut line = match &self.task {
            Task::Check { concept, alpha } => {
                let op = if self.group == Group::Atlas {
                    "atlas_lookup"
                } else {
                    "check"
                };
                format!(
                    "{{\"id\":{id},\"op\":\"{op}\",\"tenant\":\"{tenant}\",\"concept\":\"{}\",\"alpha\":\"{alpha}\"",
                    concept.token()
                )
            }
            Task::Trajectory { alpha } => format!(
                "{{\"id\":{id},\"op\":\"trajectory\",\"tenant\":\"{tenant}\",\"alpha\":\"{alpha}\",\"rounds\":{ROUNDS}"
            ),
        };
        line.push_str(&format!(
            ",\"n\":{},\"edges\":{}",
            self.graph.n(),
            jsonio::render_u64_list(&edges)
        ));
        if stream {
            line.push_str(",\"stream\":1");
        }
        line.push_str("}\n");
        line
    }

    /// Set-up's oracle: the one-shot answer, which must survive being run
    /// as the daemon runs it (sliced; see [`Instance::verify_chain`]) and
    /// whose witness must replay.
    pub fn solve(&mut self) -> Result<(), String> {
        self.expect = Some(self.run_one_shot());
        if let Task::Check { .. } = self.task {
            self.verify_chain(&expect_of(&self.sliced(|_, _| {})?))?;
        }
        self.replay_oracle()
    }

    /// Runs the check as the daemon does: slices of [`SLICE`] evaluations
    /// against an unmetered pool, each resumed from the previous slice's
    /// serialized frontier. `observe` sees each slice's time (state
    /// rebuild included) and, between slices, the token and its parse
    /// time.
    pub fn sliced(
        &self,
        mut observe: impl FnMut(Duration, Option<(&str, Duration)>),
    ) -> Result<Verdict, String> {
        let Task::Check { concept, alpha } = self.task else {
            return Err("only checks are sliced".into());
        };
        let solver = Solver::new(ExecPolicy::default().with_threads(1));
        let pool = BudgetPool::new(u64::MAX);
        let mut resume: Option<Frontier> = None;
        loop {
            // Each slice rebuilds its query state, as the daemon's does.
            let start = Instant::now();
            let mut query = StabilityQuery::new(concept, &self.graph, alpha);
            if let Some(f) = resume.take() {
                query = query.resume(f);
            }
            let verdict = solver
                .check_sliced(&query, &pool, SLICE)
                .map_err(|e| e.to_string())?;
            let took = start.elapsed();
            match verdict {
                Verdict::Exhausted { frontier, .. } => {
                    let token = frontier.to_json();
                    let start = Instant::now();
                    let parsed = token.parse::<Frontier>().map_err(|e| e.to_string())?;
                    observe(took, Some((&token, start.elapsed())));
                    resume = Some(parsed);
                }
                done => {
                    observe(took, None);
                    return Ok(done);
                }
            }
        }
    }

    pub fn run_one_shot(&self) -> Expect {
        let policy = ExecPolicy::default().with_threads(1);
        match &self.task {
            Task::Check { concept, alpha } => {
                let verdict = Solver::new(policy)
                    .check(&StabilityQuery::new(*concept, &self.graph, *alpha))
                    .expect("catalog instances are within every structural limit");
                expect_of(&verdict)
            }
            Task::Trajectory { alpha } => {
                let out = round_robin::run_with_policy_under(
                    &self.graph,
                    *alpha,
                    CostModelSpec::SumDistances,
                    ROUNDS,
                    &policy,
                )
                .expect("unbudgeted trajectories run to completion");
                Expect::Trajectory {
                    moves: out.moves,
                    rounds: out.rounds,
                    evals: out.evals,
                    converged: out.converged,
                    final_edges: out
                        .final_graph
                        .edges()
                        .map(|(u, v)| pack_edge(u, v))
                        .collect(),
                }
            }
        }
    }

    fn expected(&self) -> &Expect {
        self.expect.as_ref().expect("set-up solves every instance")
    }

    /// Checks a sliced chain's answer (in process or over the wire):
    /// verdict, witness, and eval count as one-shot. k-BSE is the
    /// documented exception for the count: its dedup sets live per slice,
    /// so a resumed scan may re-evaluate edit sets, and the count may
    /// only exceed the one-shot one. Returns the chain's count.
    pub fn verify_chain(&self, chain: &Expect) -> Result<u64, String> {
        let dedup_per_slice = matches!(
            self.task,
            Task::Check {
                concept: Concept::KBse(_),
                ..
            }
        );
        match (chain, self.expected()) {
            (
                Expect::Verdict {
                    stable,
                    witness,
                    evals,
                },
                Expect::Verdict {
                    stable: want,
                    witness: want_witness,
                    evals: want_evals,
                },
            ) if stable == want
                && witness == want_witness
                && (evals == want_evals || (dedup_per_slice && evals > want_evals)) =>
            {
                Ok(*evals)
            }
            _ => Err(format!(
                "{} sliced answer differs from one-shot {:?}: {chain:?}",
                self.group.label(),
                self.expected()
            )),
        }
    }

    /// Checks a final response line against the oracle. Atlas hits must
    /// come from the corpus, agree on the verdict, and carry a witness
    /// that replays; live answers must pass [`Instance::verify_chain`].
    pub fn verify_line(&self, line: &str) -> Result<(), String> {
        if jsonio::u64_field(line, "ok") != Some(1) {
            return Err(format!("not ok: {line}"));
        }
        match (self.expected(), &self.task) {
            (Expect::Verdict { stable: want, .. }, Task::Check { .. }) => {
                let stable = match jsonio::str_field(line, "verdict") {
                    Some("stable") => true,
                    Some("unstable") => false,
                    _ => return Err(format!("no verdict: {line}")),
                };
                let witness = match jsonio::object_field(line, "witness") {
                    Some(obj) => Some(Move::parse_json(obj).map_err(|e| e.to_string())?),
                    None => None,
                };
                if stable != *want || (!stable && witness.is_none()) {
                    return Err(format!("verdict differs from one-shot: {line}"));
                }
                if self.group != Group::Atlas {
                    let evals = jsonio::u64_field(line, "evals").ok_or("no evals")?;
                    return self
                        .verify_chain(&Expect::Verdict {
                            stable,
                            witness,
                            evals,
                        })
                        .map(|_| ());
                }
                if jsonio::str_field(line, "source") != Some("atlas") {
                    return Err(format!("atlas lookup missed the corpus: {line}"));
                }
                // A corpus witness is relabeled into the query's labels,
                // so it need not equal the one-shot witness: replay it.
                witness.map_or(Ok(()), |w| self.replay(&w))
            }
            (
                Expect::Trajectory {
                    moves,
                    rounds,
                    evals,
                    converged,
                    final_edges,
                },
                Task::Trajectory { .. },
            ) => {
                let same = jsonio::u64_field(line, "moves") == Some(*moves as u64)
                    && jsonio::u64_field(line, "rounds") == Some(*rounds as u64)
                    && jsonio::u64_field(line, "evals") == Some(*evals)
                    && jsonio::u64_field(line, "converged") == Some(u64::from(*converged))
                    && jsonio::u64_list_field(line, "final_edges").as_ref() == Some(final_edges);
                if same {
                    Ok(())
                } else {
                    Err(format!("trajectory differs from round_robin: {line}"))
                }
            }
            _ => Err("oracle/task mismatch".into()),
        }
    }

    /// Checks an in-process answer (sweep rows, replays) against
    /// the one-shot run.
    pub fn verify_answer(&self, got: &Expect) -> Result<(), String> {
        if got == self.expected() {
            Ok(())
        } else {
            Err(format!(
                "{} answer differs from one-shot: {got:?}",
                self.group.label()
            ))
        }
    }

    /// The oracle's own witness must replay.
    fn replay_oracle(&self) -> Result<(), String> {
        match self.expected() {
            Expect::Verdict {
                witness: Some(w), ..
            } => self.replay(w),
            _ => Ok(()),
        }
    }

    fn replay(&self, witness: &Move) -> Result<(), String> {
        match move_improves_all(&self.graph, self.alpha(), witness) {
            Ok(true) => Ok(()),
            Ok(false) => Err(format!("witness {witness:?} does not improve its movers")),
            Err(e) => Err(format!("witness {witness:?} does not apply: {e}")),
        }
    }
}

pub fn expect_of(verdict: &Verdict) -> Expect {
    match verdict {
        Verdict::Stable { evals, .. } => Expect::Verdict {
            stable: true,
            witness: None,
            evals: *evals,
        },
        Verdict::Unstable { witness, evals, .. } => Expect::Verdict {
            stable: false,
            witness: Some(witness.clone()),
            evals: *evals,
        },
        Verdict::Exhausted { .. } => panic!("unbudgeted checks never exhaust"),
    }
}

fn int(k: usize) -> Alpha {
    Alpha::integer(k as i64).expect("positive α")
}

fn half() -> Alpha {
    Alpha::from_ratio(1, 2).expect("α = 1/2")
}

/// A uniformly random labeled tree on `n` nodes (Prüfer decoding).
pub fn random_tree(n: usize, rng: &mut Rng) -> Graph {
    let seq: Vec<u32> = (0..n - 2).map(|_| rng.below(n) as u32).collect();
    generators::tree_from_pruefer(n, &seq)
}

/// A random tree plus each non-edge with probability `p`: connected by
/// construction.
fn random_connected(n: usize, p: f64, rng: &mut Rng) -> Graph {
    let mut g = random_tree(n, rng);
    for u in 0..n as u32 {
        for v in u + 1..n as u32 {
            if !g.has_edge(u, v) && rng.unit() < p {
                g.add_edge(u, v).expect("fresh non-edge");
            }
        }
    }
    g
}

/// The heavy catalog, stratified by family and size so its cost mix is
/// the same for every seed:
/// - BNE on trees, n 12–16, α = n (12 per n);
/// - 2-BSE on trees, n 12–20, α = n² (6 per n);
/// - 3-BSE on trees, n 10–12, α = n² (10 per n);
/// - BSE on star(8) at α = 8 (stable) and C8 at α = 2
///   (unstable), 12 each — families whose BSE cost does not depend on
///   the labeling (BSE on arbitrary 8-node trees ranges over 10⁴×);
/// - round-robin trajectories on paths, n 9–12,
///   α ∈ {2, 4, n} (2 each).
pub fn heavy(rng: &mut Rng) -> Vec<Instance> {
    let mut out = Vec::new();
    for n in 12..=16 {
        for _ in 0..12 {
            out.push(Instance::check(
                Group::Bne,
                random_tree(n, rng),
                Concept::Bne,
                int(n),
            ));
        }
    }
    for n in 12..=20 {
        for _ in 0..6 {
            let g = random_tree(n, rng);
            out.push(Instance::check(
                Group::Kbse2,
                g,
                Concept::KBse(2),
                int(n * n),
            ));
        }
    }
    for n in 10..=12 {
        for _ in 0..10 {
            let g = random_tree(n, rng);
            out.push(Instance::check(
                Group::Kbse3,
                g,
                Concept::KBse(3),
                int(n * n),
            ));
        }
    }
    for _ in 0..12 {
        out.push(Instance::check(
            Group::Bse,
            generators::star(8),
            Concept::Bse,
            int(8),
        ));
        out.push(Instance::check(
            Group::Bse,
            generators::cycle(8),
            Concept::Bse,
            int(2),
        ));
    }
    for n in 9..=12 {
        for alpha in [int(2), int(4), int(n)] {
            for _ in 0..2 {
                out.push(Instance {
                    group: Group::Traj,
                    graph: generators::path(n),
                    task: Task::Trajectory { alpha },
                    expect: None,
                });
            }
        }
    }
    out
}

/// Atlas hits: connected graphs on 5–8 nodes, PS or BNE, α ∈ {1/2, 2, n}
/// — every one is stored in the n ≤ 8 corpus.
pub fn atlas_hits(rng: &mut Rng, count: usize) -> Vec<Instance> {
    (0..count)
        .map(|i| {
            let n = 5 + i % 4;
            let g = random_connected(n, 0.25, rng);
            let concept = [Concept::Ps, Concept::Bne][rng.below(2)];
            let alpha = [half(), int(2), int(n)][rng.below(3)];
            Instance::check(Group::Atlas, g, concept, alpha)
        })
        .collect()
}

/// One sweep row: a polynomial concept on one random tree over the α
/// grid {1/2, 2, n}.
pub fn poly_row(n: usize, concept: Concept, rng: &mut Rng) -> Vec<Instance> {
    let g = random_tree(n, rng);
    [half(), int(2), int(n)]
        .into_iter()
        .map(|alpha| Instance::check(Group::Poly, g.clone(), concept, alpha))
        .collect()
}

/// Polynomial checks (PS, BSwE, BGE) on random trees with the given
/// sizes (cycled), α ∈ {1/2, 2, n}.
pub fn poly(rng: &mut Rng, sizes: &[usize], count: usize) -> Vec<Instance> {
    (0..count)
        .map(|i| {
            let n = sizes[i % sizes.len()];
            let concept = [Concept::Ps, Concept::Bswe, Concept::Bge][(i / sizes.len()) % 3];
            let alpha = [half(), int(2), int(n)][rng.below(3)];
            Instance::check(Group::Poly, random_tree(n, rng), concept, alpha)
        })
        .collect()
}

/// Large unmetered polynomial checks: BSwE and BGE on a randomly
/// labeled star(256), α ∈ {2, 256}. Each runs in one unmetered slice.
pub fn big_poly() -> Vec<Instance> {
    let mut out = Vec::new();
    for concept in [Concept::Bswe, Concept::Bge] {
        for alpha in [int(2), int(256)] {
            out.push(Instance::check(
                Group::Poly,
                generators::star(256),
                concept,
                alpha,
            ));
        }
    }
    out
}
