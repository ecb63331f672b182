//! `solver_sweep`: one in-process thread walks seeded sweep rows with no
//! daemon. A row is one instance and concept over its α grid; n ≤ 8
//! rows consult the atlas first, as the analysis sweeps do, and
//! everything else is a one-shot `Solver::check` (or a round-robin
//! trajectory).

use crate::catalog::{self, Expect, Group, Instance, Task};
use crate::util::{fnv1a, ms, process_cpu, Cuts, Rng, Span, SpanLog, FNV_OFFSET};
use crate::wire::HEAVY_MIX;
use crate::{Samples, Summary};
use bncg_atlas::DynAtlas;
use bncg_core::{Concept, ExecPolicy, Solver, StabilityQuery};
use std::time::{Duration, Instant};

/// Share of sweep rows in the light class.
pub const SWEEP_LIGHT: f64 = 0.6;

/// What a row step answered: a stored verdict or a live one.
enum Answer {
    Atlas(bool),
    Live(Expect),
}

pub struct Sweep {
    pub instances: Vec<Instance>,
    /// Each row: the instance indices of its α grid.
    rows: Vec<Vec<usize>>,
    heavy: Vec<(Group, Vec<usize>)>,
    light: Vec<usize>,
}

struct RowRun {
    row: usize,
    start: Instant,
    end: Instant,
    answers: Vec<(usize, Answer)>,
}

/// One sweep phase.
pub struct SweepPhase {
    runs: Vec<RowRun>,
    cuts: Cuts,
    pub lookups: u64,
    pub hits: u64,
}

impl Sweep {
    pub fn new(rng: &mut Rng) -> Sweep {
        let shapes = &mut Rng::new(catalog::SHAPE_SEED);
        let mut instances = catalog::heavy(shapes);
        let mut rows: Vec<Vec<usize>> = (0..instances.len()).map(|i| vec![i]).collect();
        let heavy = HEAVY_MIX
            .iter()
            .map(|(g, _)| {
                (
                    *g,
                    (0..instances.len())
                        .filter(|&i| instances[i].group == *g)
                        .collect(),
                )
            })
            .collect();
        let mut light = Vec::new();
        for n in [64, 128, 192, 256] {
            for concept in [Concept::Ps, Concept::Bswe, Concept::Bge] {
                for _ in 0..3 {
                    let start = instances.len();
                    instances.extend(catalog::poly_row(n, concept, shapes));
                    light.push(rows.len());
                    rows.push((start..instances.len()).collect());
                }
            }
        }
        catalog::relabel(&mut instances, rng);
        Sweep {
            instances,
            rows,
            heavy,
            light,
        }
    }

    /// The seeded row sequence and its hash.
    pub fn plan(&self, rng: &mut Rng, count: usize) -> (Vec<usize>, u64) {
        let weights: Vec<f64> = HEAVY_MIX.iter().map(|(_, w)| *w).collect();
        let seq: Vec<usize> = (0..count)
            .map(|_| {
                if rng.unit() < SWEEP_LIGHT {
                    self.light[rng.below(self.light.len())]
                } else {
                    let pool = &self.heavy[rng.weighted(&weights)].1;
                    pool[rng.below(pool.len())]
                }
            })
            .collect();
        let hash = seq.iter().fold(FNV_OFFSET, |h, r| {
            let row = &self.rows[*r];
            row.iter().fold(h, |h, &i| {
                let inst = &self.instances[i];
                let text = format!(
                    "{}|{:?}|{:?}",
                    inst.group.label(),
                    inst.task,
                    inst.graph.edges().collect::<Vec<_>>()
                );
                fnv1a(h, text.as_bytes())
            })
        });
        (seq, hash)
    }

    fn light(&self, row: usize) -> bool {
        self.instances[self.rows[row][0]].group.light()
    }

    /// Walks `seq` for `warmup` then `window`; with `spans`, records a
    /// span per row and per layer call.
    pub fn run(
        &self,
        atlas: &DynAtlas,
        seq: &[usize],
        warmup: Duration,
        window: Duration,
        mut spans: Option<&mut SpanLog>,
    ) -> SweepPhase {
        let solver = Solver::new(ExecPolicy::default().with_threads(1));
        let mut cuts = Cuts::new(Instant::now(), warmup, window);
        let (mut lookups, mut hits) = (0, 0);
        let mut runs = Vec::new();
        for &row in seq.iter().cycle() {
            let now = Instant::now();
            if now < cuts.warm {
                // Count atlas consults of the measured window only.
                lookups = 0;
                hits = 0;
            }
            cuts.observe(now, process_cpu);
            if now >= cuts.end {
                break;
            }
            let row_span = spans.as_deref_mut().map(|s| {
                s.push(Span {
                    name: "sweep.row",
                    start: now,
                    end: now,
                    parent: None,
                    req: runs.len() as u64,
                })
            });
            let mut answers = Vec::with_capacity(self.rows[row].len());
            for &i in &self.rows[row] {
                let inst = &self.instances[i];
                let step = Instant::now();
                let (name, answer) = match inst.task {
                    Task::Check { concept, alpha } => {
                        let stored = if inst.graph.n() <= 8 {
                            lookups += 1;
                            atlas
                                .lookup(&inst.graph, concept, alpha)
                                .ok()
                                .flatten()
                                .and_then(|h| h.record.verdict.is_stable())
                        } else {
                            None
                        };
                        match stored {
                            Some(stable) => {
                                hits += 1;
                                ("atlas.lookup", Answer::Atlas(stable))
                            }
                            None => {
                                let v = solver
                                    .check(&StabilityQuery::new(concept, &inst.graph, alpha))
                                    .expect("catalog instances are within every structural limit");
                                ("solver.check", Answer::Live(catalog::expect_of(&v)))
                            }
                        }
                    }
                    Task::Trajectory { .. } => {
                        ("dynamics.trajectory", Answer::Live(inst.run_one_shot()))
                    }
                };
                if let Some(s) = spans.as_deref_mut() {
                    s.push(Span {
                        name,
                        start: step,
                        end: Instant::now(),
                        parent: row_span,
                        req: runs.len() as u64,
                    });
                }
                answers.push((i, answer));
            }
            let done = Instant::now();
            if let (Some(s), Some(idx)) = (spans.as_deref_mut(), row_span) {
                s.finish(idx, done);
            }
            runs.push(RowRun {
                row,
                start: now,
                end: done,
                answers,
            });
        }
        SweepPhase {
            runs,
            cuts,
            lookups,
            hits,
        }
    }

    fn check(&self, run: &RowRun) -> Result<(), String> {
        for (i, answer) in &run.answers {
            let inst = &self.instances[*i];
            match answer {
                Answer::Live(got) => inst.verify_answer(got)?,
                Answer::Atlas(stable) => match inst.expect {
                    Some(Expect::Verdict { stable: want, .. }) if want == *stable => {}
                    _ => {
                        return Err(format!(
                            "atlas verdict differs from one-shot for {}",
                            inst.group.label()
                        ))
                    }
                },
            }
        }
        Ok(())
    }

    /// End-to-end numbers of one phase.
    pub fn summarize(&self, phase: &SweepPhase) -> Summary {
        let (mut attempted, mut failed, mut error) = (0, 0, None);
        let mut s = Samples::default();
        for run in &phase.runs {
            let sub = phase.cuts.index(run.start);
            let in_window = sub.is_some();
            match self.check(run) {
                Ok(()) => {
                    if let Some(sub) = sub {
                        s.push(sub, self.light(run.row), ms(run.end - run.start));
                    }
                }
                Err(e) => {
                    failed += u64::from(in_window);
                    error.get_or_insert(e);
                }
            }
            attempted += u64::from(in_window);
        }
        // A closed loop in one thread: every row is sent the moment the
        // previous one returns, so the generator is never late.
        s.lag.push(0.0);
        Summary::new(attempted, failed, error, &phase.cuts, s)
    }

    /// Distinct instances a phase walked.
    pub fn used(&self, phase: &SweepPhase) -> Vec<usize> {
        let mut rows: Vec<usize> = phase.runs.iter().map(|r| r.row).collect();
        rows.sort_unstable();
        rows.dedup();
        rows.iter()
            .flat_map(|&r| self.rows[r].iter().copied())
            .collect()
    }
}
