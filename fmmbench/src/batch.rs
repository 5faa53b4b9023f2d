//! One plan-then-apply pass through the public `pfmm-core` API: a cold
//! setup (`Fmm::new` + `Fmm::plan`), a first apply that builds the
//! workspace, then rounds of more cold setups and warm
//! `Fmm::apply_into` calls, each apply checked bitwise against the
//! first. Also the per-stage tree probe that calls the `pfmm-tree`
//! stages directly.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use pfmm_core::{Fmm, FmmConfig, FmmPlan, Phase, Profile};
use pfmm_kernels::Kernel;
use pfmm_mpisim::collectives::{allreduce_max_f64, barrier};
use pfmm_mpisim::{run, CollectiveKind};
use pfmm_tree::lists::leaf_weights;
use pfmm_tree::{
    build_let_with, build_lists_with, octree_from_sorted_with, repartition_by_weight,
    sample_sort_points_with, ListStats, PointRec, SetupPar, TreeStats,
};

use crate::alloc;
use crate::spans::Rec;
use crate::stats::median;

/// Tree-probe repetitions per traced pass.
const PROBE_REPS: usize = 3;
/// Upper bound on warm applies per round.
const MAX_ROUND_APPLIES: usize = 400;
/// Target length of one round, s: a pass of `seconds` runs
/// `ceil(seconds / ROUND_S)` rounds (at least 2).
const ROUND_S: f64 = 5.0;

/// What is evaluated, on how many simulated ranks × threads, and how a
/// pass spreads its samples over its run.
pub struct Case {
    pub kernel: Arc<dyn Kernel>,
    pub order: usize,
    pub q: usize,
    pub ranks: usize,
    pub threads: usize,
    /// Cold setups per round; `setup_s` is the median of these and the
    /// pass's first setup.
    pub setups: usize,
    /// Warm applies per round at the least.
    pub min_applies: usize,
}

impl Case {
    pub fn config(&self) -> FmmConfig {
        FmmConfig {
            order: self.order,
            q: self.q,
            threads: self.threads,
            ..Default::default()
        }
    }

    /// The setup parallelism `Fmm::plan` uses under the default
    /// parallel setup mode (threads clamped to the host).
    fn setup_par(&self) -> SetupPar {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        SetupPar::Threads(self.threads.clamp(1, hw))
    }

    /// Round-robin split of the points over the ranks.
    pub fn split(&self, pts: &[PointRec]) -> Vec<Vec<PointRec>> {
        (0..self.ranks)
            .map(|r| pts.iter().skip(r).step_by(self.ranks).copied().collect())
            .collect()
    }
}

/// Everything one pass measured.
pub struct Pass {
    /// Per cold setup: `Fmm::new` + max-over-ranks `Fmm::plan`, s.
    pub setup_s: Vec<f64>,
    /// Per warm apply: max over ranks of the externally timed call, s.
    pub apply_s: Vec<f64>,
    /// `[rank][apply]` externally timed warm applies, s.
    pub rank_apply_s: Vec<Vec<f64>>,
    /// `[rank][apply]` profiles returned by the warm applies.
    pub profiles: Vec<Vec<Profile>>,
    /// Warm applies per round, so a traced pass can replay the pass.
    pub rounds: Vec<usize>,
    /// Summed over rounds, the slowest rank's wall time of the round's
    /// warm applies, s.
    pub loop_s: f64,
    /// Wall time of the whole pass, s.
    pub pass_s: f64,
    /// `FmmPlan::memory_bytes` after the first apply, summed over ranks.
    pub plan_bytes: usize,
    /// Process-wide heap allocations over rank 0's warm-apply windows.
    pub allocs: u64,
    /// Messages, payload bytes and hypercube-reduce bytes sent by the
    /// warm applies, summed over ranks (barrier traffic excluded).
    pub comm: [u64; 3],
    /// Warm applies checked bitwise against their set's reference.
    pub checked: usize,
    /// Of those, applies whose potentials differ on any rank.
    pub mismatches: usize,
    /// Per density set, the reference potentials as `(gid, potential)`.
    pub results: Vec<Vec<(u64, Vec<f64>)>>,
}

impl Pass {
    /// Warm applies timed.
    pub fn warm(&self) -> usize {
        self.apply_s.len()
    }
}

/// One rank's plan, densities, references and measurements.
struct RankState {
    plan: FmmPlan,
    /// Per density set, this rank's densities in owned-gid order.
    dens: Vec<Vec<f64>>,
    /// Per density set, the potentials of the set's first apply: the
    /// reference later applies of the set are checked against.
    refs: Vec<Option<Vec<f64>>>,
    out: Vec<f64>,
    walls: Vec<f64>,
    profs: Vec<Profile>,
    mismatch: Vec<bool>,
    allocs: u64,
    comm: [u64; 3],
}

fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One cold setup: a new `Fmm` (empty operator caches) and
/// `Fmm::plan` on every rank. Returns `Fmm::new` + the slowest rank's
/// `Fmm::plan` seconds, the `Fmm` and the per-rank plans.
fn cold_setup(case: &Case, parts: &[Vec<PointRec>], rec: &Rec) -> (f64, Fmm, Vec<FmmPlan>) {
    rec.span(0, "setup", || {
        let t = Instant::now();
        let fmm = rec.span(0, "Fmm::new", || {
            Fmm::new(case.kernel.clone(), case.config())
        });
        let new_s = t.elapsed().as_secs_f64();
        let parent = rec.current();
        let built = run(case.ranks, |c| {
            rec.under(parent, || {
                let mine = parts[c.rank()].clone();
                barrier(c);
                let t = Instant::now();
                let plan = rec.span(c.rank(), "Fmm::plan", || fmm.plan(c, mine));
                (t.elapsed().as_secs_f64(), plan)
            })
        });
        let plan_s = built.iter().map(|b| b.0).fold(0.0, f64::max);
        let plans = built.into_iter().map(|b| b.1).collect();
        (new_s + plan_s, fmm, plans)
    })
}

/// A pass in progress: the first setup's `Fmm` and plans, which every
/// warm apply reuses, and what has been measured so far.
struct Runner<'a> {
    case: &'a Case,
    parts: &'a [Vec<PointRec>],
    fmm: Fmm,
    ranks: Vec<Mutex<RankState>>,
    /// Slowest rank's mean wall time per apply in the last round (the
    /// first apply before any round), s; sizes the next round.
    apply_est_s: f64,
    setup_s: Vec<f64>,
    rounds: Vec<usize>,
    loop_s: f64,
    plan_bytes: usize,
}

impl<'a> Runner<'a> {
    /// First cold setup, then the first apply of density set 0: it
    /// builds the plan-owned workspace and gives set 0's reference.
    fn start(
        case: &'a Case,
        sets: &[Vec<[f64; 3]>],
        parts: &'a [Vec<PointRec>],
        rec: &Rec,
    ) -> Self {
        let (secs, fmm, plans) = cold_setup(case, parts, rec);
        let slots: Vec<Mutex<Option<FmmPlan>>> =
            plans.into_iter().map(|p| Mutex::new(Some(p))).collect();
        let sd = case.kernel.source_dim();
        let started = run(case.ranks, |c| {
            let r = c.rank();
            let mut plan = slots[r]
                .lock()
                .expect("plan slot")
                .take()
                .expect("one plan per rank");
            let dens: Vec<Vec<f64>> = sets
                .iter()
                .map(|set| {
                    plan.owned_gids()
                        .iter()
                        .flat_map(|&g| set[g as usize][..sd].iter().copied())
                        .collect()
                })
                .collect();
            let mut out = Vec::new();
            barrier(c);
            let t = Instant::now();
            rec.span(r, "apply_into", || {
                fmm.apply_into(c, &mut plan, &dens[0], &mut out)
            });
            let first = allreduce_max_f64(c, t.elapsed().as_secs_f64());
            let plan_bytes = plan.memory_bytes();
            let mut refs = vec![None; dens.len()];
            refs[0] = Some(out.clone());
            let state = RankState {
                plan,
                dens,
                refs,
                out,
                walls: Vec::new(),
                profs: Vec::new(),
                mismatch: Vec::new(),
                allocs: 0,
                comm: [0; 3],
            };
            (first, plan_bytes, state)
        });
        Runner {
            case,
            parts,
            fmm,
            apply_est_s: started[0].0,
            plan_bytes: started.iter().map(|s| s.1).sum(),
            ranks: started.into_iter().map(|s| Mutex::new(s.2)).collect(),
            setup_s: vec![secs],
            rounds: Vec::new(),
            loop_s: 0.0,
        }
    }

    /// One more cold setup, timed and then dropped.
    fn setup(&mut self, rec: &Rec) {
        let (secs, ..) = cold_setup(self.case, self.parts, rec);
        self.setup_s.push(secs);
    }

    /// `n` warm applies on every rank, cycling through the density sets
    /// from set 1. A set's first apply gives its reference; every later
    /// one is checked bitwise against it.
    fn applies(&mut self, n: usize, rec: &Rec) {
        let fmm = &self.fmm;
        let loops = run(self.case.ranks, |c| {
            let r = c.rank();
            let mut guard = self.ranks[r].lock().expect("rank state");
            let st = &mut *guard;
            // Comm counters are read outside the counted window.
            let s0 = c.stats();
            barrier(c);
            let a0 = alloc::count();
            let t_loop = Instant::now();
            for _ in 0..n {
                let k = (st.walls.len() + 1) % st.dens.len();
                let t = Instant::now();
                let prof = rec.span(r, "apply_into", || {
                    fmm.apply_into(c, &mut st.plan, &st.dens[k], &mut st.out)
                });
                st.walls.push(t.elapsed().as_secs_f64());
                st.profs.push(prof);
                match &st.refs[k] {
                    Some(want) => st.mismatch.push(!bitwise_eq(&st.out, want)),
                    None => st.refs[k] = Some(st.out.clone()),
                }
            }
            let loop_s = t_loop.elapsed().as_secs_f64();
            st.allocs += alloc::count() - a0;
            barrier(c);
            // The benchmark's own barriers are excluded.
            let d = c.stats().delta_since(&s0);
            let sent = |keep: &dyn Fn(CollectiveKind) -> bool| {
                d.by_peer
                    .iter()
                    .filter(|((_, kind), _)| keep(*kind))
                    .fold([0, 0], |[m, b], (_, s)| [m + s.sent_msgs, b + s.sent_bytes])
            };
            let [msgs, bytes] = sent(&|k| k != CollectiveKind::Barrier);
            let [_, reduce_bytes] = sent(&|k| k == CollectiveKind::HypercubeReduce);
            for (acc, v) in st.comm.iter_mut().zip([msgs, bytes, reduce_bytes]) {
                *acc += v;
            }
            loop_s
        });
        let slowest = loops.into_iter().fold(0.0, f64::max);
        self.loop_s += slowest;
        if n > 0 {
            self.apply_est_s = slowest / n as f64;
        }
        self.rounds.push(n);
    }

    fn finish(self, pass_s: f64) -> Pass {
        let td = self.case.kernel.target_dim();
        let outs: Vec<RankState> = self
            .ranks
            .into_iter()
            .map(|m| m.into_inner().expect("rank state"))
            .collect();
        let n = outs[0].walls.len();
        let apply_s = (0..n)
            .map(|i| outs.iter().map(|o| o.walls[i]).fold(0.0, f64::max))
            .collect();
        let checked = outs[0].mismatch.len();
        let mismatches = (0..checked)
            .filter(|&i| outs.iter().any(|o| o.mismatch[i]))
            .count();
        let mut comm = [0u64; 3];
        for o in &outs {
            for (acc, v) in comm.iter_mut().zip(o.comm) {
                *acc += v;
            }
        }
        let results = (0..outs[0].refs.len())
            .map(|k| {
                outs.iter()
                    .flat_map(|o| {
                        o.plan
                            .owned_gids()
                            .iter()
                            .zip(o.refs[k].as_deref().expect("every set applied").chunks(td))
                            .map(|(g, v)| (*g, v.to_vec()))
                    })
                    .collect()
            })
            .collect();
        let allocs = outs[0].allocs;
        let (rank_apply_s, profiles) = outs.into_iter().map(|o| (o.walls, o.profs)).unzip();
        Pass {
            setup_s: self.setup_s,
            apply_s,
            rank_apply_s,
            profiles,
            rounds: self.rounds,
            loop_s: self.loop_s,
            pass_s,
            plan_bytes: self.plan_bytes,
            allocs,
            comm,
            checked,
            mismatches,
            results,
        }
    }
}

/// Run one pass. `sets` holds density sets, each indexed by gid. After
/// the start (first setup and first apply) the pass runs rounds of: `interlude(round)`, `case.setups` cold setups, then warm
/// applies. The rounds spread every kind of sample over the whole run,
/// so a stretch of host noise moves a few samples of each and the
/// medians stay put. Without `replay`, each round's applies fill its
/// share of `seconds` (at least `case.min_applies`, and the last round
/// enough for every density set to be applied); with it, round `k` runs
/// exactly `replay[k]` applies.
pub fn pass(
    case: &Case,
    sets: &[Vec<[f64; 3]>],
    parts: &[Vec<PointRec>],
    seconds: f64,
    replay: Option<&[usize]>,
    rec: &Rec,
    mut interlude: impl FnMut(usize),
) -> Pass {
    let t_pass = Instant::now();
    let mut runner = Runner::start(case, sets, parts, rec);
    let rounds = replay.map_or_else(
        || ((seconds / ROUND_S).ceil() as usize).max(2),
        <[usize]>::len,
    );
    let t0 = Instant::now();
    let mut done = 0;
    for k in 0..rounds {
        interlude(k);
        for _ in 0..case.setups {
            runner.setup(rec);
        }
        let n = match replay {
            Some(counts) => counts[k],
            None => {
                let end = seconds * (k + 1) as f64 / rounds as f64;
                let left = end - t0.elapsed().as_secs_f64();
                let n = ((left / runner.apply_est_s).round().max(0.0) as usize)
                    .clamp(case.min_applies, MAX_ROUND_APPLIES);
                if k + 1 == rounds {
                    n.max((sets.len() - 1).saturating_sub(done))
                } else {
                    n
                }
            }
        };
        runner.applies(n, rec);
        done += n;
    }
    runner.finish(t_pass.elapsed().as_secs_f64())
}

/// Phases reported per apply, with their metric-name stems.
const PHASES: [(Phase, &str); 7] = [
    (Phase::Upward, "upward"),
    (Phase::UList, "ulist"),
    (Phase::VList, "vlist"),
    (Phase::WList, "wlist"),
    (Phase::XList, "xlist"),
    (Phase::Downward, "downward"),
    (Phase::Comm, "comm"),
];

/// Per-phase breakdown of a pass's warm applies.
pub struct PhaseRow {
    pub stem: &'static str,
    /// Median over applies of the slowest rank's phase seconds.
    pub secs: f64,
    /// Phase flops of one apply, summed over ranks, in Gflop.
    pub gflop: f64,
}

impl Pass {
    pub fn phase_rows(&self) -> Vec<PhaseRow> {
        PHASES
            .iter()
            .map(|&(ph, stem)| {
                let per_apply: Vec<f64> = (0..self.warm())
                    .map(|i| {
                        self.profiles
                            .iter()
                            .map(|p| p[i].secs(ph))
                            .fold(0.0, f64::max)
                    })
                    .collect();
                PhaseRow {
                    stem,
                    secs: median(&per_apply),
                    gflop: self.profiles.iter().map(|p| p[0].flops(ph)).sum::<u64>() as f64 * 1e-9,
                }
            })
            .collect()
    }

    /// Per apply, on the slowest rank: externally timed wall minus the
    /// sum of the profile's phase seconds (scatter, ghost copies and
    /// gather that no phase timer covers). Returns the median and the
    /// number of applies whose phase sum exceeded the wall by more than
    /// timer resolution (double counting across threads).
    pub fn unaccounted(&self) -> (f64, usize) {
        const RESOLUTION_S: f64 = 50e-6;
        let mut other = Vec::with_capacity(self.warm());
        let mut over = 0;
        for i in 0..self.warm() {
            let r = (0..self.rank_apply_s.len())
                .max_by(|&a, &b| self.rank_apply_s[a][i].total_cmp(&self.rank_apply_s[b][i]))
                .expect("at least one rank");
            let wall = self.rank_apply_s[r][i];
            let phases: f64 = Phase::ALL
                .iter()
                .map(|&p| self.profiles[r][i].secs(p))
                .sum();
            if phases > wall + RESOLUTION_S {
                over += 1;
            }
            other.push(wall - phases);
        }
        (median(&other), over)
    }

    /// Median over applies of max/mean rank apply wall time.
    pub fn imbalance(&self) -> f64 {
        let p = self.rank_apply_s.len() as f64;
        let per: Vec<f64> = (0..self.warm())
            .map(|i| {
                let w: Vec<f64> = self.rank_apply_s.iter().map(|r| r[i]).collect();
                w.iter().copied().fold(0.0, f64::max) / (w.iter().sum::<f64>() / p)
            })
            .collect();
        median(&per)
    }
}

/// Shape counts of the final tree and lists, summed over ranks.
#[derive(Default)]
pub struct Shape {
    pub leaves: usize,
    pub octants: usize,
    pub depth_span: u32,
    pub lists: [usize; 4],
    pub direct_pairs: u64,
}

/// Names of the setup stages the probe times, in pipeline order.
pub const STAGES: [&str; 5] = [
    "tree.sort",
    "tree.octree",
    "tree.let",
    "tree.lists",
    "tree.repartition",
];

/// Run the `Fmm::plan` setup pipeline stage by stage through the
/// `pfmm-tree` API, each stage under its own span, `PROBE_REPS` times.
/// With more than one rank the load balancer runs as in `Fmm::plan`
/// (leaf weights + repartition, then the LET and lists again). Stage
/// times are read back from the span tree by [`stage_secs`].
pub fn tree_probe(case: &Case, parts: &[Vec<PointRec>], rec: &Rec) -> Shape {
    let par = case.setup_par();
    let parent = rec.current();
    let per_rank = run(case.ranks, |c| {
        rec.under(parent, || {
            let r = c.rank();
            let mut last = None;
            for _ in 0..PROBE_REPS {
                let mine = parts[r].clone();
                barrier(c);
                last = Some(rec.span(r, "tree.probe", || {
                    let (sorted, region) =
                        rec.span(r, "tree.sort", || sample_sort_points_with(c, mine, par));
                    let mut tree = rec.span(r, "tree.octree", || {
                        octree_from_sorted_with(c, sorted, region, case.q, par)
                    });
                    let mut l = rec.span(r, "tree.let", || build_let_with(c, &tree, par));
                    let mut lists = rec.span(r, "tree.lists", || build_lists_with(&l, par));
                    if c.size() > 1 {
                        tree = rec.span(r, "tree.repartition", || {
                            let w = leaf_weights(&l, &lists);
                            repartition_by_weight(c, tree, &w)
                        });
                        l = rec.span(r, "tree.let", || build_let_with(c, &tree, par));
                        lists = rec.span(r, "tree.lists", || build_lists_with(&l, par));
                    }
                    (TreeStats::of(&l), ListStats::of(&l, &lists))
                }));
            }
            last.expect("at least one probe")
        })
    });
    let mut s = Shape::default();
    let (mut lo, mut hi) = (u32::MAX, 0u32);
    for (t, l) in &per_rank {
        s.leaves += t.owned_leaves;
        s.octants += t.octants;
        lo = lo.min(t.leaf_levels.0);
        hi = hi.max(t.leaf_levels.1);
        for (acc, v) in s.lists.iter_mut().zip([l.u.0, l.v.0, l.w.0, l.x.0]) {
            *acc += v;
        }
        s.direct_pairs += l.direct_pairs;
    }
    s.depth_span = hi.saturating_sub(lo);
    s
}

/// Per stage: the median over probe repetitions of the slowest rank's
/// summed self time in that stage's spans (children of `tree.probe`).
/// A stage that never ran reads 0.
pub fn stage_secs(rec: &Rec) -> Vec<(&'static str, f64)> {
    let spans = rec.spans();
    let own = rec.self_secs_by_id();
    let probes: Vec<_> = spans.iter().filter(|s| s.name == "tree.probe").collect();
    let ranks = probes
        .iter()
        .map(|p| p.rank)
        .max()
        .map_or(1, |m| m as usize + 1);
    let reps = probes.len() / ranks;
    STAGES
        .iter()
        .map(|&stage| {
            // Probe spans open in rep order on every rank.
            let mut per_rep = vec![0.0f64; reps];
            for rank in 0..ranks as u32 {
                let mine = probes.iter().filter(|p| p.rank == rank);
                for (rep, probe) in mine.enumerate().take(reps) {
                    let t: f64 = spans
                        .iter()
                        .filter(|s| s.parent == probe.id && s.name == stage)
                        .map(|s| own[&s.id])
                        .sum();
                    per_rep[rep] = per_rep[rep].max(t);
                }
            }
            (stage, median(&per_rep))
        })
        .collect()
}

/// Median over setups of the slowest rank's `Fmm::plan` span, s.
pub fn plan_span_secs(rec: &Rec) -> f64 {
    let spans = rec.spans();
    let per_setup: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "setup")
        .map(|setup| {
            spans
                .iter()
                .filter(|s| s.parent == setup.id && s.name == "Fmm::plan")
                .map(|s| s.secs())
                .fold(0.0, f64::max)
        })
        .collect();
    median(&per_setup)
}
