//! Closed-loop serving rounds through `pfmm_serve::run_sim`, with the
//! serve-side output checks.

use std::collections::BTreeMap;
use std::sync::Arc;

use pfmm_core::Fmm;
use pfmm_mpisim::run;
use pfmm_serve::{
    densities, run_sim, Arrival, ObsConfig, ServeReport, ServiceConfig, SimConfig, Workload,
    WorkloadConfig, TID_REQ_BASE,
};
use pfmm_trace::{TraceLevel, Tracer};

use crate::spans::Rec;

/// Points per geometry.
pub const N_POINTS: usize = 20_000;
/// Requests per `run_sim` round.
const REQUESTS: usize = 48;
/// Requests per round whose potentials are re-derived by a plain
/// `plan` + `apply` and compared bitwise.
const CHECKS_PER_ROUND: usize = 3;

/// The workload seed of round `i` of a run seeded `seed`.
pub fn round_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i)
}

/// The round's simulator settings: closed loop, concurrency 2, two
/// workers, two hot geometries plus 10% cold, no deadline, shedding
/// watermarks far above the offered backlog.
fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        workload: WorkloadConfig {
            seed,
            requests: REQUESTS,
            n_points: N_POINTS,
            hot_geometries: 2,
            cold_fraction: 0.10,
            arrival: Arrival::Closed { concurrency: 2 },
            deadline_us: 0,
            priority_levels: 3,
        },
        service: ServiceConfig {
            workers: 2,
            shed_high_us: 600_000_000,
            shed_low_us: 300_000_000,
            ..ServiceConfig::default()
        },
        cache_budget_bytes: 256 << 20,
        keep_potentials: true,
        obs: ObsConfig::default(),
    }
}

/// One round's outcome.
pub struct Round {
    pub report: ServeReport,
    /// Requests offered.
    pub offered: u64,
    /// Per completed request: (sojourn, queue wait, execute), s.
    pub lifecycle: Vec<[f64; 3]>,
    /// Sampled requests compared bitwise, and how many differed.
    pub checked: usize,
    pub mismatched: usize,
}

impl Round {
    /// Offered requests that did not complete on time and bit-exact:
    /// rejections, deadline misses, lost requests, bitwise mismatches.
    pub fn failed(&self) -> u64 {
        let r = &self.report;
        let lost = self.offered.abs_diff(r.completed + r.rejected());
        r.rejected() + r.deadline_violations + lost + self.mismatched as u64
    }
}

/// Per-request lifecycle times read off the request lanes `run_sim`
/// records: arrive → done, arrive → flush, exec start → done.
fn lifecycle(tracer: &Tracer) -> Vec<[f64; 3]> {
    let spans = pfmm_trace::metrics::spans(&tracer.drain());
    let mut by_req: BTreeMap<u32, [f64; 4]> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.tid >= TID_REQ_BASE) {
        let e = by_req.entry(s.tid).or_insert([f64::NAN; 4]);
        match s.name.as_str() {
            "queue-wait" => {
                e[0] = s.t0_us;
                e[1] = s.t1_us;
            }
            "execute" => {
                e[2] = s.t0_us;
                e[3] = s.t1_us;
            }
            _ => {}
        }
    }
    by_req
        .values()
        .filter(|t| t.iter().all(|v| v.is_finite()))
        .map(|t| {
            [
                (t[3] - t[0]) * 1e-6,
                (t[1] - t[0]) * 1e-6,
                (t[3] - t[2]) * 1e-6,
            ]
        })
        .collect()
}

/// Run one round and check it: the accounting identity, and a sample
/// of request potentials bitwise against a plain `plan` + `apply` of
/// the same geometry and density seed.
pub fn round(fmm: &Arc<Fmm>, seed: u64, rec: &Rec) -> Round {
    let cfg = sim_config(seed);
    let wcfg = cfg.workload.clone();
    let name = fmm.kernel().name();
    // The request lanes are how sojourn times are read exactly; the
    // report's histograms are log-bucketed.
    let tracer = Arc::new(Tracer::new(TraceLevel::Phase));
    let report = rec.span(0, "run_sim", || {
        run_sim(Arc::clone(fmm), name, cfg, Arc::clone(&tracer))
    });
    let lifecycle = lifecycle(&tracer);

    let workload = Workload::generate(wcfg, fmm, name);
    let pots = report.potentials.as_ref().expect("potentials kept");
    // The first requests and the first cold one (if any) are sampled.
    let mut ids: Vec<usize> = (0..CHECKS_PER_ROUND.min(workload.specs.len()) - 1).collect();
    let cold = workload.specs.iter().position(|s| s.geom >= 2);
    ids.push(cold.unwrap_or(CHECKS_PER_ROUND - 1));
    let sd = fmm.kernel().source_dim();
    let mut mismatched = 0;
    for &id in &ids {
        let spec = &workload.specs[id];
        let pts = workload.geometries[spec.geom].clone();
        let want = run(1, |c| {
            let mut plan = fmm.plan(c, pts.clone());
            let den = densities(&plan, sd, spec.density_seed);
            fmm.apply(c, &mut plan, &den).0
        })
        .pop()
        .expect("one rank");
        // A rejected request has no potentials; it is already counted.
        if let Some(got) = pots.get(&(id as u64)) {
            let same = got.len() == want.len()
                && got
                    .iter()
                    .zip(&want)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            mismatched += usize::from(!same);
        }
    }
    Round {
        offered: REQUESTS as u64,
        lifecycle,
        checked: ids.len(),
        mismatched,
        report,
    }
}
