//! The repository benchmark: three fixed FMM workloads driven through
//! the public `pfmm` library API, printing absolute end-to-end metrics
//! (`--trace 0`) or per-layer metrics from a traced pass (`--trace 1`),
//! and checking every workload's outputs.
//!
//! ```text
//! cargo run --release --manifest-path fmmbench/Cargo.toml -- \
//!     --workload uniform_laplace_o6 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is
//! nonzero when an output check failed. See `METRICS.md` for every
//! metric's definition and source call.

mod alloc;
mod batch;
mod host;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::sync::Arc;

use pfmm_core::distrib::{ellipsoid_1_1_4, uniform_cube};
use pfmm_core::verify::sampled_rel_error;
use pfmm_core::Fmm;
use pfmm_kernels::{Laplace, Stokes};
use pfmm_serve::density_at;
use pfmm_tree::PointRec;

use batch::{Case, Pass};
use spans::Rec;
use stats::{median, tail};

#[global_allocator]
static COUNTING: alloc::Counting = alloc::Counting;

/// A fixed batch workload: points → plan once → warm applies.
struct BatchSpec {
    name: &'static str,
    n: usize,
    ellipsoid: bool,
    case: fn() -> Case,
    /// Accepted sampled relative error (upper edge of the band).
    err_band: f64,
}

/// Density sets per run: warm applies cycle through them and `rel_err`
/// is the median of their sampled errors.
const DENSITY_SETS: usize = 4;
/// Every `stride`-th point is checked against the direct sum.
const ERR_STRIDE: usize = 100;
const SERVE_ERR_STRIDE: usize = 20;
/// Order-4 Laplace band (DESIGN.md §6 records 1.5e-4 at order 4).
const SERVE_ERR_BAND: f64 = 5e-4;

const UNIFORM: BatchSpec = BatchSpec {
    name: "uniform_laplace_o6",
    n: 100_000,
    ellipsoid: false,
    case: || Case {
        kernel: Arc::new(Laplace),
        order: 6,
        q: 100,
        ranks: 1,
        threads: 2,
        setups: 1,
        min_applies: 1,
    },
    err_band: 1e-5,
};

const ELLIPSOID: BatchSpec = BatchSpec {
    name: "ellipsoid_stokes_o4_p2",
    n: 100_000,
    ellipsoid: true,
    case: || Case {
        kernel: Arc::new(Stokes::default()),
        order: 4,
        q: 100,
        ranks: 2,
        threads: 1,
        setups: 1,
        min_applies: 1,
    },
    err_band: 2e-3,
};

const SERVE: &str = "serve_mixed_o4";

fn serve_case() -> Case {
    Case {
        kernel: Arc::new(Laplace),
        order: 4,
        q: 60,
        ranks: 1,
        threads: 1,
        setups: 2,
        min_applies: 8,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Named metrics with units, in print order, plus the output checks.
#[derive(Default)]
struct Out {
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Out {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn note(&mut self, s: String) {
        self.notes.push(s);
    }

    /// Record one output check.
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn print(&self, workload: &str) {
        println!("fmmbench: workload {workload}");
        for n in &self.notes {
            println!("  # {n}");
        }
        for (name, v, unit) in &self.metrics {
            println!("  {name:<28} {v:>16.6e} {unit}");
        }
        let fail_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  {:<28} {:>16.6e} 1   ({} failed of {} attempted)",
            "fail_frac", fail_frac, self.failed, self.attempted
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

fn batch_points(spec: &BatchSpec, seed: u64) -> Vec<PointRec> {
    if spec.ellipsoid {
        ellipsoid_1_1_4(spec.n, seed, 0)
    } else {
        uniform_cube(spec.n, seed, 0)
    }
}

/// The serve workload's first hot geometry (what round 0 of `run_sim`
/// generates).
fn serve_points(seed: u64) -> Vec<PointRec> {
    uniform_cube(serve::N_POINTS, serve::round_seed(seed, 0), 0)
}

/// Wave numbers of the density plane waves (rotated per component).
const WAVE: [f64; 3] = [1.0, 1.5, 2.0];

/// `DENSITY_SETS` density sets indexed by gid: per set and component a
/// smooth plane wave `cos(2π a·x + φ)` with a fixed wave vector, mean
/// removed (charge neutral). The phases of the sets split the half
/// circle evenly from an offset drawn from the seed (`q` and `-q` have
/// the same relative error, so phases matter modulo π). Smooth
/// densities are what boundary-integral and Poisson solves feed the
/// FMM. With random-sign densities the sampled error is carried by a
/// few targets and swings by 2-4x between density draws, and a random
/// wave vector still moves it by ±20%.
fn density_sets(pts: &[PointRec], sd: usize, seed: u64) -> Vec<Vec<[f64; 3]>> {
    let n = pts.len();
    let ds = seed.wrapping_mul(0xD1B5_4A32_D192_ED03);
    (0..DENSITY_SETS)
        .map(|k| {
            let wave = |c: usize| -> ([f64; 3], f64) {
                let a = std::array::from_fn(|d| WAVE[(c + d) % 3]);
                let phase = (density_at(0, ds, c) + k as f64) / DENSITY_SETS as f64;
                (a, std::f64::consts::PI * phase)
            };
            let waves: Vec<([f64; 3], f64)> = (0..sd).map(wave).collect();
            let mut set: Vec<[f64; 3]> = pts
                .iter()
                .map(|p| {
                    std::array::from_fn(|c| {
                        waves.get(c).map_or(0.0, |(a, phi)| {
                            let ax = a[0] * p.pos[0] + a[1] * p.pos[1] + a[2] * p.pos[2];
                            (std::f64::consts::TAU * ax + phi).cos()
                        })
                    })
                })
                .collect();
            for c in 0..sd {
                let mean = set.iter().map(|d| d[c]).sum::<f64>() / n as f64;
                for d in &mut set {
                    d[c] -= mean;
                }
            }
            set
        })
        .collect()
}

/// Accuracy and bitwise checks of a pass; returns the median sampled
/// error over the density sets.
fn check_accuracy(
    out: &mut Out,
    case: &Case,
    (pts, sets): (&[PointRec], &[Vec<[f64; 3]>]),
    pass: &Pass,
    stride: usize,
    band: f64,
) -> f64 {
    // The direct sums are the costly part; nothing is timed meanwhile,
    // so the sets are checked on threads of their own.
    let errs: Vec<f64> = std::thread::scope(|sc| {
        let handles: Vec<_> = sets
            .iter()
            .zip(&pass.results)
            .enumerate()
            .map(|(k, (set, results))| {
                sc.spawn(move || {
                    // Each set samples its own targets: the stride starts
                    // at a different offset.
                    let off = k * stride / sets.len();
                    let with_den: Vec<PointRec> = pts[off..]
                        .iter()
                        .chain(&pts[..off])
                        .map(|p| PointRec {
                            den: set[p.gid as usize],
                            ..*p
                        })
                        .collect();
                    sampled_rel_error(case.kernel.as_ref(), &with_den, results, stride)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("error check thread"))
            .collect()
    });
    for &err in &errs {
        let ok = err <= band;
        out.check(ok);
        if !ok {
            out.note(format!(
                "FAIL: rel_err {err:.3e} outside the band (<= {band:.1e})"
            ));
        }
    }
    let each: Vec<String> = errs.iter().map(|e| format!("{e:.3e}")).collect();
    out.note(format!("rel_err per density set: {}", each.join(" ")));
    check_bitwise(out, pass);
    median(&errs)
}

/// Every warm apply of a pass must be bitwise equal to the first apply
/// of its density set.
fn check_bitwise(out: &mut Out, pass: &Pass) {
    for i in 0..pass.checked {
        out.check(i >= pass.mismatches);
    }
    if pass.mismatches > 0 {
        out.note(format!(
            "FAIL: {} of {} warm applies not bitwise equal to the first",
            pass.mismatches, pass.checked
        ));
    }
}

/// End-to-end metrics shared by every workload.
fn put_apply_metrics(out: &mut Out, pass: &Pass, rel_err: f64) {
    let each: Vec<String> = pass.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    out.note(format!("setup_s samples: {}", each.join(" ")));
    let mut sorted = pass.apply_s.clone();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
    out.note(format!(
        "apply_s over {} warm applies: min {:.4} p25 {:.4} p50 {:.4} p75 {:.4} max {:.4}",
        sorted.len(),
        at(0.0),
        at(0.25),
        at(0.5),
        at(0.75),
        at(1.0)
    ));
    out.put("setup_s", median(&pass.setup_s), "s");
    out.put("apply_s", median(&pass.apply_s), "s");
    out.put("rel_err", rel_err, "1");
    out.put("plan_mib", pass.plan_bytes as f64 / (1 << 20) as f64, "MiB");
}

/// Batch workloads: the warm-apply loop is the request stream of one
/// closed-loop client (a solver issuing one apply per iteration).
fn put_loop_serve_metrics(out: &mut Out, pass: &Pass) {
    out.put("serve_rps", pass.warm() as f64 / pass.loop_s, "req/s");
    out.put("serve_p50_s", median(&pass.apply_s), "s");
    let (pct, v) = tail(&pass.apply_s);
    out.put("serve_tail_s", v, "s");
    out.note(format!(
        "serve_* = warm-apply loop as one closed-loop client: {} applies, tail = p{pct}",
        pass.warm()
    ));
}

/// Per-layer metrics read from a pass, the host ceilings and the
/// micro-calls.
struct Layers {
    fma_gflops: f64,
}

impl Layers {
    /// Host ceilings and kernel/FFT/GEMM micro-calls, each under a span.
    fn measure(out: &mut Out, case: &Case, rec: &Rec) -> Layers {
        let cores = case.ranks * case.threads;
        let fma = rec.span(0, "host.fma", || host::fma_gflops(cores));
        let (triad, llc, arr) = rec.span(0, "host.triad", || host::triad_gbs(cores));
        out.note(format!(
            "host: tier {}, {cores} thread(s), triad arrays 3 x {:.0} MiB (total {:.0} MiB) vs last-level cache {:.0} MiB",
            host::tier(),
            arr as f64 / (1 << 20) as f64,
            3.0 * arr as f64 / (1 << 20) as f64,
            llc as f64 / (1 << 20) as f64,
        ));
        out.put("host.fma_gflops", fma, "GF/s");
        out.put("host.triad_gbs", triad, "GB/s");
        let k = case.kernel.as_ref();
        let tile = rec.span(0, "kern.tile", || host::tile_gflops(k, case.q));
        let fft = rec.span(0, "fft.rfft3", || host::rfft3_us(case.order));
        let gemm = rec.span(0, "gemm", || host::gemm_gflops(case.order, k.source_dim()));
        out.put("kern.tile_gflops", tile, "GF/s");
        out.put("fft.rfft3_us", fft, "us");
        out.put("gemm.gflops", gemm, "GF/s");
        Layers { fma_gflops: fma }
    }

    /// Tree probe, plan precompute, phase breakdown, allocations, comm.
    fn put_pass(
        &self,
        out: &mut Out,
        case: &Case,
        parts: &[Vec<PointRec>],
        pass: &Pass,
        rec: &Rec,
    ) {
        let shape = rec.span(0, "tree.probes", || batch::tree_probe(case, parts, rec));
        let stages = batch::stage_secs(rec);
        for (name, secs) in &stages {
            out.put(format!("{name}_s"), *secs, "s");
        }
        let stage_sum: f64 = stages.iter().map(|s| s.1).sum();
        out.put(
            "plan.precompute_s",
            batch::plan_span_secs(rec) - stage_sum,
            "s",
        );
        out.put("tree.leaves", shape.leaves as f64, "count");
        out.put("tree.octants", shape.octants as f64, "count");
        out.put("tree.depth_span", shape.depth_span as f64, "count");
        for (name, v) in ["u", "v", "w", "x"].iter().zip(shape.lists) {
            out.put(format!("lists.{name}_entries"), v as f64, "count");
        }
        out.put("lists.direct_pairs", shape.direct_pairs as f64, "count");

        for row in pass.phase_rows() {
            let rate = if row.secs > 0.0 {
                row.gflop / row.secs
            } else {
                0.0
            };
            out.put(format!("apply.{}_s", row.stem), row.secs, "s");
            out.put(format!("apply.{}_gflop", row.stem), row.gflop, "Gflop");
            out.put(format!("apply.{}.gflops", row.stem), rate, "GF/s");
            out.put(
                format!("apply.{}.frac_peak", row.stem),
                rate / self.fma_gflops,
                "1",
            );
        }
        let (other, over) = pass.unaccounted();
        out.put("apply.other_s", other, "s");
        out.put("apply.overcount_flags", over as f64, "count");
        if over > 0 {
            out.note(format!(
                "FLAG: in {over} of {} applies the profile's phase seconds exceed the timed wall (double counting across threads)",
                pass.warm()
            ));
        }
        out.put(
            "apply.allocs",
            pass.allocs as f64 / pass.warm() as f64,
            "count",
        );
        out.put("apply.imbalance", pass.imbalance(), "1");
        let per = |v: u64| v as f64 / pass.warm() as f64;
        out.put("comm.msgs", per(pass.comm[0]), "count");
        out.put("comm.bytes", per(pass.comm[1]), "B");
        out.put("comm.reduce_bytes", per(pass.comm[2]), "B");
    }
}

/// Serve per-layer metrics; `None` on batch workloads, which run no
/// service (all zeros).
fn put_serve_layers(out: &mut Out, rounds: Option<&[serve::Round]>) {
    let rounds = rounds.unwrap_or(&[]);
    let (mut hits, mut lookups, mut batches, mut batched) = (0u64, 0u64, 0u64, 0u64);
    let (mut rejected, mut shed, mut backlog) = (0u64, 0u64, 0u64);
    let (mut queue, mut exec) = (Vec::new(), Vec::new());
    for r in rounds {
        let rep = &r.report;
        hits += rep.cache.hits;
        lookups += rep.cache.hits + rep.cache.misses;
        batches += rep.service.batches;
        batched += rep.service.batched_reqs;
        rejected += rep.rejected();
        shed += rep.service.shed_engagements;
        backlog = backlog.max(rep.service.max_backlog_us);
        queue.extend(r.lifecycle.iter().map(|l| l[1]));
        exec.extend(r.lifecycle.iter().map(|l| l[2]));
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    out.put("serve.cache_hit_rate", ratio(hits, lookups), "1");
    out.put("serve.plan_builds", (lookups - hits) as f64, "count");
    out.put("serve.batch_mean", ratio(batched, batches), "count");
    out.put("serve.queue_wait_p50_s", median(&queue), "s");
    out.put("serve.execute_p50_s", median(&exec), "s");
    out.put("serve.rejected", rejected as f64, "count");
    out.put("serve.shed_engagements", shed as f64, "count");
    out.put("serve.max_backlog_s", backlog as f64 * 1e-6, "s");
}

/// Where a traced pass writes its Chrome trace (inside the benchmark's
/// directory of the checkout).
fn trace_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}-seed{seed}.json"))
}

fn finish_trace(out: &mut Out, rec: &Rec, args: &Args, untraced_s: f64, traced_s: f64) {
    out.put("trace.overhead_frac", traced_s / untraced_s - 1.0, "1");
    let path = trace_path(&args.workload, args.seed);
    match rec.write_chrome(&path) {
        Ok(n) => out.note(format!(
            "chrome trace of {n} benchmark spans (validated) -> {}",
            path.display()
        )),
        Err(e) => out.note(format!("chrome trace not written: {e}")),
    }
    for (name, own) in rec.self_secs() {
        out.note(format!(
            "span {name:<18} n={:<4} median self {:.6} s",
            own.len(),
            median(&own)
        ));
    }
}

fn run_batch(spec: &BatchSpec, args: &Args) -> Out {
    let mut out = Out::default();
    let case = (spec.case)();
    let pts = batch_points(spec, args.seed);
    let sets = density_sets(&pts, case.kernel.source_dim(), args.seed);
    let parts = case.split(&pts);
    let off = Rec::new(false);
    if !args.trace {
        let pass = batch::pass(&case, &sets, &parts, args.seconds, None, &off, |_| {});
        let err = check_accuracy(
            &mut out,
            &case,
            (&pts, &sets),
            &pass,
            ERR_STRIDE,
            spec.err_band,
        );
        put_apply_metrics(&mut out, &pass, err);
        put_loop_serve_metrics(&mut out, &pass);
        return out;
    }
    let rec = Rec::new(true);
    let layers = Layers::measure(&mut out, &case, &rec);
    let pass = batch::pass(&case, &sets, &parts, args.seconds, None, &off, |_| {});
    check_accuracy(
        &mut out,
        &case,
        (&pts, &sets),
        &pass,
        ERR_STRIDE,
        spec.err_band,
    );
    let replay = Some(pass.rounds.as_slice());
    let traced = batch::pass(&case, &sets, &parts, 0.0, replay, &rec, |_| {});
    check_bitwise(&mut out, &traced);
    layers.put_pass(&mut out, &case, &parts, &pass, &rec);
    put_serve_layers(&mut out, None);
    finish_trace(&mut out, &rec, args, pass.pass_s, traced.pass_s);
    out
}

/// Record the output checks of `run_sim` rounds.
fn check_rounds(out: &mut Out, rounds: &[serve::Round]) {
    for (k, r) in rounds.iter().enumerate() {
        out.attempted += r.offered;
        out.failed += r.failed();
        if r.failed() > 0 {
            out.note(format!(
                "FAIL: round {k}: {} of {} offered requests failed ({} rejected, {} of {} sampled potentials differ)",
                r.failed(),
                r.offered,
                r.report.rejected(),
                r.mismatched,
                r.checked
            ));
        }
    }
}

/// A pass on the serve workload's first hot geometry with one `run_sim`
/// round before each of its rounds, so the pass's setups and applies
/// and the served requests sample the same stretch of the run. Returns
/// the pass and the served rounds.
fn serve_pass(
    case: &Case,
    (sets, parts): (&[Vec<[f64; 3]>], &[Vec<PointRec>]),
    args: &Args,
    replay: Option<&[usize]>,
    rec: &Rec,
) -> (Pass, Vec<serve::Round>) {
    let fmm = Arc::new(Fmm::new(case.kernel.clone(), case.config()));
    let mut rounds = Vec::new();
    let pass = batch::pass(case, sets, parts, args.seconds, replay, rec, |k| {
        let seed = serve::round_seed(args.seed, k as u64);
        rounds.push(serve::round(&fmm, seed, rec));
    });
    (pass, rounds)
}

fn run_serve(args: &Args) -> Out {
    let mut out = Out::default();
    let case = serve_case();
    let pts = serve_points(args.seed);
    let sets = density_sets(&pts, case.kernel.source_dim(), args.seed);
    let parts = case.split(&pts);
    let off = Rec::new(false);
    let rec = Rec::new(args.trace);
    let layers = args.trace.then(|| Layers::measure(&mut out, &case, &rec));
    let (pass, rounds) = serve_pass(&case, (&sets, &parts), args, None, &off);
    check_rounds(&mut out, &rounds);
    let err = check_accuracy(
        &mut out,
        &case,
        (&pts, &sets),
        &pass,
        SERVE_ERR_STRIDE,
        SERVE_ERR_BAND,
    );
    let Some(layers) = layers else {
        put_apply_metrics(&mut out, &pass, err);
        let completed: u64 = rounds.iter().map(|r| r.report.completed).sum();
        let wall: f64 = rounds.iter().map(|r| r.report.wall_us as f64 * 1e-6).sum();
        let sojourn: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.lifecycle.iter().map(|l| l[0]))
            .collect();
        out.put("serve_rps", completed as f64 / wall, "req/s");
        out.put("serve_p50_s", median(&sojourn), "s");
        let (pct, v) = tail(&sojourn);
        out.put("serve_tail_s", v, "s");
        out.note(format!(
            "{} rounds, {} requests completed, tail = p{pct} of {} sojourns",
            rounds.len(),
            completed,
            sojourn.len()
        ));
        return out;
    };
    // Traced pass: the same setups, applies and rounds under spans.
    let replay = Some(pass.rounds.as_slice());
    let (traced, traced_rounds) = serve_pass(&case, (&sets, &parts), args, replay, &rec);
    check_rounds(&mut out, &traced_rounds);
    check_bitwise(&mut out, &traced);
    layers.put_pass(&mut out, &case, &parts, &pass, &rec);
    put_serve_layers(&mut out, Some(&rounds));
    finish_trace(&mut out, &rec, args, pass.pass_s, traced.pass_s);
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fmmbench: {e}");
            eprintln!(
                "usage: fmmbench --workload <{}|{}|{SERVE}> --seed <n> --seconds <s> --trace <0|1>",
                UNIFORM.name, ELLIPSOID.name
            );
            std::process::exit(2);
        }
    };
    let out = match args.workload.as_str() {
        w if w == UNIFORM.name => run_batch(&UNIFORM, &args),
        w if w == ELLIPSOID.name => run_batch(&ELLIPSOID, &args),
        SERVE => run_serve(&args),
        other => {
            eprintln!("fmmbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    out.print(&args.workload);
    if out.failed > 0 {
        std::process::exit(1);
    }
}
