//! The evaluation phases of Algorithm 1, shared by [`Fmm::evaluate`] and
//! the reusable [`crate::plan::FmmPlan`].
//!
//! [`EvalData`] caches the per-leaf point geometry and level buckets of a
//! LET; [`run_phases`] executes S2U, U2U, the reduce-and-scatter, the
//! U/V/W/X lists and the downward pass against it, accumulating per-phase
//! times and flops. The densities live in `EvalData` and can be replaced
//! between runs without rebuilding anything else.
//!
//! Two executors share the same per-octant kernels (the `Ctx` methods):
//!
//! * **Barrier** ([`run_phases_barrier`]): bulk-synchronous phases in the
//!   canonical order Upward → Comm → U → X → V → Downward → W. With
//!   `FmmConfig::threads > 1` the per-octant phases fan out over a host
//!   thread pool via [`crate::par`]; the rank blocks inside Comm.
//! * **Graph** ([`run_phases_graph`]): the phases are emitted as a
//!   `pfmm-sched` task graph over octant chunks, with the
//!   reduce-and-scatter as a *comm task* polling non-blocking requests.
//!   The U- and X-lists need no remote upward densities (their sources'
//!   point densities arrive with the LET), so their chunks execute while
//!   the reduction is in flight — the paper's §III motivation for
//!   overlapping the direct interactions with communication.
//!
//! Both executors accumulate into each output slice in the same order
//! (`f`: U, then D2T, then W; `dcheck`: X, then V; `u`: S2U, then U2U in
//! level/index order, then the reduction write-back), and the hypercube
//! reduction folds rounds identically in its blocking and poll-driven
//! forms, so the two schedules produce bitwise-identical potentials.
//!
//! The U2U/D2D traversals default to the paper's sequential form;
//! `FmmConfig::traversal_threads > 1` enables the level-synchronous
//! parallel variant the paper lists as unexploited future work ("the U2U
//! and D2D steps can be also executed in parallel").

use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use pfmm_fft::Complex;
use pfmm_kernels::{direct_eval, Kernel, Point3, TileKernel, Tiles, LANE};
use pfmm_morton::MortonKey;
use pfmm_mpisim::{Comm, CommStats};
use pfmm_sched::{CommPoll, Graph, GraphBuf, Slot, TraceCtx};
use pfmm_trace::{tid_worker, TraceLevel, Tracer, TID_MAIN};
use pfmm_tree::{Let, Lists};

use crate::driver::{Fmm, M2lMode, Reduction, Schedule, TranslateMode, UlistMode};
use crate::nearfield::NearField;
use crate::translate::TranslatePlan;

/// V-list source spectra, shared between the FFT pass-1 task and the
/// per-chunk pass-2 tasks.
type Spectra = Arc<Vec<Option<Arc<Vec<Complex>>>>>;
/// Batched-mode pass-1 product: the split-complex source spectra (the
/// kernel-spectrum table lives in the workspace since it is
/// density-independent).
type BatchedSpectra = Arc<SourceSpectra>;
/// Batched-mode pass 1 in flight under the graph executor: the indexed
/// sources, their spectra table, and its blocks shared by the run tasks.
type BatchedPass1 = (Vec<usize>, SourceSpectra, GraphBuf<f64>);
use crate::m2l_batched::{offset_slot, FftBatchedM2l, SourceSpectra, SpectraTable};
use crate::m2l_fft::FftM2l;
use crate::ops::Ops;
use crate::par::{par_map, par_map_n, par_windows, par_windows_weighted, weighted_cuts, SetupPar};
use crate::profile::{flop_model, Phase, Profile};
use crate::reduce::{reduce_scatter_hypercube, reduce_scatter_naive, HypercubeReduceAsync};
use crate::workspace::{EvalWorkspace, ScratchPool, WorkerScratch};

/// Per-LET evaluation workspace: leaf geometry, packed densities, and the
/// level ordering of the up/down traversals.
pub struct EvalData {
    /// Positions per octant (nonempty only for point-carrying leaves).
    pub leaf_pos: Vec<Vec<Point3>>,
    /// Packed densities per octant, `source_dim` per point.
    pub leaf_den: Vec<Vec<f64>>,
    /// Local octant indices grouped by level.
    pub by_level: Vec<Vec<u32>>,
    /// Deepest level present in the LET.
    pub max_level: u32,
    /// Plan-time `(level, operator-class)` grouping of the up/down
    /// translations (geometry-only; replayed as-is by `Fmm::apply`).
    pub translate: TranslatePlan,
}

impl EvalData {
    /// Extract the evaluation workspace from a LET; densities are taken
    /// from the point records (replace them later via `leaf_den`).
    pub fn new(l: &Let, sd: usize) -> EvalData {
        EvalData::new_with(l, sd, SetupPar::Serial)
    }

    /// [`EvalData::new`] with the per-octant geometry/density extraction
    /// and the translate grouping parallelized under `par`. Every
    /// per-octant result is reassembled in octant order, so the
    /// workspace is identical to the serial build.
    pub fn new_with(l: &Let, sd: usize, par: SetupPar) -> EvalData {
        let noct = l.len();
        let filled: Vec<(Vec<Point3>, Vec<f64>)> = par_map_n(par.threads(), noct, |i| {
            let pts = l.points_of(i);
            if pts.is_empty() {
                return (Vec::new(), Vec::new());
            }
            let pos = pts.iter().map(|p| p.pos).collect();
            let mut den = Vec::with_capacity(pts.len() * sd);
            for p in pts {
                den.extend_from_slice(&p.den[..sd]);
            }
            (pos, den)
        });
        let (leaf_pos, leaf_den): (Vec<Vec<Point3>>, Vec<Vec<f64>>) = filled.into_iter().unzip();
        let max_level = l.octs.iter().map(|o| o.level()).max().unwrap_or(0);
        let mut by_level: Vec<Vec<u32>> = vec![Vec::new(); max_level as usize + 1];
        for i in 0..noct {
            if l.local[i] {
                by_level[l.octs[i].level() as usize].push(i as u32);
            }
        }
        let occupied: Vec<bool> = (0..noct)
            .map(|i| l.owned[i] && !leaf_pos[i].is_empty())
            .collect();
        let translate = TranslatePlan::build_with(l, &by_level, &occupied, par);
        EvalData {
            leaf_pos,
            leaf_den,
            by_level,
            max_level,
            translate,
        }
    }

    /// Heap bytes held by the workspace (element counts × element sizes;
    /// feeds the serve-layer plan-cache budget accounting).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let nested = |vv: &Vec<Vec<f64>>| {
            vv.iter().map(|v| v.len() * size_of::<f64>()).sum::<usize>()
                + vv.len() * size_of::<Vec<f64>>()
        };
        self.leaf_pos
            .iter()
            .map(|v| v.len() * size_of::<Point3>())
            .sum::<usize>()
            + self.leaf_pos.len() * size_of::<Vec<Point3>>()
            + nested(&self.leaf_den)
            + self
                .by_level
                .iter()
                .map(|v| v.len() * size_of::<u32>())
                .sum::<usize>()
            + self.by_level.len() * size_of::<Vec<u32>>()
            + self.translate.memory_bytes()
    }
}

/// Offset of the target `beta` relative to the source `alpha` in units of
/// the octant side — the argument convention of `Ops::m2l` and
/// `FftM2l::kernel_spectrum` (both build the operator with the source
/// centered at the origin and the target displaced by `offset · 2r`).
pub(crate) fn offset_of(alpha: &MortonKey, beta: &MortonKey) -> [i8; 3] {
    debug_assert_eq!(alpha.level(), beta.level());
    let cu = beta.cell_units() as i64;
    let a = alpha.anchor();
    let b = beta.anchor();
    [
        ((b[0] as i64 - a[0] as i64) / cu) as i8,
        ((b[1] as i64 - a[1] as i64) / cu) as i8,
        ((b[2] as i64 - a[2] as i64) / cu) as i8,
    ]
}

/// Reusable SoA scratch for routing per-box point↔surface direct evals
/// (S2U check potentials, D2T, W, X) through the branch-free tile
/// microkernels instead of the scalar per-target `direct_eval` loop. At
/// practical leaf occupancies the scalar path is call-overhead bound
/// (one virtual `eval_target` per surface point over a handful of
/// sources); packing both sides as planes and making a single
/// monomorphized `eval_tiles` call per box amortizes that away and lets
/// the kernel body vectorize.
///
/// Both translate modes and both executors share this path, so it leaves
/// every bitwise-equality invariant intact (`eval_tiles` keeps one
/// accumulator per target output walking sources in order; padding lanes
/// contribute exactly `0.0`).
#[derive(Default)]
pub(crate) struct TileEval {
    tx: Vec<f64>,
    ty: Vec<f64>,
    tz: Vec<f64>,
    sx: Vec<f64>,
    sy: Vec<f64>,
    sz: Vec<f64>,
    den: Vec<f64>,
}

impl TileEval {
    /// Heap bytes held (allocated capacities; workspace accounting).
    pub(crate) fn memory_bytes(&self) -> usize {
        (self.tx.capacity()
            + self.ty.capacity()
            + self.tz.capacity()
            + self.sx.capacity()
            + self.sy.capacity()
            + self.sz.capacity()
            + self.den.capacity())
            * std::mem::size_of::<f64>()
    }

    /// `out += Σ_j K(x_i, y_j) s_j`, via `tk` when the kernel provides
    /// tile microkernels and the scalar `direct_eval` otherwise.
    pub(crate) fn eval(
        &mut self,
        tk: Option<&dyn TileKernel>,
        kernel: &dyn Kernel,
        targets: &[Point3],
        sources: &[Point3],
        densities: &[f64],
        out: &mut [f64],
    ) {
        let Some(tk) = tk else {
            direct_eval(kernel, targets, sources, densities, out);
            return;
        };
        let sd = kernel.source_dim();
        let nsp = sources.len().div_ceil(LANE) * LANE;
        self.tx.clear();
        self.ty.clear();
        self.tz.clear();
        for p in targets {
            self.tx.push(p[0]);
            self.ty.push(p[1]);
            self.tz.push(p[2]);
        }
        self.sx.clear();
        self.sy.clear();
        self.sz.clear();
        for p in sources {
            self.sx.push(p[0]);
            self.sy.push(p[1]);
            self.sz.push(p[2]);
        }
        self.sx.resize(nsp, crate::nearfield::PAD_POS);
        self.sy.resize(nsp, crate::nearfield::PAD_POS);
        self.sz.resize(nsp, crate::nearfield::PAD_POS);
        self.den.clear();
        self.den.resize(sd * nsp, 0.0);
        for (j, d) in densities.chunks_exact(sd).enumerate() {
            for (c, &v) in d.iter().enumerate() {
                self.den[c * nsp + j] = v;
            }
        }
        tk.eval_tiles(
            Tiles {
                tx: &self.tx,
                ty: &self.ty,
                tz: &self.tz,
                sx: &self.sx,
                sy: &self.sy,
                sz: &self.sz,
                den: &self.den,
            },
            out,
        );
    }
}

/// Borrowed evaluation context shared by every chunk kernel; both
/// executors call the same methods so the per-octant arithmetic (and its
/// floating-point order) is identical by construction.
struct Ctx<'a> {
    kernel: &'a dyn Kernel,
    ops: &'a Ops,
    fft: &'a FftM2l,
    fftb: &'a FftBatchedM2l,
    l: &'a Let,
    lists: &'a Lists,
    leaf_pos: &'a [Vec<Point3>],
    leaf_den: &'a [Vec<f64>],
    /// Tiled near-field layout + microkernels; `None` runs the scalar
    /// U-list path (`--ulist=scalar`, or a kernel without tile support).
    nf: Option<&'a NearField>,
    /// Workspace-owned batched-M2L kernel-spectrum table (fft-batched
    /// mode; a superset of every key an apply can need).
    btable: Option<&'a SpectraTable>,
    tk: Option<&'a dyn TileKernel>,
    /// Tile microkernels for the per-box point↔surface direct evals
    /// (S2U check, D2T, W, X) — unlike `tk`, not gated on the near-field
    /// layout; `None` falls back to the scalar `direct_eval`.
    tkd: Option<&'a dyn TileKernel>,
    ulen: usize,
    clen: usize,
    td: usize,
    flops_pair: u64,
    /// Threads for the level-synchronous U2U/D2D traversals.
    tt: usize,
    /// Plan-time translation grouping (`--translate=gemm` engine).
    tp: &'a TranslatePlan,
    /// Groups below this many right-hand sides use the per-box matvec
    /// fallback (bitwise identical — the break-even is numerics-free).
    gemm_min: usize,
}

impl Ctx<'_> {
    fn new<'a>(
        fmm: &'a Fmm,
        l: &'a Let,
        lists: &'a Lists,
        data: &'a EvalData,
        nf: Option<&'a NearField>,
        btable: Option<&'a SpectraTable>,
    ) -> Ctx<'a> {
        Ctx {
            kernel: fmm.kernel(),
            ops: fmm.ops(),
            fft: fmm.fft(),
            fftb: fmm.fft_batched(),
            l,
            lists,
            leaf_pos: &data.leaf_pos,
            leaf_den: &data.leaf_den,
            nf,
            btable,
            tk: nf.and(fmm.kernel().as_tile_kernel()),
            tkd: fmm.kernel().as_tile_kernel(),
            ulen: fmm.ops().density_len(),
            clen: fmm.ops().check_len(),
            td: fmm.kernel().target_dim(),
            flops_pair: fmm.kernel().flops_per_pair(),
            tt: fmm.config().traversal_threads.max(1),
            tp: &data.translate,
            gemm_min: crate::tune::translate_breakeven_boxes(),
        }
    }

    /// (1) S2U for octants in `range`; `window` is the matching slice of
    /// the upward-density array (element 0 at global offset `base`).
    fn s2u_range(
        &self,
        range: Range<usize>,
        window: &mut [f64],
        base: usize,
        sc: &mut WorkerScratch,
    ) -> u64 {
        let (l, ops, ulen) = (self.l, self.ops, self.ulen);
        let mut fl = 0u64;
        sc.check.clear();
        sc.check.resize(self.clen, 0.0);
        for i in range {
            if !l.owned[i] || self.leaf_pos[i].is_empty() {
                continue;
            }
            let key = l.octs[i];
            ops.up_check_surface_into(&key.center(), key.radius(), &mut sc.surf);
            sc.check.fill(0.0);
            sc.te.eval(
                self.tkd,
                self.kernel,
                &sc.surf,
                &self.leaf_pos[i],
                &self.leaf_den[i],
                &mut sc.check,
            );
            let (m, s) = ops.uc2e(key.level());
            m.matvec_acc_scaled(
                &sc.check,
                &mut window[i * ulen - base..(i + 1) * ulen - base],
                s,
            );
            fl += self.leaf_pos[i].len() as u64 * sc.surf.len() as u64 * self.flops_pair
                + 2 * (ulen * self.clen) as u64;
        }
        fl
    }

    /// Initial upward occupancy for octants in `range` (`window[0]`
    /// corresponds to octant `range.start`).
    fn mark_has_up_range(&self, range: Range<usize>, window: &mut [bool]) {
        let base = range.start;
        for i in range {
            window[i - base] = self.l.owned[i] && !self.leaf_pos[i].is_empty();
        }
    }

    /// (2) One U2U level, level-synchronous: child contributions are
    /// computed (in parallel with `tt > 1`) into disjoint staging
    /// buffers, then scatter-added to the parents in `by_level` order —
    /// the fixed merge order both executors share.
    fn u2u_level(
        &self,
        by_level: &[Vec<u32>],
        level: u32,
        u: &mut [f64],
        has_up: &mut [bool],
    ) -> u64 {
        let (l, ops, ulen) = (self.l, self.ops, self.ulen);
        let active: Vec<usize> = by_level[level as usize]
            .iter()
            .map(|&iu| iu as usize)
            .filter(|&i| has_up[i])
            .collect();
        if active.is_empty() {
            return 0;
        }
        let contribs: Vec<(usize, Vec<f64>)> = {
            let u_ro = &*u;
            par_map(self.tt, &active, |i| {
                let key = l.octs[i];
                let parent = key.parent().expect("level >= 1");
                let pi = l.find(&parent).expect("parent of a local octant is local");
                let (m, s) = ops.u2u(level, key.child_index());
                let mut contrib = vec![0.0f64; ulen];
                m.matvec_acc_scaled(&u_ro[i * ulen..(i + 1) * ulen], &mut contrib, s);
                (pi, contrib)
            })
        };
        let mut fl = 0u64;
        for (pi, contrib) in contribs {
            for (a, b) in u[pi * ulen..(pi + 1) * ulen].iter_mut().zip(&contrib) {
                *a += b;
            }
            has_up[pi] = true;
            fl += 2 * (ulen * ulen) as u64;
        }
        fl
    }

    /// (1a, gemm) S2U check potentials only: sources evaluated onto the
    /// up-check surface for owned leaves in `range`, written into the
    /// matching slice of the check buffer (zero on entry, like the scalar
    /// path's per-leaf `ucheck.fill(0.0)`). The per-level uc2e solves run
    /// afterwards as level-batched GEMMs ([`Ctx::s2u_solve_levels`]).
    fn s2u_check_range(
        &self,
        range: Range<usize>,
        window: &mut [f64],
        base: usize,
        sc: &mut WorkerScratch,
    ) -> u64 {
        let (l, ops, clen) = (self.l, self.ops, self.clen);
        let mut fl = 0u64;
        for i in range {
            if !l.owned[i] || self.leaf_pos[i].is_empty() {
                continue;
            }
            let key = l.octs[i];
            ops.up_check_surface_into(&key.center(), key.radius(), &mut sc.surf);
            sc.te.eval(
                self.tkd,
                self.kernel,
                &sc.surf,
                &self.leaf_pos[i],
                &self.leaf_den[i],
                &mut window[i * clen - base..(i + 1) * clen - base],
            );
            fl += self.leaf_pos[i].len() as u64 * sc.surf.len() as u64 * self.flops_pair;
        }
        fl
    }

    /// (1b, gemm) Per-level uc2e solves, one batched group per level:
    /// gather the occupied leaves' check potentials as RHS columns, solve
    /// them together, scatter into the upward densities. Per box this is
    /// `u += s * (uc2e · ucheck)` with the scalar path's accumulation
    /// order, so the result is bitwise identical to `s2u_range`.
    fn s2u_solve_levels(&self, ucheck: &[f64], u: &mut [f64], sc: &mut WorkerScratch) -> u64 {
        let (ops, ulen, clen) = (self.ops, self.ulen, self.clen);
        let sc = &mut sc.tsc;
        let mut fl = 0u64;
        for (lev, g) in self.tp.s2u.iter().enumerate() {
            if g.is_empty() {
                continue;
            }
            let (m, s) = ops.uc2e(lev as u32);
            g.pack(clen, ucheck, sc);
            g.apply(&m, s, clen, ulen, self.gemm_min, sc, u);
            fl += g.len() as u64 * 2 * (ulen * clen) as u64;
        }
        fl
    }

    /// (2', gemm) One U2U level as up to 8 class-grouped GEMMs. Children
    /// of one parent arrive in ascending child-index order — the same
    /// per-parent merge order as the scalar `u2u_level` — so the upward
    /// densities stay bitwise identical.
    fn u2u_level_gemm(
        &self,
        level: u32,
        u: &mut [f64],
        has_up: &mut [bool],
        sc: &mut WorkerScratch,
    ) -> u64 {
        let ulen = self.ulen;
        let sc = &mut sc.tsc;
        let mut fl = 0u64;
        for (ci, g) in self.tp.u2u[level as usize].iter().enumerate() {
            if g.is_empty() {
                continue;
            }
            let (m, s) = self.ops.u2u(level, ci);
            g.pack(ulen, u, sc);
            g.apply(&m, s, ulen, ulen, self.gemm_min, sc, u);
            for &pi in &g.dst {
                has_up[pi as usize] = true;
            }
            fl += g.len() as u64 * 2 * (ulen * ulen) as u64;
        }
        fl
    }

    /// (4', gemm) D2D over the whole LET: per level one batched dc2e
    /// solve over every local octant, then up to 8 class-grouped L2L
    /// GEMMs gathering the (already final) parent densities. Per octant
    /// the accumulation order is `d = s₁·(dc2e·dcheck) + s₂·(d2d·parent)`
    /// — the scalar `d2d_levels` order — so `d` stays bitwise identical.
    fn d2d_levels_gemm(
        &self,
        max_level: u32,
        dcheck: &[f64],
        d: &mut [f64],
        sc: &mut WorkerScratch,
    ) -> u64 {
        let (ops, ulen, clen) = (self.ops, self.ulen, self.clen);
        let sc = &mut sc.tsc;
        let mut fl = 0u64;
        for level in 0..=max_level {
            let lv = level as usize;
            let g = &self.tp.dc2e[lv];
            if g.is_empty() {
                continue;
            }
            let (dm, s) = ops.dc2e(level);
            g.pack(clen, dcheck, sc);
            g.apply(&dm, s, clen, ulen, self.gemm_min, sc, d);
            // Charged like the scalar path: solve + translation per box
            // (whether or not the parent is present), keeping the two
            // modes' profile totals identical.
            fl += g.len() as u64 * (2 * (ulen * clen) as u64 + 2 * (ulen * ulen) as u64);
            if level == 0 {
                continue;
            }
            for (ci, cg) in self.tp.d2d[lv].iter().enumerate() {
                if cg.is_empty() {
                    continue;
                }
                let (m, s) = ops.d2d(level, ci);
                cg.pack(ulen, d, sc);
                cg.apply(&m, s, ulen, ulen, self.gemm_min, sc, d);
            }
        }
        fl
    }

    /// Direct near-field interactions (U-list) for target leaves in
    /// `range`; `window` is the matching point-potential slice. With a
    /// tiled layout present this dispatches to the SoA microkernels —
    /// same target boxes, same per-target accumulation order (CSR rows
    /// sorted by source box), so both executors stay bitwise identical.
    fn uli_range(&self, range: Range<usize>, window: &mut [f64], base: usize) -> u64 {
        if let (Some(nf), Some(tk)) = (self.nf, self.tk) {
            return nf.eval_range(tk, self.td, self.flops_pair, range, window, base);
        }
        let (l, td) = (self.l, self.td);
        let mut fl = 0u64;
        for bi in range {
            if !l.owned[bi] || self.leaf_pos[bi].is_empty() {
                continue;
            }
            let (off, n) = (l.pt_off[bi], self.leaf_pos[bi].len());
            for &ai in self.lists.u.row(bi) {
                let ai = ai as usize;
                if self.leaf_pos[ai].is_empty() {
                    continue;
                }
                direct_eval(
                    self.kernel,
                    &self.leaf_pos[bi],
                    &self.leaf_pos[ai],
                    &self.leaf_den[ai],
                    &mut window[off * td - base..(off + n) * td - base],
                );
                fl += (n * self.leaf_pos[ai].len()) as u64 * self.flops_pair;
            }
        }
        fl
    }

    /// (3b) X-list for target octants in `range`; `window` is the
    /// matching downward-check slice.
    fn xli_range(
        &self,
        range: Range<usize>,
        window: &mut [f64],
        base: usize,
        sc: &mut WorkerScratch,
    ) -> u64 {
        let (l, clen) = (self.l, self.clen);
        let mut fl = 0u64;
        for bi in range {
            if !l.local[bi] || self.lists.x.row(bi).is_empty() {
                continue;
            }
            let key = l.octs[bi];
            self.ops
                .down_check_surface_into(&key.center(), key.radius(), &mut sc.surf);
            for &ai in self.lists.x.row(bi) {
                let ai = ai as usize;
                if self.leaf_pos[ai].is_empty() {
                    continue;
                }
                sc.te.eval(
                    self.tkd,
                    self.kernel,
                    &sc.surf,
                    &self.leaf_pos[ai],
                    &self.leaf_den[ai],
                    &mut window[bi * clen - base..(bi + 1) * clen - base],
                );
                fl += self.leaf_pos[ai].len() as u64 * sc.surf.len() as u64 * self.flops_pair;
            }
        }
        fl
    }

    /// (3a) V-list via dense per-offset operators.
    fn vli_dense_range(
        &self,
        has_up: &[bool],
        u: &[f64],
        range: Range<usize>,
        window: &mut [f64],
        base: usize,
    ) -> u64 {
        let (l, ops, ulen, clen) = (self.l, self.ops, self.ulen, self.clen);
        let mut fl = 0u64;
        for bi in range {
            if !l.local[bi] {
                continue;
            }
            let beta = l.octs[bi];
            for &ai in self.lists.v.row(bi) {
                let ai = ai as usize;
                if !has_up[ai] {
                    continue;
                }
                let alpha = l.octs[ai];
                let (m, s) = ops.m2l(beta.level(), offset_of(&alpha, &beta));
                m.matvec_acc_scaled(
                    &u[ai * ulen..(ai + 1) * ulen],
                    &mut window[bi * clen - base..(bi + 1) * clen - base],
                    s,
                );
                fl += flop_model::m2l_dense_edge(clen, ulen);
            }
        }
        fl
    }

    /// Mark every V-list source with upward data and list them in octant
    /// order, reusing the workspace-owned flag/index buffers.
    fn vli_mark_sources(&self, has_up: &[bool], needed: &mut Vec<bool>, sources: &mut Vec<usize>) {
        let l = self.l;
        let noct = l.len();
        needed.clear();
        needed.resize(noct, false);
        for bi in 0..noct {
            if !l.local[bi] {
                continue;
            }
            for &ai in self.lists.v.row(bi) {
                if has_up[ai as usize] {
                    needed[ai as usize] = true;
                }
            }
        }
        sources.clear();
        sources.extend((0..noct).filter(|&i| needed[i]));
    }

    /// V-list FFT pass 1: forward-transform every V-list source once.
    /// The `uhat` option table is epoch-cleared and reused; the spectra
    /// themselves are freshly `Arc`'d (the fft mode is an ablation path,
    /// outside the zero-allocation guarantee).
    fn vli_fft_spectra_into(
        &self,
        has_up: &[bool],
        u: &[f64],
        threads: usize,
        needed: &mut Vec<bool>,
        sources: &mut Vec<usize>,
        uhat: &mut Vec<Option<Arc<Vec<Complex>>>>,
    ) -> u64 {
        let (fft, ulen) = (self.fft, self.ulen);
        let noct = self.l.len();
        let g = fft.grid_len();
        self.vli_mark_sources(has_up, needed, sources);
        let spectra = par_map(threads, sources, |ai| {
            Arc::new(fft.source_spectrum(&u[ai * ulen..(ai + 1) * ulen]))
        });
        uhat.clear();
        uhat.resize(noct, None);
        for (ai, spec) in sources.iter().zip(spectra) {
            uhat[*ai] = Some(spec);
        }
        let sd = self.kernel.source_dim();
        sources.len() as u64 * flop_model::fft_c2c(g) * sd as u64
    }

    /// Allocating wrapper for the graph executor's pass-1 task.
    fn vli_fft_spectra(
        &self,
        has_up: &[bool],
        u: &[f64],
        threads: usize,
    ) -> (Vec<Option<Arc<Vec<Complex>>>>, u64) {
        let (mut needed, mut sources, mut uhat) = (Vec::new(), Vec::new(), Vec::new());
        let fl =
            self.vli_fft_spectra_into(has_up, u, threads, &mut needed, &mut sources, &mut uhat);
        (uhat, fl)
    }

    /// V-list FFT pass 2: accumulate and inverse-transform per target.
    fn vli_fft_range(
        &self,
        has_up: &[bool],
        uhat: &[Option<Arc<Vec<Complex>>>],
        range: Range<usize>,
        window: &mut [f64],
        base: usize,
    ) -> u64 {
        let (l, fft, clen) = (self.l, self.fft, self.clen);
        let g = fft.grid_len();
        let (sd, td) = (self.kernel.source_dim(), self.td);
        let mut fl = 0u64;
        for bi in range {
            if !l.local[bi] || self.lists.v.row(bi).is_empty() {
                continue;
            }
            let beta = l.octs[bi];
            let mut acc = fft.new_accumulator();
            let mut any = false;
            for &ai in self.lists.v.row(bi) {
                let ai = ai as usize;
                if !has_up[ai] {
                    continue;
                }
                let alpha = l.octs[ai];
                let (khat, s) = fft.kernel_spectrum(beta.level(), offset_of(&alpha, &beta));
                let src = uhat[ai].as_ref().expect("transformed in pass 1");
                fft.accumulate(&mut acc, &khat, src, s);
                fl += flop_model::hadamard_edge(g, sd, td);
                any = true;
            }
            if any {
                fft.finish(acc, &mut window[bi * clen - base..(bi + 1) * clen - base]);
                fl += flop_model::fft_c2c(g) * td as u64;
            }
        }
        fl
    }

    /// V-list batched pass-1 prologue: collect the V-list sources and
    /// index the spectra table for them. The kernel-spectrum table is
    /// *not* built here — it lives in the workspace (density-independent;
    /// built once at workspace creation).
    fn vli_batched_index(
        &self,
        has_up: &[bool],
        needed: &mut Vec<bool>,
        sources: &mut Vec<usize>,
        out: &mut SourceSpectra,
    ) {
        self.vli_mark_sources(has_up, needed, sources);
        self.fftb.index_sources(sources, self.l.len(), out);
    }

    /// Transform the indexed sources `run` into `window`, their blocks of
    /// the spectra table, through a pooled worker scratch; returns flops.
    fn vli_batched_transform(
        &self,
        sources: &[usize],
        run: Range<usize>,
        u: &[f64],
        window: &mut [f64],
        pool: &ScratchPool,
    ) -> u64 {
        let fftb = self.fftb;
        let n = run.len() as u64;
        pool.with(|sc| fftb.transform_sources(&sources[run], u, self.ulen, window, &mut sc.tmp));
        n * fftb.flops_forward()
    }

    /// V-list batched pass 1: half-spectrum transform every V-list
    /// source once into the workspace-owned spectra, each worker writing
    /// the blocks of its own source run in place.
    #[allow(clippy::too_many_arguments)]
    fn vli_batched_spectra_into(
        &self,
        has_up: &[bool],
        u: &[f64],
        threads: usize,
        needed: &mut Vec<bool>,
        sources: &mut Vec<usize>,
        pool: &ScratchPool,
        out: &mut SourceSpectra,
    ) -> u64 {
        self.vli_batched_index(has_up, needed, sources, out);
        let block = self.fftb.source_block();
        par_windows(
            threads,
            sources.len(),
            &mut out.blocks,
            &|i| i * block,
            |run, window, _| self.vli_batched_transform(sources, run, u, window, pool),
        )
    }

    /// V-list batched pass 2: targets are processed in small batches
    /// whose edges are bucketed by (level, transfer vector); each
    /// bucket's kernel spectrum is resolved once from the immutable
    /// table (no lock) and streamed against the bucket's sources into
    /// reusable scratch accumulators. Per target the buckets arrive in
    /// ascending slot order — independent of batch and chunk boundaries,
    /// so both executors accumulate identically.
    #[allow(clippy::too_many_arguments)]
    fn vli_batched_range(
        &self,
        has_up: &[bool],
        table: &SpectraTable,
        src: &SourceSpectra,
        range: Range<usize>,
        window: &mut [f64],
        base: usize,
        sc: &mut WorkerScratch,
    ) -> u64 {
        const BATCH: usize = 32;
        let (l, fftb, clen) = (self.l, self.fftb, self.clen);
        let mut fl = 0u64;
        let WorkerScratch {
            batch,
            targets,
            edges,
            ..
        } = sc;
        let scratch = batch.get_or_insert_with(|| fftb.new_scratch(BATCH));
        targets.clear();
        targets.extend(range.filter(|&bi| l.local[bi] && !self.lists.v.row(bi).is_empty()));
        // (level<<9 | slot, target slot, source octant) per edge.
        for chunk in targets.chunks(BATCH) {
            edges.clear();
            for (t, &bi) in chunk.iter().enumerate() {
                let beta = l.octs[bi];
                for &ai in self.lists.v.row(bi) {
                    let ai = ai as usize;
                    if !has_up[ai] {
                        continue;
                    }
                    let slot = offset_slot(offset_of(&l.octs[ai], &beta));
                    edges.push((((beta.level()) << 9) | slot as u32, t as u32, ai as u32));
                }
            }
            if edges.is_empty() {
                continue;
            }
            edges.sort_unstable();
            scratch.reset(chunk.len());
            let mut any = [false; BATCH];
            let mut i = 0;
            while i < edges.len() {
                let key = edges[i].0;
                let (k, scale) = table.get(key >> 9, (key & 0x1ff) as usize);
                while i < edges.len() && edges[i].0 == key {
                    let (_, t, ai) = edges[i];
                    let (sre, sim) = src.planes(ai as usize);
                    fftb.accumulate(scratch, t as usize, k, sre, sim, scale);
                    any[t as usize] = true;
                    fl += fftb.flops_edge();
                    i += 1;
                }
            }
            for (t, &bi) in chunk.iter().enumerate() {
                if any[t] {
                    fftb.finish(
                        scratch,
                        t,
                        &mut window[bi * clen - base..(bi + 1) * clen - base],
                    );
                    fl += fftb.flops_inverse();
                }
            }
        }
        fl
    }

    /// (4) D2D, level-synchronous over the whole LET (see the U2U
    /// comment); at each level the parents are final, so every child's
    /// update is independent.
    fn d2d_levels(
        &self,
        by_level: &[Vec<u32>],
        max_level: u32,
        dcheck: &[f64],
        d: &mut [f64],
    ) -> u64 {
        let (l, ops, ulen, clen) = (self.l, self.ops, self.ulen, self.clen);
        let mut fl = 0u64;
        for level in 0..=max_level {
            let active: Vec<usize> = by_level[level as usize]
                .iter()
                .map(|&iu| iu as usize)
                .collect();
            if active.is_empty() {
                continue;
            }
            let updates: Vec<(usize, Vec<f64>)> = {
                let d_ro = &*d;
                par_map(self.tt, &active, |i| {
                    let key = l.octs[i];
                    let (dc2e, s) = ops.dc2e(level);
                    let mut di = vec![0.0f64; ulen];
                    dc2e.matvec_acc_scaled(&dcheck[i * clen..(i + 1) * clen], &mut di, s);
                    if level > 0 {
                        let parent = key.parent().expect("level >= 1");
                        if let Some(pi) = l.find(&parent) {
                            let (m, s) = ops.d2d(level, key.child_index());
                            m.matvec_acc_scaled(&d_ro[pi * ulen..(pi + 1) * ulen], &mut di, s);
                        }
                    }
                    (i, di)
                })
            };
            for (i, di) in updates {
                d[i * ulen..(i + 1) * ulen].copy_from_slice(&di);
                fl += 2 * (ulen * clen) as u64 + 2 * (ulen * ulen) as u64;
            }
        }
        fl
    }

    /// (5b) D2T for owned leaves in `range`.
    fn d2t_range(
        &self,
        d: &[f64],
        range: Range<usize>,
        window: &mut [f64],
        base: usize,
        sc: &mut WorkerScratch,
    ) -> u64 {
        let (l, ops, ulen, td) = (self.l, self.ops, self.ulen, self.td);
        let mut fl = 0u64;
        for i in range {
            if !l.owned[i] || self.leaf_pos[i].is_empty() {
                continue;
            }
            let key = l.octs[i];
            ops.down_equiv_surface_into(&key.center(), key.radius(), &mut sc.surf);
            let (off, n) = (l.pt_off[i], self.leaf_pos[i].len());
            sc.te.eval(
                self.tkd,
                self.kernel,
                &self.leaf_pos[i],
                &sc.surf,
                &d[i * ulen..(i + 1) * ulen],
                &mut window[off * td - base..(off + n) * td - base],
            );
            fl += n as u64 * sc.surf.len() as u64 * self.flops_pair;
        }
        fl
    }

    /// (5a) W-list for owned target leaves in `range`.
    #[allow(clippy::too_many_arguments)]
    fn wli_range(
        &self,
        has_up: &[bool],
        u: &[f64],
        range: Range<usize>,
        window: &mut [f64],
        base: usize,
        sc: &mut WorkerScratch,
    ) -> u64 {
        let (l, ops, ulen, td) = (self.l, self.ops, self.ulen, self.td);
        let mut fl = 0u64;
        for bi in range {
            if !l.owned[bi] || self.lists.w.row(bi).is_empty() || self.leaf_pos[bi].is_empty() {
                continue;
            }
            let (off, n) = (l.pt_off[bi], self.leaf_pos[bi].len());
            for &ai in self.lists.w.row(bi) {
                let ai = ai as usize;
                if !has_up[ai] {
                    continue;
                }
                let alpha = l.octs[ai];
                ops.up_equiv_surface_into(&alpha.center(), alpha.radius(), &mut sc.surf);
                sc.te.eval(
                    self.tkd,
                    self.kernel,
                    &self.leaf_pos[bi],
                    &sc.surf,
                    &u[ai * ulen..(ai + 1) * ulen],
                    &mut window[off * td - base..(off + n) * td - base],
                );
                fl += n as u64 * sc.surf.len() as u64 * self.flops_pair;
            }
        }
        fl
    }
}

/// Ghost octants receive their densities in the reduction; mark the ones
/// that arrived so the V/W lists use them.
fn refresh_ghost_has_up(ulen: usize, u: &[f64], has_up: &mut [bool]) {
    for (i, h) in has_up.iter_mut().enumerate() {
        if !*h {
            *h = u[i * ulen..(i + 1) * ulen].iter().any(|&v| v != 0.0);
        }
    }
}

fn stats_delta(before: &CommStats, after: &CommStats) -> CommStats {
    after.delta_since(before)
}

/// Span recorder for the barrier executor: whole-phase spans on the
/// driver lane at [`TraceLevel::Phase`], plus one span per parallel chunk
/// at [`TraceLevel::Task`]. Chunk lanes are handed out from a counter
/// that resets per phase, so every span gets a lane of its own and the
/// Chrome nesting invariant holds trivially. Recording happens strictly
/// *around* the chunk closures — the arithmetic, its ordering, and the
/// `Profile` timings are untouched, preserving the bitwise barrier==graph
/// guarantee at every trace level.
struct PhaseTrace<'a> {
    tracer: &'a Tracer,
    rank: u32,
    lane: AtomicU32,
}

impl PhaseTrace<'_> {
    fn new<'a>(tracer: &'a Tracer, c: &Comm) -> PhaseTrace<'a> {
        PhaseTrace {
            tracer,
            rank: c.rank() as u32,
            lane: AtomicU32::new(0),
        }
    }

    /// Whole-phase span (driver lane, cat `"phase"`); resets the chunk
    /// lane counter so each phase's chunks start at worker lane 0.
    fn phase<T>(&self, ph: Phase, f: impl FnOnce() -> T) -> T {
        if !self.tracer.enabled(TraceLevel::Phase) {
            return f();
        }
        self.lane.store(0, Ordering::Relaxed);
        let t0 = self.tracer.now_us();
        let out = f();
        let t1 = self.tracer.now_us();
        self.tracer
            .record_span(self.rank, TID_MAIN, ph.label(), "phase", t0, t1, &[]);
        out
    }

    /// Per-chunk span (next free worker lane, cat `"task"`).
    fn chunk(&self, ph: Phase, f: impl FnOnce() -> u64) -> u64 {
        if !self.tracer.enabled(TraceLevel::Task) {
            return f();
        }
        let t0 = self.tracer.now_us();
        let fl = f();
        let t1 = self.tracer.now_us();
        let lane = self.lane.fetch_add(1, Ordering::Relaxed) as usize;
        self.tracer
            .record_span(self.rank, tid_worker(lane), ph.label(), "task", t0, t1, &[]);
        fl
    }
}

/// Execute the FMM evaluation phases with the configured executor
/// against the workspace's reusable buffers. The potentials (packed
/// `target_dim` per point, aligned with `l`'s point storage) are left in
/// `ws.f`; the return value is the Comm-phase traffic delta.
#[allow(clippy::too_many_arguments)]
pub fn run_phases(
    fmm: &Fmm,
    c: &Comm,
    l: &Let,
    lists: &Lists,
    data: &EvalData,
    ws: &mut EvalWorkspace,
    prof: &mut Profile,
    tracer: &Tracer,
) -> CommStats {
    // The tiled near-field layout is shared by both executors: built on
    // the workspace's first run, density-refreshed in place afterwards.
    // Both costs are charged to the U-list phase, the same way the GPU
    // pipeline charges its data-structure translation.
    if fmm.config().ulist == UlistMode::Tiled && fmm.kernel().as_tile_kernel().is_some() {
        match ws.nf.as_mut() {
            Some(nf) => {
                let t0 = std::time::Instant::now();
                nf.refresh_densities(&data.leaf_den);
                let secs = t0.elapsed().as_secs_f64();
                prof.add_secs(Phase::UList, secs);
                prof.nf_build_secs += secs;
            }
            None => {
                let nf = NearField::build_with(
                    l,
                    lists,
                    &data.leaf_pos,
                    &data.leaf_den,
                    fmm.kernel().source_dim(),
                    fmm.setup_par(),
                );
                prof.add_secs(Phase::UList, nf.build_secs);
                prof.nf_build_secs += nf.build_secs;
                ws.nf = Some(nf);
            }
        }
    }
    // U-list chunk weights, cached on first use: tiled chunks are
    // weighted by padded pairs (wall time follows the lanes actually
    // evaluated), scalar chunks by real pairs.
    if ws.uli_weights.is_empty() {
        ws.uli_weights = match ws.nf.as_ref() {
            Some(nf) => nf.oct_weights().to_vec(),
            None => (0..l.len())
                .map(|bi| {
                    if !l.owned[bi] || data.leaf_pos[bi].is_empty() {
                        return 0;
                    }
                    let n = data.leaf_pos[bi].len() as u64;
                    lists
                        .u
                        .row(bi)
                        .iter()
                        .map(|&ai| n * data.leaf_pos[ai as usize].len() as u64)
                        .sum()
                })
                .collect(),
        };
    }
    // Zero the phase accumulators (sized once at workspace creation).
    ws.u.fill(0.0);
    ws.has_up.fill(false);
    ws.ucheck.fill(0.0);
    ws.dcheck.fill(0.0);
    ws.d.fill(0.0);
    ws.f.fill(0.0);

    let workers = fmm.config().threads.max(1);
    match fmm.config().schedule {
        // A single-worker, single-rank graph run schedules the exact
        // barrier order (same chunk kernels, bitwise identical by the
        // module invariant) with pure task bookkeeping on top of it —
        // delegate, unless a phase-level tracer wants real graph spans.
        Schedule::Graph if workers > 1 || c.size() > 1 || tracer.enabled(TraceLevel::Phase) => {
            run_phases_graph(fmm, c, l, lists, data, ws, prof, tracer)
        }
        _ => run_phases_barrier(fmm, c, l, lists, data, ws, prof, tracer),
    }
}

/// The bulk-synchronous executor (the reference path).
#[allow(clippy::too_many_arguments)]
fn run_phases_barrier(
    fmm: &Fmm,
    c: &Comm,
    l: &Let,
    lists: &Lists,
    data: &EvalData,
    ws: &mut EvalWorkspace,
    prof: &mut Profile,
    tracer: &Tracer,
) -> CommStats {
    let cfg = fmm.config();
    // Disjoint borrows of the workspace fields, so the context can hold
    // the near field and spectrum table while the phase buffers are
    // written and worker scratch is checked out of the pool.
    let EvalWorkspace {
        ref nf,
        ref btable,
        ref pool,
        ref uli_weights,
        ref vli_weights,
        ref mut u,
        ref mut has_up,
        ref mut ucheck,
        ref mut dcheck,
        ref mut d,
        ref mut f,
        ref mut needed,
        ref mut sources,
        ref mut uhat,
        ref mut src,
        ..
    } = *ws;
    let cx = Ctx::new(fmm, l, lists, data, nf.as_ref(), btable.as_ref());
    let threads = cfg.threads.max(1);
    let noct = l.len();
    let (ulen, clen, td) = (cx.ulen, cx.clen, cx.td);
    let by_level = &data.by_level;
    let max_level = data.max_level;
    let cxr = &cx;
    let pt = PhaseTrace::new(tracer, c);
    let pt = &pt;

    // (1) S2U and (2) U2U — the upward pass. S2U is per-leaf parallel.
    // In gemm mode the per-leaf pass computes only the check potentials;
    // the uc2e solves and the U2U translations then run as level-batched
    // multi-RHS GEMMs over the plan-time groups (bitwise identical to the
    // scalar path — see `crate::translate`).
    pt.phase(Phase::Upward, || {
        prof.timed(Phase::Upward, |prof| match cfg.translate {
            TranslateMode::Gemm => {
                let flops = par_windows(
                    threads,
                    noct,
                    ucheck,
                    &|i| i * clen,
                    |range, window, base| {
                        pt.chunk(Phase::Upward, || {
                            pool.with(|sc| cxr.s2u_check_range(range, window, base, sc))
                        })
                    },
                );
                prof.add_flops(Phase::Upward, flops);
                cx.mark_has_up_range(0..noct, has_up);
                let fl = pt.chunk(Phase::Upward, || {
                    pool.with(|sc| cx.s2u_solve_levels(ucheck, u, sc))
                });
                prof.add_flops(Phase::Upward, fl);
                for level in (1..=max_level).rev() {
                    let fl = pt.chunk(Phase::Upward, || {
                        pool.with(|sc| cx.u2u_level_gemm(level, u, has_up, sc))
                    });
                    prof.add_flops(Phase::Upward, fl);
                }
            }
            TranslateMode::Matvec => {
                let flops = par_windows(threads, noct, u, &|i| i * ulen, |range, window, base| {
                    pt.chunk(Phase::Upward, || {
                        pool.with(|sc| cxr.s2u_range(range, window, base, sc))
                    })
                });
                prof.add_flops(Phase::Upward, flops);
                cx.mark_has_up_range(0..noct, has_up);
                for level in (1..=max_level).rev() {
                    let fl = pt.chunk(Phase::Upward, || cx.u2u_level(by_level, level, u, has_up));
                    prof.add_flops(Phase::Upward, fl);
                }
            }
        })
    });

    // Reduce-and-scatter of shared upward densities (Algorithm 3). A
    // single rank exchanges nothing, so skip the snapshots entirely —
    // `Comm::stats` clones the per-peer breakdown map, which would be
    // the only steady-state allocation left in a warm apply.
    let comm_before = (c.size() > 1).then(|| c.stats());
    pt.phase(Phase::Comm, || {
        prof.timed(Phase::Comm, |_| {
            if c.size() > 1 {
                let hypercube = match cfg.reduction {
                    Reduction::Auto => c.size().is_power_of_two(),
                    Reduction::Hypercube => true,
                    Reduction::Naive => false,
                };
                if hypercube {
                    reduce_scatter_hypercube(c, l, ulen, u);
                } else {
                    reduce_scatter_naive(c, l, ulen, u);
                }
            }
        })
    });
    let comm_reduce = match comm_before {
        Some(b) => stats_delta(&b, &c.stats()),
        None => CommStats::default(),
    };
    // Ghost densities may have arrived: refresh occupancy.
    refresh_ghost_has_up(ulen, u, has_up);
    let u: &[f64] = u; // read-only from here on
    let has_up: &[bool] = has_up;

    // Direct interactions (U-list); parallel over target leaves, with
    // ranges cut by interaction count (source·target point products) —
    // adaptive trees concentrate the near-field work in the refined
    // regions, which starves count-based chunks. Runs first among the
    // potential writers so the per-point accumulation order (U, D2T, W)
    // matches the graph executor's chunk chains.
    let pt_base = &|i: usize| l.pt_off[i.min(noct)] * td;
    pt.phase(Phase::UList, || {
        prof.timed(Phase::UList, |prof| {
            let flops =
                par_windows_weighted(threads, uli_weights, f, pt_base, |range, window, base| {
                    pt.chunk(Phase::UList, || cxr.uli_range(range, window, base))
                });
            prof.add_flops(Phase::UList, flops);
        })
    });

    // (3b) X-list: sources of big adjacent leaves onto our downward check
    // surfaces; before V for the same accumulation-order reason.
    pt.phase(Phase::XList, || {
        prof.timed(Phase::XList, |prof| {
            let flops = par_windows(
                threads,
                noct,
                dcheck,
                &|i| i * clen,
                |range, window, base| {
                    pt.chunk(Phase::XList, || {
                        pool.with(|sc| cxr.xli_range(range, window, base, sc))
                    })
                },
            );
            prof.add_flops(Phase::XList, flops);
        })
    });

    // (3a) V-list, parallel over target octants with edge-count-weighted
    // range cuts (every V edge costs the same within a mode).
    pt.phase(Phase::VList, || {
        prof.timed(Phase::VList, |prof| match cfg.m2l {
            M2lMode::Dense => {
                let flops = par_windows_weighted(
                    threads,
                    vli_weights,
                    dcheck,
                    &|i| i * clen,
                    |range, window, base| {
                        pt.chunk(Phase::VList, || {
                            cxr.vli_dense_range(has_up, u, range, window, base)
                        })
                    },
                );
                prof.add_flops(Phase::VList, flops);
            }
            M2lMode::Fft => {
                let fl = cx.vli_fft_spectra_into(has_up, u, threads, needed, sources, uhat);
                prof.add_flops(Phase::VList, fl);
                let uhat: &[Option<Arc<Vec<Complex>>>] = uhat;
                let flops = par_windows_weighted(
                    threads,
                    vli_weights,
                    dcheck,
                    &|i| i * clen,
                    |range, window, base| {
                        pt.chunk(Phase::VList, || {
                            cxr.vli_fft_range(has_up, uhat, range, window, base)
                        })
                    },
                );
                prof.add_flops(Phase::VList, flops);
            }
            M2lMode::FftBatched => {
                let table = btable
                    .as_ref()
                    .expect("spectrum table built at workspace creation");
                let fl =
                    cx.vli_batched_spectra_into(has_up, u, threads, needed, sources, pool, src);
                prof.add_flops(Phase::VList, fl);
                let src: &SourceSpectra = src;
                let flops = par_windows_weighted(
                    threads,
                    vli_weights,
                    dcheck,
                    &|i| i * clen,
                    |range, window, base| {
                        pt.chunk(Phase::VList, || {
                            pool.with(|sc| {
                                cxr.vli_batched_range(has_up, table, src, range, window, base, sc)
                            })
                        })
                    },
                );
                prof.add_flops(Phase::VList, flops);
            }
        })
    });
    let dcheck: &[f64] = dcheck;

    // (4) D2D + (5b) D2T — the downward pass.
    pt.phase(Phase::Downward, || {
        prof.timed(Phase::Downward, |prof| {
            let fl = pt.chunk(Phase::Downward, || match cfg.translate {
                TranslateMode::Gemm => pool.with(|sc| cx.d2d_levels_gemm(max_level, dcheck, d, sc)),
                TranslateMode::Matvec => cx.d2d_levels(by_level, max_level, dcheck, d),
            });
            prof.add_flops(Phase::Downward, fl);
            let d: &[f64] = d;
            let flops = par_windows(threads, noct, f, pt_base, |range, window, base| {
                pt.chunk(Phase::Downward, || {
                    pool.with(|sc| cxr.d2t_range(d, range, window, base, sc))
                })
            });
            prof.add_flops(Phase::Downward, flops);
        })
    });

    // (5a) W-list: multipoles of small far leaves directly to targets.
    pt.phase(Phase::WList, || {
        prof.timed(Phase::WList, |prof| {
            let flops = par_windows(threads, noct, f, pt_base, |range, window, base| {
                pt.chunk(Phase::WList, || {
                    pool.with(|sc| cxr.wli_range(has_up, u, range, window, base, sc))
                })
            });
            prof.add_flops(Phase::WList, flops);
        })
    });

    comm_reduce
}

/// The task-graph executor: octant-chunk tasks with explicit data
/// dependencies, the reduce-and-scatter as a polled comm task, and the
/// comm-independent U/X chunks overlapping it.
#[allow(clippy::too_many_arguments)]
fn run_phases_graph(
    fmm: &Fmm,
    c: &Comm,
    l: &Let,
    lists: &Lists,
    data: &EvalData,
    ws: &mut EvalWorkspace,
    prof: &mut Profile,
    tracer: &Tracer,
) -> CommStats {
    let cfg = fmm.config();
    let EvalWorkspace {
        ref nf,
        ref btable,
        ref pool,
        ref mut u,
        ref mut has_up,
        ref mut ucheck,
        ref mut dcheck,
        ref mut d,
        ref mut f,
        ..
    } = *ws;
    let cx = Ctx::new(fmm, l, lists, data, nf.as_ref(), btable.as_ref());
    let workers = cfg.threads.max(1);
    let noct = l.len();
    let (ulen, clen, td) = (cx.ulen, cx.clen, cx.td);
    let by_level = &data.by_level;
    let max_level = data.max_level;

    // Octant chunking: enough chunks to keep the workers fed while the
    // comm task is in flight, without drowning small problems in task
    // overhead. Chunk boundaries are cut by interaction count (one weight
    // serves every list phase — the U/V/W/X degree dominates an octant's
    // work) and do not affect the numerics (every task writes per-octant
    // slices).
    let nchunks = noct.min((workers * 4).max(4));
    let chunk_weights: Vec<u64> = (0..noct).map(|i| 1 + lists.degree(i) as u64).collect();
    let cuts: Vec<usize> = weighted_cuts(nchunks, &chunk_weights);
    let oct_base = |i: usize| i * ulen;
    let chk_base = |i: usize| i * clen;
    let pt_base = |i: usize| l.pt_off[i.min(noct)] * td;

    let gemm = cfg.translate == TranslateMode::Gemm;
    // The graph temporarily owns the workspace's pre-zeroed phase
    // buffers (GraphBuf wants ownership); they are restored below after
    // the run so later applies reuse the allocations. `ucheck` is sized
    // `noct * clen` only in gemm mode and empty otherwise, matching its
    // use as the S2U check staging buffer.
    let ub = GraphBuf::new(std::mem::take(u));
    let hub = GraphBuf::new(std::mem::take(has_up));
    let dcb = GraphBuf::new(std::mem::take(dcheck));
    let fb = GraphBuf::new(std::mem::take(f));
    let db = GraphBuf::new(std::mem::take(d));
    let ucb = GraphBuf::new(std::mem::take(ucheck));
    let flops: Vec<AtomicU64> = (0..Phase::ALL.len()).map(|_| AtomicU64::new(0)).collect();
    let comm_delta: Slot<CommStats> = Slot::new();
    let spectra: Slot<Spectra> = Slot::new();
    let bspectra: Slot<BatchedSpectra> = Slot::new();
    let pass1: Slot<Arc<BatchedPass1>> = Slot::new();

    let cxr = &cx;
    let (ur, hur, dcr, fr, dbr, ucr) = (&ub, &hub, &dcb, &fb, &db, &ucb);
    let flr = &flops;
    let cdr = &comm_delta;
    let sp = &spectra;
    let bsp = &bspectra;
    let p1r = &pass1;

    let mut g = Graph::new();

    // S2U chunks: disjoint slices of `u` (matvec mode) or of the check
    // staging buffer (gemm mode), plus this chunk's `has_up` slice.
    let s2u_ids: Vec<_> = (0..nchunks)
        .map(|k| {
            let (lo, hi) = (cuts[k], cuts[k + 1]);
            g.task(Phase::Upward.label(), &[], move || {
                // Safety: chunk ranges are disjoint; U2U tasks depend on
                // every S2U chunk before touching `u`/`has_up` globally.
                let fl = if gemm {
                    let w = unsafe { ucr.slice_mut(chk_base(lo), chk_base(hi) - chk_base(lo)) };
                    pool.with(|sc| cxr.s2u_check_range(lo..hi, w, chk_base(lo), sc))
                } else {
                    let w = unsafe { ur.slice_mut(oct_base(lo), oct_base(hi) - oct_base(lo)) };
                    pool.with(|sc| cxr.s2u_range(lo..hi, w, oct_base(lo), sc))
                };
                let hw = unsafe { hur.slice_mut(lo, hi - lo) };
                cxr.mark_has_up_range(lo..hi, hw);
                flr[Phase::Upward as usize].fetch_add(fl, Ordering::Relaxed);
            })
        })
        .collect();

    // Gemm mode inserts the level-batched uc2e solve between the check
    // chunks and the U2U chain: one task, the sole writer of `u`.
    let mut upward_tail = s2u_ids;
    if gemm {
        let t = g.task(Phase::Upward.label(), &upward_tail, move || {
            // Safety: all S2U check chunks completed (dependencies); the
            // U2U chain is behind this task.
            let uc = unsafe { ucr.as_slice() };
            let uw = unsafe { ur.slice_mut(0, ur.len()) };
            let fl = pool.with(|sc| cxr.s2u_solve_levels(uc, uw, sc));
            flr[Phase::Upward as usize].fetch_add(fl, Ordering::Relaxed);
        });
        upward_tail = vec![t];
    }

    // U2U levels, chained deepest-first (each level reads children and
    // writes parents anywhere in the LET, so levels serialize).
    for level in (1..=max_level).rev() {
        let t = g.task(Phase::Upward.label(), &upward_tail, move || {
            // Safety: sole writer of `u`/`has_up` at this point in the
            // chain (all S2U chunks and shallower levels completed).
            let uw = unsafe { ur.slice_mut(0, ur.len()) };
            let hw = unsafe { hur.slice_mut(0, noct) };
            let fl = if gemm {
                pool.with(|sc| cxr.u2u_level_gemm(level, uw, hw, sc))
            } else {
                cxr.u2u_level(by_level, level, uw, hw)
            };
            flr[Phase::Upward as usize].fetch_add(fl, Ordering::Relaxed);
        });
        upward_tail = vec![t];
    }

    // The reduce-and-scatter as a comm task: non-blocking hypercube
    // rounds polled on the driver thread (the naive fallback completes
    // inside one poll — its collectives cannot deadlock on buffered
    // sends, and the workers keep computing U/X chunks meanwhile).
    let mut before: Option<CommStats> = None;
    let mut reducer: Option<HypercubeReduceAsync> = None;
    let comm_id = g.comm(Phase::Comm.label(), &upward_tail, move || {
        // Skip the stats snapshots at size 1 (nothing is exchanged, and
        // `Comm::stats` clones the per-peer map — an allocation).
        if before.is_none() && c.size() > 1 {
            before = Some(c.stats());
        }
        if c.size() > 1 {
            let hypercube = match cfg.reduction {
                Reduction::Auto => c.size().is_power_of_two(),
                Reduction::Hypercube => true,
                Reduction::Naive => false,
            };
            if hypercube {
                if reducer.is_none() {
                    // Safety: the upward chain completed (dependency) and
                    // nothing else touches `u` until this task finishes.
                    let u_ro = unsafe { ur.as_slice() };
                    reducer = Some(HypercubeReduceAsync::begin(c, l, ulen, u_ro));
                }
                if !reducer.as_mut().expect("begun above").poll(c, l) {
                    return CommPoll::Pending;
                }
                let uw = unsafe { ur.slice_mut(0, ur.len()) };
                reducer.take().expect("polled to done").finish(l, ulen, uw);
            } else {
                let uw = unsafe { ur.slice_mut(0, ur.len()) };
                reduce_scatter_naive(c, l, ulen, uw);
            }
        }
        let u_ro = unsafe { ur.as_slice() };
        let hw = unsafe { hur.slice_mut(0, noct) };
        refresh_ghost_has_up(ulen, u_ro, hw);
        cdr.put(match before.as_ref() {
            Some(b) => stats_delta(b, &c.stats()),
            None => CommStats::default(),
        });
        CommPoll::Ready
    });

    // U-list chunks: no dependencies at all — their sources' point
    // densities came with the LET, so they overlap the reduction.
    let uli_ids: Vec<_> = (0..nchunks)
        .map(|k| {
            let (lo, hi) = (cuts[k], cuts[k + 1]);
            g.task(Phase::UList.label(), &[], move || {
                // Safety: first writer of this chunk's potential slice;
                // D2T/W for the same chunk are chained behind it.
                let w = unsafe { fr.slice_mut(pt_base(lo), pt_base(hi) - pt_base(lo)) };
                let fl = cxr.uli_range(lo..hi, w, pt_base(lo));
                flr[Phase::UList as usize].fetch_add(fl, Ordering::Relaxed);
            })
        })
        .collect();

    // X-list chunks: also comm-independent (leaf sources, not upward
    // densities); first writers of their dcheck slices.
    let xli_ids: Vec<_> = (0..nchunks)
        .map(|k| {
            let (lo, hi) = (cuts[k], cuts[k + 1]);
            g.task(Phase::XList.label(), &[], move || {
                // Safety: V for the same chunk is chained behind X.
                let w = unsafe { dcr.slice_mut(chk_base(lo), chk_base(hi) - chk_base(lo)) };
                let fl = pool.with(|sc| cxr.xli_range(lo..hi, w, chk_base(lo), sc));
                flr[Phase::XList as usize].fetch_add(fl, Ordering::Relaxed);
            })
        })
        .collect();

    // V-list chunks: need the completed upward densities (Comm) and
    // chain behind the same chunk's X task (shared dcheck slice). The
    // FFT path inserts the shared forward-transform pass in between.
    let v_dep = match cfg.m2l {
        M2lMode::Dense => comm_id,
        M2lMode::Fft => g.task(Phase::VList.label(), &[comm_id], move || {
            let u_ro = unsafe { ur.as_slice() };
            let hu = unsafe { hur.as_slice() };
            let (uhat, fl) = cxr.vli_fft_spectra(hu, u_ro, 1);
            sp.put(Arc::new(uhat));
            flr[Phase::VList as usize].fetch_add(fl, Ordering::Relaxed);
        }),
        M2lMode::FftBatched => {
            // Index the sources once comm is done, transform them in
            // `nchunks` disjoint block windows, then hand the table on.
            let index = g.task(Phase::VList.label(), &[comm_id], move || {
                // Safety: `has_up` is read-only once comm has refreshed it.
                let hu = unsafe { hur.as_slice() };
                let (mut needed, mut sources) = (Vec::new(), Vec::new());
                let mut out = SourceSpectra::empty();
                cxr.vli_batched_index(hu, &mut needed, &mut sources, &mut out);
                let blocks = GraphBuf::new(std::mem::take(&mut out.blocks));
                p1r.put(Arc::new((sources, out, blocks)));
            });
            let runs: Vec<_> = (0..nchunks)
                .map(|k| {
                    g.task(Phase::VList.label(), &[index], move || {
                        let p1 = p1r.with(Arc::clone);
                        let (sources, _, blocks) = &*p1;
                        let (lo, hi) = (
                            k * sources.len() / nchunks,
                            (k + 1) * sources.len() / nchunks,
                        );
                        let block = cxr.fftb.source_block();
                        // Safety: `u` is read-only after comm; the runs'
                        // block windows are disjoint, and the hand-off
                        // task below waits for every run.
                        let u_ro = unsafe { ur.as_slice() };
                        let w = unsafe { blocks.slice_mut(lo * block, (hi - lo) * block) };
                        let fl = cxr.vli_batched_transform(sources, lo..hi, u_ro, w, pool);
                        flr[Phase::VList as usize].fetch_add(fl, Ordering::Relaxed);
                    })
                })
                .collect();
            g.task(Phase::VList.label(), &runs, move || {
                let (_, mut out, blocks) =
                    Arc::into_inner(p1r.take()).expect("every pass-1 run finished");
                out.blocks = blocks.into_inner();
                bsp.put(Arc::new(out));
            })
        }
    };
    let vli_ids: Vec<_> = (0..nchunks)
        .map(|k| {
            let (lo, hi) = (cuts[k], cuts[k + 1]);
            let m2l = cfg.m2l;
            g.task(Phase::VList.label(), &[v_dep, xli_ids[k]], move || {
                let u_ro = unsafe { ur.as_slice() };
                let hu = unsafe { hur.as_slice() };
                let w = unsafe { dcr.slice_mut(chk_base(lo), chk_base(hi) - chk_base(lo)) };
                let fl = match m2l {
                    M2lMode::Dense => cxr.vli_dense_range(hu, u_ro, lo..hi, w, chk_base(lo)),
                    M2lMode::Fft => {
                        let uhat = sp.with(Arc::clone);
                        cxr.vli_fft_range(hu, &uhat, lo..hi, w, chk_base(lo))
                    }
                    M2lMode::FftBatched => {
                        let b = bsp.with(Arc::clone);
                        let table = cxr
                            .btable
                            .expect("spectrum table built at workspace creation");
                        pool.with(|sc| {
                            cxr.vli_batched_range(hu, table, &b, lo..hi, w, chk_base(lo), sc)
                        })
                    }
                };
                flr[Phase::VList as usize].fetch_add(fl, Ordering::Relaxed);
            })
        })
        .collect();

    // D2D: one level-synchronous task over the whole LET once dcheck is
    // complete (every V chunk implies its X chunk).
    let d2d_id = g.task(Phase::Downward.label(), &vli_ids, move || {
        let dc = unsafe { dcr.as_slice() };
        let dw = unsafe { dbr.slice_mut(0, dbr.len()) };
        let fl = if gemm {
            pool.with(|sc| cxr.d2d_levels_gemm(max_level, dc, dw, sc))
        } else {
            cxr.d2d_levels(by_level, max_level, dc, dw)
        };
        flr[Phase::Downward as usize].fetch_add(fl, Ordering::Relaxed);
    });

    // D2T chunk k continues chunk k's potential slice after U-list; W
    // chunk k finishes it (and needs the ghost upward densities).
    for k in 0..nchunks {
        let (lo, hi) = (cuts[k], cuts[k + 1]);
        let d2t = g.task(Phase::Downward.label(), &[d2d_id, uli_ids[k]], move || {
            let d_ro = unsafe { dbr.as_slice() };
            let w = unsafe { fr.slice_mut(pt_base(lo), pt_base(hi) - pt_base(lo)) };
            let fl = pool.with(|sc| cxr.d2t_range(d_ro, lo..hi, w, pt_base(lo), sc));
            flr[Phase::Downward as usize].fetch_add(fl, Ordering::Relaxed);
        });
        g.task(Phase::WList.label(), &[d2t, comm_id], move || {
            let u_ro = unsafe { ur.as_slice() };
            let hu = unsafe { hur.as_slice() };
            let w = unsafe { fr.slice_mut(pt_base(lo), pt_base(hi) - pt_base(lo)) };
            let fl = pool.with(|sc| cxr.wli_range(hu, u_ro, lo..hi, w, pt_base(lo), sc));
            flr[Phase::WList as usize].fetch_add(fl, Ordering::Relaxed);
        });
    }

    // Trace emission is synthesized by the scheduler *after* the graph
    // completes, from interval records it keeps anyway — a traced graph
    // run schedules identically to an untraced one.
    let tc = tracer.enabled(TraceLevel::Phase).then_some(TraceCtx {
        tracer,
        rank: c.rank() as u32,
    });
    let rep = pfmm_sched::run_with(g, workers, tc).expect("the FMM task graph is acyclic");

    for ph in Phase::ALL {
        if let Some(&s) = rep.phase_secs.get(ph.label()) {
            prof.add_secs(ph, s);
        }
        prof.add_flops(ph, flops[ph as usize].load(Ordering::Relaxed));
    }
    prof.overlap_secs += rep.overlap_secs;
    prof.critical_path_secs += rep.critical_path_secs;

    // Hand the phase buffers back to the workspace for the next apply.
    *u = ub.into_inner();
    *has_up = hub.into_inner();
    *dcheck = dcb.into_inner();
    *f = fb.into_inner();
    *d = db.into_inner();
    *ucheck = ucb.into_inner();

    comm_delta.take()
}
