"""End-to-end approximate counting (telescoping product over sequentially
fixed spins) and sequential approximate sampling, with per-run certified
error accounting and the whole-instance acceptance check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import max_degree
from .model import IsingInstance, hamiltonian
from .sawtree import CertificateReport, SawWalker, rate_constant

# Unused here; kept importable because the perfbench tracer wraps these names
# on this module.
from .sawtree import (  # noqa: F401
    build_saw_tree,
    certified_truncation_error,
    root_marginal,
    ssm_certificate,
)

#: Per-step certified marginal error above which the log-ratio bound
#: e/(p_hat - e) is no longer controlled (p_hat >= 1/2).
STEP_ERROR_LIMIT = 0.25


class CertifiedErrorTooLarge(RuntimeError):
    """A per-step certified error reached 1/4 at the requested depth."""


@dataclass
class CountResult:
    log_z_estimate: float
    per_vertex_certified_error: list[float]
    total_certified_relative_error: float
    depth_used: int | None  # None = untruncated


@dataclass
class SampleResult:
    config: np.ndarray
    depth_used: int | None
    per_vertex_certified_error: list[float]


def default_h0(delta: int, beta: float) -> float:
    """Field threshold at which the influence condition holds comfortably."""
    d = max(delta, 1)
    return abs(beta) * d + math.log(d) + 3.0


def choose_depth(n: int, eps: float, c1: float, ell0: int) -> int:
    """Truncation depth max{ceil(log(4n/eps)/c1), ell0}."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0,1)")
    if c1 <= 0.0:
        raise ValueError("no certified rate: c1 must be > 0")
    if math.isinf(c1):
        return max(ell0, 1)
    return max(math.ceil(math.log(4.0 * n / eps) / c1), ell0)


def _schedule(inst: IsingInstance, eps: float, h0: float | None):
    """(h0, rate, depth): the field threshold (default_h0 when None), the
    certified rate (None when the influence condition fails) and the
    scheduled truncation depth."""
    n = inst.graph.n
    delta = max_degree(inst.graph)
    if h0 is None:
        h0 = default_h0(delta, inst.beta)
    rate = rate_constant(delta, h0, inst.beta)
    if rate is None:
        depth = max(2, math.ceil(math.log(4.0 * n / eps)))
    else:
        # ell0: the depth at which the certified decay reaches 1/n
        ell0 = 0 if math.isinf(rate) else math.ceil(math.log(max(n, 2)) / rate)
        depth = choose_depth(n, eps, rate, ell0)
    return h0, rate, depth


def _cuts(inst: IsingInstance, eps: float, depth_override, h0) -> list[int | None]:
    """The cut depths to try, in order; None means untruncated.

    A forced depth (math.inf = untruncated) is the only cut.  Otherwise the
    scheduled depth, doubled while it stays below n, then the untruncated
    tree: a SAW has fewer than n edges, so depth n or more is exact.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0,1)")
    n = inst.graph.n
    if depth_override is not None:
        cut = None if math.isinf(depth_override) else int(depth_override)
        return [None if cut is not None and cut >= n else cut]
    depth = _schedule(inst, eps, h0)[2]
    cuts = []
    while depth < n:
        cuts.append(depth)
        depth *= 2
    return cuts + [None]


def _first_fit(cuts: list, eps: float, certify):
    """(cut, result) for the first cut whose certified error fits eps, where
    `certify(cut)` returns (error, result); (last cut, None) when none fits.
    The last cut is never certified."""
    for cut in cuts[:-1]:
        err, result = certify(cut)
        if err <= eps:
            return cut, result
    return cuts[-1], None


def _telescoping_pass(inst: IsingInstance, cut_depth: int | None):
    """One greedy pass: fix each free spin to its majority branch.

    Returns (chosen spins for all vertices, per-step log-ratio terms,
    per-step certified marginal errors) or raises CertifiedErrorTooLarge.
    """
    walker = SawWalker(inst)
    boundary_now = dict(inst.boundary)
    log_r = []
    step_errs = []
    for v in inst.free_vertices:
        res = walker.walk(v, boundary_now, cut_depth)
        p, e = res.marginal, res.error
        if e >= STEP_ERROR_LIMIT:
            raise CertifiedErrorTooLarge(
                f"certified marginal error {e:.3g} >= {STEP_ERROR_LIMIT} at vertex {v}"
            )
        if p >= 0.5:
            spin, p_hat = +1, p
        else:
            spin, p_hat = -1, 1.0 - p
        log_r.append(-math.log(p_hat))
        step_errs.append(e / (p_hat - e))
        boundary_now[v] = spin
    config = np.array([boundary_now[v] for v in range(inst.graph.n)], dtype=int)
    return config, log_r, step_errs


def approx_partition(
    inst: IsingInstance,
    eps: float,
    depth_override: int | float | None = None,
    h0: float | None = None,
) -> CountResult:
    """Estimate log Z with a certified relative-error bound.

    Runs the telescoping pass at each of `_cuts` in turn and keeps the first
    whose certified total error fits within eps.  The last cut is kept
    whatever its error: a forced depth, or the untruncated (exact) pass.
    """

    def certify(cut):
        try:
            done = _telescoping_pass(inst, cut)
        except CertifiedErrorTooLarge:
            return math.inf, None
        return sum(done[2]), done

    cut, done = _first_fit(_cuts(inst, eps, depth_override, h0), eps, certify)
    config, log_r, step_errs = done or _telescoping_pass(inst, cut)
    log_z = -hamiltonian(inst, config) + sum(log_r)
    return CountResult(
        log_z_estimate=float(log_z),
        per_vertex_certified_error=step_errs,
        total_certified_relative_error=float(sum(step_errs)),
        depth_used=cut,
    )


def approx_sample(
    inst: IsingInstance,
    eps: float,
    seed: int,
    depth_override: int | float | None = None,
    h0: float | None = None,
) -> SampleResult:
    """Draw one spin configuration, sequentially sampling each free spin from
    its (approximate) conditional marginal.  Untruncated trees give an exact
    Gibbs draw; truncation adds at most the summed certified errors in total
    variation."""
    rng = np.random.default_rng(seed)
    return _sample_with(inst, eps, rng, depth_override, h0)


def sample_many(
    inst: IsingInstance,
    eps: float,
    seed: int,
    count: int,
    depth_override: int | float | None = None,
) -> np.ndarray:
    """Draw `count` configurations, sharing a marginal cache across draws.

    The conditional marginal at each step depends only on the spins already
    fixed, so repeated draws reuse each other's tree evaluations.  The cut
    depth depends only on the instance, so it is chosen once for all draws.
    Returns an array of shape (count, n).
    """
    rng = np.random.default_rng(seed)
    walker = SawWalker(inst)
    cut = _sample_cut(inst, eps, walker, depth_override, None)
    cache: dict = {}
    out = np.empty((count, inst.graph.n), dtype=int)
    for i in range(count):
        out[i] = _draw(inst, walker, cut, rng, cache).config
    return out


def _sample_with(inst, eps, rng, depth_override, h0):
    walker = SawWalker(inst)
    cut = _sample_cut(inst, eps, walker, depth_override, h0)
    return _draw(inst, walker, cut, rng, None)


def _sample_cut(inst, eps, walker, depth_override, h0) -> int | None:
    """The sampler's cut: the first of `_cuts` whose summed certified errors,
    walked with only the original boundary, fit the TV budget eps.  This is
    conservative for the sequential draw: extending the boundary only prunes
    frontier paths.  Draws no random numbers."""

    def certify(cut):
        total = 0.0
        for v in inst.free_vertices:
            e = walker.walk(v, inst.boundary, cut).error
            if e >= STEP_ERROR_LIMIT:
                return math.inf, None
            total += e
        return total, None

    return _first_fit(_cuts(inst, eps, depth_override, h0), eps, certify)[0]


def _draw(inst, walker, cut, rng, cache) -> SampleResult:
    """One sequential draw at cut depth `cut`; `cache` (or None) maps
    (vertex, spins fixed so far) to that step's (marginal, certified error)."""
    boundary_now = dict(inst.boundary)
    step_errs = []
    prefix: list[int] = []
    for v in inst.free_vertices:
        key = (v, tuple(prefix))
        hit = cache.get(key) if cache is not None else None
        if hit is None:
            res = walker.walk(v, boundary_now, cut)
            p, e = res.marginal, res.error
            if cache is not None:
                cache[key] = (p, e)
        else:
            p, e = hit
        spin = +1 if rng.random() < p else -1
        step_errs.append(e)
        boundary_now[v] = spin
        prefix.append(spin)
    config = np.array([boundary_now[v] for v in range(inst.graph.n)], dtype=int)
    return SampleResult(config=config, depth_used=cut, per_vertex_certified_error=step_errs)


def check_instance(inst: IsingInstance, eps: float, h0: float | None = None) -> CertificateReport:
    """Per-instance acceptance certificate for the counting run.

    Walks each vertex's SAW tree at the scheduled depth, checks the
    strong-spatial-mixing certificate, and aggregates per-vertex certified
    errors through the worst-case composition e/(1/2 - e).  Accepts exactly
    when the aggregate is at most eps.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0,1)")
    h0, rate, depth = _schedule(inst, eps, h0)
    if rate is None:
        return CertificateReport(
            influence_ok=False,
            paths_ok=False,
            rate=None,
            h0=h0,
            accepted=False,
            reason=f"influence condition fails at h0={h0:.4g}",
        )
    cut = None if depth >= inst.graph.n else depth

    walker = SawWalker(inst, h0)
    per_vertex = []
    paths_ok_all = True
    for v in inst.free_vertices:
        res = walker.walk(v, inst.boundary, cut)
        per_vertex.append(res.error)
        paths_ok_all = paths_ok_all and res.paths_ok

    if any(e >= STEP_ERROR_LIMIT for e in per_vertex):
        total = math.inf
    else:
        total = sum(e / (0.5 - e) for e in per_vertex)
    accepted = total <= eps
    return CertificateReport(
        influence_ok=True,
        paths_ok=paths_ok_all,
        rate=rate,
        h0=h0,
        accepted=accepted,
        reason="" if accepted else f"aggregated certified error {total:.3g} > {eps}",
        certified_rel_err=float(total),
        depth=depth,
    )
