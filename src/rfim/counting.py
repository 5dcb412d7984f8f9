"""End-to-end approximate counting (telescoping product over sequentially
fixed spins) and sequential approximate sampling, with per-run certified
error accounting and the whole-instance acceptance check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import max_degree
from .model import IsingInstance, hamiltonian, influence_bound
from .sawtree import CertificateReport, SawWalker

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


def rate_constant(delta: int, h0: float, beta: float) -> float | None:
    """Certified decay rate -1/2 log(M(delta,h0,beta) * delta^2), or None when
    the influence condition M < delta^-2 fails."""
    if delta < 1:
        return math.inf
    m_scaled = influence_bound(delta, h0, beta) * delta * delta
    if m_scaled >= 1.0:
        return None
    if m_scaled == 0.0:
        return math.inf
    return -0.5 * math.log(m_scaled)


def choose_depth(n: int, eps: float, delta: float, c1: float, ell0: int) -> int:
    """Truncation depth max{ceil(log(4n/eps)/c1), ell0}."""
    if not 0.0 < eps < 1.0 or not 0.0 < delta < 1.0:
        raise ValueError("eps and delta must lie in (0,1)")
    if c1 <= 0.0:
        raise ValueError("no certified rate: c1 must be > 0")
    if math.isinf(c1):
        return max(ell0, 1)
    return max(math.ceil(math.log(4.0 * n / eps) / c1), ell0)


def _min_distance(n: int, c1: float) -> int:
    if math.isinf(c1):
        return 0
    return math.ceil(math.log(max(n, 2)) / c1)


def _depth_schedule(inst: IsingInstance, eps: float, h0: float | None) -> int:
    """Initial truncation depth."""
    n = inst.graph.n
    delta = max_degree(inst.graph)
    if h0 is None:
        h0 = default_h0(delta, inst.beta)
    c1 = rate_constant(delta, h0, inst.beta)
    if c1 is None:
        depth = max(2, math.ceil(math.log(4.0 * n / eps)))
    else:
        depth = choose_depth(n, eps, eps, c1, _min_distance(n, c1))
    return depth


def _override_cut(depth_override: int | float, n: int) -> int | None:
    """The cut depth for a forced depth; None (untruncated) for math.inf or
    any depth a SAW tree on n vertices cannot reach."""
    cut = None if math.isinf(depth_override) else int(depth_override)
    return None if cut is not None and cut >= n else cut


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
    max_depth: int | None = None,
) -> CountResult:
    """Estimate log Z with a certified relative-error bound.

    With `depth_override` set (math.inf means untruncated) a single pass is
    made at that depth.  Otherwise the scheduled depth is used and doubled,
    up to `max_depth` (default: untruncated), until the certified total
    error fits within eps.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0,1)")
    n = inst.graph.n
    if max_depth is None:
        max_depth = n  # SAW walks have < n free levels, so depth n is exact

    if depth_override is not None:
        cut = _override_cut(depth_override, n)
        config, log_r, step_errs = _telescoping_pass(inst, cut)
        return _finish_count(inst, config, log_r, step_errs, cut)

    depth = _depth_schedule(inst, eps, h0)
    while True:
        cut = None if depth >= n else depth
        try:
            config, log_r, step_errs = _telescoping_pass(inst, cut)
            if cut is None or sum(step_errs) <= eps:
                return _finish_count(inst, config, log_r, step_errs, cut)
        except CertifiedErrorTooLarge:
            if cut is None:
                raise
        if cut is None or depth > max_depth:
            raise CertifiedErrorTooLarge(
                f"certified error exceeds {eps} at the maximum depth {max_depth}"
            )
        depth *= 2


def _finish_count(inst, config, log_r, step_errs, cut):
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
    return _sample_with(inst, eps, rng, depth_override, h0, cache=None)


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


def _sample_with(inst, eps, rng, depth_override, h0, cache):
    walker = SawWalker(inst)
    cut = _sample_cut(inst, eps, walker, depth_override, h0)
    return _draw(inst, walker, cut, rng, cache)


def _sample_cut(inst, eps, walker, depth_override, h0) -> int | None:
    """The sampler's cut depth: the forced depth, or the scheduled depth
    doubled until the certified TV budget fits.  Draws no random numbers."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0,1)")
    n = inst.graph.n
    if depth_override is not None:
        return _override_cut(depth_override, n)
    depth = _depth_schedule(inst, eps, h0)
    cut = None if depth >= n else depth
    while cut is not None:
        errs = _certified_step_errors(inst, walker, cut)
        if errs is not None and sum(errs) <= eps:
            break
        cut = None if 2 * cut >= n else 2 * cut
    return cut


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


def _certified_step_errors(inst: IsingInstance, walker: SawWalker, cut: int) -> list[float] | None:
    """Worst-case per-vertex certified errors with only the original boundary.

    Conservative for the sequential pass: extending the boundary only prunes
    frontier paths.  None if any error reaches the composition limit.
    """
    errs = []
    for v in inst.free_vertices:
        e = walker.walk(v, inst.boundary, cut).error
        if e >= STEP_ERROR_LIMIT:
            return None
        errs.append(e)
    return errs


def check_instance(inst: IsingInstance, eps: float, h0: float | None = None) -> CertificateReport:
    """Per-instance acceptance certificate for the counting run.

    Walks each vertex's SAW tree at the depth the counter would use, checks
    the strong-spatial-mixing certificate, and aggregates per-vertex certified
    errors through the worst-case composition e/(1/2 - e).  Accepts exactly
    when the aggregate is at most eps.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0,1)")
    delta = max_degree(inst.graph)
    if h0 is None:
        h0 = default_h0(delta, inst.beta)
    c1 = rate_constant(delta, h0, inst.beta)
    if c1 is None:
        return CertificateReport(
            influence_ok=False,
            paths_ok=False,
            rate=None,
            h0=h0,
            accepted=False,
            reason=f"influence condition fails at h0={h0:.4g}",
            tolerance=eps,
        )
    n = inst.graph.n
    depth = choose_depth(n, eps, eps, c1, _min_distance(n, c1))
    cut = None if depth >= n else depth

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
        rate=c1,
        h0=h0,
        accepted=accepted,
        reason="" if accepted else f"aggregated certified error {total:.3g} > {eps}",
        certified_rel_err=float(total) if math.isfinite(total) else total,
        tolerance=eps,
        depth=depth,
        per_vertex_err=per_vertex,
    )
