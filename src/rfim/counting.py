"""End-to-end approximate counting (telescoping product over sequentially
fixed spins) and sequential approximate sampling, with per-run certified
error accounting and the whole-instance acceptance check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graph import max_degree
from .model import IsingInstance, hamiltonian
from .sawtree import CertificateReport, NodeBudgetExhausted, SawWalker, rate_constant

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

#: Walker nodes that the tau schedule of one `approx_partition`,
#: `approx_sample` or `sample_many` call may walk, summed over its attempts,
#: and that the walks of one `check_instance` call may walk.
NODE_BUDGET = 10**7

#: Factor by which tau falls from one attempt to the next.
TAU_STEP = 100.0


class CertifiedErrorTooLarge(RuntimeError):
    """A per-step certified error reached 1/4 at a forced depth, or the tau
    schedule ran out of its node budget before its certified error fit."""


@dataclass
class CountResult:
    log_z_estimate: float
    per_vertex_certified_error: list[float]
    total_certified_relative_error: float
    # forced depth (None = untruncated), else the kept pass's deepest SawWalk.depth
    depth_used: int | None
    tau: float | None  # influence threshold of the kept pass; None when forced


@dataclass
class SampleResult:
    config: np.ndarray
    depth_used: int | None  # as in CountResult, for the certification pass
    per_vertex_certified_error: list[float]
    tau: float | None


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


def _check_eps(eps: float) -> None:
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0,1)")


def _forced_cut(inst: IsingInstance, depth) -> int | None:
    """The uniform cut of a depth (math.inf = untruncated); None when
    untruncated, since a SAW has fewer than n edges."""
    cut = None if math.isinf(depth) else int(depth)
    return None if cut is not None and cut >= inst.graph.n else cut


class _Budget:
    """Counts one call's walker nodes against `limit` (None: no limit)."""

    def __init__(self, limit: int | None = None):
        self.limit, self.used = limit, 0

    def walk(self, walker: SawWalker, v: int, boundary, cut: int | None, tau: float):
        left = None if self.limit is None else self.limit - self.used
        res = walker.walk(v, boundary, cut, tau, left)
        self.used += res.node_count
        return res


def _first_tau(inst: IsingInstance, eps: float) -> float:
    """eps/(4n), where the tau schedule starts and the check's tau is taken."""
    return eps / (4.0 * max(inst.graph.n, 1))


def _fit_tau(inst: IsingInstance, eps: float, certify):
    """(tau, result) for the first tau of eps/(4n), eps/(4n)/TAU_STEP, ...
    whose pass fits eps, where `certify(tau, budget)` walks under `budget`
    and returns (certified error, result), the error math.inf when a step's
    certified error reached STEP_ERROR_LIMIT.

    The passes share one budget of NODE_BUDGET walker nodes; when it runs
    out, CertifiedErrorTooLarge says how the last finished pass failed, or
    that none finished.  The schedule ends: once tau underflows to 0 the
    pass is exact.
    """
    budget = _Budget(NODE_BUDGET)
    tau = _first_tau(inst, eps)
    last = "no tau pass finished"
    while True:
        try:
            err, result = certify(tau, budget)
        except NodeBudgetExhausted as e:
            raise CertifiedErrorTooLarge(
                f"node budget ran out after {budget.used + e.nodes} walker nodes at "
                f"tau={tau:.3g}; {last}"
            ) from None
        if err <= eps:
            return tau, result
        if math.isinf(err):
            last = f"the pass at tau={tau:.3g} stopped at a step error >= {STEP_ERROR_LIMIT}"
        else:
            last = f"last certified error {err:.3g} > eps {eps}"
        tau /= TAU_STEP


class _Pass(NamedTuple):
    config: np.ndarray  # the greedy configuration
    log_r: list[float]  # per-step log-ratio terms
    step_errs: list[float]  # per-step certified relative errors
    depth: int  # the walks' deepest SawWalk.depth


def _telescoping_pass(
    inst: IsingInstance, cut_depth: int | None, tau: float = 0.0, budget: _Budget | None = None
) -> _Pass:
    """One greedy pass: fix each free spin to its majority branch, walking
    each tree cut at `cut_depth` and pruned at `tau`, with its nodes counted
    against `budget` (no limit when None).  Raises CertifiedErrorTooLarge
    when a step's certified error reaches 1/4."""
    walker = SawWalker(inst)
    budget = budget or _Budget()
    boundary_now = dict(inst.boundary)
    log_r = []
    step_errs = []
    depth = 0
    for v in inst.free_vertices:
        res = budget.walk(walker, v, boundary_now, cut_depth, tau)
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
        depth = max(depth, res.depth)
        boundary_now[v] = spin
    config = np.array([boundary_now[v] for v in range(inst.graph.n)], dtype=int)
    return _Pass(config, log_r, step_errs, depth)


def approx_partition(
    inst: IsingInstance,
    eps: float,
    depth_override: int | float | None = None,
) -> CountResult:
    """Estimate log Z with a certified relative-error bound.

    With a forced depth (math.inf = untruncated), one telescoping pass at
    that uniform cut, whatever its certified error.  Otherwise the pass is
    walked on the influence-pruned frontier at each tau of `_fit_tau`, and
    the first pass whose certified total error fits eps is kept; the
    schedule raises CertifiedErrorTooLarge once it has walked NODE_BUDGET
    nodes.
    """
    _check_eps(eps)
    if depth_override is not None:
        cut = _forced_cut(inst, depth_override)
        done, tau, depth = _telescoping_pass(inst, cut), None, cut
    else:

        def certify(tau, budget):
            try:
                done = _telescoping_pass(inst, None, tau, budget)
            except CertifiedErrorTooLarge:
                return math.inf, None
            return sum(done.step_errs), done

        tau, done = _fit_tau(inst, eps, certify)
        depth = done.depth
    log_z = -hamiltonian(inst, done.config) + sum(done.log_r)
    return CountResult(
        log_z_estimate=float(log_z),
        per_vertex_certified_error=done.step_errs,
        total_certified_relative_error=float(sum(done.step_errs)),
        depth_used=depth,
        tau=tau,
    )


def approx_sample(
    inst: IsingInstance,
    eps: float,
    seed: int,
    depth_override: int | float | None = None,
) -> SampleResult:
    """Draw one spin configuration, sequentially sampling each free spin from
    its (approximate) conditional marginal.  Untruncated trees give an exact
    Gibbs draw; truncation adds at most the summed certified errors in total
    variation.  The frontier is a forced depth or the first tau of the
    schedule whose budget fits eps (see `_sample_frontier`); running out of
    NODE_BUDGET raises CertifiedErrorTooLarge.  A forced depth gives no eps
    guarantee: the draw only reports its summed certified errors, whatever
    their size."""
    rng = np.random.default_rng(seed)
    walker = SawWalker(inst)
    frontier = _sample_frontier(inst, eps, walker, depth_override)
    return _draw(inst, walker, frontier, rng, {})


def sample_many(
    inst: IsingInstance,
    eps: float,
    seed: int,
    count: int,
    depth_override: int | float | None = None,
) -> np.ndarray:
    """Draw `count` configurations, sharing a marginal cache across draws.

    The conditional marginal at each step depends only on the spins already
    fixed, so repeated draws reuse each other's walks.  The frontier depends
    only on the instance, so `_sample_frontier` chooses it once for all
    draws; without a forced depth its tau schedule runs under one node
    budget, and each draw then walks at most the nodes of the kept
    certification pass.  Returns an array of shape (count, n).
    """
    rng = np.random.default_rng(seed)
    walker = SawWalker(inst)
    frontier = _sample_frontier(inst, eps, walker, depth_override)
    cache: dict = {}
    out = np.empty((count, inst.graph.n), dtype=int)
    for i in range(count):
        out[i] = _draw(inst, walker, frontier, rng, cache).config
    return out


def _sample_frontier(inst, eps, walker, depth_override):
    """The sampler's frontier (cut, tau, depth_used).  A forced depth is the
    uniform cut alone.  Otherwise the first tau of `_fit_tau` whose summed
    certified errors, walked with only the original boundary, fit the TV
    budget eps.  This is conservative for the sequential draw: extending
    the boundary only turns walked nodes into leaves, and a pruned node's
    path product is the same in both walks, so a draw's frontier leaves are
    a subset of these.  Draws no random numbers."""
    _check_eps(eps)
    if depth_override is not None:
        cut = _forced_cut(inst, depth_override)
        return cut, None, cut

    def certify(tau, budget):
        total, depth = 0.0, 0
        for v in inst.free_vertices:
            res = budget.walk(walker, v, inst.boundary, None, tau)
            if res.error >= STEP_ERROR_LIMIT:
                return math.inf, None
            total += res.error
            depth = max(depth, res.depth)
        return total, depth

    tau, depth = _fit_tau(inst, eps, certify)
    return None, tau, depth


def _draw(inst, walker, frontier, rng, cache: dict) -> SampleResult:
    """One sequential draw on `frontier` (cut, tau, depth_used).  `cache` is
    a trie over the spins fixed so far: a node holds its step's (marginal,
    certified error) under None and its children under +1 and -1, so a
    draw adds at most one node per step."""
    cut, tau, depth = frontier
    boundary_now = dict(inst.boundary)
    step_errs = []
    node = cache
    for v in inst.free_vertices:
        step = node.get(None)
        if step is None:
            res = walker.walk(v, boundary_now, cut, tau or 0.0)
            step = node[None] = (res.marginal, res.error)
        p, e = step
        spin = +1 if rng.random() < p else -1
        step_errs.append(e)
        boundary_now[v] = spin
        node = node.setdefault(spin, {})
    config = np.array([boundary_now[v] for v in range(inst.graph.n)], dtype=int)
    return SampleResult(
        config=config, depth_used=depth, per_vertex_certified_error=step_errs, tau=tau
    )


def check_instance(inst: IsingInstance, eps: float, h0: float | None = None) -> CertificateReport:
    """Per-instance acceptance certificate for the counting run.

    Walks each vertex's SAW tree cut at the uniform depth
    max{ceil(log(4n/eps)/rate), ell0} and pruned at tau = eps/(4n)/TAU_STEP,
    one step below the first tau of the count schedule.  The certified
    error of a walk holds leaf by leaf, so for this frontier too.  The
    walks check the strong-spatial-mixing certificate, whose path rule
    (`paths_ok`) is read on the walked frontier and does not gate the
    verdict, and aggregate per-vertex certified errors through the
    worst-case composition e/(1/2 - e).  Accepts exactly when the aggregate
    is at most eps; a rejection's reason names the vertex of largest
    certified error.  The walks share a budget of NODE_BUDGET walker nodes;
    when it runs out the instance is rejected.
    """
    _check_eps(eps)
    n = inst.graph.n
    delta = max_degree(inst.graph)
    if h0 is None:
        h0 = default_h0(delta, inst.beta)
    rate = rate_constant(delta, h0, inst.beta)
    if rate is None:
        return CertificateReport(
            influence_ok=False,
            paths_ok=False,
            rate=None,
            h0=h0,
            accepted=False,
            reason=f"influence condition fails at h0={h0:.4g}",
            nodes=0,
        )
    # ell0: the depth at which the certified decay reaches 1/n
    ell0 = 0 if math.isinf(rate) else math.ceil(math.log(max(n, 2)) / rate)
    depth = choose_depth(n, eps, rate, ell0)
    cut = _forced_cut(inst, depth)
    tau = _first_tau(inst, eps) / TAU_STEP

    walker = SawWalker(inst, h0)
    budget = _Budget(NODE_BUDGET)
    free = inst.free_vertices
    try:
        walks = [budget.walk(walker, v, inst.boundary, cut, tau) for v in free]
    except NodeBudgetExhausted as e:
        nodes = budget.used + e.nodes
        reason = f"node budget ran out after {nodes} walker nodes at depth {depth}"
        return CertificateReport(influence_ok=True, paths_ok=False, rate=rate, h0=h0,
                                 accepted=False, reason=reason, depth=depth, tau=tau,
                                 nodes=nodes)

    per_vertex = [w.error for w in walks]
    if any(e >= STEP_ERROR_LIMIT for e in per_vertex):
        total = math.inf
    else:
        total = sum(e / (0.5 - e) for e in per_vertex)
    accepted = total <= eps
    reason = ""
    if not accepted:
        e, v = max(zip(per_vertex, free), key=lambda ev: ev[0])
        reason = (f"aggregated certified error {total:.3g} > {eps}; "
                  f"largest at vertex {v}, certified error {e:.3g}")
    return CertificateReport(
        influence_ok=True,
        paths_ok=all(w.paths_ok for w in walks),
        rate=rate,
        h0=h0,
        accepted=accepted,
        reason=reason,
        certified_rel_err=float(total),
        depth=depth,
        tau=tau,
        nodes=budget.used,
    )
