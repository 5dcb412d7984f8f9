"""End-to-end approximate counting (telescoping product over sequentially
fixed spins) and sequential approximate sampling, with per-step certified
error accounting, and the whole-instance acceptance check with its record
`CertificateReport` and its decay rate `rate_constant`.

Counting and sampling fix the free spins one at a time, in `free_vertices`
order, and certify each step on its own (`_step`): the step walks its
vertex's SAW tree on the influence-pruned frontier at tau = 10 eps/|free|,
and again at a tenth of tau until the step's certified error, read from
the walk's frontier bracket, fits its allotment eps/|free|.  So the step
errors of a count, and of a draw along whatever path it takes, sum to at
most eps.

Counting, the check and single draws are pure Python: the sampler draws
from a `random.Random(seed)`, one uniform per free vertex in
`free_vertices` order, so `approx_sample` (and `rfim sample`) load no numpy.
Only `sample_many` imports numpy, for its (count, n) output array.  All of
them walk with `rfim.sawtree.SawWalker` and load neither the in-memory tree
(`rfim.sawtree_oracle`) nor the exact kernel (`rfim.elimination`).
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, NamedTuple

from .graph import integer, max_degree, whole
from .model import (CertificationFailed, IsingInstance, check_eps, finite, hamiltonian,
                    influence_bound)
from .sawtree import NodeBudgetExhausted, SawWalker

if TYPE_CHECKING:
    import numpy as np

#: Per-step certified marginal error above which the log-ratio bound
#: e/(p_hat - e) is no longer controlled (p_hat >= 1/2).
STEP_ERROR_LIMIT = 0.25

#: Factor by which a step's tau falls from one walk to the next.
TAU_STEP = 10.0


def __getattr__(name):
    # The tree oracle's names, unused here: the benchmark's tracer wraps them
    # on this module until it wraps `SawWalker.walk` instead.  They resolve
    # on first use, so counting does not load `rfim.sawtree_oracle`.
    if name in ("build_saw_tree", "certified_truncation_error", "root_marginal",
                "ssm_certificate"):
        from . import sawtree_oracle

        return getattr(sawtree_oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class CertifiedErrorTooLarge(CertificationFailed):
    """A count step's certified marginal error reached 1/4 at a forced
    depth.  A spent node budget is `rfim.sawtree.NodeBudgetExhausted`."""


class CountResult(NamedTuple):
    log_z_estimate: float
    per_vertex_certified_error: list[float]
    total_certified_relative_error: float
    # forced depth (None = untruncated), else the steps' deepest SawWalk.depth
    depth_used: int | None
    tau: float | None  # the steps' smallest tau; None at a forced depth or with no step


class SampleResult(NamedTuple):
    config: list[int]
    depth_used: int | None  # as in CountResult, for this draw's steps
    per_vertex_certified_error: list[float]
    tau: float | None


class _Step(NamedTuple):
    marginal: float  # P(sigma_v = +1) given the spins fixed before v
    error: float  # certified error of the step
    tau: float | None  # the tau it fit at; None at a forced depth
    depth: int  # its walk's SawWalk.depth


class CertificateReport(NamedTuple):
    """Outcome of `check_instance`, its only producer.

    `influence_ok` is the influence condition M(delta, h0, beta) < delta^-2;
    `paths_ok` asks that every root-to-frontier path has at least half of its
    free vertices with |h| >= h0; `rate` is the implied decay rate when the
    influence condition holds.  `accepted` is the verdict: the aggregate
    certified error `certified_rel_err` is at most eps.  The frontier is the
    uniform cut at `depth` together with the influence threshold `tau`;
    `paths_ok` is read on that walked frontier, and `nodes` counts the
    walker nodes walked.
    """

    influence_ok: bool
    paths_ok: bool
    rate: float | None
    h0: float
    accepted: bool = False
    reason: str = ""
    certified_rel_err: float | None = None
    depth: int | None = None
    tau: float | None = None
    nodes: int | None = None


def rate_constant(delta: int, h0: float, beta: float) -> float | None:
    """Certified decay rate -1/2 log(M(delta,h0,beta) * delta^2), or None when
    the influence condition M < delta^-2 fails (or M is NaN)."""
    if delta < 1:
        return math.inf
    m_scaled = influence_bound(delta, h0, beta) * delta * delta
    if not m_scaled < 1.0:
        return None
    if m_scaled == 0.0:
        return math.inf
    return -0.5 * math.log(m_scaled)


def default_h0(delta: int, beta: float) -> float:
    """Field threshold at which the influence condition holds comfortably."""
    d = max(delta, 1)
    return abs(beta) * d + math.log(d) + 3.0


def choose_depth(n: int, eps: float, c1: float) -> int:
    """Truncation depth ceil(log(4n/eps)/c1), and 1 at c1 = inf; n is an
    integer >= 1."""
    check_eps(eps)
    n = integer(n, "n", 1)
    if c1 <= 0.0:
        raise ValueError("no certified rate: c1 must be > 0")
    if math.isinf(c1):
        return 1
    return math.ceil(math.log(4.0 * n / eps) / c1)


def _frontier(inst: IsingInstance, eps: float, depth_override):
    """(cut, first tau, allotment) of every step: the allotment is
    eps/|free|; a forced depth (math.inf = untruncated) is its uniform cut
    and no tau, otherwise there is no cut and tau starts at ten allotments.
    A cut at n or deeper is None, untruncated, since a SAW has fewer than n
    edges, and so is reported as the depth used.  Any other depth_override
    than None, math.inf or an integer >= 0 (not a bool) is a ValueError."""
    check_eps(eps)
    allot = eps / max(len(inst.free_vertices), 1)
    if depth_override is None:
        return None, 10.0 * allot, allot
    d = depth_override
    if d != math.inf and not (whole(d) and d >= 0):
        raise ValueError(f"depth_override must be None, math.inf or an integer >= 0, got {d!r}")
    return (None if d >= inst.graph.n else int(d)), None, allot


def _step(walker: SawWalker, v: int, boundary: dict, frontier, relative: bool) -> _Step:
    """Certify the marginal of free vertex v given `boundary`.

    The step's error is the walk's bracket width e, a bound on the
    marginal's distance from the exact one; for counting (`relative`) it is
    the log-ratio bound e/(p_hat - e), p_hat = max(p, 1 - p), and inf once e
    reaches STEP_ERROR_LIMIT.  The step walks at tau, tau/TAU_STEP, ...
    until its error fits the allotment; tau ends at 0, where the walk has
    no frontier and width 0.  At a forced depth (no tau) it walks once.  A
    step that ends with error inf, a count step at a forced depth, raises
    CertifiedErrorTooLarge; a walk that spends the walker's budget raises
    NodeBudgetExhausted, naming v and, when the step prunes, tau.
    """
    cut, tau, allot = frontier
    while True:
        res = walker.walk(v, boundary, cut, tau or 0.0)
        p, e = res.marginal, res.width
        if relative:
            e = e / (max(p, 1.0 - p) - e) if e < STEP_ERROR_LIMIT else math.inf
        if tau is None or e <= allot:
            if e == math.inf:
                raise CertifiedErrorTooLarge(f"certified marginal error {res.width:.3g} "
                                             f">= {STEP_ERROR_LIMIT} at vertex {v}")
            return _Step(p, e, tau, res.depth)
        tau /= TAU_STEP


def _pass(inst: IsingInstance, walker: SawWalker, frontier, pick, relative: bool, cache: dict):
    """Fix the free spins in `free_vertices` order, each to `pick(p)` for
    its certified marginal p (see `_step`): (config, steps, depth_used,
    tau) with depth_used and tau as in CountResult.

    `cache` is a trie over the spins fixed so far: a node holds its step
    under None and its children under +1 and -1, so a pass adds at most
    one node per step, and a step depends only on the spins before it.
    """
    boundary_now = dict(inst.boundary)
    steps = []
    node = cache
    for v in inst.free_vertices:
        step = node.get(None)
        if step is None:
            step = node[None] = _step(walker, v, boundary_now, frontier, relative)
        spin = pick(step.marginal)
        steps.append(step)
        boundary_now[v] = spin
        node = node.setdefault(spin, {})
    config = [boundary_now[v] for v in range(inst.graph.n)]
    cut, tau, _ = frontier
    if tau is None:
        return config, steps, cut, None
    return (config, steps, max((s.depth for s in steps), default=0),
            min((s.tau for s in steps), default=None))


def approx_partition(
    inst: IsingInstance,
    eps: float,
    depth_override: int | float | None = None,
) -> CountResult:
    """Estimate log Z with a certified relative-error bound.

    One telescoping pass fixes each free spin to its majority branch, of
    probability p_hat; log Z is -H(config) - sum log p_hat, and each step's
    certified error bounds its log p_hat term's error.  Each step fits
    eps/|free| (see `_step`), so the total fits eps; the steps share one
    budget of NODE_BUDGET walker nodes.  A forced depth (math.inf =
    untruncated) walks each step once at that uniform cut and reports its
    error, whatever its size.
    """
    frontier = _frontier(inst, eps, depth_override)
    config, steps, depth, tau = _pass(
        inst, SawWalker(inst), frontier, lambda p: +1 if p >= 0.5 else -1, True, {})
    errs = [s.error for s in steps]
    log_r = [-math.log(max(s.marginal, 1.0 - s.marginal)) for s in steps]
    return CountResult(
        log_z_estimate=float(-hamiltonian(inst, config) + math.fsum(log_r)),
        per_vertex_certified_error=errs,
        total_certified_relative_error=math.fsum(errs),
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
    its certified marginal (see `_step`).  Untruncated trees give an exact
    Gibbs draw; otherwise the draw is within the sum of its step errors,
    each a bracket width of at most eps/|free|, of the Gibbs law in total
    variation.  The draw's walks share one budget of NODE_BUDGET walker
    nodes.  A forced depth gives no eps guarantee: the draw walks each step
    once at that uniform cut and only reports its step errors."""
    frontier = _frontier(inst, eps, depth_override)
    return next(_draws(inst, frontier, random.Random(integer(seed, "seed", 0))))


def sample_many(
    inst: IsingInstance,
    eps: float,
    seed: int,
    count: int,
    depth_override: int | float | None = None,
) -> np.ndarray:
    """Draw `count` configurations, sharing a marginal cache across draws.

    A step's certified marginal depends only on the spins already fixed, so
    repeated draws reuse each other's steps.  The first draw is the draw of
    `approx_sample` with the same arguments, and each draw has a budget of
    its own.  Returns an array of shape (count, n).
    """
    import numpy as np

    frontier = _frontier(inst, eps, depth_override)
    draws = _draws(inst, frontier, random.Random(integer(seed, "seed", 0)))
    count = integer(count, "count", 0)
    out = np.empty((count, inst.graph.n), dtype=int)
    for i, res in zip(range(count), draws):
        out[i] = res.config
    return out


def _draws(inst: IsingInstance, frontier, rng: random.Random):
    """Sequential draws from `rng`, of which a draw takes one `random()` per
    free vertex, against a shared step cache; each draw resets the walker's
    budget."""
    walker = SawWalker(inst)
    cache: dict = {}

    def pick(p):
        return +1 if rng.random() < p else -1

    while True:
        walker.nodes = 0
        config, steps, depth, tau = _pass(inst, walker, frontier, pick, False, cache)
        yield SampleResult(config=config, depth_used=depth,
                           per_vertex_certified_error=[s.error for s in steps], tau=tau)


def check_instance(inst: IsingInstance, eps: float, h0: float | None = None) -> CertificateReport:
    """Per-instance acceptance certificate for the counting run.

    Walks each vertex's SAW tree cut at the uniform depth
    ceil(log(4n/eps)/rate) and pruned at tau = eps/(4n)/100, a hundredth of
    the paper's per-vertex share.  The certified error of a walk, the
    influence-path sum, holds leaf by leaf, so for this frontier too.  The walks check the
    strong-spatial-mixing certificate, whose path rule (`paths_ok`) is read
    on the walked frontier and does not gate the verdict, and aggregate
    per-vertex certified errors through the worst-case composition
    e/(1/2 - e).  Accepts exactly when the aggregate is at most eps; a
    rejection's reason names the vertex of largest certified error.  The
    walks share a budget of NODE_BUDGET walker nodes; when it runs out the
    instance is rejected.
    """
    check_eps(eps)
    delta = max_degree(inst.graph)
    if h0 is None:
        h0 = default_h0(delta, inst.beta)
    elif not (finite(h0) and h0 >= 0.0):  # the path rule reads h0 as given, M reads |h0|
        raise ValueError(f"h0 must be a non-negative finite number, got {h0!r}")
    rate = rate_constant(delta, h0, inst.beta)
    if rate is None:
        return CertificateReport(False, False, None, h0,
                                 reason=f"influence condition fails at h0={h0:.4g}", nodes=0)
    # the paper's ell0 = ceil(log max(n, 2) / rate) never binds: for
    # eps < 1, 4n/eps > max(n, 2), and at rate = inf both terms give depth 1
    depth = choose_depth(max(inst.graph.n, 1), eps, rate)
    tau = eps / (4.0 * max(inst.graph.n, 1)) / 100.0

    walker = SawWalker(inst, h0)
    free = inst.free_vertices
    try:
        # a walk cut at n or deeper is untruncated: a SAW has fewer than n edges
        walks = [walker.walk(v, inst.boundary, depth, tau) for v in free]
    except NodeBudgetExhausted as e:
        return CertificateReport(True, False, rate, h0, reason=f"{e} at depth {depth}",
                                 depth=depth, tau=tau, nodes=walker.nodes)

    per_vertex = [w.error for w in walks]
    if any(e >= STEP_ERROR_LIMIT for e in per_vertex):
        total = math.inf
    else:
        total = math.fsum(e / (0.5 - e) for e in per_vertex)
    accepted = total <= eps
    reason = ""
    if not accepted:
        e, v = max(zip(per_vertex, free), key=lambda ev: ev[0])
        reason = (f"aggregated certified error {total:.3g} > {eps}; "
                  f"largest at vertex {v}, certified error {e:.3g}")
    return CertificateReport(True, all(w.paths_ok for w in walks), rate, h0, accepted, reason,
                             total, depth, tau, walker.nodes)
