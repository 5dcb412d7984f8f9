"""Frontier elimination, the kernel of the exact oracles of `rfim.model`,
which import it on their first call: only `rfim exact` and `rfim perc` load it.
"""

from __future__ import annotations

from math import exp, log1p
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .model import IsingInstance

#: Widest table, in free vertices, that the exact oracles build (or the
#: region's size, if larger); a wider plan is split by conditioning.
_TABLE_BITS = 16


def _plan(inst: IsingInstance, region: list[int]) -> tuple[list[tuple[int, list[int]]], int]:
    """The order in which `_region_log_z` adds the free vertices, and the
    widest table that order builds, in bits.

    Each step adds the vertex that leaves the smallest frontier, ties going
    to the lower index, and lists the vertices summed out right after it:
    those outside `region` none of whose free neighbours is left to add.
    """
    adjacency, fixed, keep = inst.graph.adjacency, inst.boundary, set(region)
    todo = inst.free_vertices
    left = {v: sum(w not in fixed for w in adjacency[v]) for v in todo}
    live: set[int] = set()
    steps, width = [], 0
    while todo:
        best = None
        for v in todo:
            done = [u for u in adjacency[v] if u in live and left[u] == 1 and u not in keep]
            if left[v] == 0 and v not in keep:
                done.append(v)
            if best is None or len(done) > len(best[1]):
                best = v, done
        v, done = best
        todo.remove(v)
        for w in adjacency[v]:
            if w in left:
                left[w] -= 1
        width = max(width, len(live) + 1)
        live.add(v)
        live.difference_update(done)
        steps.append(best)
    return steps, width


def _log_add(lo: list[float], hi: list[float]) -> list[float]:
    """log(e^a + e^b) for each pair of entries."""
    return [a + log1p(exp(b - a)) if a > b else b + log1p(exp(a - b)) for a, b in zip(lo, hi)]


def _sum_out(table: list[float], s: int) -> list[float]:
    """Sum the spin at index bit `s` (a power of two) out of a log-weight
    table: entry i with that bit clear is log-added to entry i + s."""
    step = 2 * s
    if len(table) // step <= s:  # few blocks of 2s entries: add their halves
        out = []
        for b in range(0, len(table), step):
            out += _log_add(table[b:b + s], table[b + s:b + step])
        return out
    out = [0.0] * (len(table) // 2)
    for o in range(s):
        out[o::s] = _log_add(table[o::step], table[o + s::step])
    return out


def _region_log_z(inst: IsingInstance, region: list[int]) -> list[float]:
    """log Z with the (free, distinct) vertices of `region` fixed, for each of
    their 2^r configurations in itertools.product((-1, 1), repeat=r) order.

    Frontier elimination: the free vertices are added in `_plan`'s order to
    a flat table of log-weights, one index bit per vertex in the table (bit
    j for the j-th oldest, spin -1 for a clear bit), and a vertex outside
    the region is summed out as soon as none of its free neighbours is left
    to add.  The cost is about 2^width per step for the widest table of the
    plan.  When that width exceeds max(_TABLE_BITS, r), the last free vertex
    outside the region is fixed to -1 and to +1 in turn and the two halves
    are added in log space.
    """
    in_region = set(region)
    others = [v for v in inst.free_vertices if v not in in_region]
    steps, width = _plan(inst, region)
    if others and width > max(_TABLE_BITS, len(region)):
        halves = [_region_log_z(inst.with_extra_boundary({others[-1]: s}), region) for s in (-1, 1)]
        return _log_add(*halves)
    adjacency, beta, fixed, h = inst.graph.adjacency, float(inst.beta), inst.boundary, inst.fields
    const = 0.0
    for v, s in fixed.items():
        const += s * (h[v] + beta * sum(fixed[w] for w in adjacency[v] if w > v and w in fixed))
    table, frontier = [float(const)], []
    for v, done in steps:
        # v's local field (h_v and beta times its neighbours' spins) for
        # every entry, built one bit at a time like the table itself
        local = [float(h[v]) + beta * sum(fixed[w] for w in adjacency[v] if w in fixed)]
        for u in frontier:
            if u in adjacency[v]:
                local = [x - beta for x in local] + [x + beta for x in local]
            else:
                local *= 2
        table = [t - x for t, x in zip(table, local)] + [t + x for t, x in zip(table, local)]
        frontier.append(v)
        for u in done:
            table = _sum_out(table, 1 << frontier.index(u))
            frontier.remove(u)
    # the frontier now holds the region; region[0] becomes the top bit
    index = [0]
    for u in reversed(region):
        bit = 1 << frontier.index(u)
        index += [i + bit for i in index]
    return [table[i] for i in index]
