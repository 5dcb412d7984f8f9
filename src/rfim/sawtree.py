"""Self-avoiding-walk trees with fixed-spin leaves, the root-marginal
recursion, and certified truncation-error accounting.

A node of the tree is a self-avoiding walk in the graph.  Three kinds of
leaves carry a fixed spin: cycle-closing leaves (spin set by the incident-edge
order at the revisited vertex), boundary vertices (spin copied from the
instance boundary), and truncation-frontier nodes (spin set by policy).

`SawWalker` computes everything the counting layer needs from one
depth-first walk that keeps only the walk stack.  Its frontier is a uniform
cut depth, an influence threshold tau (a branch is expanded only while the
influence product along its path stays at least tau), or both.  The module
is the walker alone: the check, which reads the walker's path rule, lives
in `rfim.counting` with its `CertificateReport` and `rate_constant`, and
the tree built in memory, which the walker is tested against, in
`rfim.sawtree_oracle`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .graph import integer, vertex
from .model import CertificationFailed, IsingInstance, expit, influence_bound


def _child_term(x: float, b2: float) -> float:
    """A free child's term in its parent's log-odds, from its log-odds x:
    log((e^{2b} q + 1-q)/(q + e^{2b}(1-q))) with q = sigmoid(x) and b2 = 2b,
    which is logaddexp(b2 + x, 0) - logaddexp(x, b2)."""
    y = x + b2
    return (max(y, 0.0) + math.log1p(math.exp(-abs(y)))
            - max(x, b2) - math.log1p(math.exp(-abs(x - b2))))


#: Walker nodes that one `SawWalker` may walk before its `nodes` is set
#: back to 0.
NODE_BUDGET = 10**7


class NodeBudgetExhausted(CertificationFailed):
    """A walk would expand a node after its walker walked NODE_BUDGET nodes;
    the message names the walk's root and, when the walk prunes by tau > 0,
    its tau."""

    def __init__(self, nodes: int, root: int, tau: float):
        msg = f"node budget ran out after {nodes} walker nodes at vertex {root}"
        super().__init__(f"{msg}, tau={tau:.3g}" if tau > 0 else msg)
        self.nodes, self.root, self.tau = nodes, root, tau


class SawWalk(NamedTuple):
    """Root quantities of one truncated SAW tree, from a single walk.

    With a uniform cut, `error` equals `certified_truncation_error` on the
    tree `rfim.sawtree_oracle.build_saw_tree` builds, `node_count` its
    `node_count`, and `paths_ok` the path rule of `ssm_certificate` (None
    when the walker was made without h0).  `depth` is one more than the
    deepest level the walk expanded (0 when it expanded none): a uniform
    cut at `depth` expands the same levels.

    `log_odds` and `width` are an estimate walker's: `log_odds` equals
    `root_log_odds` on that tree, and `width` is expit(hi) - expit(lo) for
    the largest and smallest root log-odds hi and lo over all frontier
    spins, so the exact marginal lies within `width` of `marginal`, and
    `width` <= `error`.  A certificate walker reports None for both.
    """

    log_odds: float | None
    error: float
    node_count: int
    paths_ok: bool | None
    depth: int
    width: float | None

    @property
    def marginal(self) -> float:
        """P(sigma_root = +1); an estimate walk's only."""
        return expit(self.log_odds)


class SawWalker:
    """Single-pass evaluation of SAW trees of one instance's graph, fields
    and beta; the boundary is given per walk.

    Made without h0 a walker is an estimate walker (counting, sampling): its
    walks report the root log-odds, the frontier bracket's `width` and no
    `paths_ok`.  Made with h0 it is a certificate walker (the check): its
    walks read the path rule into `paths_ok`, and, since the check reads
    only the certified error and the path rule, fold no log-odds and report
    no `log_odds` and no `width`.

    An expanded node's tree degree equals its graph degree (the root has no
    parent, every other node has all neighbours but its parent as children),
    so its influence bound M_v = influence_bound(deg v, h_v, beta) is
    computed once here rather than once per node.  The walks share one
    vertex-position list, so a walk costs memory and time in the nodes it
    walks, not in n, and one walker runs one walk at a time.

    `nodes` counts the nodes walked since the walker was made or `nodes`
    was last set to 0; the walks between share one budget of NODE_BUDGET.
    """

    def __init__(self, inst: IsingInstance, h0: float | None = None):
        g = inst.graph
        h = [float(x) for x in inst.fields]
        self.n = g.n
        self.adjacency = g.adjacency
        self.b2 = b2 = 2.0 * inst.beta
        self.h2 = [2.0 * x for x in h]
        self.influence = [influence_bound(g.degree(v), h[v], inst.beta) for v in range(g.n)]
        self.h0 = h0
        # the path rule's gain of a vertex: +1 when |h| >= h0, else -1; a
        # frontier path is short when its free vertices' gains sum below 0.
        # Without h0 all gain +1, so no path is short and the rule is None
        self.gain = [1] * g.n if h0 is None else [1 if abs(x) >= h0 else -1 for x in h]
        # a frontier leaf's -1 spin moves its parent's log-odds up (beta < 0)
        # or down (beta > 0) by 2|b2|; by 0 in a certificate walker
        self._up = -2.0 * b2 if h0 is None and b2 < 0 else 0.0
        self._down = 2.0 * b2 if h0 is None and b2 > 0 else 0.0
        # pos[w] = depth of w on the current walk, or -1; all -1 between walks
        self._pos = [-1] * g.n
        self.nodes = 0

    def walk(
        self,
        root: int,
        boundary: dict[int, int],
        cut_depth: int | None = None,
        tau: float = 0.0,
    ) -> SawWalk:
        """Walk the tree `rfim.sawtree_oracle.build_saw_tree` would build for
        these arguments, with frontier leaves fixed to +1.

        A free child becomes a frontier leaf at depth `cut_depth`, or when
        the influence product of its expanded ancestors is below `tau`
        (tau = 0 prunes nothing).  The walk adds its nodes to `nodes`, and
        raises NodeBudgetExhausted, naming root and tau, when it would
        expand a node once `nodes` has passed NODE_BUDGET.  A root that is
        not a vertex is a ValueError (`rfim.graph.vertex`).

        Iterative depth-first walk in tree order.  Each expanded node keeps a
        frame (vertex, parent, neighbour iterator, running log-odds, bracket
        offsets, influence product down to it, and the sum of the gains on
        its path, +1 per free vertex with |h| >= h0 and -1 per other); a
        node's log-odds is final when its neighbours are exhausted and is
        then folded into its parent's.  The certified error sums,
        over frontier leaves, the influence products of their expanded
        ancestors; the bound of `certified_truncation_error` holds leaf by
        leaf, so it holds for any frontier.

        The bracket [lo, hi] is kept as offsets dh = hi - acc, dl = acc - lo
        from the running log-odds acc.  A child's term in its parent's
        log-odds is monotone in the child's log-odds (Weitz, STOC 2006), so
        the parent's hi and lo take the terms of the child's hi and lo,
        swapped when beta < 0.  In a subtree without frontier leaves both
        offsets stay 0 and cost no term; for beta >= 0, dh stays 0.  A
        certificate walker folds no terms at all.
        """
        root = vertex(self.n, root, "root")
        if cut_depth is not None:
            cut_depth = integer(cut_depth, "cut_depth", 0)
        est = self.h0 is None
        paths_ok = None if est else True
        if root in boundary:
            self.nodes += 1
            x = math.inf if boundary[root] == 1 else -math.inf
            return SawWalk(x if est else None, 0.0, 1, paths_ok, 0, 0.0 if est else None)
        if cut_depth == 0:
            self.nodes += 1
            return SawWalk(math.inf if est else None, 1.0, 1, paths_ok, 0, 1.0 if est else None)

        adjacency, influence, gain = self.adjacency, self.influence, self.gain
        h2, b2, up, down = self.h2, self.b2, self._up, self._down
        # a SAW has fewer than n edges, so an untruncated walk never reaches n
        last = self.n if cut_depth is None else cut_depth - 1
        limit = NODE_BUDGET - self.nodes
        child_term = _child_term

        path = [root]  # path[d] = vertex at depth d on the current walk
        pos = self._pos
        pos[root] = 0
        frames = []
        count = 1
        total = 0.0
        short = False  # some frontier path has under half its free vertices with |h| >= h0

        v, parent, depth, deepest = root, -1, 0, 0
        it = iter(adjacency[root])
        acc, dh, dl = h2[root], 0.0, 0.0
        prod = influence[root]
        path_gain = gain[root]
        try:
            while True:
                for w in it:
                    if w == parent:
                        continue
                    count += 1
                    j = pos[w]
                    if j >= 0:
                        # cycle-closing leaf: +1 when the closing edge (w, v)
                        # comes after the starting edge (w, path[j+1]) at w
                        acc += b2 if v > path[j + 1] else -b2
                        continue
                    s = boundary.get(w)
                    if s is not None:
                        acc += b2 * s
                    elif depth == last or prod < tau:
                        total += prod
                        short = short or path_gain < 0
                        acc += b2  # frontier leaf, fixed to +1
                        dh += up
                        dl += down
                    else:
                        if count > limit:
                            raise NodeBudgetExhausted(self.nodes + count, root, tau)
                        frames.append((v, parent, it, acc, dh, dl, prod, path_gain))
                        parent, v = v, w
                        depth += 1
                        if depth > deepest:
                            deepest = depth
                        path.append(w)
                        pos[w] = depth
                        it = iter(adjacency[w])
                        acc, dh, dl = h2[w], 0.0, 0.0
                        prod *= influence[w]
                        path_gain += gain[w]
                        break
                else:
                    if not frames:
                        break
                    # v is done: fold its log-odds and bracket into its parent's
                    term = child_term(acc, b2) if est else 0.0
                    if dh or dl:
                        t_hi = child_term(acc + dh, b2) if dh else term
                        t_lo = child_term(acc - dl, b2) if dl else term
                        if b2 < 0:
                            t_hi, t_lo = t_lo, t_hi
                        # v's offsets, now in its parent's terms
                        dh, dl = t_hi - term, term - t_lo
                    pos[v] = -1
                    path.pop()
                    depth -= 1
                    v, parent, it, acc_p, dh_p, dl_p, prod, path_gain = frames.pop()
                    acc = acc_p + term
                    dh += dh_p
                    dl += dl_p
        finally:
            self.nodes += count
            for w in path:
                pos[w] = -1

        if not est:
            return SawWalk(None, min(total, 1.0), count, not short, deepest + 1, None)
        hi, lo = acc + dh, acc - dl
        # on the side where neither sigmoid rounds to 1, as in influence_bound
        width = expit(-lo) - expit(-hi) if lo > 0 else expit(hi) - expit(lo)
        return SawWalk(acc, min(total, 1.0), count, None, deepest + 1, width)
