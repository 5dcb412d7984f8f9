"""Self-avoiding-walk trees with fixed-spin leaves, the root-marginal
recursion, and certified truncation-error accounting.

A node of the tree is a self-avoiding walk in the graph.  Three kinds of
leaves carry a fixed spin: cycle-closing leaves (spin set by the incident-edge
order at the revisited vertex), boundary vertices (spin copied from the
instance boundary), and truncation-frontier nodes (spin set by policy).

`SawWalker` computes everything the counting layer needs from one
depth-first walk that keeps only the walk stack.  Its frontier is a uniform
cut depth, an influence threshold tau (a branch is expanded only while the
influence product along its path stays at least tau), or both.
`build_saw_tree` and the functions that take a `SawTree` build the tree in
memory and evaluate it in separate passes; they are the reference the
walker is tested against.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .graph import Graph
from .model import IsingInstance, expit, influence_bound


def _sigmoid(x: float) -> float:
    """1 / (1 + e^-x), without overflow for any x including +-inf.

    For x < 0 this rounds differently from `rfim.model.expit`; the count and
    sample outputs are pinned to these bits, so the walker keeps it.
    """
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _child_term(x: float, b2: float) -> float:
    """A free child's term in its parent's log-odds, from its log-odds x:
    log((e^{2b} q + 1-q)/(q + e^{2b}(1-q))) with q = sigmoid(x) and b2 = 2b,
    which is logaddexp(b2 + x, 0) - logaddexp(x, b2)."""
    y = x + b2
    return (max(y, 0.0) + math.log1p(math.exp(-abs(y)))
            - max(x, b2) - math.log1p(math.exp(-abs(x - b2))))


class NodeBudgetExhausted(RuntimeError):
    """A walk expanded a node after walking more than its `max_nodes`."""

    def __init__(self, nodes: int):
        super().__init__(f"walk stopped after {nodes} nodes")
        self.nodes = nodes


class SawWalk(NamedTuple):
    """Root quantities of one truncated SAW tree, from a single walk.

    With a uniform cut, `log_odds` and `error` equal `root_log_odds` and
    `certified_truncation_error` on the built tree, `node_count` its
    `node_count`, and `paths_ok` the path rule of `ssm_certificate` (None
    when the walker was made without h0).  `depth` is one more than the
    deepest level the walk expanded (0 when it expanded none): a uniform
    cut at `depth` expands the same levels.
    """

    log_odds: float
    error: float
    node_count: int
    paths_ok: bool | None
    depth: int

    @property
    def marginal(self) -> float:
        """P(sigma_root = +1)."""
        return _sigmoid(self.log_odds)


class SawWalker:
    """Single-pass evaluation of SAW trees of one instance's graph, fields
    and beta; the boundary is given per walk.

    An expanded node's tree degree equals its graph degree (the root has no
    parent, every other node has all neighbours but its parent as children),
    so its influence bound M_v = influence_bound(deg v, h_v, beta) is
    computed once here rather than once per node.  The walks share one
    vertex-position list, so a walk costs memory and time in the nodes it
    walks, not in n, and one walker runs one walk at a time.
    """

    def __init__(self, inst: IsingInstance, h0: float | None = None):
        g = inst.graph
        h = [float(x) for x in inst.fields]
        self.n = g.n
        self.adjacency = g.adjacency
        self.b2 = 2.0 * inst.beta
        self.h2 = [2.0 * x for x in h]
        self.influence = [influence_bound(g.degree(v), h[v], inst.beta) for v in range(g.n)]
        self.h0 = h0
        # a vertex counts as large when |h| >= h0; without h0 all do, so the
        # path rule never fails and is reported as None
        self.large = [1] * g.n if h0 is None else [int(abs(x) >= h0) for x in h]
        # pos[w] = depth of w on the current walk, or -1; all -1 between walks
        self._pos = [-1] * g.n

    def walk(
        self,
        root: int,
        boundary: dict[int, int],
        cut_depth: int | None = None,
        tau: float = 0.0,
        max_nodes: int | None = None,
    ) -> SawWalk:
        """Walk the tree `build_saw_tree` would build for these arguments,
        with frontier leaves fixed to +1.

        A free child becomes a frontier leaf at depth `cut_depth`, or when
        the influence product of its expanded ancestors is below `tau`
        (tau = 0 prunes nothing).  The walk raises NodeBudgetExhausted when
        it would expand a node after walking more than `max_nodes` nodes.

        Iterative depth-first walk in tree order.  Each expanded node keeps a
        frame (vertex, parent, neighbour iterator, running log-odds, influence
        product down to it, free and large counts on its path); a node's
        log-odds is final when its neighbours are exhausted and is then
        folded into its parent's.  The certified error sums, over frontier
        leaves, the influence products of their expanded ancestors; the
        bound of `certified_truncation_error` holds leaf by leaf, so it
        holds for any frontier.
        """
        if not 0 <= root < self.n:
            raise IndexError(f"root {root} out of range")
        if cut_depth is not None and cut_depth < 0:
            raise ValueError("cut_depth must be >= 0")
        paths_ok = True if self.h0 is not None else None
        if root in boundary:
            return SawWalk(math.inf if boundary[root] == 1 else -math.inf, 0.0, 1, paths_ok, 0)
        if cut_depth == 0:
            return SawWalk(math.inf, 1.0, 1, paths_ok, 0)

        adjacency, influence, large = self.adjacency, self.influence, self.large
        h2, b2 = self.h2, self.b2
        # a SAW has fewer than n edges, so an untruncated walk never reaches n
        last = self.n if cut_depth is None else cut_depth - 1
        limit = sys.maxsize if max_nodes is None else max_nodes
        child_term = _child_term

        path = [root]  # path[d] = vertex at depth d on the current walk
        pos = self._pos
        pos[root] = 0
        frames = []
        count = 1
        total = 0.0
        short = False  # some frontier path has under half its free vertices large

        v, parent, depth, deepest = root, -1, 0, 0
        it = iter(adjacency[root])
        acc = h2[root]
        prod = influence[root]
        n_free, n_large = 1, large[root]
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
                        short = short or 2 * n_large < n_free
                        acc += b2  # frontier leaf, fixed to +1
                    else:
                        if count > limit:
                            raise NodeBudgetExhausted(count)
                        frames.append((v, parent, it, acc, prod, n_free, n_large))
                        parent, v = v, w
                        depth += 1
                        if depth > deepest:
                            deepest = depth
                        path.append(w)
                        pos[w] = depth
                        it = iter(adjacency[w])
                        acc = h2[w]
                        prod *= influence[w]
                        n_free += 1
                        n_large += large[w]
                        break
                else:
                    if not frames:
                        break
                    # v is done: fold its log-odds into its parent's
                    term = child_term(acc, b2)
                    pos[v] = -1
                    path.pop()
                    depth -= 1
                    v, parent, it, acc, prod, n_free, n_large = frames.pop()
                    acc += term
        finally:
            for w in path:
                pos[w] = -1

        if paths_ok is not None:
            paths_ok = not short
        return SawWalk(acc, min(total, 1.0), count, paths_ok, deepest + 1)


@dataclass
class SawNode:
    graph_vertex: int
    field: float
    depth: int
    fixed_spin: int | None = None
    frontier: bool = False
    children: list["SawNode"] = field(default_factory=list)

    def tree_degree(self) -> int:
        """Degree of the node within the tree (parent counts unless root)."""
        return len(self.children) + (0 if self.depth == 0 else 1)


@dataclass
class SawTree:
    root: SawNode
    cut_depth: int | None  # None = untruncated
    node_count: int


@dataclass
class CertificateReport:
    """Outcome of the strong-spatial-mixing certificate check.

    `influence_ok` is the influence condition M(delta, h0, beta) < delta^-2;
    `paths_ok` asks that every root-to-frontier path has at least half of its
    free vertices with |h| >= h0; `rate` is the implied decay rate when the
    influence condition holds.  The aggregation fields are filled by the
    whole-instance checker and stay None for a single tree.  The checker's
    frontier is the uniform cut at `depth` together with the influence
    threshold `tau`; its `paths_ok` is read on that walked frontier, and
    `nodes` counts the walker nodes it walked.
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


def build_saw_tree(
    g: Graph,
    inst: IsingInstance,
    root: int,
    cut_depth: int | None = None,
    frontier_spin: int | None = +1,
) -> SawTree:
    """Build the SAW tree rooted at `root`, truncated at `cut_depth` levels.

    Children of the walk (v_0..v_k) are the extensions by neighbors of v_k
    other than v_{k-1}.  An extension that revisits a walk vertex u = v_j
    becomes a cycle-closing leaf whose spin is +1 exactly when the closing
    edge (u, v_k) is larger than the starting edge (u, v_{j+1}) in the
    incident-edge order at u, i.e. when v_k > v_{j+1}.

    `frontier_spin` may be +1, -1, or None (leave the frontier free); frontier
    leaves are tagged so error accounting can find them.
    """
    if not 0 <= root < g.n:
        raise IndexError(f"root {root} out of range")
    if cut_depth is not None and cut_depth < 0:
        raise ValueError("cut_depth must be >= 0")
    h = inst.fields
    boundary = inst.boundary
    count = 0

    def make(vertex: int, depth: int) -> SawNode:
        nonlocal count
        count += 1
        return SawNode(vertex, float(h[vertex]), depth)

    root_node = make(root, 0)
    if root in boundary:
        root_node.fixed_spin = boundary[root]
        return SawTree(root_node, cut_depth, count)
    if cut_depth == 0:
        root_node.fixed_spin = frontier_spin
        root_node.frontier = True
        return SawTree(root_node, cut_depth, count)

    # walk_pos maps graph vertices on the current walk to their walk index;
    # walk holds the walk itself.  Iterative DFS: each stack entry expands one
    # free node, mutating walk/walk_pos with explicit backtrack markers.
    walk = [root]
    walk_pos = {root: 0}
    stack: list = [(root_node, None)]  # (free node to expand, prev graph vertex)
    POP = object()

    while stack:
        item = stack.pop()
        if item is POP:
            walk_pos.pop(walk.pop())
            continue
        node, prev = item
        v = node.graph_vertex
        depth = node.depth
        if depth > 0:
            walk.append(v)
            walk_pos[v] = depth
            stack.append(POP)
        for w in g.adjacency[v]:
            if w == prev:
                continue
            child = make(w, depth + 1)
            node.children.append(child)
            j = walk_pos.get(w)
            if j is not None:
                # cycle-closing leaf: compare closing edge (w, v) with
                # starting edge (w, walk[j+1]) by their other endpoints
                child.fixed_spin = +1 if v > walk[j + 1] else -1
            elif w in boundary:
                child.fixed_spin = boundary[w]
            elif cut_depth is not None and depth + 1 >= cut_depth:
                child.fixed_spin = frontier_spin
                child.frontier = True
            else:
                stack.append((child, v))

    return SawTree(root_node, cut_depth, count)


def _child_contribution(log_q: float, log_1mq: float, beta: float) -> float:
    """log((e^{2b} q + (1-q)) / (q + e^{2b}(1-q))) from log q, log(1-q)."""
    b2 = 2.0 * beta
    return float(
        np.logaddexp(b2 + log_q, log_1mq) - np.logaddexp(log_q, b2 + log_1mq)
    )


def root_log_odds(tree: SawTree, beta: float) -> float:
    """Log-odds of spin +1 at the root, by bottom-up recursion.

    Fixed children contribute +-2*beta exactly; +inf/-inf are returned for a
    root fixed to +1/-1.
    """
    contribution: dict[int, float] = {}  # id(node) -> term added to the parent

    stack = [(tree.root, False)]
    while stack:
        node, expanded = stack.pop()
        if node.fixed_spin is not None:
            contribution[id(node)] = 2.0 * beta * node.fixed_spin
            continue
        if not expanded:
            stack.append((node, True))
            for c in node.children:
                stack.append((c, False))
            continue
        log_odds = 2.0 * node.field
        # fixed child order for deterministic summation
        for c in node.children:
            log_odds += contribution.pop(id(c))
        if node is tree.root:
            return log_odds
        # p = sigmoid(log_odds): log q = -softplus(-L), log(1-q) = -softplus(L)
        log_q = -np.logaddexp(0.0, -log_odds)
        log_1mq = -np.logaddexp(0.0, log_odds)
        contribution[id(node)] = _child_contribution(log_q, log_1mq, beta)

    root = tree.root  # fixed root: marginal is deterministic
    return math.inf if root.fixed_spin == 1 else -math.inf


def root_marginal(tree: SawTree, beta: float) -> float:
    """P(sigma_root = +1) at the root of the tree."""
    return expit(root_log_odds(tree, beta))


def certified_truncation_error(tree: SawTree, beta: float) -> float:
    """Upper bound on the root-marginal swing over frontier spin choices.

    Sum over frontier leaves of the product, over free nodes on the
    root-to-leaf path, of the influence bound at the node's tree degree.
    Per-node tree degrees give a tighter bound than the graph maximum degree
    and are still valid by monotonicity of the influence function in degree.
    """
    if tree.cut_depth is None:
        return 0.0
    total = 0.0
    stack = [(tree.root, 1.0)]
    while stack:
        node, prod = stack.pop()
        if node.frontier:
            total += prod
            continue
        if node.fixed_spin is not None or not node.children:
            continue
        prod *= influence_bound(node.tree_degree(), node.field, beta)
        if prod == 0.0:
            continue
        for c in node.children:
            stack.append((c, prod))
    return min(total, 1.0)


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


def ssm_certificate(tree: SawTree, h0: float, beta: float, delta: int) -> CertificateReport:
    """Check the per-tree strong-spatial-mixing certificate.

    (a) the influence condition M(delta, h0, beta) < delta^-2, (b) every
    root-to-frontier path has at least half of its free vertices with field
    magnitude >= h0.  When (a) holds the implied rate is
    -1/2 * log(M(delta, h0, beta) * delta^2).
    """
    rate = rate_constant(delta, h0, beta)
    influence_ok = rate is not None

    paths_ok = True
    # (n_free, n_large) accumulated along the path to each node
    stack = [(tree.root, 0, 0)]
    while stack:
        node, n_free, n_large = stack.pop()
        if node.frontier:
            if 2 * n_large < n_free:
                paths_ok = False
                break
            continue
        if node.fixed_spin is not None:
            continue
        n_free += 1
        if abs(node.field) >= h0:
            n_large += 1
        for c in node.children:
            stack.append((c, n_free, n_large))

    reason = ""
    if not influence_ok:
        reason = f"influence condition fails at h0={h0:.4g}"
    elif not paths_ok:
        reason = "a root-to-frontier path has under half its free vertices with |h| >= h0"
    return CertificateReport(
        influence_ok=influence_ok,
        paths_ok=paths_ok,
        rate=rate,
        h0=h0,
        accepted=influence_ok and paths_ok,
        reason=reason,
    )


def dump(tree: SawTree) -> str:
    """Pre-order debug dump: one record per line of
    `depth graph_vertex fixed_spin child_count`, with '.' for a free spin."""
    lines = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        spin = "." if node.fixed_spin is None else f"{node.fixed_spin:+d}"
        lines.append(f"{node.depth} {node.graph_vertex} {spin} {len(node.children)}")
        for c in reversed(node.children):
            stack.append(c)
    return "\n".join(lines)
