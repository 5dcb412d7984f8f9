"""The SAW tree built in memory (`build_saw_tree`) and evaluated in separate
passes (`root_log_odds`, `certified_truncation_error`, `ssm_certificate`):
the reference `rfim.sawtree.SawWalker` is tested against.  No subcommand
loads it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .model import IsingInstance, expit, influence_bound


class SawNode:
    __slots__ = ("graph_vertex", "field", "depth", "fixed_spin", "frontier", "children")

    def __init__(
        self,
        graph_vertex: int,
        field: float,
        depth: int,
        fixed_spin: int | None = None,
        frontier: bool = False,
        children: list[SawNode] | None = None,
    ):
        self.graph_vertex = graph_vertex
        self.field = field
        self.depth = depth
        self.fixed_spin = fixed_spin
        self.frontier = frontier
        self.children = [] if children is None else children

    def tree_degree(self) -> int:
        """Degree of the node within the tree (parent counts unless root)."""
        return len(self.children) + (0 if self.depth == 0 else 1)


class SawTree(NamedTuple):
    root: SawNode
    cut_depth: int | None  # None = untruncated
    node_count: int


def build_saw_tree(
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
    g = inst.graph
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
    import numpy as np

    b2 = 2.0 * beta
    return float(
        np.logaddexp(b2 + log_q, log_1mq) - np.logaddexp(log_q, b2 + log_1mq)
    )


def root_log_odds(tree: SawTree, beta: float) -> float:
    """Log-odds of spin +1 at the root, by bottom-up recursion.

    Fixed children contribute +-2*beta exactly; +inf/-inf are returned for a
    root fixed to +1/-1.
    """
    import numpy as np

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


def ssm_certificate(tree: SawTree, h0: float) -> bool:
    """The per-tree strong-spatial-mixing path rule: every root-to-frontier
    path has at least half of its free vertices with field magnitude >= h0.

    The certificate's other half, the influence condition M(delta, h0, beta)
    < delta^-2, does not depend on the tree: `rfim.counting.rate_constant`
    is None exactly when it fails.
    """
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
    return paths_ok

