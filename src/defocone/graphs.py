"""Graph toolkit: adjacency, components, breadth-first search, union-find.

Certificates record paths and class representatives, so two tie-breaks are
fixed here once for every caller: a search visits neighbours in sorted
order, first in, first out, and a union-find keeps the smallest member of
each class as its root.
"""

from __future__ import annotations


def adjacency(vertices, edges) -> dict:
    """Vertex -> sorted tuple of neighbours; edge endpoints missing from
    `vertices` are added."""
    adj: dict = {v: [] for v in vertices}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return {v: tuple(sorted(ns)) for v, ns in adj.items()}


def components(vertices, adj) -> list[tuple]:
    """Connected components of the subgraph of `adj` induced on `vertices`.

    Each component is a sorted tuple, so its first entry is its smallest
    label; components come in the order of their first vertex in
    `vertices`.  Every vertex must be a key of `adj`; one without
    neighbours in `vertices` is a component by itself.
    """
    inside = set(vertices)
    seen: set = set()
    out = []
    for root in vertices:
        if root in seen:
            continue
        seen.add(root)
        comp = [root]
        for x in comp:
            for y in adj[x]:
                if y in inside and y not in seen:
                    seen.add(y)
                    comp.append(y)
        out.append(tuple(sorted(comp)))
    return out


def bfs_parents(adj, roots) -> dict:
    """Breadth-first forest grown from each unreached root in the given
    order: vertex -> parent, None at a root, in visiting order."""
    parent: dict = {}
    for root in roots:
        if root in parent:
            continue
        parent[root] = None
        queue = [root]
        for x in queue:
            for y in sorted(adj[x]):
                if y not in parent:
                    parent[y] = x
                    queue.append(y)
    return parent


def tree_path(parent, u, v) -> list:
    """The vertex path from u to v in the forest of a parent map."""
    up = [u]
    while parent[up[-1]] is not None:
        up.append(parent[up[-1]])
    index = {x: i for i, x in enumerate(up)}
    down = [v]
    while down[-1] not in index:
        step = parent.get(down[-1])
        if step is None:
            raise ValueError(f"{u!r} and {v!r} are not in one tree")
        down.append(step)
    return up[: index[down[-1]] + 1] + down[-2::-1]


def bfs_path(adj, u, v) -> list:
    """A shortest path from u to v; ties go to the smaller label."""
    return tree_path(bfs_parents(adj, [u]), u, v)


class UnionFind:
    """Path-halving union-find (Tarjan 1975) over hashable, ordered items."""

    def __init__(self, items=()):
        self.parent = {x: x for x in items}

    def __contains__(self, x) -> bool:
        return x in self.parent

    def add(self, x):
        self.parent.setdefault(x, x)

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b) -> bool:
        """Merge the classes of a and b; the smaller root stays the root."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        lo, hi = (ra, rb) if ra < rb else (rb, ra)
        self.parent[hi] = lo
        return True

    def classes(self) -> dict:
        """Root -> set of members, in the insertion order of each class's
        first member."""
        out: dict = {}
        for x in self.parent:
            out.setdefault(self.find(x), set()).add(x)
        return out
