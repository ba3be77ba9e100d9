"""Ball truncations of the Bass-Serre tree and its simplicial chain complex.

Edges are right cosets of I, vertices right cosets of K1 and K2; the edge of
g joins the two vertex cosets of g.  Each edge is oriented from its K1 end
to its K2 end, which the group action preserves since it preserves types.
"""

from __future__ import annotations

import numpy as np

from amalgext.amalgam import AmalgamDatum, CosetRep, TAG_I, TAG_K1, TAG_K2
from amalgext.linalg import Field


class TreeBall:
    def __init__(self, datum: AmalgamDatum, r: int):
        if r < 0:
            raise ValueError("radius must be nonnegative")
        self.datum = datum
        self.r = r
        v1 = datum.ball(TAG_K1, r)
        v2 = datum.ball(TAG_K2, r)
        self.vertices = [CosetRep(TAG_K1, w) for w in v1] + [CosetRep(TAG_K2, w) for w in v2]
        self.vertex_index = {(rep.tag, rep.word): i for i, rep in enumerate(self.vertices)}
        edges = datum.ball(TAG_I, r)
        self.edges = [CosetRep(TAG_I, w) for w in edges]
        ends, _ = edges.tree.ends((datum.K1.identity, datum.K2.identity))
        self.endpoints = list(zip(*ends.tolist()))

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.num_vertices
        for a, b in self.endpoints:
            deg[a] += 1
            deg[b] += 1
        return deg

    def interior_vertices(self) -> list[int]:
        """Vertices whose whole edge neighbourhood is inside the ball."""
        return [i for i, rep in enumerate(self.vertices) if len(rep.word.letters) < self.r]

    def is_forest(self) -> bool:
        parent = list(range(self.num_vertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self.endpoints:
            ra, rb = find(a), find(b)
            if ra == rb:
                return False
            parent[ra] = rb
        return True

    def is_connected(self) -> bool:
        if self.num_vertices == 0:
            return True
        seen = {0}
        frontier = [0]
        adj = [[] for _ in range(self.num_vertices)]
        for a, b in self.endpoints:
            adj[a].append(b)
            adj[b].append(a)
        while frontier:
            x = frontier.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return len(seen) == self.num_vertices


def build_ball(datum: AmalgamDatum, r: int) -> TreeBall:
    return TreeBall(datum, r)


def chain_complex(ball: TreeBall, field: Field) -> tuple[np.ndarray, np.ndarray]:
    """Boundary (vertices x edges) and augmentation (1 x vertices) matrices.

    The boundary of an edge is its K1 end minus its K2 end; the augmentation
    sums vertex coefficients, so augmentation o boundary = 0.
    """
    boundary = field.zeros(ball.num_vertices, ball.num_edges)
    for j, (a, b) in enumerate(ball.endpoints):
        boundary[a, j] = field.add(boundary[a, j], 1)
        boundary[b, j] = field.sub(boundary[b, j], 1)
    augmentation = field.zeros(1, ball.num_vertices)
    augmentation[:] = 1
    return boundary, augmentation


def _rep_label(rep: CosetRep) -> str:
    return f"{rep.tag}:{rep.word!r}"


def to_dot(ball: TreeBall) -> str:
    """Deterministic DOT description of the ball."""
    lines = ["graph tree_ball {"]
    for i, rep in enumerate(ball.vertices):
        shape = "circle" if rep.tag == TAG_K1 else "box"
        lines.append(f'  v{i} [label="{_rep_label(rep)}", shape={shape}];')
    for j, rep in enumerate(ball.edges):
        a, b = ball.endpoints[j]
        lines.append(f'  v{a} -- v{b} [label="{_rep_label(rep)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
