"""Finite groups as multiplication tables, with verified subgroup embeddings."""

from __future__ import annotations

import numpy as np


class NotInjective(ValueError):
    pass


class NotHomomorphism(ValueError):
    pass


class GroupMismatch(ValueError):
    pass


class FiniteGroup:
    """A finite group given by its full multiplication table.

    table[i, j] is the index of the product element_i * element_j.
    The table form makes every "for all g" check exhaustively cheap at
    the orders this package targets (a few hundred at most).
    """

    def __init__(self, table, labels=None, name: str = ""):
        table = np.asarray(table, dtype=np.int64)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ValueError("multiplication table must be square")
        self.table = table
        self.order = table.shape[0]
        self.name = name
        n = self.order
        if table.min() < 0 or table.max() >= n:
            raise ValueError("table entries out of range")

        ident = None
        for e in range(n):
            if np.array_equal(table[e], np.arange(n)) and np.array_equal(table[:, e], np.arange(n)):
                ident = e
                break
        if ident is None:
            raise ValueError("no identity element")
        self.identity = ident

        # associativity on all triples
        left = table[table, :]
        right = table[:, table]
        if not np.array_equal(left, right):
            raise ValueError("multiplication table is not associative")

        inv = np.full(n, -1, dtype=np.int64)
        for x in range(n):
            hits = np.nonzero(table[x] == ident)[0]
            if len(hits) != 1 or table[hits[0], x] != ident:
                raise ValueError(f"element {x} has no two-sided inverse")
            inv[x] = hits[0]
        self.inverse_table = inv
        # quotient_table[x, y] is the index of x^-1 y
        self.quotient_table = table[inv]

        if labels is None:
            labels = [f"g{i}" for i in range(n)]
            labels[ident] = "e"
        self.labels = list(labels)

    def __len__(self):
        return self.order

    def __repr__(self):
        return f"FiniteGroup({self.name or self.order})"

    def mul(self, x: int, y: int) -> int:
        return int(self.table[x, y])

    def inv(self, x: int) -> int:
        return int(self.inverse_table[x])

    def label(self, x: int) -> str:
        return self.labels[x]

    def element_order(self, x: int) -> int:
        n, y = 1, x
        while y != self.identity:
            y = self.mul(y, x)
            n += 1
        return n

    def right_cosets(self, subset: list[int]) -> list[list[int]]:
        """Partition into right cosets {subset * g}, each sorted, ordered by min element."""
        seen = set()
        cosets = []
        for g in range(self.order):
            if g in seen:
                continue
            coset = sorted({self.mul(h, g) for h in subset})
            seen.update(coset)
            cosets.append(coset)
        cosets.sort(key=lambda c: c[0])
        return cosets

    @classmethod
    def cyclic(cls, n: int, gen_name: str = "a") -> "FiniteGroup":
        table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
        labels = ["e"] + [gen_name if i == 1 else f"{gen_name}{i}" for i in range(1, n)]
        return cls(table, labels=labels, name=f"Z/{n}")

    @classmethod
    def from_permutations(cls, gens: list[list[int]], gen_names=None, name: str = "") -> "FiniteGroup":
        """Close a set of permutations (images of 0..m-1) into a group.

        Element order is breadth-first from the identity, multiplying by the
        generators in the given order; this makes element indices reproducible.
        """
        if not gens:
            raise ValueError("need at least one generator")
        deg = len(gens[0])
        gens = [tuple(g) for g in gens]
        for g in gens:
            if sorted(g) != list(range(deg)):
                raise ValueError(f"not a permutation: {g}")
        if gen_names is None:
            gen_names = [chr(ord("a") + i) for i in range(len(gens))]
        ident = tuple(range(deg))
        elements = [ident]
        words = {ident: "e"}
        queue = [ident]
        while queue:
            cur = queue.pop(0)
            for g, gname in zip(gens, gen_names):
                prod = tuple(cur[g[i]] for i in range(deg))
                if prod not in words:
                    words[prod] = gname if cur == ident else words[cur] + gname
                    elements.append(prod)
                    queue.append(prod)
        index = {p: i for i, p in enumerate(elements)}
        n = len(elements)
        table = np.zeros((n, n), dtype=np.int64)
        for i, p in enumerate(elements):
            for j, q in enumerate(elements):
                comp = tuple(p[q[k]] for k in range(deg))
                table[i, j] = index[comp]
        return cls(table, labels=[words[p] for p in elements], name=name)


class SubgroupEmbedding:
    """An injective homomorphism source -> target, stored as an image map."""

    def __init__(self, source: FiniteGroup, target: FiniteGroup, mapping):
        self.source = source
        self.target = target
        self.mapping = np.asarray(mapping, dtype=np.int64)
        if self.mapping.shape != (source.order,):
            raise ValueError("mapping must list one target index per source element")

    def __call__(self, x: int) -> int:
        return int(self.mapping[x])

    def validate(self) -> bool:
        m = self.mapping
        if len(set(m.tolist())) != self.source.order:
            dup = [x for x in range(self.source.order) if list(m).count(m[x]) > 1]
            raise NotInjective(f"embedding identifies source elements {dup[:2]}")
        src, tgt = self.source, self.target
        lhs = m[src.table]
        rhs = tgt.table[np.ix_(m, m)]
        if not np.array_equal(lhs, rhs):
            bad = np.argwhere(lhs != rhs)[0]
            x, y = int(bad[0]), int(bad[1])
            raise NotHomomorphism(
                f"embedding is not a homomorphism at pair ({src.label(x)}, {src.label(y)}): "
                f"maps product to {tgt.label(int(lhs[x, y]))} but product of images is "
                f"{tgt.label(int(rhs[x, y]))}"
            )
        if m[src.identity] != tgt.identity:
            raise NotHomomorphism("embedding does not preserve the identity")
        return True

    def image(self) -> list[int]:
        return [int(x) for x in self.mapping]

    def preimage(self, t: int) -> int:
        hits = np.nonzero(self.mapping == t)[0]
        if len(hits) != 1:
            raise ValueError(f"{t} is not in the embedded image")
        return int(hits[0])
