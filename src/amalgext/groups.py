"""Finite groups as multiplication tables, with verified subgroup embeddings."""

from __future__ import annotations

from functools import cached_property

import numpy as np


class NotInjective(ValueError):
    pass


class NotHomomorphism(ValueError):
    pass


class GroupMismatch(ValueError):
    pass


# The largest group order accepted: a table and the checks on it take O(n^2)
# memory, and the associativity check n^2 cells per generator (at most log2 n
# generators for a group).  Every bundled and benchmark group has order <= 24.
MAX_ORDER = 1000


class FiniteGroup:
    """A finite group given by its full multiplication table.

    table[i, j] is the index of the product element_i * element_j.
    The table form makes every "for all g" check exhaustively cheap at
    the orders this package targets (at most MAX_ORDER).
    """

    def __init__(self, table, labels=None, name: str = ""):
        table = np.asarray(table, dtype=np.int64)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ValueError("multiplication table must be square")
        if table.shape[0] > MAX_ORDER:
            raise ValueError(f"group order {table.shape[0]} is over the limit of {MAX_ORDER}")
        self.table = table
        self.order = table.shape[0]
        self.name = name
        n = self.order
        if table.min() < 0 or table.max() >= n:
            raise ValueError("table entries out of range")

        # the first e whose row and column are both the identity permutation
        ar = np.arange(n)
        units = ((table == ar).all(axis=1) & (table == ar[:, None]).all(axis=0)).nonzero()[0]
        if not units.size:
            raise ValueError("no identity element")
        self.identity = ident = int(units[0])

        # associativity (Light's test): the z with (xy)z = x(yz) for all x, y
        # are closed under products, and right multiplication by the generators
        # reaches every element from the identity, so (xy)s = x(ys) for each
        # generator s covers all triples.  One generator at a time keeps it at
        # n^2 cells however many generators a table that is no group has;
        # gathered from the narrowest dtype that holds an element index.
        small = table.astype(np.min_scalar_type(n - 1))
        for s in self.generators:
            right = small[:, s]  # right[y] = y s
            if not np.array_equal(right[table], small[:, right]):
                raise ValueError("multiplication table is not associative")

        # x has an inverse when its row holds the identity once, at a y with yx = e
        hits = table == ident
        inv = hits.argmax(axis=1)
        bad = ((hits.sum(axis=1) != 1) | (table[inv, ar] != ident)).nonzero()[0]
        if bad.size:
            raise ValueError(f"element {bad[0]} has no two-sided inverse")
        self.inverse_table = inv
        # quotient_table[x, y] is the index of x^-1 y
        self.quotient_table = table[inv]

        if labels is None:
            labels = [f"g{i}" for i in range(n)]
            labels[ident] = "e"
        self.labels = list(labels)
        self._p_cores: dict[int, list[int]] = {}

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

    @cached_property
    def generators(self) -> np.ndarray:
        """generating_set of all elements, read-only; the identity alone for the trivial group."""
        gens = np.array(self.generating_set(range(self.order)) or [self.identity], dtype=np.int64)
        gens.setflags(write=False)
        return gens

    def generating_set(self, elements) -> list[int]:
        """Generators of the subgroup the elements generate: each one, in the
        given order, that the ones before it do not generate."""
        gens: list[int] = []
        self._closure(elements, gens)
        return gens

    def _closure(self, elements, gens=None) -> np.ndarray:
        """The subgroup the elements generate, as a mask: the identity closed under
        right multiplication by each element the ones before it do not reach (in a
        group the others add nothing), appended to gens and applied to every element
        reached so far; only newly reached elements then take every generator."""
        gens = [] if gens is None else gens
        reached = np.zeros(self.order, dtype=bool)
        reached[self.identity] = True
        for x in elements:
            if reached[x]:
                continue
            gens.append(x)
            frontier = self.table[:, x][reached]  # x applied to every element reached
            while len(frontier):
                before = reached.copy()
                reached[frontier] = True
                frontier = self.table.take((reached > before).nonzero()[0], 0).take(gens, 1)
        return reached

    def p_core(self, p: int) -> list[int]:
        """O_p(G), the largest normal p-subgroup, as sorted indices (trivial when p = 0).

        An element lies in it exactly when the normal subgroup generated by its
        conjugacy class is a p-group.
        """
        if p not in self._p_cores:
            # conj[g, x] = g^-1 x g
            conj = self.table[self.table[self.inverse_table], np.arange(self.order)[:, None]]
            # power[x] = x^(p^a) for p^a the p-part of |G|: the identity exactly
            # when x has p-power order, which every element of a p-subgroup has
            power, part = np.arange(self.order), 1
            while p and self.order % (part * p) == 0:
                part *= p
                base = power
                for _ in range(p - 1):
                    power = self.table[power, base]
            core: set[int] = set()
            for x in np.flatnonzero(power == self.identity).tolist():
                cls = set(conj[:, x].tolist())
                if x == min(cls) and part % int(self._closure(cls).sum()) == 0:
                    core |= cls
            self._p_cores[p] = sorted(core)
        return self._p_cores[p]

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
    def from_permutations(cls, gens: list[list[int]], gen_names=None, name: str = "") -> "FiniteGroup":
        """Close a set of permutations (images of 0..m-1) into a group.

        Element order is breadth-first from the identity, multiplying by the
        generators in the given order; this makes element indices reproducible.
        A group of order over MAX_ORDER is refused before any table is built.
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
        elements, index, labels = [ident], {ident: 0}, ["e"]
        source = [None]  # element_j = element_i o gens[s] for (i, s) = source[j], j > 0
        right = [[] for _ in gens]  # right[s][i] is the index of element_i o gens[s]
        for i, cur in enumerate(elements):  # a queue: it grows as the loop runs
            for s, (g, gname) in enumerate(zip(gens, gen_names)):
                prod = tuple(map(cur.__getitem__, g))
                if prod not in index:
                    index[prod] = len(elements)
                    labels.append(gname if i == 0 else labels[i] + gname)
                    source.append((i, s))
                    elements.append(prod)
                right[s].append(index[prod])
            if len(elements) > MAX_ORDER:
                raise ValueError(f"the generated group has order over the limit of {MAX_ORDER}")
        n = len(elements)
        right = np.array(right, dtype=np.int64)
        # with (i, s) = source[j], element_k o element_j = (element_k o element_i) o gens[s],
        # so column j of the table is right[s] gathered at column i
        table = np.empty((n, n), dtype=np.int64)
        table[:, 0] = np.arange(n)
        for j, (i, s) in enumerate(source[1:], 1):
            table[:, j] = right[s][table[:, i]]
        return cls(table, labels=labels, name=name)


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
