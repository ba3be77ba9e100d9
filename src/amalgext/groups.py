"""Finite groups as multiplication tables, with verified subgroup embeddings."""

from __future__ import annotations

from functools import cached_property

import numpy as np

from amalgext.linalg import is_prime


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

    FiniteGroup(table) is for outside input, such as a `table =` section of an
    instance file: it checks the identity, associativity and inverses.
    from_permutations and quotient build tables that are a group's by
    construction, so they are not checked again: both go through _unchecked.
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
        self._finish(inv, labels)

    @classmethod
    def _unchecked(cls, table: np.ndarray, identity: int, inverse: np.ndarray, labels,
                   name: str) -> "FiniteGroup":
        """The group of a table that is a group's by construction, with its
        identity and inverses: nothing is checked."""
        group = cls.__new__(cls)
        group.table, group.order, group.name = table, len(table), name
        group.identity = identity
        group._finish(inverse, labels)
        return group

    def _finish(self, inverse: np.ndarray, labels):
        """The attributes read off a group's table, its identity and its inverses."""
        self.inverse_table = inverse
        # quotient_table[x, y] is the index of x^-1 y
        self.quotient_table = self.table[inverse]
        if labels is None:
            labels = [f"g{i}" for i in range(self.order)]
            labels[self.identity] = "e"
        self.labels = list(labels)
        self._cores: dict[tuple[int, bool], list[int]] = {}

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
        """O_p(G), the largest normal p-subgroup, as sorted indices, for prime p
        (ValueError for any other p)."""
        return self._core(p, True)

    def p_prime_core(self, p: int) -> list[int]:
        """O_p'(G), the largest normal subgroup of order prime to p, as sorted
        indices, for prime p (ValueError for any other p)."""
        return self._core(p, False)

    def _core(self, p: int, p_group: bool) -> list[int]:
        """O_p(G) (p_group) or O_p'(G), computed once per group and p.

        An element lies in it exactly when the normal subgroup its conjugacy
        class generates is a p-group, or of order prime to p: the product of
        two such normal subgroups is one too.  Each class is closed in one
        breadth-first pass under all its elements at once.
        """
        if (p, p_group) in self._cores:
            return self._cores[p, p_group]
        if not is_prime(p):  # the p-part loop below ends only for p >= 2
            raise ValueError(f"p must be a prime, got {p}")
        part = 1  # the p-part of |G|
        while self.order % (part * p) == 0:
            part *= p
        if part in (1, self.order):  # a p'-group or a p-group: one core is G, the other 1
            whole = (part == self.order) == p_group
            self._cores[p, p_group] = list(range(self.order)) if whole else [self.identity]
            return self._cores[p, p_group]
        if not p_group:
            # O_p' and O_p are normal and meet in 1, so they commute: O_p' is 1
            # when only elements of O_p centralize O_p
            o_p = self._core(p, True)
            central = (self.table[:, o_p] == self.table[o_p].T).all(axis=1)
            central[o_p] = False
            if not central.any():
                self._cores[p, p_group] = [self.identity]
                return self._cores[p, p_group]
        least = self._class_least
        # x^m is the identity for every x of the core, m = |G|_p for a p-group
        # and |G|_p' for a p'-group, and the core's order divides m
        m = part if p_group else self.order // part
        power, base, e = np.full(self.order, self.identity), np.arange(self.order), m
        while e:
            if e & 1:
                power = self.table[power, base]
            base, e = self.table[base, base], e >> 1
        core = np.zeros(self.order, dtype=bool)
        core[self.identity] = True
        candidates = (least == np.arange(self.order)) & (power == self.identity)
        candidates[self.identity] = False
        for x in np.flatnonzero(candidates):
            cls = np.flatnonzero(least == x)
            # the subgroup has the class and the identity, and its order divides m
            if len(cls) < m:
                size = int(self._generated(cls).sum())
                core[cls] = (part % size == 0) if p_group else (size % p != 0)
        self._cores[p, p_group] = np.flatnonzero(core).tolist()
        return self._cores[p, p_group]

    @cached_property
    def _class_least(self) -> np.ndarray:
        """The least element of each element's conjugacy class, which names the class."""
        # conj[g, x] = g^-1 x g
        conj = self.table[self.table[self.inverse_table], np.arange(self.order)[:, None]]
        return conj.min(axis=0)

    def _generated(self, elements: list[int]) -> np.ndarray:
        """The subgroup the elements generate, as a mask: the identity closed
        under right multiplication by all of them at once, one frontier of new
        elements at a time."""
        step = self.table[:, elements]  # step[frontier] is table[frontier][:, elements]
        reached = np.zeros(self.order, dtype=bool)
        reached[self.identity] = True
        frontier = [self.identity]
        while len(frontier):
            before = reached.copy()
            reached[step[frontier]] = True
            frontier = (reached > before).nonzero()[0]
        return reached

    def quotient(self, normal: list[int]) -> tuple["FiniteGroup", np.ndarray, np.ndarray]:
        """(G/N, the projection G -> G/N, the least element of each coset) for a
        normal subgroup N (sorted indices), maps as index arrays.  The cosets are
        numbered by their least elements, in order, and labelled by them.  The
        table is a group's, so it is not checked: the identity is eN and the
        inverse of xN is x^-1 N."""
        least = self.table[:, normal].min(axis=1)  # the least element of gN
        first = least == np.arange(self.order)
        reps = first.nonzero()[0]
        projection = (np.cumsum(first) - 1)[least]
        group = FiniteGroup._unchecked(projection[self.table[reps][:, reps]],
                                       int(projection[self.identity]),
                                       projection[self.inverse_table[reps]],
                                       [self.labels[r] for r in reps], f"{self.name}/N")
        return group, projection, reps

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
        The table composes permutations, so it is a group's and is not checked:
        element 0 is the identity, and x^-1 is where row x holds 0.
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
        return cls._unchecked(table, 0, table.argmin(axis=1), labels, name)


class SubgroupEmbedding:
    """A homomorphism source -> target, stored as an image map: an embedding
    once validate() passes, or the map of quotients one induces."""

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
