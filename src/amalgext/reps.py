"""Modules over finite group algebras: construction, restriction and intertwiner spaces."""

from __future__ import annotations

import numpy as np

from amalgext.groups import FiniteGroup, GroupMismatch, SubgroupEmbedding
from amalgext.linalg import Field


class KModule:
    """A finite-dimensional representation: one invertible matrix per group element.

    mats is one (|G|, dim, dim) array, so induction formulas index it
    directly and consumers stack nothing.  The constructor checks the action
    law (see validate).
    """

    def __init__(self, group: FiniteGroup, field: Field, mats):
        self.group = group
        self.field = field
        if len(mats) != group.order:
            raise ValueError("need one matrix per group element")
        try:
            self.mats = field.array(mats)
        except (TypeError, ValueError):  # ragged: numpy refuses, or Q meets an array entry
            raise ValueError("action matrices must be square of equal size") from None
        if self.mats.ndim != 3 or self.mats.shape[1] != self.mats.shape[2]:
            raise ValueError("action matrices must be square of equal size")
        self.dim = self.mats.shape[1]
        self.validate()

    def validate(self) -> bool:
        """Check that g -> mats[g] is a homomorphism, on the group's generators.

        The identity must act as 1, and mats[x] mats[s] = mats[xs] for every x
        and each generator s, all in one batched product.  That proves the law
        on all pairs: every y is a word in the generators, so
        mats[x] mats[y] = mats[xy] follows by induction on the length of y.
        """
        f, g = self.field, self.group
        if np.any(self.mats[g.identity] != f.eye(self.dim)):
            raise ValueError("identity must act as the identity matrix")
        gens = g.generators
        products = f.matmul(self.mats[:, None], self.mats[gens])
        bad = np.argwhere(np.any(products != self.mats[g.table[:, gens]], axis=(2, 3)))
        if len(bad):
            x, s = bad[0]
            raise ValueError(f"action is not a homomorphism at ({g.label(x)}, {g.label(gens[s])})")
        return True


def trivial_module(group: FiniteGroup, field: Field, dim: int = 1) -> KModule:
    return KModule(group, field, np.broadcast_to(field.eye(dim), (group.order, dim, dim)))


def module_from_generators(group: FiniteGroup, field: Field, gen_mats: dict[int, np.ndarray]) -> KModule:
    """Extend matrices given on generators to the whole group by closure.

    Each element takes the product along the first path that reaches it;
    KModule then refuses matrices that do not satisfy the group's relations.
    """
    if group.identity in gen_mats:
        raise ValueError("a matrix is given for the identity element "
                         f"{group.label(group.identity)}")
    gen_mats = {g: field.array(m) for g, m in gen_mats.items()}
    dims = {m.shape[0] for m in gen_mats.values()}
    if len(dims) != 1:
        raise ValueError("generator matrices must share one dimension")
    mats = {group.identity: field.eye(dims.pop())}
    queue = [group.identity]
    while queue:
        x = queue.pop(0)
        for g, mg in gen_mats.items():
            y = group.mul(x, g)
            if y not in mats:
                mats[y] = field.matmul(mats[x], mg)
                queue.append(y)
    if len(mats) != group.order:
        raise ValueError("given elements do not generate the group")
    return KModule(group, field, [mats[i] for i in range(group.order)])


def restrict_module(emb: SubgroupEmbedding, module: KModule) -> KModule:
    """Pull a module on the target group back along a subgroup embedding."""
    if module.group is not emb.target:
        raise GroupMismatch("module is not over the embedding target")
    return KModule(emb.source, module.field, module.mats[emb.mapping])


def hom_space(v: KModule, w: KModule) -> list[np.ndarray]:
    """Basis of the intertwiner space {S : S v(g) = w(g) S for all g}.

    Solved as one stacked kernel over a generating set of the group.
    """
    if v.group is not w.group:
        raise GroupMismatch("intertwiners need modules over the same group")
    f = v.field
    if f != w.field:
        raise GroupMismatch("intertwiners need one coefficient field")
    return [vec.reshape(w.dim, v.dim) for vec in f.kernel_basis(intertwiner_constraints(v, w))]


def intertwiner_constraints(v: KModule, w: KModule) -> np.ndarray:
    """The conditions S v(g) = w(g) S for g in a generating set, stacked, on S flattened row-major.

    S intertwines at every product once it does at each factor, so the
    generators cut out the same solution space as all elements; the trivial
    group contributes its identity.
    """
    f = v.field
    group = v.group
    eye_w = f.eye(w.dim)
    eye_v = f.eye(v.dim)
    blocks = [f.sub(np.kron(eye_w, v.mats[g].T), np.kron(w.mats[g], eye_v))
              for g in group.generators]
    return np.concatenate(blocks, axis=0)
