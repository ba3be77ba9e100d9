"""Modules over finite group algebras: intertwiners, induction, unit and counit maps."""

from __future__ import annotations

import numpy as np

from amalgext.groups import FiniteGroup, GroupMismatch, SubgroupEmbedding
from amalgext.linalg import Field


class NotIntertwiner(ValueError):
    pass


class KModule:
    """A finite-dimensional representation: one invertible matrix per group element.

    Storing the full element-indexed family (rather than generators only)
    keeps induction formulas direct and makes every action law checkable
    by exhaustion.
    """

    def __init__(self, group: FiniteGroup, field: Field, mats, validate: bool = True):
        self.group = group
        self.field = field
        self.mats = [field.array(m) for m in mats]
        if len(self.mats) != group.order:
            raise ValueError("need one matrix per group element")
        self.dim = self.mats[0].shape[0]
        for m in self.mats:
            if m.shape != (self.dim, self.dim):
                raise ValueError("action matrices must be square of equal size")
        if validate:
            self.validate()

    def validate(self) -> bool:
        f, g = self.field, self.group
        if np.any(self.mats[g.identity] != f.eye(self.dim)):
            raise ValueError("identity must act as the identity matrix")
        for x in range(g.order):
            for y in range(g.order):
                if np.any(f.matmul(self.mats[x], self.mats[y]) != self.mats[g.mul(x, y)]):
                    raise ValueError(
                        f"action is not a homomorphism at ({g.label(x)}, {g.label(y)})"
                    )
        return True

    def act(self, x: int) -> np.ndarray:
        return self.mats[x]

    def character(self, x: int):
        return self.field.reduce(np.trace(self.mats[x]))


def trivial_module(group: FiniteGroup, field: Field, dim: int = 1) -> KModule:
    return KModule(group, field, [field.eye(dim) for _ in range(group.order)], validate=False)


def regular_module(group: FiniteGroup, field: Field) -> KModule:
    n = group.order
    mats = []
    for g in range(n):
        m = field.zeros(n, n)
        for h in range(n):
            m[group.mul(g, h), h] = field.one
        mats.append(m)
    return KModule(group, field, mats, validate=False)


def module_from_generators(group: FiniteGroup, field: Field, gen_mats: dict[int, np.ndarray]) -> KModule:
    """Extend matrices given on generators to the whole group by closure.

    Raises ValueError if the matrices do not satisfy the group's relations.
    """
    mats: dict[int, np.ndarray] = {group.identity: None}
    dims = {m.shape[0] for m in (field.array(v) for v in gen_mats.values())}
    if len(dims) != 1:
        raise ValueError("generator matrices must share one dimension")
    dim = dims.pop()
    mats[group.identity] = field.eye(dim)
    queue = [group.identity]
    while queue:
        x = queue.pop(0)
        for g, mg in gen_mats.items():
            y = group.mul(x, g)
            cand = field.matmul(mats[x], field.array(mg))
            if y in mats:
                if np.any(mats[y] != cand):
                    raise ValueError(
                        f"generator matrices violate a relation at element {group.label(y)}"
                    )
            else:
                mats[y] = cand
                queue.append(y)
    if len(mats) != group.order:
        raise ValueError("given elements do not generate the group")
    return KModule(group, field, [mats[i] for i in range(group.order)])


def restrict_module(emb: SubgroupEmbedding, module: KModule) -> KModule:
    """Pull a module on the target group back along a subgroup embedding."""
    if module.group is not emb.target:
        raise GroupMismatch("module is not over the embedding target")
    return KModule(emb.source, module.field, [module.mats[emb(i)] for i in range(emb.source.order)],
                   validate=False)


def conjugate_module(module: KModule, p: np.ndarray) -> KModule:
    f = module.field
    p = f.array(p)
    pinv = _matrix_inverse(f, p)
    return KModule(module.group, f, [f.matmul(f.matmul(p, m), pinv) for m in module.mats],
                   validate=False)


def direct_sum_module(a: KModule, b: KModule) -> KModule:
    if a.group is not b.group or a.field != b.field:
        raise GroupMismatch("direct sum needs one group and one field")
    f = a.field
    mats = []
    for x in range(a.group.order):
        m = f.zeros(a.dim + b.dim, a.dim + b.dim)
        m[: a.dim, : a.dim] = a.mats[x]
        m[a.dim :, a.dim :] = b.mats[x]
        mats.append(m)
    return KModule(a.group, f, mats, validate=False)


def _matrix_inverse(field: Field, m: np.ndarray) -> np.ndarray:
    n = m.shape[0]
    aug = np.concatenate([m, field.eye(n)], axis=1)
    r, pivots = field.rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is not invertible")
    return r[:, n:]


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
    gens = group.generating_set(range(group.order)) or [group.identity]
    blocks = [f.sub(np.kron(eye_w, v.mats[g].T), np.kron(w.mats[g], eye_v)) for g in gens]
    return np.concatenate(blocks, axis=0)


class InducedModule:
    """ind of a module along I -> K, with its coset bookkeeping.

    The carrier is functions f : K -> M with f(hk) = h f(k) for h in the
    image of I, stored by values at the chosen right-coset representatives;
    K acts by (k f)(x) = f(x k).
    """

    def __init__(self, emb: SubgroupEmbedding, source: KModule):
        if source.group is not emb.source:
            raise GroupMismatch("module to induce must live over the embedding source")
        self.emb = emb
        self.source = source
        field = source.field
        K = emb.target
        image = emb.image()
        cosets = K.right_cosets(image)
        self.reps = [c[0] for c in cosets]
        coset_of = {}
        for idx, c in enumerate(cosets):
            for x in c:
                coset_of[x] = idx
        self.coset_of = coset_of
        m = len(self.reps)
        d = source.dim
        mats = []
        for k in range(K.order):
            big = field.zeros(m * d, m * d)
            for i, gi in enumerate(self.reps):
                gik = K.mul(gi, k)
                j = coset_of[gik]
                h = K.mul(gik, K.inv(self.reps[j]))
                big[i * d : (i + 1) * d, j * d : (j + 1) * d] = source.mats[emb.preimage(h)]
            mats.append(big)
        self.module = KModule(K, field, mats, validate=False)

    @property
    def dim(self):
        return self.module.dim


def induce_module(emb: SubgroupEmbedding, source: KModule) -> InducedModule:
    return InducedModule(emb, source)


def iota_matrix(ind: InducedModule) -> np.ndarray:
    """The unit M -> ind(M): u becomes the function supported on the base coset."""
    f = ind.source.field
    d = ind.source.dim
    out = f.zeros(len(ind.reps) * d, d)
    j0 = ind.coset_of[ind.emb.target.identity]
    r0 = ind.reps[j0]
    out[j0 * d : (j0 + 1) * d, :] = ind.source.mats[ind.emb.preimage(r0)]
    return out


def pi_matrix(ind: InducedModule, ambient: KModule) -> np.ndarray:
    """The counit ind(ambient restricted) -> ambient: f maps to sum g^-1 f(g).

    ambient must carry the full K-action; the sum is over the stored
    right-coset representatives and is representative-independent.
    """
    if ambient.group is not ind.emb.target:
        raise GroupMismatch("counit target must be a module over the big group")
    if ambient.dim != ind.source.dim or any(
        np.any(ind.source.mats[i] != ambient.mats[ind.emb(i)]) for i in range(ind.emb.source.order)
    ):
        raise GroupMismatch("counit needs ind of the ambient module's restriction")
    f = ambient.field
    d = ambient.dim
    K = ind.emb.target
    blocks = [ambient.mats[K.inv(g)] for g in ind.reps]
    return np.concatenate(blocks, axis=1) if blocks else f.zeros(d, 0)


def frobenius_map(ind: InducedModule, w: KModule, s: np.ndarray) -> np.ndarray:
    """Send an I-intertwiner M -> W to the K-intertwiner ind(M) -> W.

    Blockwise this is w(g^-1) s at each coset representative g.
    """
    _check_intertwiner(ind, w, s)
    f = w.field
    K = ind.emb.target
    blocks = [f.matmul(w.mats[K.inv(g)], s) for g in ind.reps]
    return np.concatenate(blocks, axis=1)


def frobenius_inverse(ind: InducedModule, w: KModule, t: np.ndarray) -> np.ndarray:
    """Inverse of frobenius_map: precompose with the unit."""
    return w.field.matmul(w.field.array(t), iota_matrix(ind))


def _check_intertwiner(ind: InducedModule, w: KModule, s: np.ndarray):
    f = w.field
    s = f.array(s)
    emb = ind.emb
    for i in range(emb.source.order):
        if np.any(f.matmul(s, ind.source.mats[i]) != f.matmul(w.mats[emb(i)], s)):
            raise NotIntertwiner(f"matrix does not intertwine at {emb.source.label(i)}")
