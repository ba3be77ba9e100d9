"""Modules over finite group algebras: intertwiners, induction, unit and counit maps."""

from __future__ import annotations

import numpy as np

from amalgext.groups import FiniteGroup, GroupMismatch, SubgroupEmbedding
from amalgext.linalg import Field


class NotIntertwiner(ValueError):
    pass


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


def regular_module(group: FiniteGroup, field: Field) -> KModule:
    n = group.order
    mats = field.zeros(n, n, n)
    # g sends basis vector h to basis vector gh
    mats[np.arange(n)[:, None], group.table, np.arange(n)] = field.one
    return KModule(group, field, mats)


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


def conjugate_module(module: KModule, p: np.ndarray) -> KModule:
    f = module.field
    p = f.array(p)
    pinv = f.solve_many(p, f.eye(p.shape[0]))
    if pinv is None:
        raise ValueError("matrix is not invertible")
    return KModule(module.group, f, f.matmul(f.matmul(p, module.mats), pinv))


def direct_sum_module(a: KModule, b: KModule) -> KModule:
    if a.group is not b.group or a.field != b.field:
        raise GroupMismatch("direct sum needs one group and one field")
    mats = a.field.zeros(a.group.order, a.dim + b.dim, a.dim + b.dim)
    mats[:, : a.dim, : a.dim] = a.mats
    mats[:, a.dim :, a.dim :] = b.mats
    return KModule(a.group, a.field, mats)


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
        mats = field.zeros(K.order, m * d, m * d)
        for k in range(K.order):
            for i, gi in enumerate(self.reps):
                gik = K.mul(gi, k)
                j = coset_of[gik]
                h = K.mul(gik, K.inv(self.reps[j]))
                mats[k, i * d : (i + 1) * d, j * d : (j + 1) * d] = source.mats[emb.preimage(h)]
        self.module = KModule(K, field, mats)

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
    if ambient.dim != ind.source.dim or np.any(ind.source.mats != ambient.mats[ind.emb.mapping]):
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
    bad = np.argwhere(np.any(f.matmul(s, ind.source.mats) != f.matmul(w.mats[emb.mapping], s),
                             axis=(1, 2)))
    if len(bad):
        raise NotIntertwiner(f"matrix does not intertwine at {emb.source.label(bad[0, 0])}")
