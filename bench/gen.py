"""Seeded generator of the benchmark's `.amg` instance files.

Two amalgams are generated, both written out with explicit permutation
generators and embedding lists:

* ``s4-s3-s4``: ``S4 *_{S3} S4``.  Both factors are S4 on 4 points generated
  by ``(1,0,2,3)`` and ``(1,2,3,0)``; I is S3 generated by ``(1,0,2,3)`` and
  ``(1,2,0,3)``, embedded in both factors by the identical permutations.
* ``gl2z``: ``GL2(Z) = D8 *_{V4} D12``.  D8 is generated by ``r=(1,2,3,0)``
  and ``s=(0,3,2,1)``, D12 by ``(1,2,3,4,5,0)`` and ``(0,5,4,3,2,1)``, and
  ``V4 = <r^2, s>`` maps ``r^2`` to the central rotation and ``s`` to the
  reflection.  The grep ``signs4`` is the direct sum of the four glued sign
  characters, conjugated by a unimodular integer matrix, so it is valid in
  every characteristic.

The seed relabels the points of each group by a random permutation
(conjugating every generator by it) and picks the conjugating matrix of
``signs4``.  Relabelling keeps the generator order, so breadth-first element
indices, multiplication tables and embedding lists are the same for every
seed; conjugation is a module isomorphism.  Every seed therefore gives the
same Ext dimensions and the same LES ranks.  Seed 0 is the identity
relabelling and the diagonal ``signs4``.

Run ``python3 bench/gen.py SEED DIR`` to write both files into DIR.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path


def _compose(p, q):
    """p o q in the convention of the instance parser: (p o q)[i] = p[q[i]]."""
    return tuple(p[q[i]] for i in range(len(q)))


def _closure(gens):
    """Elements in breadth-first order from the identity, as the parser numbers them."""
    ident = tuple(range(len(gens[0])))
    elements = [ident]
    seen = {ident}
    queue = [ident]
    while queue:
        cur = queue.pop(0)
        for g in gens:
            prod = _compose(cur, g)
            if prod not in seen:
                seen.add(prod)
                elements.append(prod)
                queue.append(prod)
    return elements


def _embedding(sub_gens, images, target_gens):
    """Target indices of the subgroup elements, the homomorphism fixed by generator images."""
    index = {p: i for i, p in enumerate(_closure(target_gens))}
    ident = tuple(range(len(sub_gens[0])))
    image_of = {ident: tuple(range(len(images[0])))}
    order = [ident]
    queue = [ident]
    while queue:
        cur = queue.pop(0)
        for g, img in zip(sub_gens, images):
            prod = _compose(cur, g)
            if prod not in image_of:
                image_of[prod] = _compose(image_of[cur], img)
                order.append(prod)
                queue.append(prod)
    return [index[image_of[p]] for p in order]


def _relabel(perm, sigma):
    """sigma o perm o sigma^-1, the same permutation on relabelled points."""
    out = [0] * len(perm)
    for i, x in enumerate(perm):
        out[sigma[i]] = sigma[x]
    return tuple(out)


def _random_relabelling(rng, degree, seed):
    sigma = list(range(degree))
    if seed:
        rng.shuffle(sigma)
    return sigma


def _perm_line(name, perm):
    return f"perm {name} = " + " ".join(str(x) for x in perm)


def _mat(rows):
    return " / ".join(" ".join(str(x) for x in row) for row in rows)


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _unimodular_pair(rng, n, steps):
    """A random integer matrix of determinant +-1 and its integer inverse."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    p_inv = [row[:] for row in p]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        # row_i += c row_j on P; column_j -= c column_i on P^-1 keeps P P^-1 = 1
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]
        for row in p_inv:
            row[j] -= c * row[i]
    return p, p_inv


def _amalgam_text(name, characteristic, k1, k2, sub, comment, extra=""):
    """k1, k2: [(gen name, perm)]; sub: ([(gen name, perm)], images in K1, images in K2)."""
    sub_gens, img1, img2 = sub
    lines = [f"# {line}" if line else "#" for line in comment.splitlines()]
    lines += ["", "[instance]", f"name = {name}", f"characteristic = {characteristic}", ""]
    for header, gens in (("group K1", k1), ("group K2", k2)):
        lines.append(f"[{header}]")
        lines += [_perm_line(nm, p) for nm, p in gens]
        lines.append("")
    lines.append("[subgroup I]")
    lines += [_perm_line(nm, p) for nm, p in sub_gens]
    perms_i = [p for _, p in sub_gens]
    for tag, gens, images in (("K1", k1, img1), ("K2", k2, img2)):
        emb = _embedding(perms_i, images, [p for _, p in gens])
        lines.append(f"embed {tag} = " + " ".join(str(x) for x in emb))
    return "\n".join(lines) + "\n" + extra


def s4_amalgam(seed: int) -> str:
    rng = random.Random(f"s4-s3-s4/{seed}")
    s1, s2, si = (_random_relabelling(rng, 4, seed) for _ in range(3))
    transposition, four_cycle, three_cycle = (1, 0, 2, 3), (1, 2, 3, 0), (1, 2, 0, 3)
    k1 = [("a", _relabel(transposition, s1)), ("b", _relabel(four_cycle, s1))]
    k2 = [("c", _relabel(transposition, s2)), ("d", _relabel(four_cycle, s2))]
    sub = [("x", _relabel(transposition, si)), ("y", _relabel(three_cycle, si))]
    img1 = [_relabel(transposition, s1), _relabel(three_cycle, s1)]
    img2 = [_relabel(transposition, s2), _relabel(three_cycle, s2)]
    comment = (f"S4 *_{{S3}} S4, points relabelled by seed {seed}.\n"
               "Generated by bench/gen.py; both factors are S4, I is S3 embedded\n"
               "by identical permutations.")
    return _amalgam_text("s4-s3-s4", 2, k1, k2, (sub, img1, img2), comment)


# the four sign characters of GL2(Z): (value on r, value on s); rho maps to 1
_SIGNS = ((1, 1), (-1, 1), (1, -1), (-1, -1))


def gl2z_amalgam(seed: int) -> str:
    rng = random.Random(f"gl2z/{seed}")
    s1, s2, si = _random_relabelling(rng, 4, seed), _random_relabelling(rng, 6, seed), \
        _random_relabelling(rng, 4, seed)
    r, s = (1, 2, 3, 0), (0, 3, 2, 1)
    rho, sigma = (1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1)
    r2 = _compose(r, r)
    rho3 = _compose(rho, _compose(rho, rho))
    k1 = [("r", _relabel(r, s1)), ("s", _relabel(s, s1))]
    k2 = [("t", _relabel(rho, s2)), ("u", _relabel(sigma, s2))]
    sub = [("z", _relabel(r2, si)), ("w", _relabel(s, si))]
    img1 = [_relabel(r2, s1), _relabel(s, s1)]
    img2 = [_relabel(rho3, s2), _relabel(sigma, s2)]

    n = len(_SIGNS)
    p, p_inv = _unimodular_pair(rng, n, 12 if seed else 0)

    def conj(diag):
        d = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        return _matmul(_matmul(p, d), p_inv)

    on_r = conj([a for a, _ in _SIGNS])
    on_s = conj([b for _, b in _SIGNS])
    on_t = conj([1] * n)
    grep = ("\n# the direct sum of the four glued sign characters, conjugated\n"
            "[grep signs4]\n"
            f"mat K1 r = {_mat(on_r)}\n"
            f"mat K1 s = {_mat(on_s)}\n"
            f"mat K2 t = {_mat(on_t)}\n"
            f"mat K2 u = {_mat(on_s)}\n")
    comment = (f"GL2(Z) = D8 *_{{V4}} D12, points relabelled by seed {seed}.\n"
               "Generated by bench/gen.py; V4 = <r^2, s> maps r^2 to the central\n"
               "rotation of D12 and s to the reflection u.")
    return _amalgam_text("gl2z", 3, k1, k2, (sub, img1, img2), comment, grep)


INSTANCES = {"s4-s3-s4": s4_amalgam, "gl2z": gl2z_amalgam}


def write_instances(seed: int, directory: Path) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, make in INSTANCES.items():
        path = directory / f"{name}.amg"
        path.write_text(make(seed), encoding="utf-8")
        paths[name] = path
    return paths


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python3 bench/gen.py SEED DIR")
    for written in write_instances(int(sys.argv[1]), Path(sys.argv[2])).values():
        print(written)
