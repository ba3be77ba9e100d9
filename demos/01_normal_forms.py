"""Normal forms in SL2(Z) = Z/4 *_{Z/2} Z/6, cross-checked in integer matrices.

Every element of the amalgam has a unique reduced spelling: alternating
nontrivial transversal letters followed by an element of the shared Z/2.
The generator a plays the role of S = [[0,-1],[1,0]] and b the role of
ST = [[0,-1],[1,1]]; their images satisfy a^2 = b^3 = -1.
"""

from pathlib import Path

import numpy as np

from amalgext.amalgam import TAG_K1, TAG_K2
from amalgext.instfile import parse

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

S = np.array([[0, -1], [1, 0]])
ST = np.array([[0, -1], [1, 1]])


def model(word):
    m = np.eye(2, dtype=int)
    for side, t in word.letters:
        m = m @ np.linalg.matrix_power(S if side == 1 else ST, t)
    return m @ np.linalg.matrix_power(-np.eye(2, dtype=int), word.tail)


def main():
    d = parse(str(FIXTURES / "sl2z.amg")).datum
    a = d.word_from_factor(TAG_K1, 1)
    b = d.word_from_factor(TAG_K2, 1)

    print("a =", a, "->", model(a).tolist())
    print("b =", b, "->", model(b).tolist())

    aa = d.multiply(a, a)
    print("\na * a reduces to", aa, "(the central -1), matrix", model(aa).tolist())

    w = d.reduce([(TAG_K1, 1), (TAG_K2, 4), (TAG_K1, 3), (TAG_K2, 2)])
    print("\na b^4 a^3 b^2 in normal form:", w)
    print("matrix check:",
          np.array_equal(model(w), model(a) @ np.linalg.matrix_power(model(b), 4)
                         @ np.linalg.matrix_power(model(a), 3)
                         @ np.linalg.matrix_power(model(b), 2)))

    winv = d.inverse(w)
    print("inverse normal form:", winv)
    print("w * w^-1 is the identity:", d.multiply(w, winv).is_identity())

    words = d.reduced_words(5)
    images = {tuple(model(u).flatten()) for u in words}
    print(f"\n{len(words)} reduced words of length <= 5 map to {len(images)} "
          "distinct matrices (the spelling is faithful)")


if __name__ == "__main__":
    main()
