"""Ext over the amalgam and the verified Mayer-Vietoris long exact sequence.

Ext over G is computed without ever materializing a module over the group
algebra of G: resolutions over the two factors and the shared subgroup are
stitched into a mapping cone, and Frobenius reciprocity collapses all Hom
spaces to finite coefficient blocks.  The long exact sequence

  0 -> Hom_G -> Hom_K1 x Hom_K2 -> Hom_I -> Ext^1_G -> ... -> Ext^j_I -> ...

is then checked node by node with exact rank arithmetic.
"""

from pathlib import Path

from amalgext.instfile import parse
from amalgext.mayer_vietoris import abelianized_hom_dim, ext_G, verify_les

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def bundled(name):
    return parse(str(FIXTURES / f"{name}.amg"))


def main():
    print("cohomology of the infinite dihedral group with F_2 coefficients:")
    k = bundled("d-infinity").build(2).grep("triv")
    print("  Ext^j_G(k, k) =", ext_G(k, k, 5), " (rank 2 from degree 1 on)\n")

    print("full verified table for d-infinity over F_2:\n")
    print(verify_les(k, k, 5).render())

    print("\nEach Ext^1 with trivial coefficients matches the abelianization "
          "oracle, which only solves a character-pair kernel:")
    for name, p in (("d-infinity", 2), ("sl2z", 2), ("sl2z", 3),
                    ("psl2z", 2), ("psl2z", 3), ("psl2z", 5)):
        kk = bundled(name).build(p).grep("triv")
        computed = ext_G(kk, kk, 1)[1]
        oracle = abelianized_hom_dim(kk.datum, p)
        print(f"  {name}/F_{p}: Ext^1 = {computed}, oracle = {oracle}")

    print("\nIn characteristic coprime to both factor orders everything above "
          "degree 1 dies (injective dimension at most one):")
    psl2z_f5 = bundled("psl2z").build(5)
    triv, std2 = psl2z_f5.grep("triv"), psl2z_f5.grep("std2")
    for v1, v2 in ((triv, std2), (std2, std2)):
        print(f"  psl2z/F_5 pair (dim {v1.dim}, dim {v2.dim}):", ext_G(v1, v2, 5))


if __name__ == "__main__":
    main()
