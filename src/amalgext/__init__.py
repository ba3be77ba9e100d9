"""Exact homological computations for amalgams of finite groups."""

from amalgext.linalg import Field, subquotient_dim
from amalgext.groups import FiniteGroup, SubgroupEmbedding
from amalgext.reps import (
    KModule,
    trivial_module,
    regular_module,
    hom_space,
    induce_module,
    iota_matrix,
    pi_matrix,
    frobenius_map,
    frobenius_inverse,
    restrict_module,
)
from amalgext.amalgam import AmalgamDatum, GWord, CosetRep, TAG_K1, TAG_K2, TAG_I
from amalgext.tree import TreeBall, build_ball, chain_complex, leaf_elimination, to_dot
from amalgext.induction import (
    GRep,
    IndElement,
    trivial_grep,
    g_act,
    chi,
    g_translate,
    iota,
    pi,
    gamma,
    gamma_sum_formula,
    tensor_identity,
    tensor_identity_inverse,
    mv_truncated_check,
)
from amalgext.resolutions import AlgebraMatrix, FreeResolution, free_resolution, ext_finite
from amalgext.mayer_vietoris import (
    MVComplex,
    LESReport,
    ext_G,
    hom_G_direct,
    verify_les,
    hom_sequence_check,
    abelianized_hom_dim,
)
