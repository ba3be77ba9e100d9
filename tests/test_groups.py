import numpy as np
import pytest

from amalgext.groups import (
    FiniteGroup,
    NotHomomorphism,
    NotInjective,
    SubgroupEmbedding,
)

from conftest import S_MAT, ST_MAT


def test_cyclic_group_structure():
    z6 = FiniteGroup.cyclic(6)
    assert z6.identity == 0
    assert z6.mul(4, 5) == 3
    assert z6.inv(1) == 5
    assert z6.element_order(1) == 6
    assert z6.element_order(2) == 3


def test_from_permutations_klein_four():
    v4 = FiniteGroup.from_permutations([[1, 0, 3, 2], [2, 3, 0, 1]])
    assert v4.order == 4
    assert all(v4.element_order(x) in (1, 2) for x in range(4))


def test_from_permutations_s3_bfs_order():
    s3 = FiniteGroup.from_permutations([[1, 0, 2], [1, 2, 0]])
    assert s3.order == 6
    assert s3.identity == 0
    assert s3.labels[0] == "e"


def test_bad_table_rejected():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [1, 1]])  # idempotent non-identity, no inverse
    # a permuted-identity table is still a group; identity need not sit at 0
    g = FiniteGroup([[1, 0], [0, 1]])
    assert g.identity == 1


def test_embedding_z2_in_z4_doubling_ok():
    z2, z4 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(4)
    e = SubgroupEmbedding(z2, z4, [0, 2])
    assert e.validate()


def test_embedding_z2_in_z4_inclusion_of_indices_fails():
    z2, z4 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(4)
    e = SubgroupEmbedding(z2, z4, [0, 1])
    with pytest.raises(NotHomomorphism):
        e.validate()


def test_embedding_not_injective():
    z2, z4 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(4)
    with pytest.raises(NotInjective):
        SubgroupEmbedding(z2, z4, [0, 0]).validate()


def test_sl2z_datum_embeddings_match_integer_matrices(sl2z):
    # the common subgroup is generated by -1 = S^2 = (ST)^3 in the matrix model
    assert np.array_equal(np.linalg.matrix_power(S_MAT, 2), -np.eye(2, dtype=np.int64))
    assert np.array_equal(np.linalg.matrix_power(ST_MAT, 3), -np.eye(2, dtype=np.int64))
    assert sl2z.emb1(1) == 2  # -1 maps to a^2 in Z/4
    assert sl2z.emb2(1) == 3  # -1 maps to b^3 in Z/6
    assert sl2z.emb1.validate() and sl2z.emb2.validate()


def test_right_cosets_partition():
    z6 = FiniteGroup.cyclic(6)
    cosets = z6.right_cosets([0, 3])
    assert cosets == [[0, 3], [1, 4], [2, 5]]
