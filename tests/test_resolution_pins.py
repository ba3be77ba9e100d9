"""Resolution ranks and differentials, pinned byte for byte.

Generator selection may change how it computes, never what it chooses: for
every module of the bundled and bench instance files (the trivial module of
K1, K2 and I, each file module, and each grep on K1, K2 and I) at p = 2 and
3, the sha256 of the ranks and of every differential's coefficient array
through degree 6 must start with the 16 hex digits recorded here.
"""

import hashlib
import json

import numpy as np
import pytest

from amalgext.amalgam import TAG_I, TAG_K1, TAG_K2
from amalgext.instfile import parse
from amalgext.reps import trivial_module
from amalgext.resolutions import free_resolution

from conftest import INSTANCE_FILES

DEGREE = 6
TAGS = (TAG_K1, TAG_K2, TAG_I)


def resolution_digest(module) -> str:
    res = free_resolution(module, DEGREE)
    h = hashlib.sha256(json.dumps(res.ranks).encode())
    for diff in res.diffs[1:]:
        h.update(np.ascontiguousarray(diff.coeffs, dtype="<i8").tobytes())
    return h.hexdigest()[:16]


def modules_of(path, p):
    """(name, module) for every module of the file over F_p, in a fixed order."""
    built = parse(str(path)).build(p)
    d = built.datum
    groups = {TAG_K1: d.K1, TAG_K2: d.K2, TAG_I: d.I}
    return ([(f"triv/{tag}", trivial_module(groups[tag], built.field)) for tag in TAGS]
            + [(name, built.modules[name]) for name in sorted(built.modules)]
            + [(f"{name}/{tag}", built.greps[name].module(tag))
               for name in sorted(built.greps) for tag in TAGS])


def digests(path, p) -> dict[str, str]:
    return {name: resolution_digest(module) for name, module in modules_of(path, p)}


# recorded from the selection that eliminated each candidate's translates with Field.rref
PINNED = {
    'd-infinity.amg:2': {
        'triv/K1': '3be8ea0658e401d0',
        'triv/K2': '3be8ea0658e401d0',
        'triv/I': '2107c393982e6af7',
        'flip2/K1': '654d29f54b829955',
        'flip2/K2': '28824d4a0b2d87e7',
        'flip2/I': 'ed016da688bdeca7',
    },
    'd-infinity.amg:3': {
        'triv/K1': 'f77e45aba45a39bf',
        'triv/K2': 'f77e45aba45a39bf',
        'triv/I': '2107c393982e6af7',
        'flip2/K1': '4e3ae6a14712e36a',
        'flip2/K2': '68f333c0f13da637',
        'flip2/I': 'ed016da688bdeca7',
    },
    'psl2z-f5.amg:2': {
        'triv/K1': '3be8ea0658e401d0',
        'triv/K2': 'aa9063c447dc1ca8',
        'triv/I': '2107c393982e6af7',
        'std2/K1': '654d29f54b829955',
        'std2/K2': 'affe9f5dacec055b',
        'std2/I': 'ed016da688bdeca7',
    },
    'psl2z-f5.amg:3': {
        'triv/K1': 'f77e45aba45a39bf',
        'triv/K2': 'd17c724fde106890',
        'triv/I': '2107c393982e6af7',
        'std2/K1': '4e3ae6a14712e36a',
        'std2/K2': '1b90c67b892bed99',
        'std2/I': 'ed016da688bdeca7',
    },
    'psl2z.amg:2': {
        'triv/K1': '3be8ea0658e401d0',
        'triv/K2': 'aa9063c447dc1ca8',
        'triv/I': '2107c393982e6af7',
        'std2/K1': '654d29f54b829955',
        'std2/K2': 'affe9f5dacec055b',
        'std2/I': 'ed016da688bdeca7',
    },
    'psl2z.amg:3': {
        'triv/K1': 'f77e45aba45a39bf',
        'triv/K2': 'd17c724fde106890',
        'triv/I': '2107c393982e6af7',
        'std2/K1': '4e3ae6a14712e36a',
        'std2/K2': '1b90c67b892bed99',
        'std2/I': 'ed016da688bdeca7',
    },
    'sl2z-f5.amg:2': {
        'triv/K1': 'c1a32ef50a6bdcfb',
        'triv/K2': '2b6fe753a2094c44',
        'triv/I': '3be8ea0658e401d0',
        'sign': '3be8ea0658e401d0',
        'std2/K1': '436ee4ae9f0794d5',
        'std2/K2': '344ca7ff6c6c3cd9',
        'std2/I': '34bde11b5094b299',
    },
    'sl2z-f5.amg:3': {
        'triv/K1': '91744ac9a005a568',
        'triv/K2': '53b86ee234b16648',
        'triv/I': 'f77e45aba45a39bf',
        'sign': '93a87ba011a1602e',
        'std2/K1': 'da4745e98be5ddd0',
        'std2/K2': '5158e362075c0d4e',
        'std2/I': '079ef31253d71063',
    },
    'sl2z.amg:2': {
        'triv/K1': 'c1a32ef50a6bdcfb',
        'triv/K2': '2b6fe753a2094c44',
        'triv/I': '3be8ea0658e401d0',
        'sign': '3be8ea0658e401d0',
        'std2/K1': '436ee4ae9f0794d5',
        'std2/K2': '344ca7ff6c6c3cd9',
        'std2/I': '34bde11b5094b299',
    },
    'sl2z.amg:3': {
        'triv/K1': '91744ac9a005a568',
        'triv/K2': '53b86ee234b16648',
        'triv/I': 'f77e45aba45a39bf',
        'sign': '93a87ba011a1602e',
        'std2/K1': 'da4745e98be5ddd0',
        'std2/K2': '5158e362075c0d4e',
        'std2/I': '079ef31253d71063',
    },
    'gl2z.amg:2': {
        'triv/K1': 'e2e4e86403f385df',
        'triv/K2': '475c752f31a95759',
        'triv/I': '544aa01a825828e5',
        'signs4/K1': 'dd95da9d19cfe426',
        'signs4/K2': '0fc5e922d7d553ac',
        'signs4/I': '551963008c3d8ad5',
    },
    'gl2z.amg:3': {
        'triv/K1': '4bba0b2871cb3860',
        'triv/K2': '36a92f6cb4f5aa72',
        'triv/I': '0488886e93e24a5f',
        'signs4/K1': '2240f63d0b7d9008',
        'signs4/K2': 'b0f4fac7587bd63f',
        'signs4/I': 'df33092e5b8c04c5',
    },
    's4-s3-s4.amg:2': {
        'triv/K1': '27ecdc5fff7ef0d8',
        'triv/K2': '27ecdc5fff7ef0d8',
        'triv/I': 'b330ecf0a6542074',
    },
    's4-s3-s4.amg:3': {
        'triv/K1': 'fbbb51f6204ba84b',
        'triv/K2': 'fbbb51f6204ba84b',
        'triv/I': '350cd81a0a811d63',
    },
}


@pytest.mark.parametrize("path", INSTANCE_FILES, ids=lambda path: path.name)
@pytest.mark.parametrize("p", [2, 3])
def test_resolutions_are_pinned(path, p):
    assert digests(path, p) == PINNED[f"{path.name}:{p}"]
