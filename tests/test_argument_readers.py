"""Every matrix argument is read by ``linalg._exact_matrix``, every
mapping argument by ``linalg._mapping`` and every size by ``linalg._sizes``,
before anything else sees it: a malformed one (``None``, an int, a row that
is an int, ragged rows, a wrong row count, a list where a mapping or a size
goes) is a ``DomainError`` whose message starts with the argument's name."""

import pytest

from liegrowth.errors import DomainError

from helpers import matrix_and_mapping_calls

CALLS = matrix_and_mapping_calls()


@pytest.mark.parametrize(
    "name, bad, named",
    [
        ("rank", None, "matrix must be a sequence, got NoneType"),
        ("rank", [[1, 2], 3], "matrix row 2 must be a sequence, got int"),
        ("det", 5, "matrix must be a sequence, got int"),
        ("det", [[1, 2], [3]], "matrix row 2 needs 2 coordinates, got 1"),
        ("AffineMap.make", 5, "linear part must be a sequence, got int"),
        ("frame_change", None, "change matrix must be a sequence, got NoneType"),
        ("frame_change", [[1, 0]], "change matrix needs 2 rows, got 1"),
        ("frame_change", [[1, 0], [1]], "change matrix row 2 needs 2 coordinates, got 1"),
        ("MatrixSpaceSpec", None, "fixed block must be a sequence, got NoneType"),
        ("MatrixSpaceSpec", [[1]], "fixed block needs 2 rows, got 1"),
        ("MatrixSpaceSpec", [[1], [1, 2]], "fixed block row 2 needs 1 coordinates, got 2"),
        ("gl_convex_decomposition", None, "matrix must be a sequence, got NoneType"),
        ("gl_convex_decomposition", [[1, 2]], "matrix row 1 needs 1 coordinates, got 2"),
        ("det_affine_in_free_column", 3, "fixed block must be a sequence, got int"),
        ("det_affine_in_free_column", [[1, 2], [3, 4]], "fixed block row 1 needs 1 coordinates, got 2"),
        ("hull_verdict", 5, "target must be a sequence, got int"),
        ("hull_verdict", [[1, 0]], "target needs 2 rows, got 1"),
        ("hull_verdict", [[1, 0], [0]], "target row 2 needs 2 coordinates, got 1"),
        ("Poly", 5, "terms must be a mapping, got int"),
        ("Poly", [(1, 0)], "terms must be a mapping, got list"),
        ("Poly", [], "terms must be a mapping, got list"),
        ("Poly", 0, "terms must be a mapping, got int"),
        ("DiffPoly", [1], "terms must be a mapping, got list"),
        ("DiffPoly", "", "terms must be a mapping, got str"),
        ("DiffPoly", 0, "terms must be a mapping, got int"),
        ("structure table", 3, "structure table must be a mapping, got int"),
        ("structure row", 3, "row of bracket pair (1, 2) must be a mapping, got int"),
        ("maximal_growth_vector", [2], "k must be an int, got list"),
    ],
)
def test_a_malformed_matrix_or_mapping_argument_is_named(name, bad, named):
    call, args, slot = CALLS[name]
    args = list(args)
    call(*args)  # the valid arguments are accepted
    args[slot] = bad
    with pytest.raises(DomainError) as err:
        call(*args)
    assert str(err.value).startswith(named)
