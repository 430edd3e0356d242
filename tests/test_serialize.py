"""Matrix JSON schema: round trips and validation."""

import numpy as np
import pytest

from sepkit.serialize import (
    load_density,
    load_matrix,
    matrix_to_obj,
    obj_to_density,
    obj_to_matrix,
    save_density,
    save_matrix,
)
from sepkit.states import max_entangled, random_density


def test_density_roundtrip_bitwise(tmp_path):
    rho = random_density(6, 3, (2, 3))
    path = tmp_path / "rho.json"
    save_density(str(path), rho)
    loaded = load_density(str(path))
    assert loaded.dims == (2, 3)
    assert np.array_equal(loaded.mat, rho.mat)  # exact, not approximate


def test_double_roundtrip_stable(tmp_path):
    rho = max_entangled(3)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_density(str(p1), rho)
    save_density(str(p2), load_density(str(p1)))
    assert p1.read_bytes() == p2.read_bytes()


def test_generic_matrix_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    path = tmp_path / "m.json"
    save_matrix(str(path), m, "matrix")
    kind, loaded, dims = load_matrix(str(path))
    assert kind == "matrix"
    assert dims is None
    assert np.array_equal(loaded, m)


def test_density_requires_dims():
    obj = matrix_to_obj(np.eye(4) / 4, "density")
    with pytest.raises(ValueError, match="dims"):
        obj_to_matrix(obj)


def test_density_invariants_enforced_on_load():
    obj = matrix_to_obj(np.eye(4) / 2, "density", (2, 2))  # trace 2
    with pytest.raises(ValueError, match="trace"):
        obj_to_density(obj)
    bad = matrix_to_obj(np.diag([1.5, -0.5, 0.0, 0.0]), "density", (2, 2))
    with pytest.raises(ValueError, match="eigenvalue"):
        obj_to_density(bad)


@pytest.mark.parametrize("kind", ["density", "hermitian", "matrix"])
@pytest.mark.parametrize("part, bad", [("re", np.nan), ("im", np.inf)])
def test_non_finite_entries_rejected(kind, part, bad):
    obj = matrix_to_obj(np.eye(4) / 4, kind, (2, 2))
    obj[part][0][0] = bad
    with pytest.raises(ValueError, match="finite"):
        obj_to_matrix(obj)


def test_hermitian_kind_checked():
    obj = matrix_to_obj(np.array([[0.0, 1.0], [0.0, 0.0]]), "hermitian")
    with pytest.raises(ValueError, match="[Hh]ermitian"):
        obj_to_matrix(obj)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        obj_to_matrix({"kind": "sparse", "re": [[1.0]], "im": [[0.0]]})
    with pytest.raises(ValueError):
        matrix_to_obj(np.eye(2), "sparse")
