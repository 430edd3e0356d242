"""Matrix JSON schema: round trips and validation."""

import json

import numpy as np
import pytest

from sepkit.linalg import DensityMatrix
from sepkit.serialize import load_density, matrix_to_obj, obj_to_density, obj_to_matrix
from sepkit.states import max_entangled, random_density

from helpers import save_density


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


def test_generic_matrix_roundtrip():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    kind, loaded, dims = obj_to_matrix(json.loads(json.dumps(matrix_to_obj(m, "matrix"))))
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
    with pytest.raises(ValueError, match="trace"):
        obj_to_matrix(obj)
    bad = matrix_to_obj(np.diag([1.5, -0.5, 0.0, 0.0]), "density", (2, 2))
    with pytest.raises(ValueError, match="eigenvalue"):
        obj_to_density(bad)


def test_density_payload_validated_once(monkeypatch):
    calls = []
    validate = DensityMatrix.__post_init__

    def counting(self):
        calls.append(1)
        validate(self)

    obj = matrix_to_obj(random_density(6, 3, (2, 3)).mat, "density", (2, 3))
    monkeypatch.setattr(DensityMatrix, "__post_init__", counting)
    obj_to_density(obj)
    assert len(calls) == 1


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


def test_matrix_to_obj_matches_per_entry_floats():
    m = np.empty((2, 2), dtype=complex)
    m.real = [[-0.0, 5e-324], [1e308, -1.5]]
    m.imag = [[5e-324, -0.0], [0.0, -1e308]]
    obj = matrix_to_obj(m, "matrix", (1, 2))
    per_entry = {
        "kind": "matrix",
        "dims": [1, 2],
        "re": [[float(x) for x in row] for row in m.real],
        "im": [[float(x) for x in row] for row in m.imag],
    }
    assert obj == per_entry
    assert all(type(x) is float for row in obj["re"] + obj["im"] for x in row)
    assert json.dumps(obj) == json.dumps(per_entry)
    assert json.dumps(obj["re"][0]) == "[-0.0, 5e-324]"
    assert json.dumps(obj["im"][0]) == "[5e-324, -0.0]"


MALFORMED_DOCUMENTS = [
    ({"kind": "density", "dims": [1, 1]}, "no 're' part"),
    ({"kind": "density", "dims": [1, 1], "re": [[1.0]]}, "no 'im' part"),
    ([1, 2], "JSON object"),
    ({"kind": "density", "dims": [2], "re": [[1.0]], "im": [[0.0]]}, "two integers"),
    ({"kind": "density", "dims": [None, 2], "re": [[1.0]], "im": [[0.0]]}, "two integers"),
    ({"kind": "density", "dims": 5, "re": [[1.0]], "im": [[0.0]]}, "two integers"),
    ({"kind": "density", "dims": [1.0, 1], "re": [[1.0]], "im": [[0.0]]}, "two integers"),
    ({"kind": "density", "dims": [1, 1], "re": {"a": 1}, "im": [[0.0]]}, "numbers"),
    # numpy reads "1" and true as the number 1, and [[1, true]] as int64
    ({"kind": "density", "dims": [1, 1], "re": [["1"]], "im": [[0]]}, "numbers"),
    ({"kind": "density", "dims": [1, 1], "re": [[True]], "im": [[0]]}, "numbers"),
    ({"kind": "density", "dims": [1, 2], "re": [[True, 0], [0, 0]], "im": [[0, 0], [0, 0]]}, "numbers"),
    ({"kind": "density", "dims": [1, 1], "re": [[1]], "im": [[False]]}, "numbers"),
    ({"kind": "density", "dims": [1, 1], "re": [[10**400]], "im": [[0]]}, "finite"),
]


@pytest.mark.parametrize("doc, message", MALFORMED_DOCUMENTS)
def test_malformed_document_rejected(doc, message):
    with pytest.raises(ValueError, match=message):
        obj_to_density(doc)
