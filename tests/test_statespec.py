"""State-spec grammar parsing."""

import numpy as np
import pytest

from sepkit.statespec import StateSpecError, parse_state_spec
from sepkit.states import max_entangled, random_density, segment_state, maximally_mixed

from helpers import save_density


def test_maxent():
    parsed = parse_state_spec("maxent:2")
    assert np.array_equal(parsed.state.mat, max_entangled(2).mat)
    assert parsed.ensemble is None
    assert parsed.kind == "maxent"


def test_isotropic_near_boundary():
    parsed = parse_state_spec("isotropic:2:0.3333333")
    expected = segment_state(maximally_mixed((2, 2)), 0.3333333)
    assert np.allclose(parsed.state.mat, expected.mat)
    from sepkit.criteria import ppt_test

    assert ppt_test(parsed.state).passed


def test_tiles():
    parsed = parse_state_spec("tiles")
    assert parsed.state.dims == (3, 3)


def test_random_deterministic():
    a = parse_state_spec("random:2:3:17")
    b = parse_state_spec("random:2:3:17")
    assert a.state.dims == (2, 3)
    assert np.array_equal(a.state.mat, b.state.mat)


def test_sep_returns_certificate():
    parsed = parse_state_spec("sep:2:2:3:5")
    assert parsed.ensemble is not None
    assert len(parsed.ensemble.weights) == 3
    assert np.max(np.abs(parsed.ensemble.state().mat - parsed.state.mat)) < 1e-12


def test_file_roundtrip(tmp_path):
    rho = random_density(4, 9, (2, 2))
    path = tmp_path / "state.json"
    save_density(str(path), rho)
    parsed = parse_state_spec(f"file:{path}")
    assert np.array_equal(parsed.state.mat, rho.mat)


def test_malformed_specs_rejected():
    for bad in ("maxent", "maxent:x", "isotropic:2", "tiles:3", "random:2:3",
                "sep:2:2:0:1", "unknown:1", "file:"):
        with pytest.raises((StateSpecError, ValueError)):
            parse_state_spec(bad)


def test_file_schema_violation_names_invariant(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "density", "dims": [2, 2], '
                    '"re": [[1,0,0,0],[0,1,0,0],[0,0,0,0],[0,0,0,0]], '
                    '"im": [[0,0,0,0],[0,0,0,0],[0,0,0,0],[0,0,0,0]]}')
    with pytest.raises(ValueError, match="trace"):
        parse_state_spec(f"file:{path}")
