"""End-to-end acceptance checks, one numbered test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Every tolerance is pinned here, not configurable.
"""

import json
import re

import numpy as np

from sepkit.cli import main as cli_main
from sepkit.closure import closure_sweep, symext_closure_check
from sepkit.criteria import (
    cross_norm_test,
    entropic_test,
    majorization_test,
    ppt_test,
    reduction_test,
    ONE_SHOT_TESTS,
)
from sepkit.geometry import (
    definetti_bound,
    fidelity_bound_check,
    ppt_boundary_bisect,
    sep_max_overlap_maxent,
    witness_lower_bound,
)
from sepkit.linalg import partial_transpose, psd_margin
from sepkit.productopt import upb_general_position
from sepkit.states import (
    max_entangled,
    maximally_mixed,
    random_density,
    random_separable,
    segment_state,
    tensor_power_bipartite,
    tiles_upb_state,
    tiles_upb_vectors,
)
from sepkit.symext import extend_separable, has_symmetric_extension, verify_extension
from sepkit.tomography import (
    acceptance_probability,
    born_probabilities,
    default_product_povm,
    reconstruct_from_probabilities,
)

from helpers import antisym_vector

TREND_SEED = 14  # calibrated product IC-POVM seed for the trend runs


def report(num: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")


def test_01_maxent_partial_transpose_spectrum():
    worst = 0.0
    for d in range(2, 7):
        pt = partial_transpose(max_entangled(d).mat, (d, d))
        vals = np.linalg.eigvalsh(pt)
        worst = max(worst, abs(vals[0] + 1.0 / d))
        for i in range(d):
            for j in range(i + 1, d):
                v = antisym_vector(i, j, d)
                worst = max(worst, float(np.max(np.abs(pt @ v + v / d))))
    ok = worst <= 1e-9
    report("01", ok, f"Phi(d)^Tb min eigenvalue -1/d and antisymmetric eigenvectors, d=2..6 (worst error {worst:.2e})")
    assert ok


def test_02_maxent_criterion_margins():
    phi = max_entangled(2)
    checks = {
        "ppt": (ppt_test(phi).margin, -0.5),
        "reduction": (reduction_test(phi).margin, -0.5),
        "entropic-2": (entropic_test(phi, 2).margin, -1.0),
        "majorization": (majorization_test(phi).margin, -0.5),
        "crossnorm-tn": (cross_norm_test(phi).details["realigned_trace_norm"], 2.0),
    }
    worst = max(abs(got - want) for got, want in checks.values())
    ok = worst <= 1e-9
    report("02", ok, f"Phi(2) verdict margins match closed forms (worst error {worst:.2e})")
    assert ok


def test_03_soundness_sweep_500_separable():
    shapes = [(2, 2), (2, 3), (3, 2), (3, 3)]
    failures = []
    for i in range(500):
        state, ens = random_separable(shapes[i % 4], 1 + (i % 12), i)
        for name, test in ONE_SHOT_TESTS.items():
            if not test(state).passed:
                failures.append((i, name))
        res = has_symmetric_extension(state, 2, start=extend_separable(ens, 2))
        if res.status != "feasible":
            failures.append((i, "symext", res.status))
    ok = not failures
    report("03", ok, f"500 random separable states pass all criteria and symext(k=2) ({len(failures)} failures)")
    assert ok, failures[:10]


def test_04a_tiles_state_ppt_and_upb_certificate():
    rho = tiles_upb_state()
    vals = np.linalg.eigvalsh(rho.mat)
    trace_ok = abs(np.trace(rho.mat).real - 1.0) <= 1e-12
    rank_ok = int(np.sum(vals > 1e-10)) == 4
    ppt_ok = psd_margin(partial_transpose(rho.mat, (3, 3))) >= -1e-10
    # exact: every 3 of the 5 local parts on each side span C^3 and each
    # vector is a product, so no product vector is orthogonal to all five
    cert = upb_general_position(tiles_upb_vectors(), (3, 3))
    min_det = min(cert["min_abs_det_a"], cert["min_abs_det_b"])
    upb_ok = cert["unextendible"] and min_det > 0.4 and cert["max_second_schmidt"] < cert["tol"]
    ok = trace_ok and rank_ok and ppt_ok and upb_ok
    report("04a", ok, f"tiles state: trace 1, rank 4, PPT, UPB in general position (min |det| {min_det:.4f} > 0.4)")
    assert ok


def test_04b_tiles_symext_two_copy_outcome():
    # The tiles state admits an exact symmetric 2-extension: the frozen
    # rational witness in tests/data/tiles_two_extension.json (denominator 432,
    # rank 3) satisfies every constraint exactly (see
    # test_symext.py::TestTilesTwoExtension). A sound cold 2-copy search must
    # therefore find an extension and hand back a witness that checks out; the
    # entanglement of the tiles state is certified by the UPB general-position
    # test in 04a (and by the cross-norm criterion), not by 2-copy extendibility.
    rho = tiles_upb_state()
    res = has_symmetric_extension(rho, 2)
    check = None
    if res.status == "feasible":
        check = verify_extension(res.witness_extension, rho, 2)
    ok = (
        check is not None
        and check["symmetry_residual"] <= 1e-7
        and check["marginal_residual"] <= 1e-7
        and check["psd_margin"] >= -1e-7
    )
    report(
        "04b",
        ok,
        f"tiles symext(k=2) cold start: {res.status} after {res.iterations} iterations, "
        f"witness residuals {check}",
    )
    assert ok, f"tiles has an exact 2-extension; solver returned {res.status!r}, witness check {check}"


def test_05_epr_power_witness_bounds():
    worst = 0.0
    for n in range(1, 6):
        power = tensor_power_bipartite(max_entangled(2), n)
        sep_max = sep_max_overlap_maxent(2**n)  # oracle-validated 2^-n
        lb = witness_lower_bound(power, power.mat, sep_max)
        worst = max(worst, abs(lb - (1.0 - 2.0**-n)))
    ok = worst <= 1e-9
    report("05", ok, f"EPR tensor-power witness bounds 1 - 2^-n, n=1..5 (worst error {worst:.2e})")
    assert ok


def test_06_boundary_geometry():
    worst_t = 0.0
    for d, expected in ((2, 1 / 3), (3, 1 / 4)):
        res = ppt_boundary_bisect(maximally_mixed((d, d)), tol=1e-6)
        worst_t = max(worst_t, abs(res.t_star - expected))
    t_ok = worst_t <= 2e-6
    bound = 1.0 / np.sqrt(3) + 1e-6
    worst_dist = 0.0
    for seed in range(100):
        state, _ = random_separable((3, 3), 1 + seed % 8, (600, seed))
        res = ppt_boundary_bisect(state, tol=1e-6, certified_separable=True)
        worst_dist = max(worst_dist, res.distance_from_start)
    sweep_ok = worst_dist <= bound
    ok = t_ok and sweep_ok
    report("06", ok, f"isotropic boundary t* (err {worst_t:.1e}) and 100-state distance sweep (max {worst_dist:.4f} <= 1/sqrt(3))")
    assert ok


def _random_ppt_states(d: int, count: int, seed_base: int):
    """Rejection-sample PPT states; d=3 draws from the more-mixed induced measure."""
    cols = d * d if d == 2 else 2 * d * d
    out = []
    seed = 0
    while len(out) < count:
        cand = random_density(d * d, (seed_base, seed), (d, d), cols=cols)
        seed += 1
        if ppt_test(cand).passed:
            out.append(cand)
        if seed > 20000:
            raise RuntimeError("rejection sampling stalled")
    return out


def test_07_fidelity_bound_for_ppt_states():
    violations = 0
    worst_gap = 0.0
    for d in (2, 3):
        states = _random_ppt_states(d, 100, 700 + d)
        states.append(segment_state(maximally_mixed((d, d)), 1.0 / (d + 1)))
        if d == 3:
            states.append(tiles_upb_state())
        for sigma in states:
            res = fidelity_bound_check(sigma)
            worst_gap = max(worst_gap, res.transpose_identity_gap)
            if not res.ok:
                violations += 1
    ok = violations == 0 and worst_gap <= 1e-10
    report("07", ok, f"F(sigma, Phi(d)) <= 1/sqrt(d) on 200+ PPT states ({violations} violations, transpose identity gap {worst_gap:.1e})")
    assert ok


def test_08_definetti_formula():
    exact = definetti_bound(4, 1, 99) == 0.08
    ks = [definetti_bound(4, 2, k) for k in range(0, 40, 4)]
    monotone = all(b < a for a, b in zip(ks, ks[1:]))
    square = all(
        np.isclose(definetti_bound(4, n, n * n), 8.0 / (1 + n), atol=1e-12) for n in range(1, 11)
    )
    ok = exact and monotone and square
    report("08", ok, "de Finetti bound: 0.08 reference, monotone in k, 2dn/(n+n^2) at k=n^2")
    assert ok


def test_09_tomography_trends():
    phi = max_entangled(2)
    mixed = maximally_mixed((2, 2))
    povm = default_product_povm((2, 2), TREND_SEED)
    rec = reconstruct_from_probabilities(born_probabilities(phi, povm), povm)
    recon_ok = float(np.max(np.abs(rec - phi.mat))) <= 1e-8
    a10 = acceptance_probability(phi, phi, 10, 0.75, 400, TREND_SEED, povm)
    a150 = acceptance_probability(phi, phi, 150, 0.75, 400, TREND_SEED, povm)
    afar = acceptance_probability(phi, mixed, 150, 0.75, 400, TREND_SEED, povm)
    trend_ok = (a150 - a10) >= 0.3
    far_ok = afar <= 0.05
    ok = recon_ok and trend_ok and far_ok
    report(
        "09",
        ok,
        f"acceptance trend {a10:.3f}->{a150:.3f} (gain {a150 - a10:.3f} >= 0.3), far-state {afar:.3f} <= 0.05, exact reconstruction",
    )
    assert ok


def test_10_closure_sweeps():
    criteria = ["ppt", "reduction", "entropic-2", "entropic-vn", "majorization", "crossnorm"]
    bad = {}
    for idx, crit in enumerate(criteria):
        rep = closure_sweep(crit, 200, (1000 + idx))
        if rep.violations or rep.sub_assertion_failures:
            bad[crit] = (rep.violations, rep.sub_assertion_failures)
    sym_viol = 0
    for seed in range(50):
        _, ens_rho = random_separable((2, 2), 1 + seed % 4, (1100, seed))
        _, ens_sigma = random_separable((2, 2), 1 + (seed + 1) % 4, (1200, seed))
        if not symext_closure_check(ens_rho, ens_sigma, 2)["ok"]:
            sym_viol += 1
    ok = not bad and sym_viol == 0
    report("10", ok, f"closure sweeps 200 pairs x 6 criteria + 50 constructive extension pairs ({bad or 0} / {sym_viol} violations)")
    assert ok, (bad, sym_viol)


def test_11_cli_determinism(capsys, tmp_path):
    runs = [
        ["criteria", "--state", "random:2:2:9", "--json"],
        ["tomo", "accept", "--target", "maxent:2", "--source", "isotropic:2:0", "--n", "15",
         "--eps", "0.75", "--trials", "25", "--seed", "5", "--json"],
        ["closure", "--criterion", "majorization", "--trials", "5", "--seed", "5", "--json"],
        ["geometry", "boundary", "--state", "sep:2:2:3:6", "--json"],
    ]
    ok = True
    for argv in runs:
        assert cli_main(list(argv)) in (0,)
        first = capsys.readouterr().out
        assert cli_main(list(argv)) in (0,)
        second = capsys.readouterr().out
        scrub = lambda s: re.sub(r'"timestamp": "[^"]*"', "-", s)
        if scrub(first) != scrub(second):
            ok = False
        json.loads(first)  # reports stay valid JSON
    report("11", ok, "repeated CLI runs are byte-identical modulo the timestamp")
    assert ok
