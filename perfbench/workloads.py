"""The four seeded workloads: what each operation runs and how its output is checked.

An operation is one public sepkit call, or one in-process `sepkit.cli.main`
call whose `--out` points into the run's temp dir. `build` turns a seed into
the workload's inputs (the set-up); `Op.run` is the timed part; `Op.inspect`
runs outside the timed section and returns the operation's deterministic
record (hashed into the run digest) and the problems its output check found.

Library calls look functions up on the sepkit module at call time, so the
traced run sees them through its wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from sepkit import cli, closure, criteria, geometry, productopt, states, statespec, symext, tomography

# soundness thresholds for a claimed extension, checked independently of the solver
EXT_RESIDUAL_MAX = 1e-6
EXT_PSD_MIN = -1e-6
TOMO_EPS = 0.75
TOMO_TRIALS = 400
# curve calls run a quarter as many trials, so a tomo pass is short enough
# that every op gets several timed samples (passes) in one run
CURVE_TRIALS = 100
TOMO_N = (10, 20, 50, 100, 200, 500)
UPB_OVERLAP_MIN = 1e-3  # the CLI's tiles certificate threshold
CLOSURE_LIB_TRIALS = 40


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    inspect: Callable[[Any], tuple[dict, list[str]]]
    search: bool = False  # an extension search: its record carries "status"


def _sha(data) -> str | None:
    if data is None:
        return None
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).tobytes()
    elif isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _seeds(seed: int, stream: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, stream])
    return [int(s) for s in rng.integers(1, 1_000_000, size=count)]


def _parse(spec: str):
    return statespec.parse_state_spec(spec)


def _iso_separable(d: int, t: float) -> bool:
    return t <= 1.0 / (d + 1)


# --------------------------------------------------------------------- checks


def _extension_problems(status, witness, rho, k, known) -> list[str]:
    """Soundness of one search result; no check pins an `inconclusive` outcome."""
    problems = []
    if status not in ("feasible", "infeasible-evidence", "inconclusive"):
        problems.append(f"unknown status {status!r}")
    if status == "feasible":
        res = symext.verify_extension(np.asarray(witness), rho, k)
        if (
            res["symmetry_residual"] > EXT_RESIDUAL_MAX
            or res["marginal_residual"] > EXT_RESIDUAL_MAX
            or res["psd_margin"] < EXT_PSD_MIN
        ):
            problems.append(f"feasible witness fails verification: {res}")
    if known == "extendible" and status == "infeasible-evidence":
        problems.append("known-extendible state reported infeasible-evidence")
    if known == "maxent" and status == "feasible":
        problems.append("maximally entangled state reported feasible")
    return problems


def _acceptance_problems(value, trials) -> list[str]:
    if not 0.0 <= value <= 1.0:
        return [f"acceptance {value} outside [0, 1]"]
    if abs(value * trials - round(value * trials)) > 1e-9:
        return [f"acceptance {value} is not a multiple of 1/{trials}"]
    return []


def _verdict_problems(verdicts: dict, expect: str | None) -> list[str]:
    passed = {name: v.passed for name, v in verdicts.items()}
    if expect == "separable" and not all(passed.values()):
        return [f"separable state fails {[n for n, p in passed.items() if not p]}"]
    if expect == "ppt-entangled" and passed["ppt"]:
        return ["PPT-violating state passes ppt"]
    if expect == "tiles" and not (passed["ppt"] and not passed["crossnorm"]):
        return [f"tiles verdicts ppt={passed['ppt']} crossnorm={passed['crossnorm']}"]
    return []


# ------------------------------------------------------------ op constructors


def search_op(name, rho, k, known, start_from=None, **opts) -> Op:
    """has_symmetric_extension on rho; start_from (an ensemble) adds an extend_separable warm start."""

    def run():
        start = None if start_from is None else symext.extend_separable(start_from, k)
        return symext.has_symmetric_extension(rho, k, start=start, **opts)

    def inspect(res):
        record = {
            "status": res.status,
            "iterations": res.iterations,
            "residual": res.residual,
            "witness": _sha(res.witness_extension),
        }
        return record, _extension_problems(res.status, res.witness_extension, rho, k, known)

    return Op(name, run, inspect, search=True)


def value_op(name, run, problems: Callable[[Any], list[str]], record=None) -> Op:
    """A library call whose result is summarized by `record` (default: the value itself)."""
    record = record or (lambda out: {"value": out})
    return Op(name, run, lambda out: (record(out), problems(out)))


def cli_op(tmpdir, argv, out_name, report_problems, search_status=None) -> Op:
    """sepkit.cli.main(argv + --out) in-process; the report must parse and pass its check."""
    out_path = os.path.join(tmpdir, out_name)
    full = argv + ["--out", out_path]

    def run():
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.main(full)

    def inspect(code):
        problems = [] if code == 0 else [f"exit code {code}"]
        try:
            with open(out_path) as fh:
                report = json.load(fh)
            os.remove(out_path)
        except (OSError, ValueError) as exc:
            return {"exit": code}, problems + [f"report unreadable: {exc}"]
        report.pop("timestamp", None)
        text = json.dumps(report, sort_keys=True).replace(tmpdir, "<tmp>")
        record = {"exit": code, "report": _sha(text)}
        if search_status is not None:
            record["status"] = search_status(report)
        return record, problems + report_problems(report)

    return Op("cli " + " ".join(argv).replace(tmpdir, "<tmp>"), run, inspect, search_status is not None)


def _symext_cli_op(tmpdir, spec, k, known, extra=()) -> Op:
    rho = _parse(spec).state

    def problems(report):
        res = report["results"]
        w = res["witness_extension"]
        witness = None if w is None else np.asarray(w["re"]) + 1j * np.asarray(w["im"])
        return _extension_problems(res["status"], witness, rho, k, known)

    argv = ["symext", "--state", spec, "--k", str(k), *extra]
    return cli_op(tmpdir, argv, "symext.json", problems, lambda r: r["results"]["status"])


# ------------------------------------------------------------------ workloads


def build_symext_cold(seed: int, tmpdir: str) -> list[Op]:
    s = _seeds(seed, 1, 3)
    ops = [_symext_cli_op(tmpdir, f"sep:2:2:3:{s[0]}", 2, "extendible", ["--json"])]
    for spec, k in ((f"sep:2:2:3:{s[1]}", 3), (f"sep:2:3:4:{s[2]}", 2), ("tiles", 2)):
        # tiles has an exact 2-extension, so it is known-extendible at k=2
        ops.append(search_op(f"symext {spec} k={k}", _parse(spec).state, k, "extendible"))
    maxent2 = _parse("maxent:2").state
    for k in (2, 3, 5):
        ops.append(search_op(f"symext maxent:2 k={k}", maxent2, k, "maxent"))
    for t in (0.3, 0.8):
        known = "extendible" if _iso_separable(2, t) else None
        ops.append(search_op(f"symext isotropic:2:{t} k=2", _parse(f"isotropic:2:{t}").state, 2, known))
    return ops


def build_symext_deep(seed: int, tmpdir: str) -> list[Op]:
    s = _seeds(seed, 2, 3)
    warm = _parse(f"sep:3:3:5:{s[0]}")
    return [
        search_op("symext maxent:3 k=3", _parse("maxent:3").state, 3, "maxent"),
        search_op(
            f"symext warm sep:3:3:5:{s[0]} k=3", warm.state, 3, "extendible", start_from=warm.ensemble
        ),
        search_op(
            f"symext sep:3:3:20:{s[1]} k=4 iters=60",
            _parse(f"sep:3:3:20:{s[1]}").state, 4, "extendible", max_iters=60,
        ),
        search_op(
            f"symext random:2:3:{s[2]} k=5 iters=10",
            _parse(f"random:2:3:{s[2]}").state, 5, None, max_iters=10,
        ),
        _symext_cli_op(tmpdir, "isotropic:3:0.2", 4, "extendible"),
    ]


def _accept_problems_cli(report):
    res = report["results"]
    return _acceptance_problems(res["acceptance"]["value"], res["trials"])


def _farness_problems(report):
    res = report["results"]
    problems = []
    for point in res["points"]:
        problems += _acceptance_problems(point["accept_target"], res["trials"])
        problems += _acceptance_problems(point["accept_ansatz"], res["trials"])
    return problems


def qutrit_sic():
    """The Hesse SIC-POVM on C^3, exact: M_n = |psi_n><psi_n| / 3 with dual 4 |psi_n><psi_n| - I.

    Its nine vectors are the clock-and-shift orbit of (0, 1, -1) / sqrt(2),
    with |<psi_n|psi_m>|^2 = 1/4 for n != m, so Tr(M_n M_m*) = delta_nm.
    """
    shift = np.roll(np.eye(3), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
    fiducial = np.array([0, 1, -1]) / np.sqrt(2)
    projs = [
        np.outer(v, v.conj())
        for a in range(3)
        for b in range(3)
        for v in [np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b) @ fiducial]
    ]
    return tomography.Povm(tuple(p / 3 for p in projs), tuple(4 * p - np.eye(3) for p in projs), 3)


def build_tomo(seed: int, tmpdir: str) -> list[Op]:
    s = _seeds(seed, 3, 5)
    trial_seeds = iter(_seeds(seed, 5, len(TOMO_N) * 7))
    ops = [
        cli_op(
            tmpdir,
            ["tomo", "accept", "--target", "maxent:2", "--source", "isotropic:2:0", "--n", "150",
             "--eps", "0.75", "--trials", "400", "--seed", str(s[0])],
            "accept.json",
            _accept_problems_cli,
        ),
        cli_op(
            tmpdir,
            ["geometry", "farness", "--state", "maxent:2", "--ansatz", "isotropic:2:0",
             "--n-list", "10,50,150", "--eps", "0.75", "--trials", "400", "--seed", str(s[1])],
            "farness.json",
            _farness_problems,
        ),
    ]
    # d=2 curves use the seeded default POVM; d=3 curves pass the product SIC,
    # rebuilt by product_povm on every call (README, "Known defect")
    sic3 = qutrit_sic()
    curves = {
        "maxent:2": (None, ["maxent:2", "isotropic:2:0.6", f"sep:2:2:3:{s[2]}"]),
        "maxent:3": ((sic3, sic3), ["maxent:3", "tiles", f"sep:3:3:4:{s[3]}", "isotropic:3:0.5"]),
    }
    for target_spec, (parts, sources) in curves.items():
        target = _parse(target_spec).state
        for source_spec in sources:
            source = _parse(source_spec).state
            for n in TOMO_N:
                trial_seed = next(trial_seeds)

                def accept(t=target, src=source, n=n, sd=trial_seed, parts=parts):
                    povm = None if parts is None else tomography.product_povm(*parts)
                    return tomography.acceptance_probability(t, src, n, TOMO_EPS, CURVE_TRIALS, sd, povm)

                ops.append(
                    value_op(
                        f"accept {target_spec} <- {source_spec} n={n}",
                        accept,
                        lambda p: _acceptance_problems(p, CURVE_TRIALS),
                    )
                )
    ens = states.random_separable((2, 2), 4, s[4])[1].to_ensemble()
    maxent2 = _parse("maxent:2").state
    ops.append(
        value_op(
            "mixture_acceptance 4 product members n=50",
            lambda: tomography.mixture_acceptance(ens, maxent2, 50, TOMO_EPS, TOMO_TRIALS, s[4]),
            lambda p: [] if 0.0 <= p <= 1.0 else [f"mixture acceptance {p} outside [0, 1]"],
        )
    )
    return ops


def _criteria_op(label, rho, expect) -> Op:
    def run():
        return {name: test(rho) for name, test in criteria.ONE_SHOT_TESTS.items()}

    def record(verdicts):
        return {name: [v.passed, v.margin] for name, v in verdicts.items()}

    return value_op(f"criteria {label}", run, lambda v: _verdict_problems(v, expect), record)


def _closure_problems(sweeps):
    return [
        f"closure {rep.criterion}: {rep.violations} violations, "
        f"{rep.sub_assertion_failures} sub-assertion failures"
        for rep in sweeps
        if rep.violations or rep.sub_assertion_failures
    ]


def _report_check(predicate, message):
    return lambda report: [] if predicate(report["results"] if "results" in report else report) else [message]


def build_screen(seed: int, tmpdir: str) -> list[Op]:
    s = _seeds(seed, 4, 120)
    seeds = iter(s)
    ops = []
    for da, db in ((2, 2), (2, 3), (3, 3)):
        for i in range(13):
            k = 1 + i % 4
            spec = f"sep:{da}:{db}:{k}:{next(seeds)}"
            ops.append(_criteria_op(spec, _parse(spec).state, "separable"))
            spec = f"random:{da}:{db}:{next(seeds)}"
            ops.append(_criteria_op(spec, _parse(spec).state, None))
    for d in (2, 3):
        for t in np.linspace(0.05, 0.95, 10):
            spec = f"isotropic:{d}:{t:.2f}"
            expect = "separable" if _iso_separable(d, t) else "ppt-entangled"
            ops.append(_criteria_op(spec, _parse(spec).state, expect))
    ops.append(_criteria_op("tiles", _parse("tiles").state, "tiles"))
    for d in (2, 3, 4):
        ops.append(_criteria_op(f"maxent:{d}", _parse(f"maxent:{d}").state, "ppt-entangled"))

    for d, k in [(2, 1 + i % 4) for i in range(10)] + [(3, 1 + i % 5) for i in range(10)]:
        spec = f"sep:{d}:{d}:{k}:{next(seeds)}"
        rho = _parse(spec).state
        ops.append(
            value_op(
                f"ppt_boundary_bisect {spec}",
                lambda rho=rho: geometry.ppt_boundary_bisect(rho, certified_separable=True),
                lambda res: [] if res.bound_ok else ["certified-separable boundary run not bound_ok"],
                lambda res: {"t_star": res.t_star, "distance": res.distance_from_start},
            )
        )
    for spec in ("tiles", "isotropic:3:0.25", f"sep:2:2:3:{next(seeds)}", f"sep:3:3:4:{next(seeds)}"):
        rho = _parse(spec).state
        ops.append(
            value_op(
                f"fidelity_bound_check {spec}",
                lambda rho=rho: geometry.fidelity_bound_check(rho),
                lambda res: [] if res.ok else ["PPT state exceeds the fidelity bound"],
                lambda res: {"fidelity": res.fidelity, "gap": res.transpose_identity_gap},
            )
        )
    for d in (2, 3, 4):
        phi = _parse(f"maxent:{d}").state

        def witness(d=d, phi=phi):
            sep_max = geometry.sep_max_overlap_maxent(d)
            return geometry.witness_lower_bound(phi, phi.mat, sep_max)

        ops.append(
            value_op(
                f"witness_lower_bound maxent:{d}",
                witness,
                lambda lb, d=d: [] if abs(lb - (1 - 1 / d)) <= 1e-9 else [f"witness bound {lb}"],
            )
        )
    tiles_vectors = states.tiles_upb_vectors()
    upb_seed = next(seeds)
    ops.append(
        value_op(
            "min_overlap_with_span tiles",
            lambda: productopt.min_overlap_with_span(tiles_vectors, (3, 3), seed=upb_seed),
            lambda v: [] if v > UPB_OVERLAP_MIN else [f"tiles min overlap {v} below threshold"],
        )
    )
    for name in ("reduction", "entropic-2", "entropic-vn", "majorization", "crossnorm", "symext"):
        sweep_seed = next(seeds)
        ops.append(
            value_op(
                f"closure_sweep {name}",
                lambda name=name, sd=sweep_seed: [closure.closure_sweep(name, CLOSURE_LIB_TRIALS, sd)],
                _closure_problems,
                lambda reps: {"min_margin": reps[0].min_margin, "margins": _sha(str(reps[0].margins))},
            )
        )

    def verdict(report, name):
        return next(v for v in report["verdicts"] if v["criterion"] == name)

    boundary_spec = f"sep:3:3:4:{next(seeds)}"
    tiles_file = os.path.join(tmpdir, "tiles.json")
    ops += [
        cli_op(
            tmpdir, ["criteria", "--state", "maxent:2", "--json"], "criteria-maxent.json",
            _report_check(
                lambda r: not verdict(r, "ppt")["passed"] and verdict(r, "symext-2")["status"] != "pass",
                "maxent:2 passes ppt or is reported extendible",
            ),
        ),
        cli_op(
            tmpdir, ["criteria", "--state", "tiles", "--only", "ppt,crossnorm"], "criteria-tiles.json",
            _report_check(
                lambda r: verdict(r, "ppt")["passed"]
                and not verdict(r, "crossnorm")["passed"]
                and r["upb_certificate"]["entangled"],
                "tiles verdicts or UPB certificate wrong",
            ),
        ),
        cli_op(
            tmpdir, ["geometry", "boundary", "--state", boundary_spec, "--json"], "boundary.json",
            _report_check(lambda r: r["bound_ok"] and r["certified_separable"], "boundary not bound_ok"),
        ),
        cli_op(
            tmpdir, ["geometry", "definetti", "--dim", "4", "--n", "1", "--k", "99"], "definetti.json",
            _report_check(lambda r: abs(r["bound"]["value"] - 0.08) <= 1e-12, "de Finetti bound wrong"),
        ),
        cli_op(
            tmpdir, ["geometry", "witness", "--state", "maxent:2", "--witness", "maxent:2"], "witness.json",
            _report_check(lambda r: abs(r["lower_bound"]["value"] - 0.5) <= 1e-9, "witness bound wrong"),
        ),
        cli_op(
            tmpdir, ["closure", "--criterion", "ppt", "--trials", "200", "--seed", str(next(seeds))],
            "closure.json",
            _report_check(
                lambda r: all(not sw["violations"] and not sw["sub_assertion_failures"] for sw in r["sweeps"]),
                "closure sweep violated",
            ),
        ),
    ]
    # `state make` writes the file that `state show` reads later in the same pass
    make = cli_op(
        tmpdir, ["state", "make", "--spec", "tiles"], "tiles.json",
        _report_check(lambda r: r["kind"] == "density" and r["dims"] == [3, 3], "state make payload wrong"),
    )
    ops += [
        make,
        cli_op(
            tmpdir, ["state", "show", "--state", f"file:{tiles_file}"], "show.json",
            _report_check(
                lambda r: r["dims"] == [3, 3] and abs(r["trace"] - 1) <= 1e-10
                and r["ppt_margin"]["value"] >= -1e-9,
                "state show summary wrong",
            ),
        ),
    ]
    return ops


WORKLOADS = {
    "symext_cold": build_symext_cold,
    "symext_deep": build_symext_deep,
    "tomo": build_tomo,
    "screen": build_screen,
}
