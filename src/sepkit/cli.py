"""Command-line surface: reproducible JSON reports over the library ops.

Every run embeds its fully resolved configuration (including seeds) in the
report, so identical invocations give byte-identical JSON apart from the
timestamp field. Machine-readable JSON goes to stdout (or --out); a short
human summary goes to stderr unless --json is set. Exit codes: 0 for a
completed computation regardless of verdicts, 1 for usage or I/O errors,
2 when a theorem-guaranteed invariant is violated (possible bug).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import lru_cache

import numpy as np

from . import __version__
from .closure import closure_sweep
from .criteria import ENTROPIES, ONE_SHOT_TESTS, block_objs, symext_verdict
from .geometry import (
    BISECT_TOL,
    definetti_bound,
    farness_certificate,
    ppt_boundary_bisect,
    sep_max_overlap_maxent,
    witness_lower_bound,
)
from .linalg import partial_transpose
from .productopt import min_overlap_with_span, upb_general_position
from .serialize import density_to_obj, matrix_to_obj
from .statespec import StateSpecError, parse_state_spec
from .states import Ensemble, tiles_upb_vectors
from .symext import DEFAULT_TOL, has_symmetric_extension
from .tomography import acceptance_probability


def _verdict_obj(v) -> dict:
    return {
        "criterion": v.criterion,
        "passed": v.passed,
        "status": v.status,
        "margin": {"value": v.margin, "tol": v.details.get("tol")},
        "details": {k: val for k, val in v.details.items() if k != "tol"},
    }


def _cmd_criteria(args) -> tuple[dict, bool]:
    parsed = parse_state_spec(args.state)
    names = [*ONE_SHOT_TESTS, "symext"]
    if args.only is not None:
        names = [n.strip() for n in args.only.split(",") if n.strip()]
        if not names:
            raise StateSpecError(f"--only {args.only!r} selects no criterion")
        bad = [n for n in names if n != "symext" and n not in ONE_SHOT_TESTS]
        if bad:
            raise StateSpecError(f"unknown criteria {bad}; known: {sorted(ONE_SHOT_TESTS)} + symext")
    verdicts = [ONE_SHOT_TESTS[n](parsed.state) for n in names if n != "symext"]
    if "symext" in names:
        verdicts.append(symext_verdict(parsed.state, args.symext_k))
    results = {"state": args.state, "verdicts": [_verdict_obj(v) for v in verdicts]}
    if parsed.kind == "tiles":
        # the state's range is the orthocomplement of the tiles vectors; when
        # they are unextendible it holds no product vector, so the state is
        # entangled (range criterion). The overlap bound is a diagnostic only.
        ppt_passed = any(v.criterion == "ppt" and v.passed for v in verdicts)
        vectors = tiles_upb_vectors()
        position = upb_general_position(vectors, (3, 3))
        overlap = min_overlap_with_span(vectors, (3, 3), starts=32, seed=args.seed)
        certified = position["unextendible"]
        results["upb_certificate"] = {
            "general_position": position,
            "min_product_overlap": {"value": overlap},
            "entangled": certified,
        }
        if ppt_passed and certified:
            results["flag"] = "entangled by UPB certificate despite PPT pass"
    return results, False


def _cmd_symext(args) -> tuple[dict, bool]:
    parsed = parse_state_spec(args.state)
    res = has_symmetric_extension(parsed.state, args.k, max_iters=args.max_iters, tol=args.tol)
    results = {
        "state": args.state,
        "copies": args.k,
        "status": res.status,
        "residual": {"value": res.residual, "tol": res.tol},
        "iterations": res.iterations,
        "stop_reason": res.stop_reason,
        "blocks": block_objs(res.blocks),
        "witness_extension": None
        if res.witness_extension is None
        else matrix_to_obj(res.witness_extension, "hermitian"),
    }
    return results, False


def _cmd_tomo_accept(args) -> tuple[dict, bool]:
    target = parse_state_spec(args.target)
    source = parse_state_spec(args.source)
    est = acceptance_probability(
        target.state, source.state, args.n, args.eps, args.trials, args.seed
    )
    results = {
        "target": args.target,
        "source": args.source,
        "n": args.n,
        "eps": args.eps,
        "trials": args.trials,
        "acceptance": {"value": est, "stderr_bound": 0.5 / np.sqrt(args.trials)},
    }
    return results, False


def _cmd_geometry_boundary(args) -> tuple[dict, bool]:
    parsed = parse_state_spec(args.state)
    res = ppt_boundary_bisect(
        parsed.state, tol=args.tol, certified_separable=parsed.ensemble is not None
    )
    results = {
        "state": args.state,
        "t_star": {"value": res.t_star, "tol": res.tol},
        "distance_from_start": {"value": res.distance_from_start, "tol": res.tol},
        "bound": 1.0 / np.sqrt(parsed.state.dim_a),
        "bound_ok": res.bound_ok,
        "certified_separable": res.certified,
        "boundary_state": density_to_obj(res.boundary_state),
    }
    violated = res.certified and not res.bound_ok
    return results, violated


def _cmd_geometry_definetti(args) -> tuple[dict, bool]:
    value = definetti_bound(args.dim, args.n, args.k)
    return {"dim": args.dim, "n": args.n, "k": args.k, "bound": {"value": value, "tol": 0.0}}, False


def _cmd_geometry_witness(args) -> tuple[dict, bool]:
    parsed = parse_state_spec(args.state)
    witness = parse_state_spec(args.witness)
    if witness.kind != "maxent":
        raise StateSpecError(f"only maxent:d witnesses are supported, got {args.witness!r}")
    d = witness.state.dim_a
    if parsed.state.dims != (d, d):
        raise StateSpecError(
            f"witness maxent:{d} needs a state on ({d},{d}), got {parsed.state.dims}"
        )
    try:
        sep_max = sep_max_overlap_maxent(d)
    except RuntimeError as exc:
        return {"error": str(exc)}, True
    lb = witness_lower_bound(parsed.state, witness.state.mat, sep_max)
    results = {
        "state": args.state,
        "witness": args.witness,
        "sep_max": {"value": sep_max, "tol": 1e-6},
        "lower_bound": {"value": lb, "tol": 1e-9},
        "label": "certified lower bound on trace distance from SEP",
    }
    return results, False


def _cmd_geometry_farness(args) -> tuple[dict, bool]:
    parsed = parse_state_spec(args.state)
    members = [parse_state_spec(spec) for spec in args.ansatz]
    weight = 1.0 / len(members)
    ens = Ensemble(tuple((weight, m.state) for m in members))
    n_list = [int(x) for x in args.n_list.split(",") if x.strip()]
    res = farness_certificate(
        parsed.state, ens, n_list, args.eps, args.trials, args.seed
    )
    results = {
        "state": args.state,
        "ansatz": list(args.ansatz),
        "eps": args.eps,
        "trials": args.trials,
        "label": res.label,
        "member_trace_distances": list(res.member_distances),
        "members_at_least_eps_away": list(res.far_members),
        "points": [
            {
                "n": p.n,
                "lower_bound": {"value": p.lower_bound, "stderr_bound": p.stderr_bound},
                "accept_target": p.accept_target,
                "accept_ansatz": p.accept_ansatz,
            }
            for p in res.points
        ],
    }
    return results, False


def _cmd_closure(args) -> tuple[dict, bool]:
    names = list(ENTROPIES) if args.criterion == "entropic" else [args.criterion]
    sweeps = []
    violated = False
    for name in names:
        rep = closure_sweep(name, args.trials, args.seed)
        sweeps.append(
            {
                "criterion": rep.criterion,
                "trials": rep.trials,
                "violations": rep.violations,
                "sub_assertion_failures": rep.sub_assertion_failures,
                "min_margin": {"value": rep.min_margin, "tol": 1e-8},
            }
        )
        violated = violated or rep.violations > 0 or rep.sub_assertion_failures > 0
    return {"criterion": args.criterion, "sweeps": sweeps}, violated


def _cmd_state_make(args) -> tuple[dict, bool]:
    parsed = parse_state_spec(args.spec)
    return density_to_obj(parsed.state), False


def _cmd_state_show(args) -> tuple[dict, bool]:
    parsed = parse_state_spec(args.state)
    rho = parsed.state
    vals = rho.eigenvalues[::-1]
    pt_vals = np.linalg.eigvalsh(partial_transpose(rho.mat, rho.dims))
    results = {
        "state": args.state,
        "dims": list(rho.dims),
        "trace": float(np.trace(rho.mat).real),
        "purity": float(np.trace(rho.mat @ rho.mat).real),
        "eigenvalues": [float(v) for v in vals],
        "ppt_margin": {"value": float(pt_vals[0]), "tol": 1e-9},
        "has_product_certificate": parsed.ensemble is not None,
    }
    return results, False


def _positive_float(text: str) -> float:
    value = float(text)
    # written to fail on NaN and Inf
    if not 0.0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="sepkit", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="suppress the stderr summary")
    common.add_argument("--out", help="write the JSON report here")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=0, help="master seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("criteria", help="run separability criteria on a state", parents=[seeded])
    p.add_argument("--state", required=True)
    p.add_argument("--only", help="comma list of criteria to run")
    p.add_argument("--symext-k", type=int, default=2)
    p.set_defaults(handler=_cmd_criteria)

    p = sub.add_parser("symext", help="search for a symmetric extension", parents=[common])
    p.add_argument("--state", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-iters", type=_positive_int, default=5000)
    p.add_argument("--tol", type=_positive_float, default=DEFAULT_TOL)
    p.set_defaults(handler=_cmd_symext)

    tomo = sub.add_parser("tomo", help="tomography experiments").add_subparsers(
        dest="subcommand", required=True
    )
    p = tomo.add_parser("accept", help="Monte-Carlo acceptance probability", parents=[seeded])
    p.add_argument("--target", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=_positive_float, required=True)
    p.add_argument("--trials", type=_positive_int, default=400)
    p.set_defaults(handler=_cmd_tomo_accept)

    geo = sub.add_parser("geometry", help="SEP vs PPT geometry").add_subparsers(
        dest="subcommand", required=True
    )
    p = geo.add_parser("boundary", help="bisect the PPT boundary toward Phi(d)", parents=[common])
    p.add_argument("--state", required=True)
    p.add_argument("--tol", type=_positive_float, default=BISECT_TOL)
    p.set_defaults(handler=_cmd_geometry_boundary)
    p = geo.add_parser("definetti", help="finite de Finetti bound", parents=[common])
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_geometry_definetti)
    p = geo.add_parser("witness", help="certified witness lower bound", parents=[common])
    p.add_argument("--state", required=True)
    p.add_argument("--witness", required=True, help="maxent:d")
    p.set_defaults(handler=_cmd_geometry_witness)
    p = geo.add_parser("farness", help="Monte-Carlo lower bound vs an explicit ansatz", parents=[seeded])
    p.add_argument("--state", required=True)
    p.add_argument("--ansatz", action="append", required=True)
    p.add_argument("--n-list", required=True)
    p.add_argument("--eps", type=_positive_float, required=True)
    p.add_argument("--trials", type=_positive_int, default=200)
    p.set_defaults(handler=_cmd_geometry_farness)

    p = sub.add_parser("closure", help="tensor-product closure sweep", parents=[seeded])
    p.add_argument(
        "--criterion",
        required=True,
        choices=[*ONE_SHOT_TESTS, "entropic", "symext"],
    )
    p.add_argument("--trials", type=_positive_int, default=200)
    p.set_defaults(handler=_cmd_closure)

    state = sub.add_parser("state", help="build or inspect states").add_subparsers(
        dest="subcommand", required=True
    )
    p = state.add_parser("make", help="emit a state as a matrix JSON document", parents=[common])
    p.add_argument("--spec", required=True)
    p.set_defaults(handler=_cmd_state_make, bare_payload=True)
    p = state.add_parser("show", help="summarize a state", parents=[common])
    p.add_argument("--state", required=True)
    p.set_defaults(handler=_cmd_state_show)

    return parser


def _summary_lines(report: dict) -> list[str]:
    seed = report["config"].get("seed")
    lines = [f"sepkit {report['command']}" + ("" if seed is None else f" (seed {seed})")]
    results = report.get("results", {})
    for key, value in results.items():
        if key in ("boundary_state", "witness_extension"):
            continue
        if isinstance(value, (str, int, float, bool)):
            lines.append(f"  {key}: {value}")
        elif isinstance(value, dict) and "value" in value:
            lines.append(f"  {key}: {value['value']}")
        elif key == "verdicts":
            for v in value:
                lines.append(
                    f"  {v['criterion']}: {v['status']} (margin {v['margin']['value']:+.3e})"
                )
        elif key in ("sweeps", "points"):
            for item in value:
                lines.append(f"  {json.dumps(item)}")
    return lines


_ENCODE = json.JSONEncoder(allow_nan=False).encode
_CONTAINERS = (dict, list, tuple)


def to_json(obj, indent: str = "") -> str:
    """JSON text of obj, indented by 2 spaces except that a list of scalars (a matrix row) stays on one line.

    Scalars and those lists go through the C encoder, so the text parses to
    what json.dumps(obj, indent=2) parses to; a NaN or infinity raises ValueError.
    """
    inner = indent + "  "
    if isinstance(obj, dict) and obj:
        items = [f"{inner}{_ENCODE(str(k))}: {to_json(v, inner)}" for k, v in obj.items()]
    # scan the distinct item types, not every item: a matrix row holds only floats
    elif isinstance(obj, (list, tuple)) and any(issubclass(t, _CONTAINERS) for t in set(map(type, obj))):
        items = [inner + to_json(v, inner) for v in obj]
    else:
        return _ENCODE(obj)
    brackets = "{}" if isinstance(obj, dict) else "[]"
    return brackets[0] + "\n" + ",\n".join(items) + "\n" + indent + brackets[1]


def run(args: argparse.Namespace) -> int:
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("handler", "bare_payload") and not callable(v)
    }
    try:
        results, violated = args.handler(args)
        if getattr(args, "bare_payload", False):
            payload = results
        else:
            payload = {
                "command": args.command
                + ("" if not getattr(args, "subcommand", None) else f" {args.subcommand}"),
                "version": __version__,
                "config": config,
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "results": results,
                "invariant_violation": violated,
            }
        # a NaN or infinity raises ValueError here instead of reaching the report
        text = to_json(payload) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (StateSpecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.json and not getattr(args, "bare_payload", False):
        print("\n".join(_summary_lines(payload)), file=sys.stderr)
    return 2 if violated else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
