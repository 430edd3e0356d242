"""In-memory span recorder for the traced benchmark run.

The recorder wraps sepkit's public functions at the module attribute where
their caller looks them up, so the program itself is not edited. Each call
becomes a span (name, start, end, parent span, operation id); counts and
per-name totals are aggregated as spans close. Self time is a span's
duration minus the time its direct children cover.

Wrappers are installed only around traced passes and set-ups, and removed
before the output checks run, so the benchmark's own checks never show up
in a trace.
"""

from __future__ import annotations

import json
import time
from collections import Counter

CRITERIA = ("ppt", "reduction", "entropic-2", "entropic-vn", "majorization", "crossnorm")

# span name -> the "module:attribute" places where callers look the function
# up. Library calls made by the benchmark go through the module named first.
PATCH_POINTS = {
    "symext.solve": ["symext:has_symmetric_extension", "cli:has_symmetric_extension"],
    "symext.project_psd": ["symext:project_psd"],
    "symext.project_affine": ["symext:project_affine"],
    "symext.symmetrize_b": ["symext:symmetrize_b"],
    "symext.extend_separable": ["symext:extend_separable", "closure:extend_separable"],
    "symext.verify": ["symext:verify_extension", "closure:verify_extension"],
    "tomography.accept": [
        "tomography:acceptance_probability",
        "geometry:acceptance_probability",
        "cli:acceptance_probability",
    ],
    "tomography.sample": ["tomography:sample_outcomes"],
    "tomography.born": ["tomography:born_probabilities"],
    "tomography.reconstruct": ["tomography:reconstruct"],
    # default_product_povm calls product_povm, so a default build counts two
    # calls; the d=3 tomo curves call product_povm directly
    "tomography.povm_build": ["tomography:default_product_povm", "tomography:product_povm"],
    "criteria.ppt": ["geometry:ppt_test"],
    # structural maps as seen from the other modules; calls inside linalg
    # itself (DensityMatrix.marginal) are not counted
    "linalg.maps": [
        "criteria:partial_trace",
        "criteria:partial_transpose",
        "criteria:realign",
        "criteria:tensor",
        "closure:partial_trace",
        "closure:partial_transpose",
        "closure:permute_systems",
        "closure:realign",
        "closure:tensor",
        "states:partial_trace",
        "states:permute_systems",
        "states:tensor",
        "symext:tensor",
        "tomography:tensor",
        "geometry:partial_transpose",
        "cli:partial_transpose",
    ],
    "linalg.trace_distance": ["geometry:trace_distance"],
    "states.sample": [
        "states:random_separable",
        "states:random_density",
        "statespec:random_separable",
        "statespec:random_density",
        "closure:random_separable",
        "closure:random_density",
    ],
    "states.segment_state": [
        "states:segment_state",
        "geometry:segment_state",
        "statespec:segment_state",
    ],
    "geometry.boundary_bisect": ["geometry:ppt_boundary_bisect", "cli:ppt_boundary_bisect"],
    "geometry.witness": ["geometry:witness_lower_bound", "cli:witness_lower_bound"],
    "geometry.farness": ["geometry:farness_certificate", "cli:farness_certificate"],
    "productopt.max_overlap": ["geometry:max_overlap_with_vector"],
    "productopt.min_overlap_span": [
        "productopt:min_overlap_with_span",
        "cli:min_overlap_with_span",
    ],
    "closure.sweep": ["closure:closure_sweep", "cli:closure_sweep"],
    "closure.check": ["closure:closure_check", "closure:symext_closure_check"],
    "closure.bipartite_product": ["closure:bipartite_product"],
    "serialize": ["cli:matrix_to_obj", "cli:density_to_obj", "statespec:load_density"],
    "statespec.parse": ["statespec:parse_state_spec", "cli:parse_state_spec"],
    "cli": ["cli:main"],
}

SPAN_NAMES = (
    *PATCH_POINTS,
    *(f"criteria.{c}" for c in CRITERIA),
    "linalg.density_validate",
)
COUNT_NAMES = (
    "symext.iterations",
    "symext.status.feasible",
    "symext.status.infeasible-evidence",
    "symext.status.inconclusive",
    "symext.project_psd.work_n3",
    "tomography.trials",
    "geometry.boundary_bisect.ppt_evals",
)


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _solve_end(rec, args, kwargs, result, dur):
    rho, k = _arg(args, kwargs, 0, "rho"), _arg(args, kwargs, 1, "k")
    rec.counts["symext.iterations"] += result.iterations
    rec.counts[f"symext.status.{result.status}"] += 1
    rec.solves.append((rho.dim_a * rho.dim_b**k, result.iterations, dur))


def _psd_start(rec, args, kwargs):
    rec.counts["symext.project_psd.work_n3"] += _arg(args, kwargs, 0, "x").shape[0] ** 3


def _accept_end(rec, args, kwargs, result, dur):
    trials = _arg(args, kwargs, 4, "trials")
    rec.counts["tomography.trials"] += trials
    rec.accepts.append((_arg(args, kwargs, 0, "target").dim, trials, dur))


def _ppt_start(rec, args, kwargs):
    if rec.stats["geometry.boundary_bisect"].open:
        rec.counts["geometry.boundary_bisect.ppt_evals"] += 1


# span name -> (called before the wrapped call, called after it returns)
_HOOKS = {
    "symext.solve": (None, _solve_end),
    "symext.project_psd": (_psd_start, None),
    "tomography.accept": (None, _accept_end),
    "criteria.ppt": (_ppt_start, None),
}


class SpanStats:
    """Aggregates of one span name: outermost total, self time, calls, open spans."""

    __slots__ = ("total_s", "self_s", "calls", "open")

    def __init__(self) -> None:
        self.total_s = self.self_s = 0.0
        self.calls = self.open = 0


class Recorder:
    """Spans and counts of one traced run, kept in memory until `write`."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.op = ""
        self.stats = {name: SpanStats() for name in SPAN_NAMES}
        self._open_ids: list[int] = []
        self._child_s: list[float] = []  # time covered by children, per open span
        self._patched: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Start a fresh aggregation window; recorded spans are kept for `write`."""
        for st in self.stats.values():
            st.total_s = st.self_s = 0.0
            st.calls = 0
        self.counts: Counter = Counter()
        self.solves: list[tuple[int, int, float]] = []  # (dA*dB^k, iterations, seconds)
        self.accepts: list[tuple[int, int, float]] = []  # (dim, trials, seconds)

    def _wrap(self, name: str, fn):
        nid = SPAN_NAMES.index(name)
        stat = self.stats[name]
        on_start, on_end = _HOOKS.get(name, (None, None))
        spans, open_ids, child_s, clock = self.spans, self._open_ids, self._child_s, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = open_ids[-1] if open_ids else -1
            open_ids.append(idx)
            child_s.append(0.0)
            stat.open += 1
            if on_start is not None:
                on_start(self, args, kwargs)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                open_ids.pop()
                child = child_s.pop()
                if child_s:
                    child_s[-1] += dur
                stat.open -= 1
                if not stat.open:
                    stat.total_s += dur
                stat.self_s += dur - child
                stat.calls += 1
                spans[idx] = (nid, t0, t1, parent, self.op)
            if on_end is not None:
                on_end(self, args, kwargs, result, dur)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every patch point; `modules` maps short names to sepkit submodules."""
        for name, points in PATCH_POINTS.items():
            for point in points:
                mod_name, attr = point.split(":")
                mod = modules[mod_name]
                orig = getattr(mod, attr)
                self._patched.append((mod, attr, orig))
                setattr(mod, attr, self._wrap(name, orig))
        tests = modules["criteria"].ONE_SHOT_TESTS
        for crit in CRITERIA:
            self._patched.append((tests, crit, tests[crit]))
            tests[crit] = self._wrap(f"criteria.{crit}", tests[crit])
        dm = modules["linalg"].DensityMatrix
        self._patched.append((dm, "__post_init__", dm.__post_init__))
        dm.__post_init__ = self._wrap("linalg.density_validate", dm.__post_init__)

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._patched):
            if isinstance(target, dict):
                target[attr] = orig
            else:
                setattr(target, attr, orig)
        self._patched.clear()

    def write(self, path: str, header: dict) -> None:
        """Write a header line, then one JSON line [name, start, end, parent, op] per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "fields": ["name", "start_s", "end_s", "parent", "op"]}))
            fh.write("\n")
            for nid, t0, t1, parent, op in self.spans:
                fh.write(f'["{SPAN_NAMES[nid]}",{t0:.9f},{t1:.9f},{parent},"{op}"]\n')
