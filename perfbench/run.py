"""sepkit benchmark: one seeded workload per process, closed loop, one client.

Run from the root of a sepkit checkout:

    python3 perfbench/run.py --workload screen --seed 1 --seconds 25 --trace 0

The workload's operations run in a fixed order, each starting when the
previous one has finished; one such sweep is a pass. Passes repeat until the
next one would overrun --seconds. Every output is checked after its pass,
outside the timed section. The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. Lines
before it name every metric with its unit, the run digest and the run's
machine description. Run records and span traces go to .perfbench/.

BLAS is pinned to one thread so that runs are steady and bit-identical.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before any import

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("symext_cold", "symext_deep", "tomo", "screen")
SETUP_PROBES = 4  # extra fresh-process set-ups; setup_s is the median with the run's own
SYMEXT_DIMS = (8, 16, 18, 27, 64, 81, 243, 486)  # dA*dB^k of every search the workloads run
ACCEPT_DIMS = (4, 9)
# ROADMAP re-anchor figures (2-core host, default BLAS threads), for the cross-check;
# acceptance calls are compared scaled to 400 trials
REANCHOR = {
    "symext.ms_per_iter.d8": 0.26,
    "symext.ms_per_iter.d81": 3.2,
    "symext.ms_per_iter.d243": 37.0,
    "symext.ms_per_iter.d486": 197.0,
    "tomography.accept.ms_per_call.d4": 120.0,
    "tomography.accept.ms_per_call.d9": 360.0,
}


def _fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_sepkit():
    if not os.path.isfile(os.path.join(SRC, "sepkit", "__init__.py")):
        _fail(f"no sepkit sources under {SRC}; run from the root of a sepkit checkout")
    sys.path.insert(0, SRC)
    import sepkit

    if os.path.dirname(os.path.abspath(sepkit.__file__)) != os.path.join(SRC, "sepkit"):
        _fail(f"imported sepkit from {sepkit.__file__}, not from {SRC}")
    import importlib

    names = ("cli", "closure", "criteria", "geometry", "linalg", "productopt",
             "serialize", "states", "statespec", "symext", "tomography")
    return {n: importlib.import_module(f"sepkit.{n}") for n in names}


# ------------------------------------------------------------------ metadata


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None  # the checkout is plain files; src_sha256 identifies the code
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _src_stats():
    digest = hashlib.sha256()
    lines = 0
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fname in sorted(filenames):
            if not fname.endswith(".py"):
                continue
            path = os.path.join(dirpath, fname)
            with open(path, "rb") as fh:
                data = fh.read()
            digest.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
            lines += data.count(b"\n")
    return digest.hexdigest()[:16], lines


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            path = next(line.split()[-1] for line in fh if "openblas" in line)
        lib = ctypes.CDLL(path)
    except (OSError, StopIteration):
        return None
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype, fn.argtypes = ctypes.c_int, []
            return int(fn())
    return None


def _metadata(np):
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_sha, src_lines = _src_stats()
    return {
        "git_sha": _git_sha(),
        "src_sha256": src_sha,
        "src_lines": src_lines,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
    }


# -------------------------------------------------------------- measurement


def _run_pass(ops, label, log, rec=None):
    """Run every op once, back to back; returns (raw seconds, corrected seconds, outputs) per op.

    The host-speed reference is sampled between ops, never inside one.
    """
    spans, outputs = [], []
    for i, op in enumerate(ops):
        log.maybe_sample()
        if rec is not None:
            rec.op = f"{label}.{i}"
        t0 = time.perf_counter()
        try:
            out, err = op.run(), None
        except Exception:  # a failed operation is counted, not fatal
            out, err = None, traceback.format_exc(limit=3)
        spans.append((t0, time.perf_counter()))
        outputs.append((out, err))
    log.maybe_sample(force=True)
    raw = [t1 - t0 for t0, t1 in spans]
    corrected = [(t1 - t0) * log.factor(t0, t1) for t0, t1 in spans]
    return raw, corrected, outputs


def _inspect_pass(ops, outputs):
    """Records (for the digest), failure messages and failed-op count of one pass; untimed."""
    records, messages, failed = [], [], 0
    for op, (out, err) in zip(ops, outputs):
        if err is not None:
            record, problems = {"error": err.strip().splitlines()[-1]}, [f"raised {err.strip()}"]
        else:
            try:
                record, problems = op.inspect(out)
            except Exception:  # a broken output is a failed check
                record, problems = {"check_error": True}, [traceback.format_exc(limit=3)]
        records.append({"op": op.name, **record})
        messages += [f"{op.name}: {p}" for p in problems]
        failed += bool(problems)
    text = json.dumps(records, sort_keys=True)
    return records, messages, failed, hashlib.sha256(text.encode()).hexdigest()


def _percentile(values, q):
    """q-th percentile (inclusive method) and how many samples lie above it."""
    if len(values) < 2:
        return values[0], 0
    cut = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return cut, sum(v > cut for v in values)


def _setup_probes(args):
    """Set up again in fresh processes; each reports its (corrected, raw) import-plus-inputs time."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            _fail(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        corrected, raw = proc.stdout.split()[-2:]
        out.append((float(corrected), float(raw)))
    return out


def _layer_values(rec, spans):
    """Every per-layer value one aggregation window of the recorder can give."""
    vals = {}
    for name, st in rec.stats.items():
        vals[f"{name}.s"] = st.total_s
        vals[f"{name}.self_s"] = st.self_s
        vals[f"{name}.calls"] = st.calls
    for name in spans.COUNT_NAMES:
        vals[name] = rec.counts[name]
    for dim in SYMEXT_DIMS:
        its = sum(it for d, it, _ in rec.solves if d == dim)
        secs = sum(s for d, _, s in rec.solves if d == dim)
        vals[f"symext.ms_per_iter.d{dim}"] = 1e3 * secs / its if its else 0.0
    for dim in ACCEPT_DIMS:
        per_call = [s * 400 / trials for d, trials, s in rec.accepts if d == dim]
        vals[f"tomography.accept.ms_per_call.d{dim}"] = 1e3 * statistics.median(per_call) if per_call else 0.0
    solves = len(rec.solves)
    vals["symext.undecided_frac"] = rec.counts["symext.status.inconclusive"] / solves if solves else 0.0
    return vals


def _check_dims_listed(rec):
    seen = {d for d, _, _ in rec.solves} - set(SYMEXT_DIMS)
    if seen:
        print(f"note: searches at unlisted dimensions {sorted(seen)} are not in ms_per_iter")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    modules = _import_sepkit()
    os.makedirs(OUT_DIR, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"tmp-{args.workload}-", dir=OUT_DIR)
    try:
        return _bench(args, modules, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def _bench(args, modules, tmpdir) -> int:
    import numpy as np

    # the benchmark's own modules import sepkit, so they load after it
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import spans
    import speed
    import workloads

    rec = spans.Recorder() if args.trace else None
    if rec is not None:
        rec.install(modules)
        rec.op = "setup"
    ops = workloads.WORKLOADS[args.workload](args.seed, tmpdir)
    setup_raw = time.perf_counter() - _T0
    setup = setup_raw * speed.REF_NOMINAL_S / speed.sample()
    if rec is not None:
        rec.uninstall()
        setup_layers = _layer_values(rec, spans)
    if args.setup_probe:
        print(repr(setup), repr(setup_raw))
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    # closed loop, one client; in a traced run untraced and traced passes alternate
    deadline = time.perf_counter() + args.seconds
    log = speed.SpeedLog()
    raw_times, op_times, digests, failures, layer_windows = [], [], [], [], []
    walls = {False: [], True: []}  # corrected seconds inside ops, per pass
    attempted = failed = 0
    while True:
        traced = bool(args.trace) and len(digests) % 2 == 1
        if traced:
            rec.reset()
            rec.install(modules)
        t_pass = time.perf_counter()
        raw, corrected, outputs = _run_pass(ops, f"p{len(digests)}", log, rec if traced else None)
        pass_s = time.perf_counter() - t_pass
        if traced:
            rec.uninstall()
            _check_dims_listed(rec)
            layer_windows.append(_layer_values(rec, spans))
        else:
            raw_times.append(raw)
            op_times.append(corrected)
        walls[traced].append(sum(corrected))
        records, messages, pass_failed, digest = _inspect_pass(ops, outputs)
        digests.append(digest)
        failures += messages
        failed += pass_failed
        attempted += len(ops)
        if len(digests) >= 1 + args.trace and time.perf_counter() + pass_s > deadline:
            break
    problems = []
    if len(set(digests)) != 1:
        problems.append(f"passes disagree: digests {sorted(set(digests))}")

    searches = [r for r, op in zip(records, ops) if op.search]
    undecided = sum(r.get("status") == "inconclusive" for r in searches)
    raw_wall = statistics.median(sum(t) for t in raw_times)
    lines = [
        f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(digests)} passes "
        f"of {len(ops)} ops, closed loop, 1 client",
        f"digest {digests[0]}",
        f"host speed: reference kernel median {1e3 * statistics.median(log.ref_s):.3f} ms "
        f"over {len(log.ref_s)} samples (nominal {1e3 * speed.REF_NOMINAL_S:g} ms)",
    ]
    metrics = {}
    if not args.trace:
        setups = [(setup, setup_raw)] + _setup_probes(args)
        # each operation's latency is its median over the passes, so the
        # percentiles do not shift with how many passes fit in the run
        per_op = [1e3 * statistics.median(col) for col in zip(*op_times)]
        per_op_raw = [1e3 * statistics.median(col) for col in zip(*raw_times)]
        metrics = {
            "setup_s": (statistics.median(c for c, _ in setups), "s",
                        f"median of {len(setups)} set-ups; raw {statistics.median(r for _, r in setups):.4g} s"),
            "wall_s": (statistics.median(walls[False]), "s",
                       f"median of {len(walls[False])} passes; raw {raw_wall:.4g} s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "ru_maxrss"),
        }
        for q in (50, 90):
            value, beyond = _percentile(per_op, q)
            how = (f"over {len(per_op)} ops, each the median of {len(op_times)} passes; {beyond} beyond; "
                   f"raw {_percentile(per_op_raw, q)[0]:.4g} ms")
            if beyond < 10:
                how += "; fewer than 10 beyond, indicative only"
            metrics[f"op_ms.p{q}"] = (value, "ms", how)
        for name, (value, unit, how) in metrics.items():
            lines.append(f"metric {name} {value:.6g} {unit} ({how})")
        wanted = [m["name"] for m in spec["end_to_end"]]
    else:
        # counts repeat exactly in a deterministic program; times do not
        for name in layer_windows[0]:
            if name.endswith(".calls") or name in spans.COUNT_NAMES:
                if len({w[name] for w in layer_windows}) != 1:
                    problems.append(f"exact count {name} differs between traced passes")
        layer = {k: statistics.median(w[k] for w in layer_windows) for k in layer_windows[0]}
        layer.update({f"setup.{k}": v for k, v in setup_layers.items()})
        traced_wall, untraced_wall = statistics.median(walls[True]), statistics.median(walls[False])
        layer["trace.overhead_s"] = traced_wall - untraced_wall
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, unit in units.items():
            if name not in layer:
                _fail(f"BENCHMARK.json lists per-layer metric {name!r}, which the trace does not give", 3)
            metrics[name] = (layer[name], unit, "")
            lines.append(f"layer {name} {layer[name]:.6g} {unit}")
        lines.append(f"trace overhead {layer['trace.overhead_s']:+.4f} s per pass (corrected wall_s "
                     f"traced {traced_wall:.4f} s vs untraced {untraced_wall:.4f} s)")
        for name, ref in REANCHOR.items():
            if layer[name]:
                lines.append(f"baseline-check {name} measured {layer[name]:.4g} ms (raw) vs re-anchor "
                             f"{ref:g} ms (ratio {layer[name] / ref:.2f})")
        wanted = list(units)
    if searches:
        lines.append(f"metric undecided_frac {undecided / len(searches):.4f} ratio "
                     f"({undecided}/{len(searches)} searches per pass)")
    lines.append(f"metric error_frac {failed / attempted:.4f} ratio ({failed}/{attempted} operations)")
    meta = _metadata(np)
    lines.append("meta " + json.dumps(meta, sort_keys=True))
    for line in lines:
        print(line)
    for msg in (failures + problems)[:20]:
        print(f"FAIL {msg}", file=sys.stderr)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as fh:
        json.dump({"meta": meta, "digest": digests[0], "lines": lines,
                   "metrics": {k: v[0] for k, v in metrics.items()},
                   "ops": [op.name for op in ops], "op_s": op_times, "op_raw_s": raw_times,
                   "ref_s": log.ref_s}, fh)
    if rec is not None:
        rec.write(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"),
                  {"workload": args.workload, "seed": args.seed, "digest": digests[0]})

    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
