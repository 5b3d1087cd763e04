"""fleetmaint benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload paper-tensor --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; it imports the package from ``src/`` of
that checkout. ``--trace 0`` times the workload with nothing installed,
normalizes the times by the host speed probe (``speed.py``) and prints the
end-to-end metrics; ``--trace 1`` runs one untraced and one traced pass and
prints the per-layer metrics. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. Details (environment, every pass, latency percentiles with
their sample counts, spans, artifact digests) go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = Path(".bench_out")


def _import_package():
    """Import fleetmaint from this checkout's src/ or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import fleetmaint
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import fleetmaint from {SRC}: {exc}")
    if Path(fleetmaint.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: fleetmaint came from {fleetmaint.__file__}, not {SRC}")
    return fleetmaint


def _blas_threads():
    """Thread count of the OpenBLAS library bundled with numpy, if any."""
    import ctypes

    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(fleetmaint) -> dict:
    import numpy as np

    active = getattr(fleetmaint, "active_backend", None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "FLEETMAINT_BACKEND": os.environ.get("FLEETMAINT_BACKEND"),
        "active_backend": active() if callable(active) else None,
    }


def code_digest() -> str:
    """Digest of the package and benchmark sources, keying stored artifact digests."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_against_stored(run, workload: str, seed: int, digests: dict) -> None:
    """C9: every run of this code with this seed writes byte-identical artifacts."""
    store = OUT / "digests" / code_digest() / f"{workload}-{seed}.json"
    if store.exists():
        stored = json.loads(store.read_text(encoding="utf-8"))
        diff = sorted(k for k in stored.keys() | digests.keys()
                      if stored.get(k) != digests.get(k))
        run.check("artifacts match earlier runs", not diff, f"{diff[:5]}")
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(digests, indent=1, sort_keys=True), encoding="utf-8")
        tmp.replace(store)


def run_workload(args):
    import layers
    import workloads
    from spans import Tracer, installed
    from speed import SpeedProbe

    wl = workloads.WORKLOADS[args.workload]
    run = workloads.Run()
    work = OUT / "work" / f"{args.workload}-{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # timed runs normalize wall times by the host speed probe; traced runs
    # report raw span times and leave the probe out of the spans
    tracer = Tracer() if args.trace else None
    probe = None if tracer else SpeedProbe()
    detail: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}

    passes = []  # one dict per pass
    with probe or contextlib.nullcontext():
        if tracer:
            with installed(tracer):
                fleet_set, setups = workloads.setup(run, wl, args.seed, work, 1)
        else:
            fleet_set, setups = workloads.setup(run, wl, args.seed, work, wl.setup_repeats)
        digests = None
        measured = 0.0
        while True:
            k = len(passes)
            traced = bool(tracer) and k == 1
            out = work / f"pass-{k}"
            out.mkdir()
            run.stages = []
            run.tracer = tracer if traced else None
            gc.collect()
            t0 = time.perf_counter()
            try:
                if traced:
                    with installed(tracer):
                        results = wl.run_pass(run, fleet_set, args.seed, out)
                else:
                    results = wl.run_pass(run, fleet_set, args.seed, out)
            except Exception:
                break  # Run.stage recorded the failure
            finally:
                run.tracer = None
            t1 = time.perf_counter()
            measured += t1 - t0
            try:
                wl.check(run, results)
            except Exception:
                run.fail(f"checks raised:\n{traceback.format_exc()}")
            pass_digests = workloads.digest_tree(out)
            if digests is None:
                digests = pass_digests
            else:
                run.check("artifacts match across passes", pass_digests == digests)
            passes.append({
                "interval": (t0, t1), "stages": run.stages, "traced": traced,
                "predict": layers.latency(results),
                "lstm_beats_unigram": [r["lstm_ppl"] < r["unigram_ppl"]
                                       for r in results if "lstm_ppl" in r],
                "cp_iterations": [r["cp_model"].iterations for r in results if "cp_model" in r],
            })
            del results
            done = k == 1 if tracer else measured >= args.seconds
            if done:
                break
            shutil.rmtree(out)
    if digests is not None:
        check_against_stored(run, args.workload, args.seed, digests)
    shutil.rmtree(work, ignore_errors=True)

    def seconds(a, b):
        return probe.normalize(a, b) if probe else b - a

    for p in passes:
        p["wall_s"] = p["interval"][1] - p["interval"][0]
        p["run_s"] = seconds(*p["interval"])
        p["models_s"] = sum(seconds(a, b) for _, model, a, b in p["stages"] if model)
        p["stages"] = [(name, b - a, seconds(a, b)) for name, _, a, b in p["stages"]]
    setup_s = [seconds(a, b) for a, b in setups]
    detail.update(setup_wall_s=[b - a for a, b in setups], setup_s=setup_s, passes=passes,
                  probe_samples=probe.samples if probe else [])

    metrics: dict = {}
    if tracer and len(passes) == 2:
        metrics = layers.layer_metrics(tracer, passes[0]["wall_s"], passes[1]["wall_s"])
        spans_path = OUT / "results" / f"{args.workload}-{args.seed}-spans.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")
    elif not tracer and passes:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "run_s": (statistics.median(p["run_s"] for p in passes), "s"),
            "models_s": (statistics.median(p["models_s"] for p in passes), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    detail["failures"] = run.failures
    return run, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="untraced passes repeat until this much time is measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One BLAS thread for every workload, set before numpy loads. On a shared
    # 2-core machine a second thread made demo-scale CP-ALS times vary by up
    # to 2x between identical runs, and a fixed thread count keeps float
    # reductions, and so the artifact digests, the same from run to run.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    fleetmaint = _import_package()
    sys.path.insert(0, str(HERE))
    import measure
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    env = environment(fleetmaint)
    print(f"perfbench: {args.workload} seed={args.seed} trace={args.trace} env={env}",
          file=sys.stderr)

    run, metrics, detail = run_workload(args)
    correct = run.failed == 0 and bool(metrics)
    detail.update(env=env, correct=correct, attempted=run.attempted, failed=run.failed,
                  error_rate=measure.error_rate(run.failed, max(run.attempted, 1)),
                  metrics=metrics)
    results = OUT / "results" / f"{args.workload}-{args.seed}-t{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(detail, indent=1, sort_keys=True), encoding="utf-8")

    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
