#!/usr/bin/env python3
"""hqvq codec benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload photo-2x1 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones from a traced pass. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The lines
before it, and ``perfbench/out/<workload>-trace<0|1>.json``, hold the rest:
environment, input properties, stage times, sample summaries, checks, and
metrics that only some workloads have. A traced run also writes its spans to
``perfbench/out/spans-<workload>.npz``. See perfbench/README.md.
"""

import ctypes
import ctypes.util
import os

# one process, one thread: keep numpy's native libraries single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS, smoke_version  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


def fix_allocator() -> None:
    """Make glibc malloc serve every array from the heap and keep freed memory.

    glibc raises its mmap threshold as a process frees large blocks, so how
    often an array allocation page-faults depends on what the process did
    before: a decode cost 248 page faults per call in some runs and none in
    others, and its time doubled. Fixed thresholds make every run allocate the
    same way. Without glibc this does nothing.
    """
    name = ctypes.util.find_library("c")
    if name is None:
        return
    libc = ctypes.CDLL(name)
    if not hasattr(libc, "mallopt"):
        return
    m_trim_threshold, m_mmap_threshold = -1, -3
    for param in (m_trim_threshold, m_mmap_threshold):
        libc.mallopt(param, 256 << 20)


def use_checkout_source() -> None:
    """Import hqvq from this checkout's src/, never from an installed copy."""
    if not (SRC / "hqvq" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'hqvq'} not found; run from a full checkout of the repository")
    sys.path.insert(0, str(SRC))


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spec_metrics(spec: dict, traced: bool) -> dict:
    """Metric name -> unit that a run in this mode must print on its last line."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def run_one(workload, seed: int, seconds: float, traced: bool):
    from runner import run_workload

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="tmp-") as tmp:
        return run_workload(workload, seed, seconds, traced, Path(tmp))


def final_line(result, names: dict) -> str:
    missing = set(names) - set(result.metrics)
    if missing:
        raise KeyError(f"metrics not measured: {sorted(missing)}")
    return json.dumps(
        {
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {
                name: {"value": result.metrics[name], "unit": unit} for name, unit in names.items()
            },
        }
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="run every workload at tiny sizes and self-check")
    args = ap.parse_args(argv)
    use_checkout_source()
    fix_allocator()
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")

    from runner import UNITS

    traced = bool(args.trace)
    names = spec_metrics(load_spec(), traced)
    result = run_one(WORKLOADS[args.workload], args.seed, args.seconds, traced)
    report = dict(result.report, metrics=result.metrics, correct=result.correct,
                  attempted=result.attempted, failed=result.failed)
    (OUT_DIR / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(report, indent=1) + "\n")
    if result.tracer is not None:
        result.tracer.save(OUT_DIR / f"spans-{args.workload}.npz")

    print(f"workload {args.workload}  seed {args.seed}  mode {report['mode']}")
    print("environment " + json.dumps(report["environment"]))
    print("inputs " + json.dumps(report["inputs"]))
    print("pass_stages_s " + json.dumps(report["pass_stages_s"]))
    print("probe_s " + json.dumps(report["probe_s"]))
    print("samples_scaled " + json.dumps(report["samples_scaled"]))
    for name, value in result.metrics.items():
        print(f"  {name:40s} {value!r} {UNITS[name]}")
    print(f"  {'attempted':40s} {result.attempted}  failed {result.failed}  "
          f"mismatch_frac {result.failed / result.attempted!r} share")
    for problem in report["checks"]:
        print(f"CHECK FAILED: {problem}")
    print(final_line(result, names))
    return 0


def smoke() -> int:
    """Every workload at tiny sizes, both modes: names, units and exact repeats."""
    from runner import EXACT_UNITS, UNITS

    spec = load_spec()
    problems = []
    if sorted(WORKLOADS) != sorted(w["name"] for w in spec["workloads"]):
        problems.append("workloads differ from BENCHMARK.json")
    for workload in WORKLOADS.values():
        tiny = smoke_version(workload)
        for traced in (False, True):
            names = spec_metrics(spec, traced)
            first, second = (run_one(tiny, 3, 0.0, traced) for _ in range(2))
            final_line(first, names)
            where = f"{workload.name} trace={int(traced)}"
            for name, unit in names.items():
                if UNITS[name] != unit:
                    problems.append(f"{where}: {name} unit {UNITS[name]} != BENCHMARK.json {unit}")
                if unit in EXACT_UNITS and first.metrics[name] != second.metrics[name]:
                    problems.append(
                        f"{where}: {name} differs between runs with one seed: "
                        f"{first.metrics[name]!r} vs {second.metrics[name]!r}"
                    )
            for run in (first, second):
                problems += [f"{where}: {p}" for p in run.report["checks"]]
    for p in problems:
        print(p)
    print("smoke ok" if not problems else f"smoke FAILED: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
