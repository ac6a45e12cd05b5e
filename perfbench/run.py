"""lpodc benchmark: one workload, one seed, one JSON line of results.

Run from the root of an lpodc checkout (no install needed; the package is
imported from ``src``):

    python3 perfbench/run.py --workload compile --seed 1 --seconds 25 --trace 0

Workloads: compile, check-lpod, check-crp, chain (see ``workloads.py``).
With ``--trace 0`` the result holds the end-to-end metrics named in
``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics. Human-readable
lines come first; the last line of stdout is the JSON result.

Set-up time (``setup_s``) is the median wall time of several fresh
interpreters that each run ``import lpodc.cli``, normalised for CPU speed
like every time the benchmark reports (see ``speed.py``). The workload itself then
runs in its own fresh process (``worker.py``), so its peak memory is its
own. Program files and per-run records go under ``.perfbench-work/`` in the
checkout; a run's program files are removed when it ends.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from speed import normalise, reference_time  # noqa: E402

SETUP_LAUNCHES = 7
DEADLINE_S = 170
REQUIRED = (
    "BENCHMARK.json",
    "src/lpodc/cli.py",
    "tests/goldens.py",
    "programs/pi1.lpod",
    "programs/pi2.lpod",
    "programs/pi3.crp",
    "programs/pi3p.crp",
)


def setup_seconds(root: str) -> float:
    """Median time for a fresh interpreter to finish ``import lpodc.cli``,
    normalised for CPU speed. One launch first, untimed, so bytecode caches
    are written."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    ))
    cmd = [sys.executable, "-c", "import lpodc.cli"]
    times = []
    reference = reference_time()
    for i in range(SETUP_LAUNCHES + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=root, check=True, timeout=60)
        elapsed = time.perf_counter() - start
        before, reference = reference, reference_time()
        if i:
            times.append(normalise(elapsed, before, reference))
    return statistics.median(times)


def source_key(root: str, workload: str, seed: int) -> str:
    """Names the record of one workload and seed for one version of the
    lpodc sources and of the benchmark itself."""
    h = hashlib.sha256(("%s:%d" % (workload, seed)).encode())
    for path in sorted(glob.glob(os.path.join(root, "src", "lpodc", "*.py")) + glob.glob(os.path.join(HERE, "*.py"))):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:24]


def check_record(path: str, found: dict) -> list:
    """Compare the output digest and exact counters of this run with an
    earlier run of the same source, workload and seed; store the union."""
    record = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
    defects = [
        "%s was %r in an earlier run of this seed, now %r" % (key, record[key], value)
        for key, value in found.items()
        if key in record and record[key] != value
    ]
    record.update(found)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return defects


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, help="compile, check-lpod, check-crp or chain")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print("error: not the root of an lpodc checkout (missing %s)" % ", ".join(missing), file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    started = time.perf_counter()
    metrics = {}
    if not args.trace:
        metrics["setup_s"] = setup_seconds(root)

    work = os.path.join(root, ".perfbench-work")
    workdir = os.path.join(work, "%s-%d" % (args.workload, args.seed))
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=root, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, DEADLINE_S - (time.perf_counter() - started)),
        )
    except subprocess.TimeoutExpired:
        print("error: workload did not finish in time", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        print("error: worker exited with code %d" % proc.returncode, file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics.update(result["metrics"])

    found = {"digest": result["digest"]}
    found.update(result.get("exact", {}))
    defects = check_record(
        os.path.join(work, "records", source_key(root, args.workload, args.seed) + ".json"), found
    )

    failed = len(result["failures"])
    print("workload %s, seed %d: %d operations in %d passes, %d failed (failed_share %.4f)" % (
        args.workload, args.seed, result["attempted"], result["passes"], failed,
        failed / result["attempted"],
    ))
    for line in result["failures"][:20]:
        print("  FAILED " + line)
    for line in defects:
        print("  DETERMINISM DEFECT: " + line)
    print("output digest %s" % result["digest"])
    for key, value in sorted(result.get("exact", {}).items()):
        print("exact %s = %r" % (key, value))
    for key, value in sorted(result.get("raw", {}).items()):
        print("raw wall time, not normalised: %s = %.6f" % (key, value))
    out = {}
    for m in declared:
        value = metrics[m["name"]]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        note = " (%d samples)" % result["attempted"] if m["name"].startswith("latency_") else ""
        print("%-40s %14.6f %s%s" % (m["name"], value, m["unit"], note))
    print(json.dumps({
        "correct": not failed and not defects,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
