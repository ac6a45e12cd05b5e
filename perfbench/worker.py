"""Runs one workload in a fresh process and prints its measurements as JSON.

Started by ``run.py``; run from the root of an lpodc checkout:

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1

Each operation is one in-process ``lpodc.cli.main([...])`` call with stdout
and stderr captured, timed with ``time.perf_counter`` around the call only.
The loop is closed with a single client: the next operation starts when the
previous one has returned.

Untraced (``--trace 0``): whole passes over the workload's programs, as many
as fit ``--seconds`` but at least ``MIN_PASSES``, so every run measures the
same mix. The first pass checks every output in full; later passes must
reproduce each operation's first output byte for byte.

Times are normalised for CPU speed (see ``speed.py``): an operation's time
is its wall time scaled by the reference-loop times measured just before and
after it. Throughput and latency percentiles are taken over the normalised
times of every operation of every pass; the raw wall-time figures are
printed alongside.

Traced (``--trace 1``): one untraced pass, then the same pass again with the
tracer installed. The per-layer counters come from the traced pass; the
tracing overhead is the ratio of the two passes' operation times.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from lpodc import cli  # noqa: E402

import workloads  # noqa: E402
from speed import normalise, reference_time  # noqa: E402
from tracer import Tracer  # noqa: E402

MIN_PASSES = 2

# Counters that must repeat exactly between two runs of the same seed.
EXACT_COUNTERS = (
    "evaluate.tuples_tried",
    "evaluate.ground_rules_per_tuple",
    "engine.leaves",
    "engine.answer_sets",
    "crp.subsets_solved",
    "translate.emitted_kb",
)


def call(op):
    """One operation: exit code, stdout, stderr and seconds taken. The heap
    is collected first, untimed, so that every operation starts from a clean
    heap as a fresh ``lpodc`` process would, rather than paying for the
    garbage of the operation before it."""
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # any crash is a failed operation, never an abort
            rc = -1
            err.write("%s: %s" % (type(exc).__name__, exc))
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), elapsed


class Run:
    def __init__(self, ops):
        self.ops = ops
        self.first_output = {}
        self.times = []
        self.raw_times = []
        self.reference = reference_time()
        self.attempted = 0
        self.failures = []

    def one_pass(self, tracer=None):
        """Run every operation once; returns (raw, normalised) total seconds."""
        raw = scaled_total = 0.0
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = i
            rc, out, err, elapsed = call(op)
            before, self.reference = self.reference, reference_time()
            scaled = normalise(elapsed, before, self.reference)
            self.attempted += 1
            raw += elapsed
            scaled_total += scaled
            self.times.append(scaled)
            self.raw_times.append(elapsed)
            if op.name in self.first_output:
                problem = "" if out == self.first_output[op.name] else "output differs from its first run"
            else:
                self.first_output[op.name] = out
                try:
                    problem = workloads.verify(op, rc, out)
                except Exception as exc:  # output the checker cannot read is wrong output
                    problem = "check failed: %s: %s" % (type(exc).__name__, exc)
            if rc != 0 and not problem:
                problem = "exit code %d" % rc
            if problem:
                self.failures.append("%s: %s %s" % (op.name, problem, err.strip()[:200]))
        return raw, scaled_total

    def output_digest(self) -> str:
        return workloads.digest(
            "".join("%s\0%s\0" % (name, self.first_output[name]) for name in sorted(self.first_output))
        )


def timing(times) -> dict:
    return {
        "ops_per_s": len(times) / sum(times),
        "latency_p50_ms": 1000 * statistics.median(times),
        "latency_p90_ms": 1000 * statistics.quantiles(times, n=10)[8],
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    ops = workloads.build(args.workload, args.seed, ROOT, os.path.relpath(args.workdir, ROOT))
    run = Run(ops)
    result = {}
    if args.trace:
        untraced = run.one_pass()[1]
        tracer = Tracer()
        tracer.install()
        try:
            traced = run.one_pass(tracer)[1]
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics(len(ops))
        metrics["trace.ops"] = len(ops)
        metrics["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
        tracer.dump(args.workdir + ".spans.jsonl")
        result["exact"] = {k: metrics[k] for k in EXACT_COUNTERS}
    else:
        first = run.one_pass()[0]
        for _ in range(max(MIN_PASSES, round(args.seconds / first)) - 1):
            run.one_pass()
        result["raw"] = timing(run.raw_times)
        metrics = timing(run.times)
        metrics.update({
            "ok_share": (run.attempted - len(run.failures)) / run.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "emitted_kb": sum(len(o) for o in run.first_output.values()) / 1024 / len(ops),
        })
    result.update(
        attempted=run.attempted,
        failures=run.failures,
        digest=run.output_digest(),
        passes=run.attempted // len(ops),
        metrics=metrics,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
