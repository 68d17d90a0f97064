"""One benchmark process: set up a workload, run it in a closed loop, check it.

Started by ``run.py``, which owns and removes ``--workdir``.  It prints
``READY`` once the inputs are built and warmed up (the end of set-up), then
one JSON line with the run's figures.  With ``--setup-only`` it exits after
``READY``.

The loop has one caller and no think time.  It runs whole passes over the
seeded op list, at least two and as many as bring the timed calls nearest to
``--seconds``.  Each op's output is checked outside its timed region: against
its oracle the first time, and against the first digest on every repeat.  With ``--trace 1`` every op runs twice in a row,
once plain and once with the span recorders installed, so both runs see the
same inputs: the two outputs must be byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2         # so every op repeats and its digest can be compared
WALL_LIMIT_S = 150.0   # stop at a pass boundary or here, whichever comes first


class Checker:
    """Counts attempted and failed ops; checks each output once per op index."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self._digests = {}

    def record(self, index, op, result, error):
        self.attempted += 1
        reason = error or self._verify(index, op, result)
        if reason:
            self.failures.append(f"{op.kind} [{op.spec[:120]}]: {reason}")
        return reason is None

    def _verify(self, index, op, result):
        try:
            digest = op.digest(result)
            first = self._digests.get(index)
            if first is not None:
                return None if first == digest else "output differs from its first run"
            self._digests[index] = digest
            op.check(result)
        except workloads.Mismatch as exc:
            return str(exc)
        except Exception as exc:  # a malformed output is a failed op, not a crashed run
            return f"check raised {exc!r}"
        return None


def timed(fn):
    t0 = perf_counter()
    try:
        result, error = fn(), None
    except Exception as exc:  # counted as a failed op
        result, error = None, f"raised {exc!r}"
    return perf_counter() - t0, result, error


def want_more(timed_s, passes, seconds, minimum):
    """True until ``passes`` whole passes, at least ``minimum``, come nearest to ``seconds``."""
    return passes < minimum or timed_s * (1 + 0.5 / passes) < seconds


def run_plain(ops, seconds, checker):
    passes = []
    wall = perf_counter()
    while want_more(sum(map(sum, passes)), len(passes), seconds, MIN_PASSES):
        times = []
        for i, op in enumerate(ops):
            dt, result, error = timed(op.call)
            times.append(dt)
            checker.record(i, op, result, error)
            del result   # so peak memory is one op's, not two ops' in a seed-dependent order
        passes.append(times)
        if perf_counter() - wall > WALL_LIMIT_S:
            break
    # An op's latency is its mean over the passes.  The machine's speed drifts
    # between a fast and a slow state; a mean moves smoothly with the share of
    # time spent in each, where a median or percentile of single runs jumps.
    per_op = np.mean(passes, axis=0)
    return {
        "ops_per_s": {"value": len(ops) / float(per_op.sum()), "unit": "1/s"},
        "op_ms_p50": {"value": float(np.percentile(per_op, 50)) * 1e3, "unit": "ms"},
        "op_ms_p90": {"value": float(np.percentile(per_op, 90)) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }, int(np.size(passes))


def run_traced(ops, seconds, checker, spans_path):
    recorder = tracing.Recorder()
    patch = tracing.Patch(recorder)
    root = recorder.wrap("bench.op", lambda call: call())
    plain, traced = [], []   # one list of op times per pass
    wall = perf_counter()
    while want_more(sum(map(sum, plain)) + sum(map(sum, traced)), len(traced), seconds, 1):
        plain.append([])
        traced.append([])
        for i, op in enumerate(ops):
            # alternate which run goes first so neither always finds warm caches
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                if with_trace:
                    with patch:
                        dt, result, error = timed(lambda: root(op.call))
                    traced[-1].append(dt)
                    if isinstance(result, workloads.CliResult):
                        recorder.counters["cli.out_bytes"] += len(result.stdout.encode())
                else:
                    dt, result, error = timed(op.call)
                    plain[-1].append(dt)
                # before the other run rewrites the op's CSV file
                checker.record(i, op, result, error)
                del result
        if perf_counter() - wall > WALL_LIMIT_S:
            break
    recorder.save(spans_path)
    p50 = [np.percentile(np.mean(t, axis=0), 50) for t in (traced, plain)]
    samples = int(np.size(traced))
    return tracing.per_layer_metrics(recorder, samples, float(p50[0] / p50[1])), samples


def environment(seed):
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                   "MKL_NUM_THREADS")},
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True)
    ops, warmup = workloads.build(args.workload, args.seed, workdir)
    for op in warmup:   # untimed and unchecked
        op.call()
    print("READY", flush=True)
    if args.setup_only:
        return 0
    checker = Checker()
    if args.trace:
        spans = ROOT / ".perfbench_out" / f"spans-{args.workload}.npz"
        spans.parent.mkdir(exist_ok=True)
        metrics, samples = run_traced(ops, args.seconds, checker, spans)
    else:
        metrics, samples = run_plain(ops, args.seconds, checker)
    print(json.dumps({
        "metrics": metrics,
        "samples": samples,
        "ops_per_pass": len(ops),
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "failures": checker.failures[:20],
        "environment": environment(args.seed),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
