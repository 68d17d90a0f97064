"""epistab benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload analyse --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads: analyse, simulate, matrices, ensemble (see README.md
beside this file).  With ``--trace 0`` the last stdout line holds the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run.  The line before it is a report with sample counts, the failure
ratio, failing ops and the machine.

Set-up time is the time from starting a fresh interpreter to its first timed
op, taken as the median of SETUP_RUNS processes.  Every process gets one
BLAS/OpenMP thread.  Exits 1 when a process fails and 2 when there is no
``src/epistab`` to benchmark; neither prints a result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import uuid
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"   # input files of running workers
# workloads.WORKLOADS by name; importing it here would import epistab before the check
WORKLOADS = ("analyse", "simulate", "matrices", "ensemble")
SETUP_RUNS = 5          # the measured run's own set-up plus four set-up-only processes
DEADLINE_S = 170.0      # each process is killed past this, so a run ends within 180 s
SINGLE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(Exception):
    pass


def start_worker(args, setup_only, workdir):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    # bytecode is compiled afresh by every process, so set-up time does not
    # depend on whether an earlier run left a cache behind
    env = {**os.environ, **SINGLE_THREAD, "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)


def run_worker(args, setup_only, deadline):
    """(set-up seconds, last stdout line) of one worker process."""
    workdir = WORK / uuid.uuid4().hex
    t0 = perf_counter()
    proc = start_worker(args, setup_only, workdir)
    # kill the worker at the deadline, wherever it is stuck
    timer = threading.Timer(max(0.0, deadline - perf_counter()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        if ready.strip() != "READY":
            raise BenchError(f"worker did not get ready: {ready!r}")
        out, _ = proc.communicate()
        if proc.returncode != 0:
            raise BenchError(f"worker exited with code {proc.returncode}")
        lines = out.splitlines()
        return setup, lines[-1] if lines else ""
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "epistab" / "__init__.py").is_file():
        sys.stderr.write(f"no epistab sources under {ROOT / 'src'}: nothing to benchmark\n")
        return 2

    deadline = perf_counter() + DEADLINE_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(run_worker(args, True, deadline)[0])
        setup, line = run_worker(args, False, deadline)
        setups.append(setup)
        result = json.loads(line)
    except (BenchError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    finally:
        with contextlib.suppress(OSError):
            WORK.rmdir()   # left in place while another run uses it

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    attempted, failed = result["attempted"], result["failed"]
    report = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "closed_loop": "one caller, no think time",
        "samples": {"ops": result["samples"], "ops_per_pass": result["ops_per_pass"],
                    "setup_runs": len(setups)},
        "fail_ratio": failed / attempted,
        "failures": result["failures"],
        **result["environment"],
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
