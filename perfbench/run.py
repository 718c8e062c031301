"""Reference-study benchmark of the in-transit sensitivity-analysis stack.

Run from the repository root::

    python3 perfbench/run.py --workload vector-seq --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py``): ``vector-seq``, ``catalog-ckpt-seq``,
``tube-seq``, ``vector-dist``.  One invocation

1. builds the compiled co-moment kernel into ``.bench_build/`` (cached),
2. computes the sequential einsum reference of the workload's study,
3. starts five fresh interpreters for the cold-start time (``setup_s``),
4. runs the study repeatedly in one warm process for ``--seconds``,
   checking every run's pinned plan and its maps against the reference.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(``group_steps_per_s``, ``setup_s``, ``peak_rss_mb``); with ``--trace 1``
the per-layer ones.  The line before it stamps the host, the plan and
any failures.  Every file the benchmark writes stays under
``.bench_build/`` in the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import PER_LAYER

HERE = Path(__file__).resolve().parent
#: fresh interpreters per invocation whose median cold start is setup_s
SETUP_PROBES = 5
#: seconds any one child may take (the first kernel build gets BUILD_TIMEOUT)
CHILD_TIMEOUT = 150.0
BUILD_TIMEOUT = 600.0

END_TO_END_UNITS = {"group_steps_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MiB"}
SETUP_LAYERS = ("interpreter_s", "import_s", "case_s", "kernel_load_s",
                "first_study_s")


class ChildFailed(RuntimeError):
    pass


def run_child(args, env, timeout: float) -> str:
    """Run one child in its own session and return its stdout.

    The whole process group is killed afterwards, so forked ranks and
    workers of a child that died or timed out cannot outlive it.
    """
    proc = subprocess.Popen(
        [sys.executable, *args], env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        raise ChildFailed(f"{args[:2]} timed out after {timeout:.0f} s")
    finally:
        _kill_group(proc.pid)
    if proc.returncode != 0:
        raise ChildFailed(f"{args[:2]} exited {proc.returncode}:\n{err[-4000:]}")
    return out


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def child_json(args, env, timeout: float = CHILD_TIMEOUT) -> dict:
    return json.loads(run_child(args, env, timeout).strip().splitlines()[-1])


def git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def benchmark(args, root: Path, work: Path) -> tuple:
    """Run every stage; returns (detail, final result line)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        XDG_CACHE_HOME=str(root / ".bench_build" / "cache"),
        TMPDIR=str(work),
    )
    measure_py = str(HERE / "measure.py")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--workdir", str(work)]
    # 1. build (and cache) the compiled kernel outside every timed stage
    run_child(["-c", "from repro.kernels import cext; cext.available()"],
              env, BUILD_TIMEOUT)
    # 2. the reference every timed run is checked against
    ref = work / "reference.npz"
    child_json([measure_py, "reference", *common, "--out", str(ref)], env)
    # 3. cold starts
    probes = []
    for _ in range(SETUP_PROBES):
        t_spawn = time.monotonic()
        probe = child_json([measure_py, "setup", *common], env)
        probe["interpreter_s"] = probe["t_start"] - t_spawn
        probe["setup_s"] = probe["t_done"] - t_spawn
        probes.append(probe)
    # 4. warm timed runs
    result = child_json(
        [measure_py, "measure", *common, "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--reference", str(ref)],
        env, timeout=CHILD_TIMEOUT,
    )
    if args.trace:
        values = dict(result["layers"])
        for name in SETUP_LAYERS:
            values[f"setup.{name}"] = statistics.median(p[name] for p in probes)
        metrics = {k: _metric(values.get(k, 0.0), unit)
                   for k, unit in PER_LAYER}
    else:
        values = {
            "group_steps_per_s": result["group_steps_per_s"],
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "peak_rss_mb": (result["peak_rss_self_kib"]
                            + result["peak_rss_child_kib"]) / 1024.0,
        }
        metrics = {k: _metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "host": dict(result["host"], git_sha=git_sha(root)),
        "plan": result["plan"],
        "group_steps_per_run": result["group_steps"],
        "run_walls_s": result["walls"],
        "setup_s_probes": [p["setup_s"] for p in probes],
        "failures": result["failures"],
    }
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    return detail, line


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no ./src/repro here; run from the repository root",
              file=sys.stderr)
        return 2
    work = root / ".bench_build" / "perfbench" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        detail, line = benchmark(args, root, work)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"detail": detail}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
