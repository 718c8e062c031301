"""Child-process roles of the benchmark (``run.py`` starts each in a fresh
interpreter with ``PYTHONPATH`` pointing at the checkout's ``src``).

``reference``
    Runs the workload's study once on the sequential runtime with the
    einsum kernel and saves every map it produces; each timed run is
    checked against it.
``setup``
    One cold start: imports, model construction, the compiled-kernel
    load and a one-group study, each stamped with ``time.monotonic()`` so
    the parent can also count the interpreter's own start.
``measure``
    A warm process repeating the workload's study for ``--seconds``,
    checking every run's plan and results; with ``--trace 1`` untraced
    and traced runs alternate and the traced ones report per-layer time.

Each role prints one JSON object on stdout.  The modules that import
``repro`` are imported inside the roles, so the setup probe times them.
"""

import time

T_START = time.monotonic()  # first statement: the setup probe's zero

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def setup_probe(args) -> dict:
    """Cold start of one workload, split into its phases."""
    import workloads

    w = workloads.workload(args.workload)
    if w.distributed:
        import repro.runtime.distributed  # noqa: F401
    else:
        import repro.runtime.sequential  # noqa: F401
    from repro.kernels import warm_compiled_backends

    t_import = time.monotonic()
    case = workloads.build_case(w)
    t_case = time.monotonic()
    warm_compiled_backends()
    t_kernel = time.monotonic()
    study = workloads.build_study(w, case, args.seed, ngroups=1)
    results = workloads.run_study(
        w, study, ckpt=workloads.checkpoint_dir(w, Path(args.workdir))
    )
    t_done = time.monotonic()
    if results.groups_integrated != 1:
        raise RuntimeError(
            f"set-up study integrated {results.groups_integrated} groups, not 1"
        )
    return {
        "t_start": T_START,
        "t_done": t_done,
        "import_s": t_import - T_START,
        "case_s": t_case - t_import,
        "kernel_load_s": t_kernel - t_case,
        "first_study_s": t_done - t_kernel,
    }


def reference(args) -> dict:
    """The sequential einsum run every timed run must reproduce."""
    import numpy as np

    import workloads

    w = workloads.workload(args.workload)
    case = workloads.build_case(w)
    study = workloads.build_study(w, case, args.seed, kernel="einsum")
    results = workloads.run_study(w, study, reference=True)
    np.savez(args.out, **workloads.result_arrays(results))
    return {"groups_integrated": results.groups_integrated}


def run_once(w, case, seed: int, workdir: Path, probe, expected: dict,
             ref: dict, tracer=None) -> dict:
    """One study: wall time, plan, and what (if anything) failed."""
    import workloads
    from repro import telemetry

    gc.collect()
    ckpt = workloads.checkpoint_dir(w, workdir)
    if tracer is not None:
        tracer.reset()
    t0 = time.perf_counter()
    study = workloads.build_study(w, case, seed)
    results = workloads.run_study(w, study, ckpt=ckpt,
                                  telemetry=tracer is not None)
    wall = time.perf_counter() - t0
    record = {"wall_s": wall, "plan": probe.collect(w, study)}
    failures = []
    if record["plan"] != expected:
        failures.append(f"plan {record['plan']} != pinned {expected}")
    mismatched = workloads.results_mismatch(
        workloads.result_arrays(results), ref
    )
    if mismatched:
        failures.append(f"results differ from the reference in {mismatched}")
    record["failures"] = failures
    if tracer is not None:
        import layers

        record["layers"] = layers.layer_metrics(tracer, wall)
        if w.distributed:
            record["layers"].update(layers.net_metrics(
                study.driver.telemetry.combined(), wall,
                w.server_ranks, w.nworkers,
            ))
            # the runtime leaves the process-wide registry on; forked
            # children of the next untraced run must not inherit it
            telemetry.disable()
            telemetry.REGISTRY.reset()
    if ckpt is not None:
        import shutil

        shutil.rmtree(ckpt, ignore_errors=True)
    return record


def measure_runs(w, seed: int, seconds: float, trace: bool, ref: dict,
                 workdir: Path, expected=None, min_runs: int = 3) -> dict:
    """Repeat the study for ``seconds`` after one warm-up run.

    Every run, the warm-up included, counts as attempted and fails on a
    plan or results mismatch.  Untraced and traced runs alternate when
    tracing, so both sample the same stretch of machine time.
    """
    import layers
    import workloads

    workdir = Path(workdir)
    expected = workloads.expected_plan(w) if expected is None else expected
    case = workloads.build_case(w)
    member = workloads.member_class(w)
    probe = workloads.PlanProbe(workdir)
    with probe if w.distributed else contextlib.nullcontext():
        warm = run_once(w, case, seed, workdir, probe, expected, ref)
        deadline = time.perf_counter() + seconds
        plain, traced = [], []
        while True:
            tracing = trace and len(traced) < len(plain)
            if tracing:
                with layers.Tracer() as tracer:
                    layers.install_layers(tracer, member,
                                          in_process=not w.distributed)
                    traced.append(run_once(w, case, seed, workdir, probe,
                                           expected, ref, tracer))
            else:
                plain.append(run_once(w, case, seed, workdir, probe,
                                      expected, ref))
            done = len(traced) if trace else len(plain)
            if done >= min_runs and time.perf_counter() >= deadline:
                break
        runs = [warm] + plain + traced
    failed = [r for r in runs if r["failures"]]
    out = {
        "attempted": len(runs),
        "failed": len(failed),
        "failures": sorted({f for r in failed for f in r["failures"]}),
        "plan": warm["plan"],
        "group_steps": w.group_steps,
        "walls": [r["wall_s"] for r in plain],
        "group_steps_per_s": statistics.median(
            w.group_steps / r["wall_s"] for r in plain
        ),
    }
    if trace:
        keys = traced[0]["layers"].keys()
        # means, not medians: self times and the unattributed remainder
        # then still add up to the mean traced wall time
        out["layers"] = {
            k: statistics.fmean(r["layers"].get(k, 0.0) for r in traced)
            for k in keys
        }
        traced_rate = statistics.median(
            w.group_steps / r["wall_s"] for r in traced
        )
        out["layers"]["trace.overhead_pct"] = 100.0 * (
            out["group_steps_per_s"] / traced_rate - 1.0
        )
    return out


def measure(args) -> dict:
    import numpy as np

    import workloads

    w = workloads.workload(args.workload)
    with np.load(args.reference, allow_pickle=False) as data:
        ref = {k: data[k] for k in data.files}
    out = measure_runs(w, args.seed, args.seconds, bool(args.trace), ref,
                       Path(args.workdir))
    out["peak_rss_self_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["peak_rss_child_kib"] = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss
    out["host"] = host_facts()
    return out


def host_facts() -> dict:
    import os
    import platform

    import numpy as np

    from repro.kernels import cext

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cext_available": cext.available(),
    }


ROLES = {"setup": setup_probe, "reference": reference, "measure": measure}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=sorted(ROLES))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", default=".")
    parser.add_argument("--reference", default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    result = ROLES[args.role](args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
