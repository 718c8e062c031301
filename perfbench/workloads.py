"""The benchmark's reference studies, each with its pinned execution plan.

Every workload is one fixed study: the group count, cell count and
timesteps do not depend on the seed, which only draws the pick-freeze
design.  The plan is pinned through public ``StudyConfig`` fields
(``kernel="cext"``, ``fold_threads=1``, ``transport="shm"`` on the
distributed runtime) so the ``auto`` selectors cannot pick a different
plan from one process to the next; :func:`expected_plan` states the plan
every run must report, and :class:`PlanProbe` reads what the run really
used.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import SensitivityStudy
from repro.core.config import StudyConfig
from repro.core.group import VectorFieldSimulation
from repro.core.server import ServerRank
from repro.sobol import IshigamiFunction
from repro.sobol.martinez import UbiquitousSobolField

#: every exact-merge statistic and Sobol' map must match the reference here
RTOL = 1e-10
#: absolute floor for entries that are zero in exact arithmetic (the
#: repository's own parity suites use the same pair)
ATOL = 1e-12

CATALOG = (
    "moments:order=2",
    "quantiles:lo=-25:hi=40",
    "histogram:lo=-25:hi=40",
    "sobol2",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "vector" (Ishigami ramp over ncells) or "tube" (the CFD case)
    model: str
    runtime: str
    ngroups: int
    ntimesteps: int
    ncells: int
    server_ranks: int = 2
    client_ranks: int = 2
    statistics: Optional[Tuple[str, ...]] = None
    #: virtual seconds between checkpoints (sequential runtime); None = off
    checkpoint_interval: Optional[float] = None
    nworkers: int = 2
    #: tube output interval in physical seconds (the paper case's 2.0 / 100)
    tube_dt: float = 0.02
    tube_nx: int = 96
    tube_ny: int = 48

    @property
    def group_steps(self) -> int:
        return self.ngroups * self.ntimesteps

    @property
    def distributed(self) -> bool:
        return self.runtime == "distributed"


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "vector-seq",
            "whole in-transit data path on one core, no dominant layer: "
            "kernel, staging and routing changes show here",
            model="vector", runtime="sequential",
            ngroups=48, ntimesteps=4, ncells=20000,
        ),
        Workload(
            "catalog-ckpt-seq",
            "4-statistic catalog plus periodic checkpoints: state folds "
            "beside state writes",
            model="vector", runtime="sequential",
            ngroups=48, ntimesteps=4, ncells=20000,
            statistics=CATALOG, checkpoint_interval=2.0,
        ),
        Workload(
            "tube-seq",
            "paper's tube-bundle CFD case: the solver dominates, so server "
            "and kernel changes must not move it",
            model="tube", runtime="sequential",
            ngroups=4, ntimesteps=20, ncells=96 * 48,
        ),
        Workload(
            "vector-dist",
            "vector study on forked ranks and workers over shm: the only "
            "workload using repro.net and process startup",
            model="vector", runtime="distributed",
            ngroups=192, ntimesteps=4, ncells=20000,
        ),
    )
}


def workload(name: str, tiny: bool = False) -> Workload:
    """The named workload, or its seconds-long smoke-test shrink."""
    try:
        w = WORKLOADS[name]
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None
    if not tiny:
        return w
    if w.model == "tube":
        return replace(w, ngroups=3, ntimesteps=3, tube_nx=24, tube_ny=12,
                       ncells=24 * 12)
    return replace(w, ngroups=8, ntimesteps=2, ncells=64)


# --------------------------------------------------------------------- #
# studies
# --------------------------------------------------------------------- #
def build_case(w: Workload):
    """The model a study samples: built once per process (set-up cost)."""
    if w.model == "tube":
        from repro.solver import TubeBundleCase

        return TubeBundleCase(
            nx=w.tube_nx, ny=w.tube_ny, ntimesteps=w.ntimesteps,
            total_time=w.tube_dt * w.ntimesteps,
        )
    return IshigamiFunction()


def member_class(w: Workload):
    """The member simulation class whose ``advance`` is the solver layer."""
    if w.model == "tube":
        from repro.solver.simulation import ScalarSimulation

        return ScalarSimulation
    return VectorFieldSimulation


def build_study(w: Workload, case, seed: int, ngroups: Optional[int] = None,
                kernel: str = "cext") -> SensitivityStudy:
    """The workload's study with its pinned plan (``kernel`` overrides the
    backend only for the reference run)."""
    ngroups = w.ngroups if ngroups is None else ngroups
    pinned = dict(
        kernel=kernel,
        fold_threads=1,
        transport="shm" if w.distributed else "auto",
    )
    if w.statistics is not None:
        pinned["statistics"] = list(w.statistics)
    if w.checkpoint_interval is not None:
        pinned["checkpoint_interval"] = w.checkpoint_interval
    if w.model == "tube":
        return SensitivityStudy.for_tube_bundle(
            case, ngroups=ngroups, seed=seed, server_ranks=w.server_ranks,
            client_ranks=w.client_ranks, **pinned,
        )
    ncells, ntimesteps = w.ncells, w.ntimesteps
    config = StudyConfig(
        space=case.space(), ngroups=ngroups, ntimesteps=ntimesteps,
        ncells=ncells, seed=seed, server_ranks=w.server_ranks,
        client_ranks=w.client_ranks, **pinned,
    )

    def factory(params, sim_id):
        return VectorFieldSimulation(case, params, ncells, ntimesteps, sim_id)

    return SensitivityStudy(config, factory)


def checkpoint_dir(w: Workload, workdir: Path) -> Optional[Path]:
    """An empty checkpoint directory for one run, or None when the
    workload does not checkpoint (a left-over file would be restored)."""
    if w.checkpoint_interval is None:
        return None
    path = Path(workdir) / "ckpt"
    shutil.rmtree(path, ignore_errors=True)
    return path


def run_study(w: Workload, study: SensitivityStudy,
              ckpt: Optional[Path] = None, telemetry: bool = False,
              reference: bool = False):
    """Run ``study`` on the workload's runtime; returns its results.

    The reference always runs sequentially and without checkpoints.
    """
    if reference or not w.distributed:
        return study.run(runtime="sequential",
                         checkpoint_dir=None if reference else ckpt)
    return study.run(
        runtime="distributed", nworkers=w.nworkers, transport="shm",
        telemetry=telemetry, timeout=120.0,
    )


# --------------------------------------------------------------------- #
# results check
# --------------------------------------------------------------------- #
def result_arrays(results) -> Dict[str, np.ndarray]:
    """Every map the check compares: Sobol' indices, variance, mean and
    each (exact-merge) catalog statistic."""
    out = {
        "first_order": results.first_order,
        "total_order": results.total_order,
        "variance": results.variance,
        "mean": results.mean,
        "groups_integrated": np.array([results.groups_integrated]),
    }
    for name, arr in results.statistics.items():
        out[f"stat.{name}"] = arr
    return out


def results_mismatch(got: Dict[str, np.ndarray],
                     ref: Dict[str, np.ndarray]) -> List[str]:
    """Names of maps that differ from the reference (empty when equal)."""
    bad = sorted(set(got) ^ set(ref))
    for key in sorted(set(got) & set(ref)):
        a, b = np.asarray(got[key]), np.asarray(ref[key])
        if a.shape != b.shape or not np.allclose(
            a, b, rtol=RTOL, atol=ATOL, equal_nan=True
        ):
            bad.append(key)
    return bad


# --------------------------------------------------------------------- #
# plan check
# --------------------------------------------------------------------- #
def expected_plan(w: Workload) -> dict:
    """The plan every run of ``w`` must report: cext, one fold thread,
    one block per rank window capped at the field's default block."""
    local = w.ncells // w.server_ranks
    block = min(UbiquitousSobolField.DEFAULT_BLOCK, local)
    plan = {"ranks": [["cext", 1, block]] * w.server_ranks}
    if w.distributed:
        plan["fabric"] = ["ShmChannel"]
    return plan


def rank_plan(rank: ServerRank) -> list:
    """``(backend, threads, block_cells)`` a rank's Sobol' field folds with."""
    field = rank.sobol
    if field.fold_plan is not None:
        return list(field.fold_plan)
    return [field.kernel_name, field.active_fold_threads,
            min(field.block_cells, field.ncells)]


class PlanProbe:
    """Reads the concrete plan of sequential and distributed runs.

    Sequential runs expose their server on the driver.  Distributed
    ranks and workers are forked processes, so this wraps the runtime's
    ``run_server_rank`` / ``run_worker`` entry points (and the worker's
    ``open_data_channel`` to see the negotiated fabric) before they fork;
    each child writes its plan to ``workdir`` as it exits.  Use as a
    context manager around the runs.
    """

    def __init__(self, workdir: Path):
        self.workdir = Path(workdir)
        self._patches: List[tuple] = []

    def __enter__(self) -> "PlanProbe":
        import repro.net.worker as worker_mod
        import repro.runtime.distributed as dist_mod

        workdir = self.workdir
        # filled only inside forked rank processes, so the parent never
        # pins the servers it assembles results from
        ranks: List[ServerRank] = []
        capturing = [False]
        fabrics: set = set()

        def patch(owner, attr, new):
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        init = ServerRank.__init__

        def capture_init(rank, *args, **kwargs):
            init(rank, *args, **kwargs)
            if capturing[0]:
                ranks.append(rank)

        serve, work = dist_mod.run_server_rank, dist_mod.run_worker
        dial = worker_mod.open_data_channel

        def probed_serve(rank_idx, *args, **kwargs):
            ranks.clear()
            capturing[0] = True
            try:
                return serve(rank_idx, *args, **kwargs)
            finally:
                plans = [rank_plan(r) for r in ranks if r.rank == rank_idx]
                _write_json(workdir / f"plan-rank{rank_idx}-{os.getpid()}.json",
                            {"rank": rank_idx, "plan": plans[-1] if plans else None})

        def probed_dial(*args, **kwargs):
            channel = dial(*args, **kwargs)
            fabrics.add(type(channel).__name__)
            return channel

        def probed_work(*args, **kwargs):
            fabrics.clear()
            try:
                return work(*args, **kwargs)
            finally:
                _write_json(workdir / f"plan-worker-{os.getpid()}.json",
                            {"fabric": sorted(fabrics)})

        patch(ServerRank, "__init__", capture_init)
        patch(dist_mod, "run_server_rank", probed_serve)
        patch(dist_mod, "run_worker", probed_work)
        patch(worker_mod, "open_data_channel", probed_dial)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def collect(self, w: Workload, study: SensitivityStudy) -> dict:
        """The plan the run that just finished used (consumes the files)."""
        if not w.distributed:
            return {"ranks": [rank_plan(r) for r in study.driver.server.ranks]}
        by_rank: Dict[int, list] = {}
        fabric: set = set()
        for path in sorted(self.workdir.glob("plan-*.json")):
            record = json.loads(path.read_text())
            path.unlink()
            if "rank" in record:
                by_rank[record["rank"]] = record["plan"]
            else:
                fabric.update(record["fabric"])
        return {
            "ranks": [by_rank.get(r) for r in range(w.server_ranks)],
            "fabric": sorted(fabric),
        }


def _write_json(path: Path, obj) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(obj))
    os.replace(tmp, path)
