"""Outside-in layer timing for the benchmark's traced runs.

The program is not edited: :class:`Tracer` wraps the public entry point
of each layer at run time and records, per layer, its *self time* — the
span's duration minus the time of the wrapped spans it called — plus
call counts and a few work counters.  Spans nest on a per-thread stack,
so the self times of one study add up to the time spent inside wrapped
code, and ``runtime.unattributed_s`` is the study's wall time minus all
of them.

The distributed workload's ranks and workers are forked processes, so
their layers come from the runtime's own telemetry instead
(:func:`net_metrics`).
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_perf = time.perf_counter

#: per-layer seconds metrics, in report order (metric name -> span name)
SPAN_METRICS = {
    "solver.advance_s": "solver.advance",
    "group.step_s": "group.step",
    "transport.deliver_s": "transport.deliver",
    "server.handle_s": "server.handle",
    "sobol.stage_s": "sobol.stage",
    "kernels.fold_s": "kernels.fold",
    "stats.update_s": "stats.update",
    "stats.moments_s": "stats.moments",
    "stats.quantiles_s": "stats.quantiles",
    "stats.histogram_s": "stats.histogram",
    "stats.sobol2_s": "stats.sobol2",
    "checkpoint.save_s": "checkpoint.save",
    "results.assemble_s": "results.assemble",
}

#: catalog statistics timed one by one (span "stats.<name>")
STATISTICS = ("moments", "quantiles", "histogram", "sobol2")

#: every per-layer metric a traced run reports, with its unit; a layer a
#: workload does not exercise reports 0
PER_LAYER = (
    *((name, "s") for name in SPAN_METRICS),
    ("solver.advance_calls", "count"),
    ("transport.messages", "count"),
    ("transport.bytes", "bytes"),
    ("server.messages", "count"),
    ("kernels.fold_calls", "count"),
    ("kernels.groups_per_fold", "count"),
    ("checkpoint.saves", "count"),
    ("checkpoint.bytes", "bytes"),
    ("runtime.wall_s", "s"),
    ("runtime.unattributed_s", "s"),
    ("setup.interpreter_s", "s"),
    ("setup.import_s", "s"),
    ("setup.case_s", "s"),
    ("setup.kernel_load_s", "s"),
    ("setup.first_study_s", "s"),
    ("net.rank_fold_s", "s"),
    ("net.rank_stat_fold_s", "s"),
    ("net.kernel_fold_s", "s"),
    ("net.rank_recv_blocked_s", "s"),
    ("net.worker_group_s", "s"),
    ("net.worker_blocked_s", "s"),
    ("net.worker_send_blocks", "count"),
    ("net.bytes_sent", "bytes"),
    ("net.rank_messages", "count"),
    ("net.worker_busy_frac", "ratio"),
    ("net.rank_busy_frac", "ratio"),
    ("trace.overhead_pct", "%"),
)

#: net metric -> the runtime telemetry series it totals over every label set
_NET_SOURCES = {
    "net.rank_fold_s": "repro_rank_fold_seconds",
    "net.rank_stat_fold_s": "repro_stat_fold_seconds",
    "net.kernel_fold_s": "repro_kernel_fold_seconds",
    "net.rank_recv_blocked_s": "repro_rank_recv_blocked_seconds",
    "net.worker_group_s": "repro_worker_group_seconds",
    "net.worker_blocked_s": "repro_worker_blocked_seconds",
    "net.worker_send_blocks": "repro_worker_send_blocks",
    "net.bytes_sent": "repro_worker_bytes_sent",
    "net.rank_messages": "repro_rank_messages_received",
}


class Tracer:
    """Self-time spans around wrapped functions; a context manager that
    undoes every wrap on exit."""

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._patches: List[tuple] = []

    # -- recording ----------------------------------------------------- #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> list:
        frame = [_perf(), 0.0]  # start, time of wrapped children
        self._stack().append(frame)
        return frame

    def _exit(self, name: str, frame: list) -> None:
        duration = _perf() - frame[0]
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][1] += duration
        self.self_s[name] += duration - frame[1]
        self.calls[name] += 1

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    def total_self(self) -> float:
        return sum(self.self_s.values())

    # -- wrapping ------------------------------------------------------ #
    def wrap(self, owner, attr: str, name: str,
             on_return: Optional[Callable] = None) -> None:
        """Time ``owner.attr`` as span ``name``.

        ``on_return(counts, args, result)`` may add work counters.  Works
        for plain, class and static methods and module functions, and for
        methods ``owner`` only inherits (the wrap is then removed rather
        than restored).
        """
        raw = inspect.getattr_static(owner, attr)
        own = attr in vars(owner)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            frame = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, frame)
            if on_return is not None:
                on_return(tracer.counts, args, result)
            return result

        setattr(owner, attr, kind(wrapped) if kind is not None else wrapped)
        self._patches.append((owner, attr, raw if own else None))

    def unwrap(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.unwrap()


# --------------------------------------------------------------------- #
# the layers
# --------------------------------------------------------------------- #
def _count_deliver(counts, args, result) -> None:
    counts["transport.messages"] += 1
    counts["transport.bytes"] += args[1].data.nbytes


def _count_handle(counts, args, result) -> None:
    counts["server.messages"] += 1


def _count_fold_into(counts, args, result) -> None:
    if result:  # a declined fused fold falls back to fold_batch
        counts["kernels.folds"] += 1
        counts["kernels.groups"] += len(args[1])


def _count_fold_batch(counts, args, result) -> None:
    counts["kernels.folds"] += 1
    counts["kernels.groups"] += len(args[1])


def _count_save(counts, args, result) -> None:
    counts["checkpoint.saves"] += 1
    counts["checkpoint.bytes"] += sum(path.stat().st_size for path in result)


def install_layers(tracer: Tracer, member_class, in_process: bool) -> None:
    """Wrap every layer's public entry point.

    ``member_class`` is the workload's member simulation (its
    ``advance`` is the solver layer).  With ``in_process`` False (the
    distributed runtime) only result assembly runs in this process, so
    only it is wrapped: wrappers inherited by forked children would cost
    time there and report nothing.
    """
    from repro.core.results import StudyResults

    tracer.wrap(StudyResults, "from_server", "results.assemble")
    if not in_process:
        return
    from repro.core.checkpoint import CheckpointManager
    from repro.core.group import GroupExecutor
    from repro.core.server import ServerRank
    from repro.kernels.cext import CExtKernel
    from repro.sobol.martinez import UbiquitousSobolField
    from repro.stats.pipeline import StatisticsPipeline
    from repro.stats.protocol import lookup
    from repro.transport.router import Router

    tracer.wrap(member_class, "advance", "solver.advance")
    tracer.wrap(GroupExecutor, "process_step", "group.step")
    tracer.wrap(Router, "deliver", "transport.deliver", _count_deliver)
    tracer.wrap(ServerRank, "handle", "server.handle", _count_handle)
    tracer.wrap(UbiquitousSobolField, "update_group_buffer", "sobol.stage")
    tracer.wrap(UbiquitousSobolField, "flush", "sobol.stage")
    tracer.wrap(CExtKernel, "fold_into", "kernels.fold", _count_fold_into)
    tracer.wrap(CExtKernel, "fold_batch", "kernels.fold", _count_fold_batch)
    tracer.wrap(StatisticsPipeline, "update", "stats.update")
    for stat in STATISTICS:
        tracer.wrap(lookup(stat), "update_group", f"stats.{stat}")
    tracer.wrap(CheckpointManager, "save", "checkpoint.save", _count_save)


def layer_metrics(tracer: Tracer, wall_s: float) -> Dict[str, float]:
    """One traced study's per-layer metrics (seconds are self times)."""
    out = {metric: tracer.self_s.get(span, 0.0)
           for metric, span in SPAN_METRICS.items()}
    counts = tracer.counts
    folds = counts.get("kernels.folds", 0.0)
    out.update({
        "solver.advance_calls": float(tracer.calls.get("solver.advance", 0)),
        "transport.messages": counts.get("transport.messages", 0.0),
        "transport.bytes": counts.get("transport.bytes", 0.0),
        "server.messages": counts.get("server.messages", 0.0),
        "kernels.fold_calls": folds,
        "kernels.groups_per_fold":
            counts.get("kernels.groups", 0.0) / folds if folds else 0.0,
        "checkpoint.saves": counts.get("checkpoint.saves", 0.0),
        "checkpoint.bytes": counts.get("checkpoint.bytes", 0.0),
        "runtime.wall_s": wall_s,
        "runtime.unattributed_s": wall_s - tracer.total_self(),
    })
    return out


# --------------------------------------------------------------------- #
# distributed telemetry
# --------------------------------------------------------------------- #
def series_total(snapshot: dict, metric: str) -> float:
    """Sum of one metric over ALL its label sets.

    ``repro.telemetry.aggregate.series_value`` matches one exact label
    set (0.0 for every rank- or worker-labelled series when asked
    without labels), and ``series_table`` keys by a single label, which
    collapses series that differ in another (per-statistic folds are
    labelled by rank *and* statistic).  Histograms contribute their sum.
    """
    entry = snapshot.get(metric) or {}
    total = 0.0
    for series in entry.get("series", []):
        total += float(series.get("sum" if "counts" in series else "value", 0.0))
    return total


def net_metrics(snapshot: dict, wall_s: float, nranks: int,
                nworkers: int) -> Dict[str, float]:
    """The ``net.*`` layer metrics of one distributed study."""
    out = {name: series_total(snapshot, metric)
           for name, metric in _NET_SOURCES.items()}
    out["net.worker_busy_frac"] = out["net.worker_group_s"] / (nworkers * wall_s)
    out["net.rank_busy_frac"] = (
        out["net.rank_fold_s"] + out["net.rank_stat_fold_s"]
    ) / (nranks * wall_s)
    return out
