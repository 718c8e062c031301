"""Process-parallel driver: true multi-core execution of one study.

The paper's server gets its parallelism from MPI: every server rank owns
a cell partition and processes messages with purely local state.  The
GIL-bound :class:`~repro.runtime.threaded.ThreadedRuntime` demonstrates
the concurrency structure but cannot use more than one core for the
statistics hot path.  :class:`ProcessRuntime` restores the share-nothing
property with ``multiprocessing``:

* each :class:`~repro.core.server.ServerRank` runs in its own worker
  process, fed by a dedicated per-rank queue (the ZeroMQ PULL socket of
  the paper);
* simulation groups execute on a pool of worker processes that pull
  group ids from a shared work queue and push field messages through a
  queue-backed router facade;
* when all groups finish, each server worker ships its rank state
  (the same payload a checkpoint stores) back to the parent, which
  reassembles a :class:`~repro.core.server.MelissaServer` and builds the
  results exactly like the other runtimes.

The runtime uses the ``fork`` start method so arbitrary simulation
factories (closures included) are inherited rather than pickled; only
messages and final rank states cross process boundaries.  Statistics
match the sequential driver to floating-point reassociation, as with the
threaded runtime — the parity tests assert it.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as _queue
import time
import traceback
from typing import List, Optional, Set

import numpy as np

from repro.core.config import StudyConfig
from repro.core.diagnostics import unfinished_study_message
from repro.core.group import GroupExecutor, GroupState, SimulationFactory, SimulationGroup
from repro.core.results import StudyResults
from repro.core.server import MelissaServer, ServerRank
from repro.mesh.partition import BlockPartition
from repro.sampling.pickfreeze import draw_design
from repro.transport.message import ConnectionReply, ConnectionRequest, split_by_partition


class _QueueRouter:
    """Client-side router facade over the per-rank message queues.

    Implements the slice of the :class:`~repro.transport.router.Router`
    API that :class:`~repro.core.group.GroupExecutor` uses: the
    connection handshake plus :meth:`deliver` with back-pressure.  Like
    the in-process router it splits messages straddling a server-partition
    boundary along the fenceposts.
    """

    def __init__(self, server_partition: BlockPartition, rank_queues):
        self.server_partition = server_partition
        self._queues = rank_queues
        self._connected: Set[int] = set()

    def connect(self, request: ConnectionRequest) -> ConnectionReply:
        if request.ncells != self.server_partition.ncells:
            raise ValueError(
                f"group {request.group_id} has {request.ncells} cells, "
                f"server partitions {self.server_partition.ncells}"
            )
        self._connected.add(request.group_id)
        return ConnectionReply(
            nranks_server=self.server_partition.nranks,
            offsets=tuple(int(o) for o in self.server_partition.offsets),
        )

    def is_connected(self, group_id: int) -> bool:
        return group_id in self._connected

    def disconnect(self, group_id: int) -> None:
        self._connected.discard(group_id)

    def deliver(self, msg, blocking: bool = False) -> bool:
        chunks = split_by_partition(msg, self.server_partition)
        if blocking:
            for server_rank, chunk in chunks:
                self._queues[server_rank].put(chunk)
            return True
        # all-or-nothing probe first (approximate for mp queues), so the
        # caller's whole-message retry cannot re-send landed chunks; a
        # lost race delivers a duplicate chunk, which replay protection
        # discards on the server side
        if len(chunks) > 1 and any(self._queues[rank].full() for rank, _ in chunks):
            return False
        for server_rank, chunk in chunks:
            try:
                self._queues[server_rank].put_nowait(chunk)
            except _queue.Full:
                return False
        return True


def _server_worker(rank_idx, config, inbox, results, errors, beats, beat_interval):
    """Own one ServerRank: drain the inbox, then ship the rank state.

    The rank-local reductions run HERE, in the worker, before shipping:
    the partition's index/variance/mean maps (batched per timestep) and
    the rank's convergence scalar.  The parent then only concatenates
    maps and max-reduces scalars instead of redoing every correlation in
    serial — the two reductions that used to dominate post-study time.

    While draining, the worker emits :class:`Heartbeat` beacons on
    ``beats`` every ``beat_interval`` seconds so the parent can tell a
    dead rank worker from a slow one and fail fast (Sec. 4.2.2's
    launcher-side liveness, in-host edition).
    """
    from repro.transport.message import Heartbeat

    sender = f"server-rank-{rank_idx}"
    try:
        partition = BlockPartition(config.ncells, config.server_ranks)
        # the rank workers share this host: clamp each one's auto
        # fold-thread ladder as DistributedRuntime does
        rank = ServerRank(
            rank_idx, config, partition, local_ranks=config.server_ranks
        )
        last_beat = time.monotonic()
        while True:
            try:
                msg = inbox.get(timeout=beat_interval)
            except _queue.Empty:
                beats.put(Heartbeat(sender=sender, time=time.monotonic()))
                last_beat = time.monotonic()
                continue
            if msg is None:
                break
            rank.handle(msg, time.monotonic())
            now = time.monotonic()
            if now - last_beat >= beat_interval:
                beats.put(Heartbeat(sender=sender, time=now))
                last_beat = now
        maps = rank.index_maps()
        width = rank.sobol.max_interval_width()
        results.put((rank_idx, rank.checkpoint_state(), maps, width))
    except BaseException:  # noqa: BLE001 - surface to the parent
        errors.put(f"server rank {rank_idx}:\n{traceback.format_exc()}")


def _group_worker(config, factory, design, rank_queues, work, errors, progress,
                  poll_interval):
    """Run groups to completion, one at a time, until the work queue drains.

    Every finished group is reported on ``progress`` so a study-level
    timeout can name exactly which groups never completed.
    """
    try:
        partition = BlockPartition(config.ncells, config.server_ranks)
        router = _QueueRouter(partition, rank_queues)
        while True:
            group_id = work.get()
            if group_id is None:
                break
            executor = GroupExecutor(
                SimulationGroup.from_design(design, group_id),
                factory,
                config,
                router,
            )
            executor.initialize()
            while executor.state != GroupState.FINISHED:
                state = executor.process_step()
                if state == GroupState.BLOCKED:
                    # ZeroMQ-style suspension: rank queue full, wait
                    time.sleep(poll_interval)
            progress.put(group_id)
    except BaseException:  # noqa: BLE001
        errors.put(f"group worker:\n{traceback.format_exc()}")


class ProcessRuntime:
    """Multi-core execution of one study on ``multiprocessing`` workers.

    Parameters
    ----------
    max_concurrent_groups:
        Size of the group-worker pool (the "machine" capacity).
    queue_depth:
        Messages buffered per server-rank queue before senders block.
        ``None`` derives a depth from ``config.channel_capacity_bytes``
        (approximating the byte budget in whole messages) or leaves the
        queue unbounded when the config does not bound buffers either.
    poll_interval:
        Sleep while a group is suspended on full buffers (seconds).

    Notes
    -----
    Always uses the ``fork`` start method so closure-based simulation
    factories are inherited, not pickled; platforms without ``fork``
    (Windows) are rejected at construction.
    """

    def __init__(
        self,
        config: StudyConfig,
        factory: SimulationFactory,
        max_concurrent_groups: int = 4,
        queue_depth: Optional[int] = None,
        poll_interval: float = 0.005,
        heartbeat_interval: Optional[float] = None,
    ):
        if max_concurrent_groups < 1:
            raise ValueError("max_concurrent_groups must be >= 1")
        if "fork" not in mp.get_all_start_methods():
            raise RuntimeError(
                "ProcessRuntime requires the fork start method (Linux/macOS): "
                "simulation factories (closures) are inherited, not pickled"
            )
        self.config = config
        self.factory = factory
        self.max_concurrent_groups = max_concurrent_groups
        self.poll_interval = poll_interval
        self.heartbeat_interval = (
            config.heartbeat_interval if heartbeat_interval is None
            else heartbeat_interval
        )
        self._ctx = mp.get_context("fork")
        self.design = draw_design(
            config.space, config.ngroups, seed=config.seed,
            method=config.sampling_method,
        )
        self.partition = BlockPartition(config.ncells, config.server_ranks)
        if queue_depth is None and config.channel_capacity_bytes is not None:
            # approximate the byte budget in whole two-stage messages
            slice_cells = max(
                1,
                config.ncells
                // max(config.server_ranks, config.client_ranks),
            )
            message_bytes = config.group_size * slice_cells * 8
            queue_depth = max(2, config.channel_capacity_bytes // message_bytes)
        self.queue_depth = queue_depth

    # ------------------------------------------------------------------ #
    def run(self, timeout: float = 300.0) -> StudyResults:
        """Execute all groups; returns assembled results.

        ``timeout`` bounds the WHOLE study — group execution, queue
        drains, and rank-state collection share one deadline — and a
        breach raises a :class:`TimeoutError` naming the unfinished
        groups and unreported server ranks.  A server-rank worker that
        dies (its heartbeat goes silent and the process is gone) fails
        the study immediately instead of hanging until the deadline.
        """
        # warm the compiled-kernel cache in the parent BEFORE forking: on
        # a cold cache every rank worker would otherwise race into its own
        # duplicate C compile during its first fold
        from repro.kernels import resolve_spec, warm_compiled_backends

        if resolve_spec(self.config.kernel) in ("auto", "cext"):
            warm_compiled_backends()
        ctx = self._ctx
        depth = 0 if self.queue_depth is None else int(self.queue_depth)
        rank_queues = [ctx.Queue(maxsize=depth) for _ in range(self.config.server_ranks)]
        results_q = ctx.Queue()
        errors_q = ctx.Queue()
        beats_q = ctx.Queue()
        progress_q = ctx.Queue()

        servers = [
            ctx.Process(
                target=_server_worker,
                args=(r, self.config, rank_queues[r], results_q, errors_q,
                      beats_q, self.heartbeat_interval),
                name=f"server-{r}",
                daemon=True,
            )
            for r in range(self.config.server_ranks)
        ]
        work = ctx.Queue()
        for group_id in range(self.config.ngroups):
            work.put(group_id)
        nworkers = min(self.max_concurrent_groups, self.config.ngroups)
        for _ in range(nworkers):
            work.put(None)  # one poison pill per worker
        workers = [
            ctx.Process(
                target=_group_worker,
                args=(
                    self.config, self.factory, self.design, rank_queues,
                    work, errors_q, progress_q, self.poll_interval,
                ),
                name=f"group-worker-{i}",
                daemon=True,
            )
            for i in range(nworkers)
        ]

        deadline = time.monotonic() + timeout
        procs = servers + workers
        self._done_groups = set()
        self._last_beat = {r: time.monotonic() for r in range(len(servers))}
        states = {}
        rank_maps = {}
        rank_widths = {}
        try:
            for proc in procs:
                proc.start()
            for worker in workers:
                # join in short slices so a worker or server-rank failure
                # surfaces immediately instead of after the full timeout
                while True:
                    self._check_errors(errors_q)
                    self._drain_progress(progress_q, beats_q)
                    self._check_server_liveness(servers, states)
                    worker.join(timeout=min(0.25, max(0.0, deadline - time.monotonic())))
                    if not worker.is_alive():
                        break
                    if time.monotonic() >= deadline:
                        raise TimeoutError(self._timeout_message(timeout, states))
                if worker.exitcode not in (0, None):
                    self._check_errors(errors_q)
                    raise RuntimeError(
                        f"group worker died with exit code {worker.exitcode}"
                    )
            # all groups done and their messages flushed: stop the ranks
            for q in rank_queues:
                q.put(None)
            while len(states) < len(servers):
                self._check_errors(errors_q)
                self._drain_progress(progress_q, beats_q)
                self._check_server_liveness(servers, states)
                try:
                    rank_idx, state, maps, width = results_q.get(
                        timeout=min(0.25, max(0.05, deadline - time.monotonic()))
                    )
                except _queue.Empty:
                    if time.monotonic() > deadline:
                        raise TimeoutError(self._timeout_message(timeout, states))
                    continue
                states[rank_idx] = state
                rank_maps[rank_idx] = maps
                rank_widths[rank_idx] = width
            for proc in servers:
                proc.join(timeout=10.0)
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
        self._check_errors(errors_q)

        server = MelissaServer(self.config)
        for rank in server.ranks:
            rank.restore_state(states[rank.rank])
        self.server = server
        # max-reduce the per-worker convergence scalars (NaN ranks carry
        # no meaningful cells and are skipped, matching
        # MelissaServer.max_interval_width)
        widths = [rank_widths[r] for r in sorted(rank_widths)]
        valid = [w for w in widths if not np.isnan(w)]
        max_width = max(valid) if valid else float("inf")
        return StudyResults.from_server(
            server,
            parameter_names=tuple(self.config.space.names),
            rank_maps=[rank_maps[r] for r in sorted(rank_maps)],
            max_interval_width=max_width,
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _check_errors(errors_q) -> None:
        failures: List[str] = []
        while True:
            try:
                failures.append(errors_q.get_nowait())
            except _queue.Empty:
                break
        if failures:
            raise RuntimeError("worker failure:\n" + "\n".join(failures))

    def _drain_progress(self, progress_q, beats_q) -> None:
        """Fold completed-group reports and rank heartbeats into state."""
        while True:
            try:
                self._done_groups.add(progress_q.get_nowait())
            except _queue.Empty:
                break
        while True:
            try:
                beat = beats_q.get_nowait()
            except _queue.Empty:
                break
            rank_idx = int(beat.sender.rsplit("-", 1)[1])
            self._last_beat[rank_idx] = time.monotonic()

    def _check_server_liveness(self, servers, states) -> None:
        """Fail fast on a dead server-rank worker (Heartbeat gone silent).

        A rank whose heartbeat is stale is only fatal when its process is
        actually gone — a rank buried in a long fold is slow, not dead.
        """
        stale_after = max(4 * self.heartbeat_interval, 2.0)
        now = time.monotonic()
        for rank_idx, proc in enumerate(servers):
            if rank_idx in states or proc.is_alive() or proc.exitcode is None:
                continue
            silence = now - self._last_beat.get(rank_idx, now)
            if proc.exitcode != 0:
                raise RuntimeError(
                    f"server rank {rank_idx} worker died (exit code "
                    f"{proc.exitcode}, last heartbeat {silence:.1f}s ago) "
                    "before reporting its state; failing fast instead of "
                    "waiting for the study timeout"
                )
            # clean exit: its result may still be in the pipe — give it a
            # heartbeat-staleness grace period before declaring it lost
            if silence > stale_after:
                raise RuntimeError(
                    f"server rank {rank_idx} worker exited without reporting "
                    f"its state (heartbeat silent for {silence:.1f}s)"
                )

    def _timeout_message(self, timeout: float, states) -> str:
        return unfinished_study_message(
            "process", timeout, self.config.ngroups, self._done_groups, (),
            self.config.server_ranks, states,
        )
