"""Integration tests: the multiprocessing driver and cross-runtime parity.

Covers the quickstart acceptance path (process == sequential statistics)
and a back-pressure stress test with >= 4 server ranks, a multi-cell
field, several client ranks, and a tiny channel byte budget, comparing
sequential, threaded, and process drivers on the same study.
"""

import numpy as np
import pytest

from repro import SensitivityStudy
from repro.core import StudyConfig
from repro.core.group import FunctionSimulation, VectorFieldSimulation
from repro.runtime import ProcessRuntime, SequentialRuntime, ThreadedRuntime
from repro.sobol import IshigamiFunction

NCELLS = 32


def make_config(ngroups=30, ncells=1, server_ranks=1, ntimesteps=2, **kw):
    fn = IshigamiFunction()
    kw.setdefault("client_ranks", 1)
    config = StudyConfig(
        space=fn.space(), ngroups=ngroups, ntimesteps=ntimesteps, ncells=ncells,
        server_ranks=server_ranks, seed=9, **kw,
    )
    return fn, config


def make_factory(fn, ntimesteps=2):
    def factory(params, sim_id):
        return FunctionSimulation(fn, params, ntimesteps=ntimesteps,
                                  simulation_id=sim_id)
    return factory


class VectorSim(VectorFieldSimulation):
    """Library ramp member pinned to NCELLS (shared with the CLI's
    ``--study vector`` spec, so tests and smoke runs exercise one shape)."""

    def __init__(self, fn, params, ntimesteps=1, simulation_id=0):
        super().__init__(fn, params, NCELLS, ntimesteps=ntimesteps,
                         simulation_id=simulation_id)


def vector_factory(fn, ntimesteps=2):
    def factory(params, sim_id):
        return VectorSim(fn, params, ntimesteps=ntimesteps, simulation_id=sim_id)
    return factory


class TestProcessRuntime:
    def test_quickstart_parity_with_sequential(self):
        """Acceptance: ProcessRuntime reproduces SequentialRuntime stats."""
        fn, config = make_config(40)
        process = ProcessRuntime(config, make_factory(fn),
                                 max_concurrent_groups=4).run(timeout=120.0)
        _, config2 = make_config(40)
        sequential = SequentialRuntime(config2, make_factory(fn)).run()
        assert process.groups_integrated == 40
        np.testing.assert_allclose(
            process.first_order, sequential.first_order, rtol=1e-9
        )
        np.testing.assert_allclose(
            process.total_order, sequential.total_order, rtol=1e-9
        )
        np.testing.assert_allclose(process.variance, sequential.variance, rtol=1e-9)
        np.testing.assert_allclose(process.mean, sequential.mean, rtol=1e-9)

    def test_multi_rank_backpressure_parity_stress(self):
        """>= 4 server ranks, tiny channel budget: threaded and process
        drivers must reproduce the sequential statistics."""
        fn, config = make_config(
            18, ncells=NCELLS, server_ranks=4, client_ranks=2,
            channel_capacity_bytes=2048,
        )
        process = ProcessRuntime(config, vector_factory(fn),
                                 max_concurrent_groups=4).run(timeout=180.0)
        _, config2 = make_config(
            18, ncells=NCELLS, server_ranks=4, client_ranks=2,
            channel_capacity_bytes=2048,
        )
        threaded = ThreadedRuntime(config2, vector_factory(fn),
                                   max_concurrent_groups=4).run(timeout=180.0)
        _, config3 = make_config(18, ncells=NCELLS, server_ranks=4, client_ranks=2)
        sequential = SequentialRuntime(config3, vector_factory(fn)).run()
        assert process.groups_integrated == 18
        assert threaded.groups_integrated == 18
        for results in (process, threaded):
            np.testing.assert_allclose(
                results.first_order, sequential.first_order, rtol=1e-8, atol=1e-10
            )
            np.testing.assert_allclose(
                results.total_order, sequential.total_order, rtol=1e-8, atol=1e-10
            )
            np.testing.assert_allclose(
                results.variance, sequential.variance, rtol=1e-8
            )

    def test_single_worker(self):
        fn, config = make_config(5)
        results = ProcessRuntime(config, make_factory(fn),
                                 max_concurrent_groups=1).run(timeout=60.0)
        assert results.groups_integrated == 5

    def test_worker_failure_surfaces(self):
        fn, config = make_config(4)

        def exploding_factory(params, sim_id):
            raise RuntimeError("boom in worker")

        with pytest.raises((RuntimeError, TimeoutError)):
            ProcessRuntime(config, exploding_factory,
                           max_concurrent_groups=2).run(timeout=30.0)

    def test_invalid_workers(self):
        fn, config = make_config(4)
        with pytest.raises(ValueError):
            ProcessRuntime(config, make_factory(fn), max_concurrent_groups=0)

    def test_uses_fork_context(self):
        fn, config = make_config(4)
        runtime = ProcessRuntime(config, make_factory(fn))
        assert runtime._ctx.get_start_method() == "fork"

    def test_rank_workers_clamp_fold_threads(self, monkeypatch, tmp_path):
        """Rank workers share one host, so each is built with
        ``local_ranks=server_ranks`` (the auto fold-thread clamp)."""
        import json
        import os

        from repro.core.server import ServerRank

        parent = os.getpid()
        init = ServerRank.__init__

        def recording_init(rank, *args, **kwargs):
            init(rank, *args, **kwargs)
            if os.getpid() != parent:  # only the forked rank workers
                (tmp_path / f"rank{rank.rank}.json").write_text(
                    json.dumps({"local_ranks": rank.local_ranks})
                )

        monkeypatch.setattr(ServerRank, "__init__", recording_init)
        fn, config = make_config(6, ncells=NCELLS, server_ranks=2)
        ProcessRuntime(config, vector_factory(fn),
                       max_concurrent_groups=2).run(timeout=60.0)
        seen = {
            path.name: json.loads(path.read_text())["local_ranks"]
            for path in tmp_path.glob("rank*.json")
        }
        assert seen == {"rank0.json": 2, "rank1.json": 2}


class TestLivenessAndTimeout:
    """ISSUE 3 satellites: Heartbeat-based fail-fast on a dead server-rank
    worker and a whole-study deadline naming the unfinished work."""

    def test_dead_server_rank_fails_fast(self, monkeypatch):
        """A server-rank worker that dies must surface within a couple of
        heartbeat intervals, not after the full study timeout."""
        import os

        import repro.runtime.process as proc_mod

        def dying_server_worker(rank_idx, config, inbox, results, errors,
                                beats, beat_interval):
            os._exit(3)  # simulate a hard crash (no error report possible)

        monkeypatch.setattr(proc_mod, "_server_worker", dying_server_worker)
        fn, config = make_config(40)

        def slow_factory(params, sim_id):
            import time as _t

            _t.sleep(0.05)
            return FunctionSimulation(fn, params, ntimesteps=2,
                                      simulation_id=sim_id)

        runtime = ProcessRuntime(config, slow_factory, max_concurrent_groups=2,
                                 heartbeat_interval=0.1)
        import time as _t

        start = _t.monotonic()
        with pytest.raises(RuntimeError, match="server rank 0 worker died"):
            runtime.run(timeout=60.0)
        assert _t.monotonic() - start < 30.0, "did not fail fast"

    def test_server_ranks_emit_heartbeats(self):
        """The Heartbeat message is actually on the wire: drive the rank
        worker directly over an idle inbox and require beacons."""
        import queue as q
        import threading
        import time as _t

        from repro.runtime.process import _server_worker
        from repro.transport.message import Heartbeat

        fn, config = make_config(4)
        inbox, results, errors, beats = q.Queue(), q.Queue(), q.Queue(), q.Queue()
        thread = threading.Thread(
            target=_server_worker,
            args=(0, config, inbox, results, errors, beats, 0.02),
        )
        thread.start()
        _t.sleep(0.15)  # several beat intervals with an empty inbox
        inbox.put(None)
        thread.join(timeout=30.0)
        assert errors.empty(), errors.get_nowait()
        beat = beats.get_nowait()
        assert isinstance(beat, Heartbeat)
        assert beat.sender == "server-rank-0"

    def test_timeout_names_unfinished_groups_and_ranks(self):
        fn, config = make_config(6)

        def stuck_factory(params, sim_id):
            import time as _t

            _t.sleep(30.0)
            return FunctionSimulation(fn, params, ntimesteps=2,
                                      simulation_id=sim_id)

        runtime = ProcessRuntime(config, stuck_factory, max_concurrent_groups=2)
        with pytest.raises(TimeoutError) as excinfo:
            runtime.run(timeout=1.5)
        message = str(excinfo.value)
        assert "group(s) unfinished" in message
        assert "server rank(s) not reported" in message

    def test_timeout_during_final_reduction(self, monkeypatch):
        """Edge case: every group finishes, but a rank worker hangs
        before shipping its state — the deadline must still fire, and the
        diagnostic must show zero unfinished groups with the silent rank
        named (the failure is in the reduction, not the study)."""
        import repro.runtime.process as proc_mod

        def hanging_server_worker(rank_idx, config, inbox, results, errors,
                                  beats, beat_interval):
            import queue as _q
            import time as _t

            from repro.transport.message import Heartbeat

            while True:
                try:
                    msg = inbox.get(timeout=beat_interval)
                except _q.Empty:
                    msg = "idle"
                beats.put(Heartbeat(sender=f"server-rank-{rank_idx}",
                                    time=_t.monotonic()))
                if msg is None:
                    break
            _t.sleep(120.0)  # alive and beat-less, state never reported

        monkeypatch.setattr(proc_mod, "_server_worker", hanging_server_worker)
        fn, config = make_config(4)
        runtime = ProcessRuntime(config, make_factory(fn),
                                 max_concurrent_groups=2,
                                 heartbeat_interval=0.1)
        # timeout generous enough that all 4 groups certainly finish on a
        # loaded runner — the deadline must fire in the reduction phase
        with pytest.raises(TimeoutError) as excinfo:
            runtime.run(timeout=6.0)
        message = str(excinfo.value)
        assert "0 group(s) unfinished" in message
        assert "server rank(s) not reported: [0]" in message

    def test_rank_clean_exit_without_state_fails_fast(self, monkeypatch):
        """Edge case: a rank worker exits 0 without ever reporting — not
        a crash, so only heartbeat staleness can expose it, well before
        the study deadline."""
        import time as _t

        import repro.runtime.process as proc_mod

        def ghost_server_worker(rank_idx, config, inbox, results, errors,
                                beats, beat_interval):
            import os

            os._exit(0)  # clean exit, no state, no heartbeat

        monkeypatch.setattr(proc_mod, "_server_worker", ghost_server_worker)
        fn, config = make_config(4)
        runtime = ProcessRuntime(config, make_factory(fn),
                                 max_concurrent_groups=2,
                                 heartbeat_interval=0.1)
        start = _t.monotonic()
        with pytest.raises(RuntimeError, match="exited without reporting"):
            runtime.run(timeout=60.0)
        assert _t.monotonic() - start < 30.0, "did not fail fast"

    def test_dead_worker_during_last_group(self, monkeypatch):
        """Edge case: the pool's final group kills its worker — the
        failure must surface as a worker death, not hang the drain or get
        mistaken for normal completion."""
        import repro.runtime.process as proc_mod

        real_group_worker = proc_mod._group_worker

        def dying_group_worker(config, factory, design, rank_queues, work,
                               errors, progress, poll_interval):
            import os

            class DeathOnLastGroup:
                def get(self):
                    gid = work.get()
                    if gid == config.ngroups - 1:
                        os._exit(5)  # hard death holding the last group
                    return gid

            real_group_worker(config, factory, design, rank_queues,
                              DeathOnLastGroup(), errors, progress,
                              poll_interval)

        monkeypatch.setattr(proc_mod, "_group_worker", dying_group_worker)
        fn, config = make_config(6)
        runtime = ProcessRuntime(config, make_factory(fn),
                                 max_concurrent_groups=2,
                                 heartbeat_interval=0.1)
        with pytest.raises(RuntimeError, match="group worker died with exit code 5"):
            runtime.run(timeout=60.0)


class TestStudyFacade:
    def test_process_runtime_via_facade(self):
        fn = IshigamiFunction()
        study = SensitivityStudy.for_function(fn, ngroups=12, seed=3)
        results = study.run(runtime="process", max_concurrent_groups=3)
        assert results.groups_integrated == 12

    def test_process_rejects_faults(self):
        from repro.faults import FaultPlan, GroupZombie

        fn = IshigamiFunction()
        study = SensitivityStudy.for_function(fn, ngroups=5)
        with pytest.raises(ValueError):
            study.run(runtime="process",
                      fault_plan=FaultPlan(group_zombies=[GroupZombie(0)]))


class TestParallelReductions:
    """The rank workers compute their own index maps and convergence
    scalar; the parent must see values identical to recomputing from the
    restored server state (it only concatenates / max-reduces)."""

    def test_shipped_maps_match_restored_server(self):
        fn, config = make_config(36, ncells=NCELLS, server_ranks=3,
                                 channel_capacity_bytes=16384)
        runtime = ProcessRuntime(config, vector_factory(fn),
                                 max_concurrent_groups=3)
        results = runtime.run(timeout=60.0)
        # recompute everything serially from the restored rank states
        recomputed = runtime.server.assemble_maps()
        np.testing.assert_array_equal(results.first_order, recomputed["first"])
        np.testing.assert_array_equal(results.total_order, recomputed["total"])
        np.testing.assert_array_equal(results.variance, recomputed["variance"])
        np.testing.assert_array_equal(results.mean, recomputed["mean"])

    def test_shipped_width_matches_parent_reduction(self):
        fn, config = make_config(30, ncells=NCELLS, server_ranks=2)
        runtime = ProcessRuntime(config, vector_factory(fn),
                                 max_concurrent_groups=2)
        results = runtime.run(timeout=60.0)
        assert results.max_interval_width == pytest.approx(
            runtime.server.max_interval_width(), rel=1e-12
        )
