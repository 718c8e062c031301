"""Cell-sharded multicore folds: one rank's fold spread over a thread pool.

Why threads work here at all: every backend's arithmetic is *per cell* —
the kernel contractions reduce over the batch dimension only, the Pebay
pairwise combination is elementwise, and the fused C kernel accumulates
per-cell tiles — so any deterministic partition of the cell range into
disjoint, block-aligned windows performs the exact same floating-point
operations per cell as the sequential blocked loop.  Shards write into
disjoint slices of the running state, so there is no combine step and no
combine-order concern: threaded folds are **bit-exact** against
``fold_threads=1``, not merely rtol-close.

And the GIL does not serialize them: the cext backend is loaded with
``ctypes.CDLL``, which releases the GIL around every foreign call (the
kernel has no Python API to need it); NumPy's einsum/reduction
kernels drop the GIL for non-trivial buffers; and the Numba backend JITs
with ``nogil=True``.  Each shard gets its *own* kernel instance, because
the reusable scratch buffers that make the single-threaded hot path
allocation-free (:class:`EinsumKernel` residual slabs, the cext raw-sum
outputs) are per-instance and must never be shared across threads.

The executors are process-wide and persistent (one pool per worker
count, never torn down) so a fold pays thread-dispatch, not
thread-creation.  ``fold_threads`` selection precedence mirrors kernel
selection: explicit config/CLI > ``$REPRO_FOLD_THREADS`` > ``auto``.

:func:`resolve_plan` is the one place a field's ``(backend, nthreads,
block_cells)`` fold plan is decided.  Explicit backend and thread count
need no measurement.  ``auto`` is settled on the first measurable fold:
an ``auto`` backend by timing every available backend at one thread, an
``auto`` thread count by timing 1/2/half/all cores (clamped by
``cpus // local_ranks`` so co-located ranks don't oversubscribe).  The
winner is cached in-process per shape key, so every field of that shape
in the process probes once.  Explicitly requested thread counts are
honored un-clamped.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry as _telemetry
from repro.kernels.base import CoMomentKernel

ENV_VAR_THREADS = "REPRO_FOLD_THREADS"

#: smallest staged batch worth probing: below it the candidates are
#: indistinguishable, so such folds run unprobed (see
#: :func:`unprobed_plan`)
MIN_PROBE_BATCH = 4

#: a (backend, nthreads, block_cells) execution plan
Plan = Tuple[str, int, int]

_plan_cache: Dict[tuple, Plan] = {}
_plan_lock = threading.Lock()

_executors: Dict[int, ThreadPoolExecutor] = {}
_executor_lock = threading.Lock()


# --------------------------------------------------------------------- #
# thread-count selection
# --------------------------------------------------------------------- #
def validate_threads_spec(spec):
    """Canonicalize a fold-threads spec: None, ``"auto"``, or an int >= 1.

    Accepts the CLI's string forms (``"4"``, ``"auto"``).  Returns the
    canonical value (None stays None — deferred to the environment).
    """
    if spec is None:
        return None
    if isinstance(spec, str):
        s = spec.strip().lower()
        if s == "auto":
            return "auto"
        try:
            spec = int(s)
        except ValueError:
            raise ValueError(
                f"fold_threads must be 'auto' or a positive integer, "
                f"got {spec!r}"
            ) from None
    if isinstance(spec, bool) or not isinstance(spec, int):
        raise ValueError(
            f"fold_threads must be 'auto' or a positive integer, got {spec!r}"
        )
    if spec < 1:
        raise ValueError(f"fold_threads must be >= 1, got {spec}")
    return spec


def resolve_threads(spec) -> object:
    """Apply precedence: explicit spec > $REPRO_FOLD_THREADS > ``"auto"``.

    Returns ``"auto"`` or a concrete int.  An explicitly requested count
    is honored as-is (un-clamped): parity tests and deliberate
    oversubscription are the caller's business; only the ``auto`` search
    space is clamped against co-located ranks.
    """
    spec = validate_threads_spec(spec)
    if spec is None:
        spec = validate_threads_spec(os.environ.get(ENV_VAR_THREADS) or None)
    return "auto" if spec is None else spec


def thread_cap(cpus: Optional[int] = None, local_ranks: int = 1) -> int:
    """Most threads ``auto`` may use: ``cpus // local_ranks``, so ranks
    sharing a host don't oversubscribe it."""
    if cpus is None:
        cpus = os.cpu_count() or 1
    return max(1, cpus // max(1, int(local_ranks)))


def auto_thread_candidates(
    cpus: Optional[int] = None, local_ranks: int = 1
) -> List[int]:
    """The ``auto`` measurement ladder: 1, 2, half, and all cores up to
    :func:`thread_cap`, deduplicated and sorted."""
    cap = thread_cap(cpus, local_ranks)
    ladder = {1, 2, cap // 2, cap}
    return sorted(t for t in ladder if 1 <= t <= cap)


def eager_threads(spec, local_ranks: int = 1) -> int:
    """Resolve a spec to a concrete count *now* (no measurement).

    Explicit counts pass through un-clamped; ``auto`` resolves to the
    oversubscription clamp (all cores divided across co-located ranks) —
    the value the statistics pipeline rows use, where a probe would cost
    more than it informs.
    """
    resolved = resolve_threads(spec)
    if resolved == "auto":
        return thread_cap(local_ranks=local_ranks)
    return int(resolved)


# --------------------------------------------------------------------- #
# deterministic sharding
# --------------------------------------------------------------------- #
def shard_ranges(
    ncells: int, nthreads: int, block_cells: int
) -> List[Tuple[int, int]]:
    """Partition ``[0, ncells)`` into at most ``nthreads`` contiguous,
    block-aligned shards.

    Every boundary is a multiple of ``block_cells``, so the union of the
    shards' blocked inner loops enumerates the *identical* ``(lo, hi)``
    windows the sequential fold does — the structural guarantee behind
    bit-exactness.  Blocks are spread as evenly as possible; fewer
    blocks than threads simply yields fewer shards.
    """
    if ncells < 1:
        raise ValueError("ncells must be >= 1")
    blk = max(1, int(block_cells))
    nblocks = -(-ncells // blk)
    nshards = max(1, min(int(nthreads), nblocks))
    per, extra = divmod(nblocks, nshards)
    out: List[Tuple[int, int]] = []
    b0 = 0
    for i in range(nshards):
        nb = per + (1 if i < extra else 0)
        b1 = b0 + nb
        out.append((b0 * blk, min(b1 * blk, ncells)))
        b0 = b1
    return out


def _executor(nworkers: int) -> ThreadPoolExecutor:
    """The persistent process-wide pool for ``nworkers`` helper threads."""
    with _executor_lock:
        pool = _executors.get(nworkers)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=nworkers, thread_name_prefix="repro-fold"
            )
            _executors[nworkers] = pool
        return pool


def run_sharded(tasks: Sequence) -> None:
    """Run callables concurrently: the calling thread takes the first,
    the persistent pool the rest.  Used by both the fold sharding and
    the statistics-pipeline row dispatch."""
    if len(tasks) == 1:
        tasks[0]()
        return
    pool = _executor(len(tasks) - 1)
    futures = [pool.submit(task) for task in tasks[1:]]
    tasks[0]()
    for fut in futures:
        fut.result()


# --------------------------------------------------------------------- #
# the per-window fold
# --------------------------------------------------------------------- #
def fold_window(
    kernel: CoMomentKernel,
    slabs: Sequence[np.ndarray],
    lo: int,
    hi: int,
    mean: np.ndarray,
    m2: np.ndarray,
    cxy: np.ndarray,
    na: int,
    r1: np.ndarray,
) -> None:
    """Fold one staged batch into the state cells ``[lo, hi)``.

    Fused fast path when the backend offers it, otherwise the blocked
    ``fold_batch`` + exact Pebay combination.  ``r1`` is the caller's
    rank-1 correction scratch (per thread — never shared).  Writes only
    the ``[lo, hi)`` columns of ``mean``/``m2``/``cxy``, so disjoint
    windows may run concurrently.
    """
    nb = len(slabs)
    if kernel.fold_into(slabs, lo, hi, mean, m2, cxy, na):
        return
    n = na + nb
    f = na * nb / n
    wb = nb / n
    s0 = slabs[0]
    blk = min(kernel.block_cells, hi - lo)
    for b0 in range(lo, hi, blk):
        b1 = min(hi, b0 + blk)
        w = b1 - b0
        # the backend computes the centered batch statistics: means of
        # the residuals z_b = y_b - y_0 (exact shift against the first
        # staged buffer, Pebay-stable), diagonal second-moment sums,
        # and the 2p cross co-moments
        mz, gd, gx = kernel.fold_batch(slabs, b0, b1)
        if na == 0:
            mean[:, b0:b1] = s0[:, b0:b1] + mz
            m2[:, b0:b1] = gd
            cxy[:, :, b0:b1] = gx
        else:
            # exact pairwise combination (Pebay SAND2008-6212)
            d = s0[:, b0:b1] + mz
            d -= mean[:, b0:b1]
            dx = d[:2]
            dc = d[2:]
            gd += f * d * d
            m2[:, b0:b1] += gd
            gx += kernel.merge_cross(dx, dc, f, out=r1[:, :, :w])
            cxy[:, :, b0:b1] += gx
            mean[:, b0:b1] += d * wb


class ParallelFolder:
    """One rank's sharded fold engine: per-thread kernels and scratch,
    bound to one ``(backend, nthreads, block_cells)`` execution plan."""

    def __init__(
        self, backend: str, nparams: int, batch_size: int,
        block_cells: int, nthreads: int,
    ):
        from repro.kernels import make_kernel

        self.backend = backend
        self.nthreads = max(1, int(nthreads))
        self.block_cells = max(1, int(block_cells))
        self.nparams = int(nparams)
        # one kernel per shard slot: scratch isolation is the whole point
        self._kernels = [
            make_kernel(backend, nparams, batch_size, self.block_cells)
            for _ in range(self.nthreads)
        ]
        self._r1 = [
            np.empty((2, nparams, self.block_cells))
            for _ in range(self.nthreads)
        ]
        self._h_shard = _telemetry.REGISTRY.histogram(
            "repro_fold_shard_seconds",
            "per-shard fold seconds inside one rank's sharded fold",
        ).labels(backend=backend)

    @property
    def plan(self) -> Plan:
        return (self.backend, self.nthreads, self.block_cells)

    def fold(
        self,
        slabs: Sequence[np.ndarray],
        ncells: int,
        mean: np.ndarray,
        m2: np.ndarray,
        cxy: np.ndarray,
        na: int,
    ) -> None:
        """Fold one staged batch into the full state, sharded by cells."""
        shards = shard_ranges(ncells, self.nthreads, self.block_cells)
        timed = _telemetry.REGISTRY.enabled

        def task(i: int, lo: int, hi: int):
            kernel, r1 = self._kernels[i], self._r1[i]

            def run():
                if timed:
                    t0 = time.perf_counter()
                    fold_window(kernel, slabs, lo, hi, mean, m2, cxy, na, r1)
                    self._h_shard.observe(time.perf_counter() - t0)
                else:
                    fold_window(kernel, slabs, lo, hi, mean, m2, cxy, na, r1)

            return run

        run_sharded([task(i, lo, hi) for i, (lo, hi) in enumerate(shards)])


# --------------------------------------------------------------------- #
# the fold plan: (backend, nthreads, block_cells)
# --------------------------------------------------------------------- #
def unprobed_plan(backend: str, threads, block_cells: int) -> Plan:
    """The plan for a fold that cannot be measured: explicit specs as
    given, an ``auto`` backend on einsum, ``auto`` threads at one."""
    return (
        "einsum" if backend == "auto" else backend,
        1 if threads == "auto" else int(threads),
        int(block_cells),
    )


def resolve_plan(
    backend: str,
    threads,
    nparams: int,
    batch_size: int,
    block_cells: int,
    slabs: Sequence[np.ndarray] = (),
    ncells: int = 0,
    local_ranks: int = 1,
) -> Optional[Plan]:
    """The ``(backend, nthreads, block_cells)`` plan a field folds with.

    ``backend`` is a concrete name or ``"auto"``, ``threads`` an int or
    ``"auto"``.  Explicit specs return at once, with no probe; so does a
    field whose ``batch_size`` is below :data:`MIN_PROBE_BATCH` (no fold
    of it will ever be measurable).  Otherwise the first staged batch of
    at least that size is measured (``auto`` backend first, at one
    thread, then the ``auto`` thread/block ladder for the winner) and
    the plan is cached per shape key and thread cap.  Returns None while
    ``slabs`` is too small to measure: fold that batch on
    :func:`unprobed_plan` and ask again.
    """
    if "auto" not in (backend, threads) or batch_size < MIN_PROBE_BATCH:
        return unprobed_plan(backend, threads, block_cells)
    if len(slabs) < MIN_PROBE_BATCH:
        return None
    cap = thread_cap(local_ranks=local_ranks)
    key = (nparams, batch_size, block_cells, cap, backend, threads)
    with _plan_lock:
        plan = _plan_cache.get(key)
    if plan is not None:
        return plan
    if backend == "auto":
        backend = probe_backend(nparams, batch_size, block_cells, slabs)
    if threads == "auto":
        plan = tune_plan(
            backend, nparams, batch_size, block_cells, slabs, ncells,
            auto_thread_candidates(local_ranks=local_ranks),
        )
    else:
        plan = (backend, int(threads), block_cells)
    with _plan_lock:
        _plan_cache[key] = plan
    return plan


def _best_of_two(run) -> float:
    """Seconds of the faster of two timed calls, after one warm-up call
    (JIT, library load, pool spin-up)."""
    run()
    elapsed = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        run()
        elapsed = min(elapsed, time.perf_counter() - t0)
    return elapsed


def probe_backend(
    nparams: int,
    batch_size: int,
    block_cells: int,
    slabs: Sequence[np.ndarray],
) -> str:
    """The available backend that folds the first cell block of
    ``slabs`` fastest at one thread."""
    from repro.kernels import available_backends, make_kernel

    hi = min(block_cells, slabs[0].shape[-1])
    best: Optional[Tuple[float, str]] = None
    for name in available_backends():
        kernel = make_kernel(name, nparams, batch_size, block_cells)
        elapsed = _best_of_two(lambda: kernel.fold_batch(slabs, 0, hi))
        if best is None or elapsed < best[0]:
            best = (elapsed, name)
    assert best is not None  # einsum is always available
    return best[1]


def _block_candidates(block_cells: int, ncells: int) -> List[int]:
    """Block sizes the joint tune considers: the configured block and its
    half (threads sharing L2 often prefer the smaller working set).
    Only blocks that actually tile the cell range differently qualify."""
    blk = min(block_cells, ncells)
    out = [blk]
    if blk // 2 >= 1024:
        out.append(blk // 2)
    return out


def tune_plan(
    backend: str,
    nparams: int,
    batch_size: int,
    block_cells: int,
    slabs: Sequence[np.ndarray],
    ncells: int,
    thread_candidates: Sequence[int],
) -> Plan:
    """Measure the thread/block ladder for ``backend`` on real slabs.

    The probe drives stateless ``fold_batch`` shards (no running state is
    touched) and times each candidate best-of-two after a warm-up, as
    :func:`probe_backend` does.  Returns the fastest ``(backend,
    nthreads, block_cells)``.
    """
    from repro.kernels import make_kernel

    best: Optional[Tuple[float, Plan]] = None
    for blk in _block_candidates(block_cells, ncells):
        for nt in thread_candidates:
            kernels = [
                make_kernel(backend, nparams, batch_size, blk)
                for _ in range(nt)
            ]
            shards = shard_ranges(ncells, nt, blk)

            def probe():
                def shard_task(kernel, lo, hi):
                    def run():
                        for b0 in range(lo, hi, blk):
                            kernel.fold_batch(slabs, b0, min(hi, b0 + blk))
                    return run

                run_sharded([
                    shard_task(kernels[i], lo, hi)
                    for i, (lo, hi) in enumerate(shards)
                ])

            elapsed = _best_of_two(probe)
            plan = (backend, nt, blk)
            if best is None or elapsed < best[0]:
                best = (elapsed, plan)
    assert best is not None
    return best[1]


__all__ = [
    "ENV_VAR_THREADS",
    "MIN_PROBE_BATCH",
    "ParallelFolder",
    "auto_thread_candidates",
    "eager_threads",
    "fold_window",
    "probe_backend",
    "resolve_plan",
    "resolve_threads",
    "run_sharded",
    "shard_ranges",
    "thread_cap",
    "tune_plan",
    "unprobed_plan",
    "validate_threads_spec",
]
