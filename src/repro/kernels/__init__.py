"""Pluggable compiled co-moment kernels for the batched Sobol' fold.

The fold hot path of :class:`~repro.sobol.martinez.UbiquitousSobolField`
is one contraction shape — batch residual co-moments per cell — with
several profitable implementations.  This package makes the backend a
runtime choice:

========  ==========================================================
backend   what it is
========  ==========================================================
einsum    PR 1 baseline: NumPy einsum contractions (always available)
cext      fused register-blocked C kernel, compiled on demand with the
          system compiler (no pip dependency; unavailable without a
          C compiler)
numba     fused Numba-JIT kernel (unavailable when numba is absent)
auto      times the available backends on the first measurable fold
          and keeps the fastest (the default)
========  ==========================================================

Selection precedence: explicit ``StudyConfig.kernel`` / ``--kernel`` >
the ``REPRO_KERNEL`` environment variable > ``auto``.  Requesting an
unavailable optional backend falls back to the einsum baseline with a
warning — studies never fail because a host lacks a toolchain.  Every
backend computes the same mathematically exact formulas; the equivalence
suite pins them all to the scalar reference at rtol 1e-10.

Which backend, how many threads and which block size a field folds with
is one decision, the fold *plan*, made by
:func:`repro.kernels.parallel.resolve_plan`.

Multicore folds: every backend here releases the GIL during its compute
loops — the cext pipeline through ``ctypes.CDLL`` (which drops the GIL
around every foreign call by construction), einsum through NumPy's
buffer-threshold GIL release, numba via ``nogil=True`` — so the
:mod:`repro.kernels.parallel` layer can shard one fold across cell
blocks onto a thread pool and actually run them concurrently.  Kernel
instances own reusable scratch and are NOT thread-safe; the parallel
layer builds one instance per worker thread.
"""

from __future__ import annotations

import os
import warnings
from typing import List, Optional

from repro.kernels.base import CoMomentKernel
from repro.kernels.einsum import EinsumKernel

ENV_VAR = "REPRO_KERNEL"

#: selectable names (auto resolves to one of the others)
KERNEL_NAMES = ("auto", "einsum", "cext", "numba")


def make_kernel(
    name: str, nparams: int, batch_size: int, block_cells: int
) -> CoMomentKernel:
    """Build one concrete backend instance.

    Raises ``RuntimeError`` when an optional backend cannot run on this
    host (see :func:`usable_backend` for the warning fallback).
    """
    if name == "einsum":
        return EinsumKernel(nparams, batch_size, block_cells)
    if name == "cext":
        from repro.kernels.cext import CExtKernel

        return CExtKernel(nparams, batch_size, block_cells)
    if name == "numba":
        from repro.kernels.numba_backend import NumbaKernel

        return NumbaKernel(nparams, batch_size, block_cells)
    raise ValueError(f"unknown kernel backend {name!r}; choose from {KERNEL_NAMES}")


def available_backends() -> List[str]:
    """Concrete backends usable on this host, in probe order."""
    out = ["einsum"]
    from repro.kernels import cext, numba_backend

    if cext.available():
        out.append("cext")
    if numba_backend.available():
        out.append("numba")
    return out


def warm_compiled_backends() -> None:
    """Probe (and thus build/load) the compiled backends in this process.

    Call before forking workers: the cext shared library compiles once
    here and every child inherits the loaded module / warm disk cache
    instead of racing into duplicate compiler runs on first fold.
    """
    from repro.kernels import cext

    cext.available()


def resolve_spec(spec: Optional[str]) -> str:
    """Apply selection precedence: explicit spec > REPRO_KERNEL > auto."""
    if spec is None:
        spec = os.environ.get(ENV_VAR) or "auto"
    spec = str(spec).lower()
    if spec not in KERNEL_NAMES:
        raise ValueError(
            f"unknown kernel backend {spec!r}; choose from {KERNEL_NAMES}"
        )
    return spec


def usable_backend(spec: Optional[str], nparams: int) -> str:
    """Resolve ``spec`` and check it can fold ``nparams`` parameters
    here: ``"auto"``, a concrete backend, or ``"einsum"`` (with a
    warning) when the requested optional backend is unavailable."""
    name = resolve_spec(spec)
    if name in ("auto", "einsum"):
        return name
    try:
        make_kernel(name, nparams, 1, 1)
    except RuntimeError as exc:
        warnings.warn(
            f"kernel backend {name!r} unavailable ({exc}); "
            "falling back to 'einsum'",
            RuntimeWarning,
            stacklevel=2,
        )
        return "einsum"
    return name


from repro.kernels import parallel  # noqa: E402  (needs make_kernel above)

__all__ = [
    "CoMomentKernel",
    "EinsumKernel",
    "KERNEL_NAMES",
    "ENV_VAR",
    "available_backends",
    "make_kernel",
    "parallel",
    "resolve_spec",
    "usable_backend",
    "warm_compiled_backends",
]
