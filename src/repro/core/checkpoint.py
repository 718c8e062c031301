"""Server checkpoint / restart to per-rank files (Sec. 4.2.3, 5.4).

Each server rank independently writes one checkpoint file — exactly the
paper's scheme (512 files of 959 MB each on Lustre in their campaign).
Files are written atomically (temp + rename) so a crash mid-checkpoint
leaves the previous valid generation in place, and each file carries the
study fingerprint so a restart against a different configuration fails
loudly instead of corrupting statistics.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path
from typing import List, Optional

from repro.core.config import StudyConfig
from repro.core.server import MelissaServer

_FORMAT_VERSION = 3


def _fingerprint(config: StudyConfig) -> dict:
    """The configuration facts a checkpoint must agree on to be loadable.

    Format 3 replaces format 2's ``compute_general_stats`` boolean with
    the full canonical ``statistics`` spec list: restoring a study whose
    statistics catalog differs from the checkpoint's would silently drop
    or zero per-plugin state, so the mismatch must fail loudly with the
    differing specs named.
    """
    return {
        "version": _FORMAT_VERSION,
        "ncells": config.ncells,
        "ntimesteps": config.ntimesteps,
        "nparams": config.nparams,
        "server_ranks": config.server_ranks,
        "statistics": list(config.statistics),
    }


def _legacy_general_to_stats(general) -> tuple:
    """Convert a v2 ``general`` state list to (specs, pipeline state).

    A v2 rank state stored one pre-catalog statistics payload per
    timestep, each embedding its own config.  The arrays pass through
    untouched so migration is bit-exact; spec strings come from
    :func:`repro.stats.legacy_statistics_specs`.
    """
    from repro.stats import legacy_statistics_specs

    if not general:
        return [], {"specs": [], "states": []}
    cfg = general[0]["config"]
    moment_order = int(cfg["moment_order"])
    track_extrema = bool(cfg["track_extrema"])
    thresholds = tuple(float(t) for t in cfg["thresholds"])
    specs = list(legacy_statistics_specs(moment_order, track_extrema, thresholds))
    states = [[fs["moments"] for fs in general]]
    if track_extrema:
        states.append([fs["extrema"] for fs in general])
    if thresholds:
        states.append([{"counters": fs["exceedances"]} for fs in general])
    return specs, {"specs": specs, "states": states}


def _stats_to_legacy_general(stats_state: dict):
    """Convert a v3 pipeline state back to a v2 ``general`` list.

    Only the legacy-expressible subset (one ``moments`` spec, optionally
    ``extrema`` and one ``exceedance``) can round-trip; anything else
    raises, because a v2 reader would silently lose those statistics.
    Returns ``None`` for an empty pipeline (v2 wrote no ``general`` key).
    """
    from repro.stats import legacy_statistics_specs
    from repro.stats.protocol import parse_spec

    specs = list(stats_state["specs"])
    if not specs:
        return None
    moment_order, track_extrema, thresholds = None, False, ()
    rows = {}
    for spec, row in zip(specs, stats_state["states"]):
        name, params = parse_spec(spec)
        rows[name] = row
        if name == "moments":
            moment_order = int(params["order"])
        elif name == "extrema":
            track_extrema = True
        elif name == "exceedance":
            thresholds = tuple(
                float(t) for t in params["thresholds"].split("+")
            )
        else:
            raise ValueError(
                f"statistic '{spec}' is not expressible in checkpoint "
                "format 2; cannot downgrade"
            )
    if moment_order is None or list(
        legacy_statistics_specs(moment_order, track_extrema, thresholds)
    ) != specs:
        raise ValueError(
            f"statistics {specs} do not match the legacy layout "
            "(moments [+ extrema] [+ exceedance]); cannot downgrade"
        )
    ntimesteps = len(rows["moments"])
    general = []
    for t in range(ntimesteps):
        fs = {
            "config": {
                "moment_order": moment_order,
                "track_extrema": track_extrema,
                "thresholds": list(thresholds),
            },
            "moments": rows["moments"][t],
        }
        if track_extrema:
            fs["extrema"] = rows["extrema"][t]
        fs["exceedances"] = (
            list(rows["exceedance"][t]["counters"]) if thresholds else []
        )
        general.append(fs)
    return general


def downgrade_payload(payload: dict) -> dict:
    """Rewrite a current-format rank payload as a format-1 file.

    The exact inverse of :func:`migrate_payload`, kept HERE so the old
    wire formats are defined in one place — the migration round-trip
    tests and any future down-level export path share it.  v3 -> v2
    rewrites the statistics pipeline state back into the per-timestep
    ``general`` list (legacy-expressible catalogs only); v2 -> v1 drops
    ``compute_general_stats`` from the fingerprint.  The Sobol' state is
    untouched: the stacked engine reads both its own layout and the
    legacy per-timestep estimator forest.
    """
    fp = dict(payload["fingerprint"])
    state = dict(payload["state"])
    version = fp.get("version", 1)
    if version >= 3:
        stats_state = state.pop("stats", {"specs": [], "states": []})
        general = _stats_to_legacy_general(stats_state)
        fp.pop("statistics", None)
        fp["compute_general_stats"] = general is not None
        if general is not None:
            state["general"] = general
        fp["version"] = version = 2
    if version == 2:
        fp.pop("compute_general_stats", None)
        fp["version"] = 1
    return {**payload, "fingerprint": fp, "state": state}


def migrate_payload(payload: dict) -> dict:
    """Upgrade a rank checkpoint payload written by an older format.

    Format 1 -> 2: the fingerprint gains ``compute_general_stats``,
    inferred from whether the rank state carries general statistics (the
    only way a v1 file could have them).  Format 2 -> 3: the fingerprint
    gains the canonical ``statistics`` spec list (derived from the config
    embedded in the ``general`` state) and the per-timestep ``general``
    payloads are re-laid out as the statistics pipeline state — arrays
    pass through untouched, so migration is bit-exact.  The per-rank
    Sobol' state keeps whatever layout it has; the stacked engine
    migrates legacy estimator forests transparently in
    :meth:`repro.sobol.martinez.UbiquitousSobolField.from_state_dict`.
    """
    fp = dict(payload["fingerprint"])
    state = dict(payload["state"])
    version = fp.get("version", 1)
    if version == 1:
        fp["compute_general_stats"] = "general" in state
        fp["version"] = version = 2
    if version == 2:
        general = state.pop("general", None)
        specs, stats_state = _legacy_general_to_stats(general)
        state["stats"] = stats_state
        fp.pop("compute_general_stats", None)
        fp["statistics"] = specs
        fp["version"] = 3
    return {**payload, "fingerprint": fp, "state": state}


class CheckpointManager:
    """Writes/reads one file per server rank under a checkpoint directory."""

    def __init__(self, directory: os.PathLike):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.checkpoints_written = 0

    def rank_path(self, rank: int) -> Path:
        return self.directory / f"server_rank{rank:04d}.ckpt"

    # ------------------------------------------------------------------ #
    def save_rank(self, rank, config: StudyConfig) -> Path:
        """Atomically checkpoint ONE rank, independent of every other.

        This is the write path a distributed ``repro serve`` process uses:
        each rank checkpoints on its own cadence and can restore across a
        reconnect without any cross-rank coordination — exactly the
        paper's independent per-rank files (Sec. 4.2.3).
        """
        payload = {"fingerprint": _fingerprint(config), "state": rank.checkpoint_state()}
        path = self.rank_path(rank.rank)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)  # atomic on POSIX
        return path

    def save(self, server: MelissaServer) -> List[Path]:
        """Checkpoint every rank; returns the file paths."""
        paths = [self.save_rank(rank, server.config) for rank in server.ranks]
        self.checkpoints_written += 1
        return paths

    def exists(self) -> bool:
        return any(self.directory.glob("server_rank*.ckpt"))

    def load_rank_state(self, rank_idx: int, config: StudyConfig) -> Optional[dict]:
        """Validated state payload for one rank, or None if no file exists."""
        path = self.rank_path(rank_idx)
        if not path.exists():
            return None
        expected = _fingerprint(config)
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        payload = migrate_payload(payload)
        found = payload["fingerprint"]
        if found != expected:
            differing = sorted(
                key
                for key in set(found) | set(expected)
                if found.get(key) != expected.get(key)
            )
            raise ValueError(
                f"checkpoint {path} was written by an incompatible study "
                f"(mismatched: {', '.join(differing)}): {found} != {expected}"
            )
        return payload["state"]

    def restore_rank(self, rank, config: StudyConfig) -> bool:
        """Load one rank's last checkpoint into ``rank`` if one exists.

        Returns True when a checkpoint was restored — the read half of
        the per-rank reconnect path.
        """
        state = self.load_rank_state(rank.rank, config)
        if state is None:
            return False
        rank.restore_state(state)
        return True

    def restore(self, config: StudyConfig) -> MelissaServer:
        """Build a fresh server and load every rank's last checkpoint."""
        server = MelissaServer(config)
        for rank in server.ranks:
            if not self.restore_rank(rank, config):
                raise FileNotFoundError(f"missing checkpoint for rank {rank.rank}")
        return server

    def bytes_on_disk(self) -> int:
        return sum(p.stat().st_size for p in self.directory.glob("server_rank*.ckpt"))
