"""Periodic simulation checkpoints.

A serve worker or sweep point run with a checkpoint cadence hands its
whole :class:`~repro.core.driver.UvmDriver` (GPU, residency, clock and
counters) to :class:`SimulationCheckpointer` every few phases; a
respawned attempt resumes from the last snapshot instead of starting
over.  The simulation is a synchronous driver loop with no event
queue, so a snapshot is a pickle of that one object graph.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Callable, Optional

from repro.errors import CheckpointError


#: bumped whenever the on-disk checkpoint layout changes; stale files
#: are treated as absent, never mis-restored.
CHECKPOINT_VERSION = 1

_CHECKPOINT_MAGIC = "uvmrepro-checkpoint"


class SimulationCheckpointer:
    """Periodic atomic pickle snapshots of a running simulation.

    Cadence is counted in *simulation phases* (``maybe_save`` calls),
    never wall-clock, so checkpoint timing is deterministic and - because
    saving only reads state - a checkpointed run stays bit-identical to
    an unchained one.  Files are written atomically (tempfile + fsync +
    ``os.replace`` + directory fsync) so a crash mid-save leaves the
    previous checkpoint intact, and they are keyed by the caller with
    the content-addressed cache key so a snapshot can never be restored
    into a different simulation or code version.
    """

    def __init__(
        self,
        path: str | Path,
        every_phases: int = 256,
        on_save: Optional[Callable[[int], None]] = None,
    ) -> None:
        if every_phases < 1:
            raise CheckpointError("checkpoint cadence must be >= 1 phase")
        self.path = Path(path)
        self.every_phases = int(every_phases)
        #: called with the save ordinal after each durable save (used by
        #: chaos to crash at a deterministic post-checkpoint boundary).
        self.on_save = on_save
        self.saves = 0
        #: set by the execute path when a run restored from this file.
        self.resumed = False
        self._since_save = 0

    def exists(self) -> bool:
        return self.path.is_file()

    def maybe_save(self, sim: Any) -> bool:
        """Save when the phase cadence elapses; True if a save happened."""
        self._since_save += 1
        if self._since_save < self.every_phases:
            return False
        self._since_save = 0
        self.save(sim)
        return True

    def save(self, sim: Any) -> None:
        """Atomically persist ``sim`` (any picklable object graph)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(
                    (_CHECKPOINT_MAGIC, CHECKPOINT_VERSION, sim),
                    fh,
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
            _fsync_dir(self.path.parent)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.saves += 1
        if self.on_save is not None:
            self.on_save(self.saves)

    def load(self) -> Optional[Any]:
        """The checkpointed object, or ``None`` (missing/corrupt/stale).

        A checkpoint that cannot be restored is deleted and ignored:
        resume is an optimization, so the worst case is recomputing
        from scratch - never restoring garbage.
        """
        try:
            with self.path.open("rb") as fh:
                payload = pickle.load(fh)
        except OSError:
            return None
        except Exception:
            self.clear()
            return None
        if (
            not isinstance(payload, tuple)
            or len(payload) != 3
            or payload[0] != _CHECKPOINT_MAGIC
            or payload[1] != CHECKPOINT_VERSION
        ):
            self.clear()
            return None
        return payload[2]

    def clear(self) -> None:
        """Remove the checkpoint file (called after a successful run)."""
        try:
            self.path.unlink()
        except OSError:
            pass


def _fsync_dir(path: Path) -> None:
    """Durably persist a directory's entries (the rename itself)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync unsupported on dirs
        pass
    finally:
        os.close(fd)
