"""Content-addressed on-disk result store.

Documents are JSON files named by the job's content key (see
:meth:`repro.serve.jobs.JobSpec.cache_key`), fanned out over two-hex
prefix directories so large stores don't produce million-entry
directories.  Writes are atomic *and durable*: tempfile + fsync +
``os.replace`` + parent-directory fsync, so a concurrent reader never
observes a torn document and a machine that loses power right after
``store()`` returns still has the entry after reboot.  Trace payloads
ride alongside as ``<key>.npz`` via :mod:`repro.trace.io`.

Every stored document carries a ``checksum`` field (content hash of the
canonical JSON minus the field itself) and every npz payload carries its
own header checksum.  Reads verify: a corrupt entry is moved to
``<root>/quarantine/`` for post-mortem and surfaced as
:class:`~repro.errors.CorruptResultError` (strict :meth:`get`) or a
plain miss (lenient :meth:`load`), never as a half-parsed document.

Stale ``*.tmp*`` debris from crashed writers is swept on construction;
pass ``sweep_tmp=False`` for stores that share a root with concurrent
writers (the serve worker pool does: only the service-owned store
sweeps, so a respawned worker can never unlink a sibling's in-flight
tempfile between its write and rename).
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterator, Optional

from repro.errors import CorruptResultError, TraceError
from repro.trace.io import load_trace, save_trace
from repro.trace.recorder import FinalizedTrace

#: document field holding the content hash; excluded from its own hash.
CHECKSUM_FIELD = "checksum"


def doc_checksum(doc: dict[str, Any]) -> str:
    """Content hash of a result document (canonical JSON, checksum-free)."""
    body = {k: v for k, v in doc.items() if k != CHECKSUM_FIELD}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def fsync_dir(path: Path) -> None:
    """Flush a directory entry (the rename itself) to stable storage."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class ResultStore:
    """Keyed JSON documents + optional npz payloads under one root."""

    def __init__(self, root: str | Path, sweep_tmp: bool = True) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: entries moved to quarantine/ by this instance (telemetry).
        self.quarantined = 0
        #: stale tempfiles removed at construction (telemetry).
        self.tmp_swept = 0
        if sweep_tmp:
            self.sweep_stale_tmp()

    # -- paths ----------------------------------------------------------------
    def doc_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def trace_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.npz"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    # -- hygiene --------------------------------------------------------------
    def sweep_stale_tmp(self) -> int:
        """Remove tempfile debris left by writers that died mid-store.

        Only safe when no concurrent writer shares the root (tempfiles
        are pre-rename private state); callers that do share pass
        ``sweep_tmp=False`` and let the single owning process sweep.
        """
        swept = 0
        for path in self.root.glob("??/*.tmp*"):
            try:
                path.unlink()
                swept += 1
            except OSError:
                pass
        # glob skips dotfiles by default; the npz payload temps are
        # dotfile-named (".{key}.{pid}.tmp.npz") so sweep those too.
        for path in self.root.glob("??/.*tmp*"):
            try:
                path.unlink()
                swept += 1
            except OSError:
                pass
        self.tmp_swept += swept
        return swept

    def _quarantine(self, key: str, reason: str) -> None:
        """Move a corrupt entry's files out of the addressable tree."""
        qdir = self.quarantine_dir
        qdir.mkdir(parents=True, exist_ok=True)
        moved = False
        for path in (self.doc_path(key), self.trace_path(key)):
            if path.is_file():
                try:
                    os.replace(path, qdir / path.name)
                    moved = True
                except OSError:
                    pass
        if moved:
            self.quarantined += 1
            try:
                (qdir / f"{key}.reason.txt").write_text(reason, encoding="utf-8")
            except OSError:
                pass

    # -- queries --------------------------------------------------------------
    def contains(self, key: str) -> bool:
        """True when ``key`` has a *valid* document (corrupt = absent)."""
        return self.load(key) is not None

    def get(self, key: str) -> dict[str, Any]:
        """The stored document (checksum verified, field stripped).

        Raises :class:`KeyError` when the key was never stored and
        :class:`~repro.errors.CorruptResultError` when the entry exists
        but fails parsing or checksum verification - the corrupt files
        are moved to ``quarantine/`` first, so the key reads as a plain
        miss afterwards and a writer can repopulate it.
        """
        path = self.doc_path(key)
        if not path.is_file():
            raise KeyError(key)
        try:
            with path.open("r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            self._quarantine(key, f"unparseable document: {exc}")
            raise CorruptResultError(f"result {key[:12]}.. is torn: {exc}") from exc
        if not isinstance(doc, dict):
            self._quarantine(key, f"non-object document: {type(doc).__name__}")
            raise CorruptResultError(f"result {key[:12]}.. is not a JSON object")
        # every writer stamps a checksum, so a missing one is corruption
        stored = doc.pop(CHECKSUM_FIELD, None)
        actual = doc_checksum(doc)
        if actual != stored:
            self._quarantine(
                key, f"checksum mismatch: stored {stored}, actual {actual}"
            )
            raise CorruptResultError(
                f"result {key[:12]}.. failed checksum verification"
            )
        return doc

    def load(self, key: str) -> Optional[dict[str, Any]]:
        """Lenient :meth:`get`: missing, torn, and corrupt are all None.

        Corrupt entries are still quarantined as a side effect, so the
        store self-heals on read.
        """
        try:
            return self.get(key)
        except KeyError:
            return None
        except CorruptResultError:
            return None

    def load_result_trace(self, key: str) -> Optional[FinalizedTrace]:
        path = self.trace_path(key)
        if not path.is_file():
            return None
        try:
            trace, _meta = load_trace(path)
        except TraceError as exc:
            self._quarantine(key, f"corrupt trace payload: {exc}")
            raise CorruptResultError(
                f"trace payload for {key[:12]}.. is corrupt: {exc}"
            ) from exc
        return trace

    def keys(self) -> Iterator[str]:
        for path in sorted(self.root.glob("??/*.json")):
            yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    # -- writes ---------------------------------------------------------------
    def store(
        self,
        key: str,
        doc: dict[str, Any],
        trace: Optional[FinalizedTrace] = None,
        trace_metadata: Optional[dict[str, Any]] = None,
    ) -> Path:
        """Atomically and durably persist ``doc`` (+ trace) under ``key``.

        The written document gains a :data:`CHECKSUM_FIELD`; the caller's
        dict is not mutated.
        """
        path = self.doc_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        if trace is not None:
            # payload first (atomically): a reader that sees the doc may
            # rely on the npz being present and whole.
            final = self.trace_path(key)
            tmp_npz = final.with_name(f".{key}.{os.getpid()}.tmp.npz")
            save_trace(trace, tmp_npz, metadata=trace_metadata)
            fd = os.open(tmp_npz, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
            os.replace(tmp_npz, final)
        body = dict(doc)
        body[CHECKSUM_FIELD] = doc_checksum(body)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(body, fh, sort_keys=True)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        # the renames themselves must survive power loss, not just the
        # file contents (POSIX: directory entry durability needs a dir
        # fsync).
        fsync_dir(path.parent)
        return path

    def discard(self, key: str) -> None:
        for path in (self.doc_path(key), self.trace_path(key)):
            try:
                path.unlink()
            except OSError:
                pass

    # -- migration transfer ---------------------------------------------------
    def export_entry(self, key: str) -> dict[str, Any]:
        """One entry as a self-verifying wire document (fleet migration).

        The document keeps its :data:`CHECKSUM_FIELD` so the receiving
        owner can verify content end-to-end, and the npz payload rides
        along base64-encoded (``None`` when the entry has no trace).
        Raises :class:`KeyError` on a miss; a corrupt entry is
        quarantined and surfaced as
        :class:`~repro.errors.CorruptResultError` - never exported.
        """
        body = dict(self.get(key))  # verify + quarantine-on-corrupt
        body[CHECKSUM_FIELD] = doc_checksum(body)
        trace_b64: Optional[str] = None
        trace_file = self.trace_path(key)
        if trace_file.is_file():
            trace_b64 = base64.b64encode(trace_file.read_bytes()).decode("ascii")
        return {"key": key, "doc": body, "trace_b64": trace_b64}

    def import_entry(
        self, key: str, doc: dict[str, Any], trace_b64: Optional[str] = None
    ) -> bool:
        """Verify and persist an exported entry under this store.

        The advertised checksum must match the recomputed content hash -
        a transfer that corrupted the document is rejected (``ValueError``)
        before anything touches disk, so migration can never plant a
        quarantine-bound entry.  Returns ``False`` when the key already
        holds a valid document (idempotent re-imports are no-ops, which
        is what makes a resumed migration cursor safe).
        """
        body = dict(doc)
        advertised = body.pop(CHECKSUM_FIELD, None)
        if advertised is None:
            raise ValueError(f"import of {key[:12]}.. carries no checksum")
        actual = doc_checksum(body)
        if actual != advertised:
            raise ValueError(
                f"import of {key[:12]}.. failed checksum verification "
                f"(advertised {advertised[:12]}.., actual {actual[:12]}..)"
            )
        if self.contains(key):
            return False
        path = self.doc_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        if trace_b64 is not None:
            raw = base64.b64decode(trace_b64.encode("ascii"))
            final = self.trace_path(key)
            tmp_npz = final.with_name(f".{key}.{os.getpid()}.tmp.npz")
            tmp_npz.write_bytes(raw)
            fd = os.open(tmp_npz, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
            os.replace(tmp_npz, final)
        self.store(key, body)
        return True
