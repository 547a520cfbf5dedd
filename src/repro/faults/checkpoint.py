"""Atomic, checksummed training checkpoints.

A checkpoint captures everything :class:`~repro.core.trainer.Trainer`
needs to continue a run as if it had never stopped: model parameters,
optimizer state, the training rng's bit-generator state, the curve and
per-epoch stats so far, and the early-stopping bookkeeping.  Restoring
it reproduces the uninterrupted run's loss/accuracy curve bit-identically
(pinned in ``tests/faults/test_checkpoint.py``), because mini-batch
formation consumes the restored rng exactly where the original left off
at the epoch boundary.

The file format is crash-safe and self-verifying, with a two-phase
commit ordered so that a crash at *any* point leaves a recoverable
state:

1. the payload file (magic string + JSON header carrying the payload's
   SHA-256 + stdlib pickle of numpy state) is written to a temp file in
   the same directory, flushed and fsynced;
2. the previous checkpoint and its sidecar — if any — are rotated to
   ``<name>.prev`` / ``<name>.prev.sha256`` so recovery always has a
   known-good fallback;
3. the new payload is atomically renamed over the target;
4. the checksum sidecar ``<name>.sha256`` is written **last** (temp +
   fsync + rename).  The sidecar is the commit record: a checkpoint
   without a matching sidecar was interrupted mid-write and must not be
   trusted.

:meth:`Checkpointer.load` verifies magic, header, payload length,
header checksum, and finally the sidecar; any failure raises a typed
error (:class:`~repro.errors.CheckpointIntegrityError` for files that
exist but cannot be trusted).  :meth:`Checkpointer.load_latest` is the
recovery entry point: it falls back to the previous valid checkpoint
when the newest one fails verification or is missing (a crash between
steps 2 and 3 leaves only the rotated ``.prev`` pair).

Checkpoints are pickle files: load them only from paths you wrote
(the usual pickle trust model; these are private training artifacts,
not an interchange format).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path

from ..errors import CheckpointError, CheckpointIntegrityError

__all__ = ["Checkpointer"]

_MAGIC = b"REPRO-CKPT-v1\n"


class Checkpointer:
    """Writes/reads one checkpoint file with atomic replace semantics.

    Parameters
    ----------
    path:
        Checkpoint file location.  The parent directory is created on
        first save.  Three companion files live next to it: the
        ``.sha256`` checksum sidecar (written last, acts as the commit
        record) and the ``.prev``/``.prev.sha256`` pair holding the
        previous checkpoint for fallback recovery.
    every:
        Save cadence in epochs: the trainer saves after epoch ``e`` when
        ``(e + 1) % every == 0`` (and always after the final epoch).
    """

    def __init__(self, path, every=1):
        self.path = Path(path)
        if int(every) < 1:
            raise CheckpointError(f"every must be >= 1, got {every}")
        self.every = int(every)
        self.saves = 0

    @property
    def sidecar_path(self):
        """The checksum sidecar committed last on every save."""
        return self.path.with_name(self.path.name + ".sha256")

    @property
    def previous_path(self):
        """Where the prior checkpoint is rotated to on save."""
        return self.path.with_name(self.path.name + ".prev")

    @property
    def previous_sidecar_path(self):
        return self.path.with_name(self.path.name + ".prev.sha256")

    def exists(self):
        """Whether a checkpoint file is present: the current one, or
        the ``.prev`` fallback a save rotated out before it died."""
        return self.path.is_file() or self.previous_path.is_file()

    def due(self, epoch):
        """Whether the trainer should save after completing ``epoch``."""
        return (epoch + 1) % self.every == 0

    def save(self, state):
        """Atomically persist ``state`` (a picklable dict).

        Write order is payload first, checksum sidecar last: the
        sidecar only ever describes a fully-fsynced payload, so a crash
        between the two steps is detectable (missing/mismatched
        sidecar) rather than silent.
        """
        payload = pickle.dumps(state, protocol=4)
        digest = hashlib.sha256(payload).hexdigest()
        header = json.dumps({
            "version": 1,
            "sha256": digest,
            "payload_bytes": len(payload),
        }).encode("ascii") + b"\n"

        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._write_atomic(self.path, _MAGIC + header + payload,
                           rotate=True)
        self._write_atomic(self.sidecar_path,
                           digest.encode("ascii") + b"\n")
        self.saves += 1

    def _write_atomic(self, target, blob, rotate=False):
        """Temp + fsync + rename ``blob`` into ``target``; with
        ``rotate``, first preserve the current checkpoint pair as the
        ``.prev`` fallback."""
        fd, tmp_name = tempfile.mkstemp(
            dir=self.path.parent, prefix=target.name + ".tmp-")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            if rotate:
                self._rotate_previous()
            os.replace(tmp_name, target)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return target

    def _rotate_previous(self):
        """Move the current checkpoint + sidecar to the ``.prev`` slot.

        Only a *committed* pair (payload and sidecar both present) is
        worth keeping as a fallback; an uncommitted payload is dropped
        so ``.prev`` never regresses to a corrupt generation.
        """
        if not (self.path.is_file() and self.sidecar_path.is_file()):
            return
        os.replace(self.sidecar_path, self.previous_sidecar_path)
        os.replace(self.path, self.previous_path)

    def load(self):
        """Read, verify, and unpickle the checkpoint.

        Raises :class:`CheckpointError` when the file is missing and
        :class:`CheckpointIntegrityError` when it exists but is
        truncated, not a checkpoint, fails its checksum, or its
        checksum sidecar is missing/mismatched (an interrupted save).
        """
        return self._load_verified(self.path, self.sidecar_path)

    def load_latest(self):
        """Load the newest checkpoint that passes verification.

        The recovery entry point: tries the current checkpoint first
        and, if it fails integrity checks (e.g. the process died between
        writing the payload and committing the sidecar) or is missing
        (the process died after rotating the committed pair to
        ``.prev`` but before renaming the new payload in), falls back
        to the ``.prev`` pair.  Raises the original error when no
        fallback exists or the fallback is also bad.
        """
        try:
            return self._load_verified(self.path, self.sidecar_path)
        except CheckpointError as exc:
            torn = isinstance(exc, CheckpointIntegrityError) \
                or not self.path.is_file()
            if not (torn and self.previous_path.is_file()):
                raise
            try:
                return self._load_verified(self.previous_path,
                                           self.previous_sidecar_path)
            except CheckpointError:
                raise exc from None

    def _load_verified(self, path, sidecar):
        if not path.is_file():
            raise CheckpointError(f"no checkpoint at {path}")
        raw = path.read_bytes()
        if not raw.startswith(_MAGIC):
            raise CheckpointIntegrityError(
                f"{path} is not a repro checkpoint (bad magic)")
        body = raw[len(_MAGIC):]
        newline = body.find(b"\n")
        if newline < 0:
            raise CheckpointIntegrityError(
                f"{path} is truncated (no header)")
        try:
            header = json.loads(body[:newline].decode("ascii"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            header = None
        if not isinstance(header, dict):
            raise CheckpointIntegrityError(f"{path} has a corrupt header")
        payload = body[newline + 1:]
        if len(payload) != header.get("payload_bytes"):
            raise CheckpointIntegrityError(
                f"{path} is truncated: expected "
                f"{header.get('payload_bytes')} payload bytes, "
                f"found {len(payload)}")
        digest = hashlib.sha256(payload).hexdigest()
        if digest != header.get("sha256"):
            raise CheckpointIntegrityError(
                f"{path} failed its integrity check "
                f"(sha256 mismatch)")
        if not sidecar.is_file():
            raise CheckpointIntegrityError(
                f"{path} has no checksum sidecar ({sidecar.name}): "
                f"the save was interrupted before the checksum was "
                f"committed")
        committed = sidecar.read_bytes().decode("ascii",
                                                "replace").strip()
        if committed != digest:
            raise CheckpointIntegrityError(
                f"{path} disagrees with its checksum sidecar "
                f"({sidecar.name}): the sidecar was partially "
                f"written or belongs to another generation")
        try:
            return pickle.loads(payload)
        except Exception as exc:
            raise CheckpointError(
                f"{path} could not be unpickled: {exc}") from exc

    def delete(self):
        """Remove the checkpoint, sidecar, and fallback files."""
        for target in (self.path, self.sidecar_path,
                       self.previous_path, self.previous_sidecar_path):
            try:
                target.unlink()
            except FileNotFoundError:
                pass
