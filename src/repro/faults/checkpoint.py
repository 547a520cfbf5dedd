"""Crash-safe, checksummed training checkpoints in two alternating slots.

A checkpoint captures everything :class:`~repro.core.trainer.Trainer`
needs to continue a run as if it had never stopped: model parameters,
optimizer state, the training rng's bit-generator state, the curve and
per-epoch stats so far, and the early-stopping bookkeeping.  Restoring
it reproduces the uninterrupted run's loss/accuracy curve bit-identically
(pinned in ``tests/faults/test_recovery.py``), because mini-batch
formation consumes the restored rng exactly where the original left off
at the epoch boundary.

A checkpoint is two slot files, ``path`` and ``<name>.alt``, each
holding one self-verifying record: a magic string, a JSON header
(``version``, an int ``generation`` counting saves, the payload length
and a SHA-256 over the generation and the payload) and a stdlib pickle
of the state.  A save overwrites, in place, the slot that does *not*
hold the newest state that verifies (``pwrite``, ``ftruncate``, one
``fsync``), and returns only once those bytes are on disk.  A crash at
any point of a save leaves that slot torn, half old and half new: it
then fails its magic, header, length or SHA-256 check, or (a prefix
equal to the old record's own first bytes) still verifies as its
older generation.  The other slot is untouched and holds the previous
committed save, so :meth:`Checkpointer.load_latest` — the one reader —
returns the newest slot that verifies: the new state once its save
returned, else the previous one.  A corrupt slot is a typed
:class:`~repro.errors.CheckpointIntegrityError`, never a load of
garbage.

A :class:`Checkpointer` verifies both slots before its first save (or
its first save after :meth:`~Checkpointer.delete`) and after that
trusts its own fsynced writes, so a save never overwrites the only
slot that verifies; :meth:`~Checkpointer.load_latest` re-learns the
newest slot from the files.

Checkpoints are pickle files: load them only from paths you wrote
(the usual pickle trust model; these are private training artifacts,
not an interchange format).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from pathlib import Path

from ..errors import CheckpointError, CheckpointIntegrityError

__all__ = ["Checkpointer"]

_MAGIC = b"REPRO-CKPT-v1\n"


def _digest(generation, payload):
    """The record's SHA-256: it covers the generation, so a header torn
    between two saves never passes for a newer one."""
    digest = hashlib.sha256(b"%d\n" % generation)
    digest.update(payload)
    return digest.hexdigest()


def _read_record(slot):
    """``(generation, payload, error)`` of one slot file.  ``error`` is
    None when the record verifies, else the typed error it fails with;
    ``generation`` is -1 when no header parsed and -2 when there is no
    file, so the newest slot ranks first."""
    try:
        raw = slot.read_bytes()
    except (FileNotFoundError, IsADirectoryError):
        return -2, None, CheckpointError(f"no checkpoint at {slot}")
    if not raw.startswith(_MAGIC):
        return -1, None, CheckpointIntegrityError(
            f"{slot} is not a repro checkpoint (bad magic)")
    body = raw[len(_MAGIC):]
    newline = body.find(b"\n")
    if newline < 0:
        return -1, None, CheckpointIntegrityError(
            f"{slot} is truncated (no header)")
    try:
        header = json.loads(body[:newline].decode("ascii"))
    except ValueError:
        header = None
    if not isinstance(header, dict) \
            or type(header.get("generation")) is not int:
        return -1, None, CheckpointIntegrityError(
            f"{slot} has a corrupt header")
    version = header.get("version")
    if type(version) is not int or version != 1:
        return -1, None, CheckpointIntegrityError(
            f"{slot} has header version {version!r}; this reader "
            f"reads version 1")
    generation, payload = header["generation"], body[newline + 1:]
    if len(payload) != header.get("payload_bytes"):
        return generation, None, CheckpointIntegrityError(
            f"{slot} is truncated: expected "
            f"{header.get('payload_bytes')} payload bytes, "
            f"found {len(payload)}")
    if _digest(generation, payload) != header.get("sha256"):
        return generation, None, CheckpointIntegrityError(
            f"{slot} failed its integrity check (sha256 mismatch)")
    return generation, payload, None


class Checkpointer:
    """Writes/reads one checkpoint as two alternating slot files.

    Parameters
    ----------
    path:
        Checkpoint file location.  The parent directory is created on
        first save.  Its sibling ``<name>.alt`` is the second slot; the
        first save writes ``path``, and each later one the slot not
        holding the newest state that verifies.
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
        self.slots = (self.path, self.path.with_name(self.path.name + ".alt"))
        # (generation, slot index) of the newest state that verifies;
        # None until the slots are read.
        self._committed = None

    def exists(self):
        """Whether either slot file is present."""
        return any(slot.is_file() for slot in self.slots)

    def due(self, epoch):
        """Whether the trainer should save after completing ``epoch``."""
        return (epoch + 1) % self.every == 0

    def save(self, state):
        """Commit ``state`` (a picklable dict) to the slot that does not
        hold the newest state that verifies; returns once it is fsynced.
        """
        if self._committed is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._newest()
        generation, index = self._committed
        generation, index = generation + 1, 1 - index
        payload = pickle.dumps(state, protocol=4)
        header = json.dumps({
            "version": 1,
            "generation": generation,
            "sha256": _digest(generation, payload),
            "payload_bytes": len(payload),
        }).encode("ascii")
        record = memoryview(b"".join((_MAGIC, header, b"\n", payload)))
        fd = os.open(self.slots[index], os.O_WRONLY | os.O_CREAT, 0o600)
        try:
            written = 0
            while written < len(record):
                written += os.pwrite(fd, record[written:], written)
            os.ftruncate(fd, written)
            os.fsync(fd)
        finally:
            os.close(fd)
        self._committed = (generation, index)
        self.saves += 1

    def load_latest(self):
        """Load the newest slot that verifies.

        The one reader, and the recovery entry point: a slot torn by a
        crash mid-save, truncated or bit-rotted fails verification, and
        the other slot's previous save is returned.  Raises
        :class:`CheckpointError` when neither slot exists and the
        newest slot's :class:`CheckpointIntegrityError` when one exists
        but neither verifies.
        """
        payload, error = self._newest()
        if error is not None:
            raise error
        try:
            return pickle.loads(payload)
        except Exception as exc:
            raise CheckpointError(
                f"{self.slots[self._committed[1]]} could not be "
                f"unpickled: {exc}") from exc

    def _newest(self):
        """Read both slots and remember the newest that verifies (none:
        the next save writes ``path``); returns its payload, or None and
        the newest slot's error."""
        records = [_read_record(slot) for slot in self.slots]
        index = max((0, 1), key=lambda i: (records[i][2] is None,
                                           records[i][0]))
        generation, payload, error = records[index]
        self._committed = (0, 1) if error else (generation, index)
        return payload, error

    def delete(self):
        """Remove both slot files."""
        for slot in self.slots:
            try:
                slot.unlink()
            except FileNotFoundError:
                pass
        self._committed = None
