"""Unit tests for the atomic, checksummed checkpointer."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.errors import CheckpointError, CheckpointIntegrityError, \
    ReproError
from repro.faults import Checkpointer


@pytest.fixture
def ckpt(tmp_path):
    return Checkpointer(tmp_path / "run.ckpt")


def sample_state():
    return {
        "epoch": 3,
        "weights": np.arange(12, dtype=np.float32).reshape(3, 4),
        "rng_state": np.random.default_rng(0).bit_generator.state,
        "nested": {"curve": [0.1, 0.2], "best": None},
    }


class TestRoundTrip:
    def test_save_load_bit_identical(self, ckpt):
        state = sample_state()
        ckpt.save(state)
        loaded = ckpt.load()
        assert loaded["epoch"] == 3
        assert np.array_equal(loaded["weights"], state["weights"])
        assert loaded["weights"].dtype == np.float32
        assert loaded["rng_state"] == state["rng_state"]
        assert loaded["nested"] == state["nested"]

    def test_save_overwrites_previous(self, ckpt):
        ckpt.save({"epoch": 1})
        ckpt.save({"epoch": 2})
        assert ckpt.load()["epoch"] == 2
        assert ckpt.saves == 2

    def test_no_temp_files_left_behind(self, ckpt, tmp_path):
        ckpt.save(sample_state())
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["run.ckpt", "run.ckpt.sha256"]

    def test_second_save_rotates_previous(self, ckpt, tmp_path):
        ckpt.save({"epoch": 1})
        ckpt.save({"epoch": 2})
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["run.ckpt", "run.ckpt.prev", "run.ckpt.prev.sha256",
             "run.ckpt.sha256"]

    def test_creates_parent_directories(self, tmp_path):
        nested = Checkpointer(tmp_path / "a" / "b" / "run.ckpt")
        nested.save({"epoch": 0})
        assert nested.exists()

    def test_exists_and_delete(self, ckpt):
        assert not ckpt.exists()
        ckpt.save({"epoch": 0})
        assert ckpt.exists()
        ckpt.delete()
        assert not ckpt.exists()
        ckpt.delete()  # idempotent


class TestCadence:
    def test_due_every_epoch_by_default(self, tmp_path):
        ckpt = Checkpointer(tmp_path / "c", every=1)
        assert all(ckpt.due(e) for e in range(5))

    def test_due_every_n(self, tmp_path):
        ckpt = Checkpointer(tmp_path / "c", every=3)
        assert [ckpt.due(e) for e in range(6)] == \
            [False, False, True, False, False, True]

    def test_invalid_cadence(self, tmp_path):
        with pytest.raises(CheckpointError):
            Checkpointer(tmp_path / "c", every=0)


class TestIntegrity:
    def test_missing_file(self, ckpt):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            ckpt.load()

    def test_bad_magic(self, ckpt):
        ckpt.path.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(CheckpointError, match="bad magic"):
            ckpt.load()

    def test_truncated_payload(self, ckpt):
        ckpt.save(sample_state())
        raw = ckpt.path.read_bytes()
        ckpt.path.write_bytes(raw[:-7])
        with pytest.raises(CheckpointError, match="truncated"):
            ckpt.load()

    def test_flipped_payload_byte(self, ckpt):
        ckpt.save(sample_state())
        raw = bytearray(ckpt.path.read_bytes())
        raw[-1] ^= 0xFF
        ckpt.path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="sha256"):
            ckpt.load()

    def test_corrupt_header(self, ckpt):
        ckpt.save(sample_state())
        raw = ckpt.path.read_bytes()
        magic_len = raw.find(b"\n") + 1
        corrupted = raw[:magic_len] + b"not json\n" + raw[magic_len:]
        ckpt.path.write_bytes(corrupted)
        with pytest.raises(CheckpointError):
            ckpt.load()

    @pytest.mark.parametrize("header", [b"[]", b"3", b"null", b'"s"'])
    def test_header_that_is_not_an_object(self, ckpt, header):
        """Valid JSON but no object: typed, so ``load_latest`` falls
        back to a good ``.prev``."""
        ckpt.save({"epoch": 1})
        ckpt.save({"epoch": 2})
        magic, _, rest = ckpt.path.read_bytes().partition(b"\n")
        _, _, payload = rest.partition(b"\n")
        ckpt.path.write_bytes(magic + b"\n" + header + b"\n" + payload)
        with pytest.raises(CheckpointIntegrityError,
                           match=f"{ckpt.path.name} has a corrupt header"):
            ckpt.load()
        assert ckpt.load_latest()["epoch"] == 1

    @pytest.mark.parametrize("version", [2, 0, "1", 1.0, True, None])
    def test_header_of_another_version(self, ckpt, version):
        """Only the version this reader wrote loads (``None``: no
        version at all); typed, so ``load_latest`` falls back to a good
        ``.prev``."""
        ckpt.save({"epoch": 1})
        ckpt.save({"epoch": 2})
        magic, _, rest = ckpt.path.read_bytes().partition(b"\n")
        header, _, payload = rest.partition(b"\n")
        fields = json.loads(header)
        if version is None:
            del fields["version"]
        else:
            fields["version"] = version
        ckpt.path.write_bytes(magic + b"\n" + json.dumps(fields).encode()
                              + b"\n" + payload)
        with pytest.raises(CheckpointIntegrityError,
                           match=f"{ckpt.path.name} has header version "
                                 f"{version!r}"):
            ckpt.load()
        assert ckpt.load_latest()["epoch"] == 1

    def test_checkpoint_error_is_repro_error(self):
        assert issubclass(CheckpointError, ReproError)
        assert issubclass(CheckpointIntegrityError, CheckpointError)


class TestSidecarCommit:
    """The checksum sidecar is written last and acts as the commit
    record; anything short of a fully-committed pair is rejected with a
    typed error and recovery falls back to the previous checkpoint."""

    def test_missing_sidecar_is_integrity_error(self, ckpt):
        ckpt.save(sample_state())
        ckpt.sidecar_path.unlink()
        with pytest.raises(CheckpointIntegrityError, match="sidecar"):
            ckpt.load()

    def test_truncated_sidecar_mid_write(self, ckpt):
        """Simulates dying halfway through the sidecar write: a partial
        digest must not pass verification."""
        ckpt.save(sample_state())
        raw = ckpt.sidecar_path.read_bytes()
        ckpt.sidecar_path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointIntegrityError, match="sidecar"):
            ckpt.load()

    def test_stale_sidecar_is_integrity_error(self, ckpt):
        ckpt.save({"epoch": 1})
        stale = ckpt.sidecar_path.read_bytes()
        ckpt.save({"epoch": 2})
        ckpt.sidecar_path.write_bytes(stale)
        with pytest.raises(CheckpointIntegrityError, match="sidecar"):
            ckpt.load()

    def test_load_latest_falls_back_to_previous(self, ckpt):
        ckpt.save({"epoch": 1})
        ckpt.save({"epoch": 2})
        # Kill the newest generation mid-commit: payload replaced but
        # sidecar never written.
        ckpt.sidecar_path.unlink()
        with pytest.raises(CheckpointIntegrityError):
            ckpt.load()
        assert ckpt.load_latest()["epoch"] == 1

    def test_load_latest_falls_back_when_the_rename_never_ran(
            self, ckpt, monkeypatch):
        """Die after the committed pair moved to ``.prev`` but before
        the new payload was renamed in: no current payload at all."""
        ckpt.save({"epoch": 1})
        real_replace = os.replace

        def replace(src, dst):
            if Path(dst) == ckpt.path:
                raise OSError("killed before the payload rename")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="payload rename"):
            ckpt.save({"epoch": 2})
        monkeypatch.undo()
        assert not ckpt.path.exists() and ckpt.previous_path.exists()
        with pytest.raises(CheckpointError, match="no checkpoint"):
            ckpt.load()
        assert ckpt.exists()
        assert ckpt.load_latest()["epoch"] == 1

    def test_load_latest_prefers_current_when_valid(self, ckpt):
        ckpt.save({"epoch": 1})
        ckpt.save({"epoch": 2})
        assert ckpt.load_latest()["epoch"] == 2

    def test_load_latest_without_fallback_reraises(self, ckpt):
        ckpt.save({"epoch": 1})
        ckpt.sidecar_path.unlink()
        with pytest.raises(CheckpointIntegrityError, match="sidecar"):
            ckpt.load_latest()

    def test_load_latest_with_bad_fallback_reraises_original(self,
                                                             ckpt):
        ckpt.save({"epoch": 1})
        ckpt.save({"epoch": 2})
        ckpt.sidecar_path.unlink()
        ckpt.previous_path.write_bytes(b"garbage")
        with pytest.raises(CheckpointIntegrityError, match="sidecar"):
            ckpt.load_latest()

    def test_delete_removes_sidecar_and_fallback(self, ckpt, tmp_path):
        ckpt.save({"epoch": 1})
        ckpt.save({"epoch": 2})
        ckpt.delete()
        assert list(tmp_path.iterdir()) == []
