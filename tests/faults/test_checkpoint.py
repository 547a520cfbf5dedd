"""Unit tests for the two-slot, checksummed checkpointer."""

import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def split_record(raw):
    """``(magic, header fields, payload)`` of one slot's bytes."""
    magic, _, rest = raw.partition(b"\n")
    header, _, payload = rest.partition(b"\n")
    return magic, json.loads(header), payload


def dying_pwrite(monkeypatch):
    """Make the next save write half its record and die."""
    real = os.pwrite

    def pwrite(fd, data, offset):
        real(fd, data[:len(data) // 2], offset)
        raise OSError("killed mid-write")
    monkeypatch.setattr(os, "pwrite", pwrite)


class TestRoundTrip:
    def test_save_load_bit_identical(self, ckpt):
        state = sample_state()
        ckpt.save(state)
        loaded = ckpt.load_latest()
        assert loaded["epoch"] == 3
        assert np.array_equal(loaded["weights"], state["weights"])
        assert loaded["weights"].dtype == np.float32
        assert loaded["rng_state"] == state["rng_state"]
        assert loaded["nested"] == state["nested"]

    def test_save_overwrites_previous(self, ckpt):
        ckpt.save({"epoch": 1})
        ckpt.save({"epoch": 2})
        assert ckpt.load_latest()["epoch"] == 2
        assert ckpt.saves == 2

    def test_no_temp_files_left_behind(self, ckpt, tmp_path):
        ckpt.save(sample_state())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ckpt"]

    def test_second_save_rotates_previous(self, ckpt, tmp_path):
        """The slots alternate: the second save goes to the sibling and
        leaves the first in ``path``; the third overwrites ``path``."""
        ckpt.save({"epoch": 1})
        first = ckpt.path.read_bytes()
        ckpt.save({"epoch": 2})
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["run.ckpt", "run.ckpt.alt"]
        assert ckpt.path.read_bytes() == first
        assert split_record(ckpt.slots[1].read_bytes())[1]["generation"] \
            == 2
        ckpt.save({"epoch": 3})
        assert split_record(ckpt.path.read_bytes())[1]["generation"] == 3
        assert ckpt.load_latest()["epoch"] == 3

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
            ckpt.load_latest()

    def test_bad_magic(self, ckpt):
        ckpt.path.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(CheckpointIntegrityError, match="bad magic"):
            ckpt.load_latest()

    def test_truncated_payload(self, ckpt):
        ckpt.save(sample_state())
        raw = ckpt.path.read_bytes()
        ckpt.path.write_bytes(raw[:-7])
        with pytest.raises(CheckpointIntegrityError, match="truncated"):
            ckpt.load_latest()

    def test_flipped_payload_byte(self, ckpt):
        ckpt.save(sample_state())
        raw = bytearray(ckpt.path.read_bytes())
        raw[-1] ^= 0xFF
        ckpt.path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointIntegrityError, match="sha256"):
            ckpt.load_latest()

    def test_corrupt_header(self, ckpt):
        ckpt.save(sample_state())
        raw = ckpt.path.read_bytes()
        magic_len = raw.find(b"\n") + 1
        corrupted = raw[:magic_len] + b"not json\n" + raw[magic_len:]
        ckpt.path.write_bytes(corrupted)
        with pytest.raises(CheckpointIntegrityError):
            ckpt.load_latest()

    @pytest.mark.parametrize("header", [b"[]", b"3", b"null", b'"s"'])
    def test_header_that_is_not_an_object(self, ckpt, header):
        """Valid JSON but no object: typed, so ``load_latest`` falls
        back to the other slot's previous save."""
        ckpt.save({"epoch": 1})
        ckpt.save({"epoch": 2})
        newest = ckpt.slots[1]
        magic, _, payload = split_record(newest.read_bytes())
        newest.write_bytes(magic + b"\n" + header + b"\n" + payload)
        assert ckpt.load_latest()["epoch"] == 1
        ckpt.path.unlink()
        with pytest.raises(CheckpointIntegrityError,
                           match=f"{newest.name} has a corrupt header"):
            ckpt.load_latest()

    @pytest.mark.parametrize("version", [2, 0, "1", 1.0, True, None])
    def test_header_of_another_version(self, ckpt, version):
        """Only the version this reader wrote loads (``None``: no
        version at all); typed, so ``load_latest`` falls back to the
        other slot's previous save."""
        ckpt.save({"epoch": 1})
        ckpt.save({"epoch": 2})
        newest = ckpt.slots[1]
        magic, fields, payload = split_record(newest.read_bytes())
        if version is None:
            del fields["version"]
        else:
            fields["version"] = version
        newest.write_bytes(magic + b"\n" + json.dumps(fields).encode()
                           + b"\n" + payload)
        assert ckpt.load_latest()["epoch"] == 1
        ckpt.path.unlink()
        with pytest.raises(CheckpointIntegrityError,
                           match=f"{newest.name} has header version "
                                 f"{version!r}"):
            ckpt.load_latest()

    @pytest.mark.parametrize("generation", ["2", 2.0, True, None])
    def test_header_without_an_int_generation(self, ckpt, generation):
        """The slot order is read from the generation, so a header
        without an int one is corrupt (``None``: no generation)."""
        ckpt.save({"epoch": 1})
        ckpt.save({"epoch": 2})
        newest = ckpt.slots[1]
        magic, fields, payload = split_record(newest.read_bytes())
        if generation is None:
            del fields["generation"]
        else:
            fields["generation"] = generation
        newest.write_bytes(magic + b"\n" + json.dumps(fields).encode()
                           + b"\n" + payload)
        assert ckpt.load_latest()["epoch"] == 1
        ckpt.path.unlink()
        with pytest.raises(CheckpointIntegrityError,
                           match=f"{newest.name} has a corrupt header"):
            ckpt.load_latest()

    def test_checkpoint_error_is_repro_error(self):
        assert issubclass(CheckpointError, ReproError)
        assert issubclass(CheckpointIntegrityError, CheckpointError)


class TestSidecarCommit:
    """The commit record (named for the checksum sidecar that held it):
    each slot's header, with the generation, the payload length and a
    SHA-256 over both, written with the payload in one in-place write.
    Anything short of a fully written record is a typed error, and
    recovery falls back to the other slot."""

    def test_missing_sidecar_is_integrity_error(self, ckpt):
        """A save that died after its header, before any payload byte:
        the header announces bytes that never landed."""
        ckpt.save(sample_state())
        raw = ckpt.path.read_bytes()
        ckpt.path.write_bytes(raw[:raw.index(b"}\n") + 2])
        with pytest.raises(CheckpointIntegrityError, match="truncated"):
            ckpt.load_latest()

    def test_truncated_sidecar_mid_write(self, ckpt):
        """Simulates dying halfway through the header write: a partial
        commit record must not pass verification."""
        ckpt.save(sample_state())
        raw = ckpt.path.read_bytes()
        ckpt.path.write_bytes(raw[:raw.index(b"}\n") // 2])
        with pytest.raises(CheckpointIntegrityError, match="no header"):
            ckpt.load_latest()

    def test_stale_sidecar_is_integrity_error(self, ckpt):
        """A header of another generation over a slot's payload."""
        ckpt.save({"epoch": 1})
        stale = split_record(ckpt.path.read_bytes())[1]
        ckpt.save({"epoch": 2})
        ckpt.save({"epoch": 3})
        magic, _, payload = split_record(ckpt.path.read_bytes())
        ckpt.path.write_bytes(magic + b"\n" + json.dumps(stale).encode()
                              + b"\n" + payload)
        assert ckpt.load_latest()["epoch"] == 2
        ckpt.slots[1].unlink()
        with pytest.raises(CheckpointIntegrityError, match="sha256"):
            ckpt.load_latest()

    def test_load_latest_falls_back_to_previous(self, ckpt):
        ckpt.save({"epoch": 1})
        ckpt.save({"epoch": 2})
        # Kill the newest generation mid-write: its payload is cut.
        newest = ckpt.slots[1]
        newest.write_bytes(newest.read_bytes()[:-5])
        assert ckpt.load_latest()["epoch"] == 1
        newest.unlink()
        ckpt.path.unlink()
        with pytest.raises(CheckpointError, match="no checkpoint"):
            ckpt.load_latest()

    def test_load_latest_falls_back_when_the_rename_never_ran(
            self, ckpt, monkeypatch):
        """Die halfway through the in-place write: the slot being
        written is torn, the other one untouched.  The same
        checkpointer's next save writes the torn slot again."""
        ckpt.save({"epoch": 1})
        first = ckpt.path.read_bytes()
        with monkeypatch.context() as patch:
            dying_pwrite(patch)
            with pytest.raises(OSError, match="killed mid-write"):
                ckpt.save({"epoch": 2})
        assert ckpt.path.read_bytes() == first
        assert ckpt.slots[1].exists() and ckpt.exists()
        assert ckpt.saves == 1
        assert Checkpointer(ckpt.path).load_latest()["epoch"] == 1
        ckpt.save({"epoch": 2})
        assert ckpt.path.read_bytes() == first
        assert ckpt.load_latest()["epoch"] == 2

    def test_load_latest_prefers_current_when_valid(self, ckpt):
        ckpt.save({"epoch": 1})
        ckpt.save({"epoch": 2})
        assert ckpt.load_latest()["epoch"] == 2
        ckpt.save({"epoch": 3})
        assert ckpt.load_latest()["epoch"] == 3

    def test_load_latest_without_fallback_reraises(self, ckpt):
        ckpt.save({"epoch": 1})
        raw = bytearray(ckpt.path.read_bytes())
        raw[-1] ^= 0x01
        ckpt.path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointIntegrityError, match="sha256"):
            ckpt.load_latest()

    def test_load_latest_with_bad_fallback_reraises_original(self,
                                                             ckpt):
        """Neither slot verifies: the newest one's error, not the
        fallback's."""
        ckpt.save({"epoch": 1})
        ckpt.save({"epoch": 2})
        newest = ckpt.slots[1]
        newest.write_bytes(newest.read_bytes()[:-3])
        ckpt.path.write_bytes(b"garbage")
        with pytest.raises(CheckpointIntegrityError,
                           match=f"{newest.name} is truncated"):
            ckpt.load_latest()

    def test_delete_removes_sidecar_and_fallback(self, ckpt, tmp_path):
        ckpt.save({"epoch": 1})
        ckpt.save({"epoch": 2})
        ckpt.delete()
        assert list(tmp_path.iterdir()) == []
        ckpt.save({"epoch": 3})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ckpt"]


class TestTwoSlotCommit:
    """The crash-safety properties of the in-place commit."""

    def test_save_returns_after_its_bytes_are_fsynced(self, ckpt,
                                                      monkeypatch):
        ckpt.save({"epoch": 1})
        calls = []
        with monkeypatch.context() as patch:
            for name in ("open", "pwrite", "ftruncate", "fsync",
                         "close"):
                def traced(*args, _name=name, _real=getattr(os, name)):
                    result = _real(*args)
                    calls.append((_name, result if _name == "open"
                                  else args[0], args))
                    return result
                patch.setattr(os, name, traced)
            ckpt.save(sample_state())
        assert [name for name, _, _ in calls] == \
            ["open", "pwrite", "ftruncate", "fsync", "close"]
        assert len({fd for _, fd, _ in calls}) == 1
        written = calls[1][2][1]
        assert ckpt.slots[1].read_bytes() == bytes(written)
        assert calls[2][2][1] == len(written)

    @pytest.mark.parametrize("sizes", [(300, 40), (40, 300)])
    def test_every_prefix_of_a_save_loads_a_committed_state(
            self, ckpt, sizes):
        """Over every byte of a save's write, with the slot's old
        bytes or zeros beyond it (or nothing, once ``ftruncate`` ran):
        the previous state or, once the write landed whole, the new
        one."""
        old_size, new_size = sizes
        ckpt.save({"blob": b"o" * old_size})
        old = ckpt.path.read_bytes()
        ckpt.save({"blob": b"p"})
        ckpt.save({"blob": b"n" * new_size})
        new = ckpt.path.read_bytes()
        loaded = set()
        for cut in range(len(new) + 1):
            rests = [old[cut:], bytes(max(len(old) - cut, 0))]
            if cut == len(new):
                rests.append(b"")
            for rest in rests:
                ckpt.path.write_bytes(new[:cut] + rest)
                state = Checkpointer(ckpt.path).load_latest()
                assert state["blob"] in (b"p", b"n" * new_size), cut
                loaded.add(state["blob"])
        assert loaded == {b"p", b"n" * new_size}

    def test_a_fresh_checkpointer_never_overwrites_the_only_valid_slot(
            self, ckpt, monkeypatch):
        """The newest header parses (generation 2) but its payload is
        torn: the save must go to that slot, not over ``path``, the
        only slot that verifies, or dying in it would lose both."""
        ckpt.save({"epoch": 1})
        ckpt.save({"epoch": 2})
        newest = ckpt.slots[1]
        newest.write_bytes(newest.read_bytes()[:-7])
        intact = ckpt.path.read_bytes()
        fresh = Checkpointer(ckpt.path)
        with monkeypatch.context() as patch:
            dying_pwrite(patch)
            with pytest.raises(OSError, match="killed mid-write"):
                fresh.save({"epoch": 3})
        assert ckpt.path.read_bytes() == intact
        assert Checkpointer(ckpt.path).load_latest()["epoch"] == 1
        fresh.save({"epoch": 3})
        assert ckpt.path.read_bytes() == intact
        assert Checkpointer(ckpt.path).load_latest()["epoch"] == 3

    def test_load_latest_relearns_the_newest_slot(self, ckpt):
        """A slot torn behind a checkpointer's back: once its
        ``load_latest`` fell back, its next save keeps the fallback."""
        ckpt.save({"epoch": 1})
        ckpt.save({"epoch": 2})
        ckpt.slots[1].write_bytes(ckpt.slots[1].read_bytes()[:-7])
        assert ckpt.load_latest()["epoch"] == 1
        intact = ckpt.path.read_bytes()
        ckpt.save({"epoch": 3})
        assert ckpt.path.read_bytes() == intact
        assert ckpt.load_latest()["epoch"] == 3

    def test_path_is_a_file_after_every_save(self, ckpt):
        for epoch in range(4):
            ckpt.save({"epoch": epoch})
            assert ckpt.path.is_file()
        ckpt.path.unlink()  # only the sibling's epoch 3 is left
        fresh = Checkpointer(ckpt.path)
        assert fresh.load_latest()["epoch"] == 3
        fresh.save({"epoch": 4})
        assert ckpt.path.is_file()
        assert Checkpointer(ckpt.path).load_latest()["epoch"] == 4


@pytest.fixture(scope="module")
def slot_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("slots")


BLOB = st.binary(max_size=200)


@settings(max_examples=200, deadline=None)
@example(older=b"x" * 150, previous=b"", new=b"", cut=10 ** 6,
         flips=[])
@example(older=b"", previous=b"", new=b"x" * 150, cut=10 ** 6,
         flips=[])
@example(older=b"", previous=b"", new=b"", cut=49, flips=[])
@given(older=BLOB, previous=BLOB, new=BLOB,
       cut=st.integers(0, 1 << 16),
       flips=st.lists(st.tuples(st.integers(0, 1 << 16),
                                st.integers(1, 255)), max_size=8))
def test_a_torn_or_flipped_slot_loads_a_committed_state(
        slot_dir, older, previous, new, cut, flips):
    """From two committed saves, the third save's slot is left as any
    prefix of its new record over the old bytes, then any bytes of it
    are flipped: ``load_latest`` returns the previous state or the new
    one, and never raises."""
    ckpt = Checkpointer(slot_dir / "run.ckpt")
    ckpt.delete()
    ckpt.save({"blob": older})
    old = ckpt.path.read_bytes()
    ckpt.save({"blob": previous})
    ckpt.save({"blob": new})
    record = ckpt.path.read_bytes()
    cut %= len(record) + 1
    torn = bytearray(record[:cut] + old[cut:])
    for position, mask in flips:
        torn[position % len(torn)] ^= mask
    ckpt.path.write_bytes(bytes(torn))
    assert Checkpointer(ckpt.path).load_latest()["blob"] in (previous, new)
