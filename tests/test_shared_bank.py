"""Shared-memory / memmap array banks (:mod:`repro.parallel.shared_bank`).

Covers the owner/borrower refcount lifecycle (retire defers unlink
until the last borrower drops), attach-by-name from a process that did
*not* inherit the mapping, and the on-disk manifest format including
its validation errors.
"""

import json
import multiprocessing
import re

import numpy as np
import pytest

from repro.exceptions import ConfigError
from repro.parallel.shared_bank import (
    BANK_FORMAT_VERSION,
    AttachedBank,
    SharedArrayBank,
    attach_bank,
    bank_manifest,
    load_array_bank,
    save_array_bank,
)


@pytest.fixture
def arrays():
    return {
        "a": np.arange(12, dtype=np.float64).reshape(3, 4),
        "b": np.array([7, 8, 9], dtype=np.int32),
        "empty": np.zeros(0, dtype=np.int64),
    }


class TestSharedArrayBank:
    def test_roundtrip_through_handle(self, arrays):
        with SharedArrayBank(arrays, meta={"alpha": 0.2}) as bank:
            attached = attach_bank(bank.handle)
            for name, array in arrays.items():
                assert np.array_equal(attached.arrays[name], array)
                assert attached.arrays[name].dtype == array.dtype
            assert attached.meta == {"alpha": 0.2}
            attached.close()

    def test_views_are_read_only(self, arrays):
        with SharedArrayBank(arrays) as bank:
            with pytest.raises(ValueError):
                bank.arrays["a"][0, 0] = -1.0
            attached = attach_bank(bank.handle)
            with pytest.raises(ValueError):
                attached.arrays["b"][0] = -1
            attached.close()

    def test_handle_is_picklable_and_sized(self, arrays):
        import pickle

        with SharedArrayBank(arrays) as bank:
            handle = pickle.loads(pickle.dumps(bank.handle))
            assert handle == bank.handle
            expected = sum(a.nbytes for a in arrays.values())
            assert handle.nbytes == expected

    def test_empty_bank_rejected(self):
        with pytest.raises(ConfigError):
            SharedArrayBank({})

    def test_retire_defers_unlink_until_last_release(self, arrays):
        bank = SharedArrayBank(arrays)
        bank.acquire()
        bank.acquire()
        bank.retire()
        assert bank.retired and not bank.unlinked
        # borrowers can still attach-by-name while the bank lives
        attached = attach_bank(bank.handle)
        assert np.array_equal(attached.arrays["b"], arrays["b"])
        attached.close()
        bank.release()
        assert not bank.unlinked
        bank.release()
        assert bank.unlinked
        with pytest.raises(ConfigError):
            bank.acquire()

    def test_retire_with_no_borrowers_unlinks_now(self, arrays):
        bank = SharedArrayBank(arrays)
        bank.retire()
        assert bank.unlinked
        with pytest.raises(FileNotFoundError):
            AttachedBank(bank.handle)

    def test_close_is_idempotent(self, arrays):
        bank = SharedArrayBank(arrays)
        bank.close()
        bank.close()
        assert bank.unlinked


def _child_sum(handle, queue):
    attached = attach_bank(handle)
    queue.put(float(attached.arrays["a"].sum()))
    attached.close()


class TestCrossProcessAttach:
    def test_fresh_process_attaches_by_name(self, arrays):
        """A worker that forked *before* the bank existed can attach."""
        ctx = multiprocessing.get_context("fork")
        with SharedArrayBank(arrays) as bank:
            queue = ctx.Queue()
            child = ctx.Process(target=_child_sum,
                                args=(bank.handle, queue))
            child.start()
            try:
                assert queue.get(timeout=30) == arrays["a"].sum()
            finally:
                child.join(timeout=30)


class TestDiskFormat:
    def test_roundtrip(self, arrays, tmp_path):
        save_array_bank(tmp_path / "bank", arrays, meta={"n": 3})
        for mmap in (True, False):
            loaded, meta = load_array_bank(tmp_path / "bank", mmap=mmap)
            assert meta == {"n": 3}
            for name, array in arrays.items():
                assert np.array_equal(loaded[name], array)

    def test_mmap_default_is_lazy_readonly(self, arrays, tmp_path):
        save_array_bank(tmp_path / "bank", arrays)
        loaded, _ = load_array_bank(tmp_path / "bank")
        assert isinstance(loaded["a"], np.memmap)
        with pytest.raises(ValueError):
            loaded["a"][0, 0] = 0.0

    def test_manifest_reads_without_array_io(self, arrays, tmp_path):
        save_array_bank(tmp_path / "bank", arrays)
        manifest = bank_manifest(tmp_path / "bank")
        assert manifest["version"] == BANK_FORMAT_VERSION
        assert set(manifest["arrays"]) == set(arrays)
        assert manifest["arrays"]["a"]["dtype"] == "float64"

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not an array-bank"):
            bank_manifest(tmp_path)

    def test_newer_version_rejected(self, arrays, tmp_path):
        save_array_bank(tmp_path / "bank", arrays)
        manifest_path = tmp_path / "bank" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = BANK_FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match="newer"):
            load_array_bank(tmp_path / "bank")

    def test_member_shape_mismatch_rejected(self, arrays, tmp_path):
        save_array_bank(tmp_path / "bank", arrays)
        np.save(tmp_path / "bank" / "b.npy",
                np.zeros(99, dtype=np.int32))
        with pytest.raises(ConfigError, match="manifest entry"):
            load_array_bank(tmp_path / "bank")

    def test_bad_array_name_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            save_array_bank(tmp_path / "bank",
                            {"../escape": np.zeros(1)})


def _corrupt_not_json(bank):
    (bank / "manifest.json").write_text("{not json")


def _corrupt_not_object(bank):
    (bank / "manifest.json").write_text("[1]")


def _corrupt_version(bank):
    manifest = json.loads((bank / "manifest.json").read_text())
    manifest["version"] = "two"
    (bank / "manifest.json").write_text(json.dumps(manifest))


def _corrupt_arrays_table(bank):
    manifest = json.loads((bank / "manifest.json").read_text())
    manifest["arrays"]["a"] = {"shape": "3x4"}
    (bank / "manifest.json").write_text(json.dumps(manifest))


def _truncate_member(bank):
    member = bank / "a.npy"
    member.write_bytes(member.read_bytes()[:member.stat().st_size // 2])


def _delete_member(bank):
    (bank / "b.npy").unlink()


class TestCorruptBank:
    """Every damaged bank directory is one ConfigError naming its path."""

    @pytest.mark.parametrize("corrupt", [
        _corrupt_not_json, _corrupt_not_object, _corrupt_version,
        _corrupt_arrays_table, _truncate_member, _delete_member],
        ids=["manifest-not-json", "manifest-not-object",
             "version-not-integer", "arrays-table-malformed",
             "member-truncated", "member-missing"])
    @pytest.mark.parametrize("mmap", [True, False], ids=["mmap", "read"])
    def test_load_raises_config_error(self, arrays, tmp_path, corrupt,
                                      mmap):
        bank = tmp_path / "bank"
        save_array_bank(bank, arrays)
        corrupt(bank)
        with pytest.raises(ConfigError, match=re.escape(str(bank))):
            load_array_bank(bank, mmap=mmap)
