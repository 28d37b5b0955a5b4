"""Bank layout: node-id rows, float64 or float32 values, and the
readers of older formats.

The layout contract this file pins down:

- ``bank_dtype="float32"`` halves the dominant bank bytes and keeps
  answers within the documented error bound;
- v1/v2 banks (no layout metadata) still load, as node-id rows and
  float64, and a v3 bank, with the arrays v4 no longer writes, folds
  as its v4 twin;
- a bank whose rows were relabeled (``node_order`` other than
  ``"none"``) is refused with a :class:`ConfigError` naming the
  rebuild command.
"""

import json

import numpy as np
import pytest

from repro.exceptions import ConfigError
from repro.graph.generators import chung_lu
from repro.montecarlo.forest_index import BANK_DTYPES, ForestIndex
from repro.parallel.shared_bank import BANK_FORMAT_VERSION, save_array_bank

ALPHA = 0.2


@pytest.fixture(scope="module")
def graph():
    # skewed degrees, plus (typically) a few isolated nodes to exercise
    # the degree-0 fixup
    degrees = 1.0 + 7.0 * (np.arange(60) % 11) / 10.0
    return chung_lu(degrees, rng=11)


@pytest.fixture(scope="module")
def index(graph):
    return ForestIndex.build(graph, ALPHA, 6, rng=11)


@pytest.fixture(scope="module")
def residuals(graph):
    rng = np.random.default_rng(3)
    batch = rng.random((4, graph.num_nodes))
    return batch / batch.sum(axis=1, keepdims=True)


def save_relabeled(arrays, meta, path, *, with_array=True,
                   order="degree"):
    """Write ``arrays``/``meta`` as a bank with relabeled rows, the
    layout older builds wrote (a permutation array plus its kind)."""
    arrays = dict(arrays)
    if with_array:
        arrays["node_order"] = np.arange(meta["num_nodes"])[::-1]
    save_array_bank(path, arrays, dict(meta, node_order=order))


def _reload(index, tmp_path, **bank_kwargs):
    index.save_bank(tmp_path / "bank", **bank_kwargs)
    return ForestIndex.load_bank(tmp_path / "bank", index.graph)


class TestRelabeledBankRefused:
    """Banks written with relabeled rows (``node_order`` other than
    ``"none"``, plus a permutation array) are refused, not served."""

    @pytest.mark.parametrize("with_array,order", [
        (True, "degree"), (True, "bfs"), (False, "degree"),
        (True, "none")])
    def test_load_bank_refuses_relabeled_rows(self, index, tmp_path,
                                              with_array, order):
        path = tmp_path / "relabeled"
        save_relabeled(*index.bank_arrays(), path, with_array=with_array,
                       order=order)
        with pytest.raises(ConfigError,
                           match="relabeled.*repro index build"):
            ForestIndex.load_bank(path, index.graph)

    def test_manifest_keeps_the_identity_key(self, index):
        arrays, meta = index.bank_arrays()
        assert meta["node_order"] == "none"
        assert "node_order" not in arrays


class TestFloat32Bank:
    def test_answers_stay_within_the_documented_bound(self, index,
                                                      residuals,
                                                      tmp_path):
        compact = _reload(index, tmp_path, bank_dtype="float32")
        assert compact.bank_dtype == "float32"
        exact = index.estimate_source_many(residuals)
        rounded = compact.estimate_source_many(residuals)
        # float32 operator entries: per-query L1 error stays far below
        # any epsilon a query would request (documented in SERVING.md)
        assert np.abs(exact - rounded).sum(axis=1).max() < 1e-4
        assert np.allclose(exact, rounded, rtol=1e-4, atol=1e-6)

    def test_value_and_index_arrays_are_narrowed(self, index, tmp_path):
        compact = _reload(index, tmp_path, bank_dtype="float32")
        ops = compact._operators
        assert ops.spread_source.data.dtype == np.float32
        assert ops.spread_source.indices.dtype == np.int32
        assert ops.tree_sum.data.dtype == np.float32
        # bookkeeping arrays keep their native dtype
        assert ops.segment_root.dtype != np.float32

    def test_serialized_bytes_shrink(self, index):
        full = index.bank_nbytes()
        half = index.bank_nbytes(bank_dtype="float32")
        assert half < 0.75 * full
        # the lazy size matches an actual cast serialization
        arrays, _ = index.bank_arrays(bank_dtype="float32")
        assert half == sum(a.nbytes for a in arrays.values())

    def test_unknown_dtype_raises(self, index):
        with pytest.raises(ConfigError, match="bank_dtype"):
            index.bank_arrays(bank_dtype="float16")
        with pytest.raises(ConfigError, match="bank_dtype"):
            index.bank_nbytes(bank_dtype="float16")

    def test_dtype_constants_are_closed(self):
        assert BANK_DTYPES == ("float64", "float32")


class TestBackCompat:
    """Older banks keep loading: pre-v3 ones carry no layout metadata,
    v3 ones two more operators and a second copy of Q's pattern."""

    def _save_as_version(self, index, path, version):
        index.save_bank(path)
        manifest_path = path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = version
        for key in ("bank_dtype", "node_order", "variance_mode"):
            manifest["meta"].pop(key, None)
        manifest_path.write_text(json.dumps(manifest))

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_banks_load_with_identity_defaults(self, index, residuals,
                                                   tmp_path, version):
        path = tmp_path / f"bank_v{version}"
        self._save_as_version(index, path, version)
        loaded = ForestIndex.load_bank(path, index.graph)
        assert loaded.bank_dtype == "float64"
        assert loaded.variance_mode == "improved"
        assert np.array_equal(index.estimate_source_many(residuals),
                              loaded.estimate_source_many(residuals))

    def test_v3_layout_attaches_and_folds_as_v4(self, index, residuals,
                                                tmp_path):
        """A v3 bank also stored the basic folds' two root operators
        and spread_target's own copy of Q's pattern; those are ignored,
        and every improved fold is byte-equal to the v4 bank's, whole
        and restricted."""
        from tests.bank_operators_oracle import (root_operators,
                                                 serial_bank_forests)

        arrays, meta = index.bank_arrays()
        forests = serial_bank_forests(index.graph, ALPHA, 6, 11)
        operators = dict(zip(("scatter_root", "gather_root"),
                             root_operators(forests, index.graph.num_nodes)))
        arrays = dict(arrays,
                      spread_target_indptr=arrays["spread_source_indptr"],
                      spread_target_indices=arrays["spread_source_indices"])
        for name, matrix in operators.items():
            for part in ("indptr", "indices", "data"):
                arrays[f"{name}_{part}"] = getattr(matrix, part)
        path = tmp_path / "bank_v3"
        save_array_bank(path, arrays, meta)
        manifest_path = path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = 3
        manifest_path.write_text(json.dumps(manifest))
        assert len(manifest["arrays"]) == 18

        loaded = ForestIndex.load_bank(path, index.graph)
        owned = np.arange(0, index.graph.num_nodes, 2)
        entries = owned[[0, 5, 9, 17]]
        for new, old in ((index, loaded),
                         (index.restrict(owned), loaded.restrict(owned))):
            assert new.estimate_source_many(residuals).tobytes() == \
                old.estimate_source_many(residuals).tobytes()
            assert new.estimate_target_many(residuals).tobytes() == \
                old.estimate_target_many(residuals).tobytes()
            assert new.estimate_target_entries(
                residuals, entries).tobytes() == \
                old.estimate_target_entries(residuals, entries).tobytes()

    def test_newer_bank_is_refused(self, index, tmp_path):
        path = tmp_path / "bank_future"
        self._save_as_version(index, path, BANK_FORMAT_VERSION + 1)
        with pytest.raises(ConfigError, match="newer"):
            ForestIndex.load_bank(path, index.graph)
