r"""General named-array banks: shared memory and memmap carriers.

The forest-sampling engine's pool workers are forked, so they simply
inherit the graph they read.  The serving tier has to hand worker
processes large read-only NumPy arrays without pickling them, in the
general form:

- **any** named collection of arrays (a forest bank's stacked roots,
  the three ``_BankOperators`` CSR operators, a graph's CSR triplet),
- attachable **by name** from a process that did *not* inherit the
  mapping (the query executor's long-lived workers outlive index
  refreshes, so they must be able to attach to segments created after
  they forked),
- with a **deferred-unlink** lifecycle: an atomic index swap must not
  unlink segments a worker still borrows — retirement is requested by
  the owner but honoured only after the last borrower drops,
- plus an **uncompressed on-disk twin** (one ``.npy`` per array and a
  JSON manifest) that :func:`numpy.load` can memory-map, so attaching
  to a multi-hundred-MB bank costs O(1) page-table work, not a copy.

Three cooperating pieces:

:class:`SharedArrayBank`
    Owner side.  Copies arrays into POSIX shared memory once and
    exposes a picklable :class:`BankHandle`.
:func:`attach_bank` / :class:`AttachedBank`
    Borrower side.  Maps the named segments read-only in O(1).
:func:`save_array_bank` / :func:`load_array_bank`
    The memmap-able directory format (``manifest.json`` +
    ``<name>.npy``), shared by ``ForestIndex.save_bank`` and the
    ``repro index`` CLI.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.exceptions import ConfigError

__all__ = [
    "BankHandle",
    "SharedArrayBank",
    "AttachedBank",
    "attach_bank",
    "save_array_bank",
    "load_array_bank",
    "bank_manifest",
]

#: On-disk manifest schema version (bump on incompatible changes).
#: v2 adds optional shard metadata to forest banks (a ``local_nodes``
#: array plus ``shard_*`` meta keys).  v3 adds the ``bank_dtype`` /
#: ``node_order`` / ``variance_mode`` meta keys, with operator values
#: optionally stored as float32/int32.  ``node_order`` is always
#: ``"none"``: a v3 bank written with relabeled rows (a
#: ``node_order`` array) is refused on attach.  v4 stores three fold
#: operators over one pattern (``spread_target`` keeps only its
#: values) and drops the two root operators; a v4 bank is therefore
#: unreadable to a v3 reader, which this version number makes it
#: refuse.  Every change is otherwise additive — readers default
#: missing keys to node-id rows and float64 and ignore the arrays v4
#: no longer reads — so v1–v3 banks stay readable;
#: :func:`bank_manifest` rejects only versions *newer* than this.
BANK_FORMAT_VERSION = 4

_MANIFEST = "manifest.json"


@dataclass(frozen=True)
class BankHandle:
    """Picklable description of a shared bank: segment names + layout.

    ``segments`` maps array name → ``(shm_name, shape, dtype_str)``;
    ``meta`` carries the owner's JSON-safe metadata.  A handle is all a
    worker needs to :func:`attach_bank` — no array bytes travel with
    the task that carries it.
    """

    segments: tuple[tuple[str, str, tuple[int, ...], str], ...]
    meta: tuple[tuple[str, object], ...]

    @property
    def meta_dict(self) -> dict:
        return dict(self.meta)

    @property
    def nbytes(self) -> int:
        """Total payload bytes described by the handle."""
        total = 0
        for _, _, shape, dtype in self.segments:
            total += int(np.dtype(dtype).itemsize * int(np.prod(shape)))
        return total


def _freeze_meta(meta: dict | None) -> tuple[tuple[str, object], ...]:
    return tuple(sorted((meta or {}).items()))


class SharedArrayBank:
    """Named read-only arrays in POSIX shared memory (owner side).

    The owner copies each array into its own segment exactly once;
    borrowers attach by name through the :attr:`handle`.  Lifecycle is
    refcounted so an index swap can *retire* the bank — requesting
    unlink — without yanking pages from under in-flight borrowers:

    - :meth:`acquire` / :meth:`release` bracket every dispatch that
      references the bank's segments;
    - :meth:`retire` marks the bank for unlink, which happens
      immediately if no borrower holds it and otherwise on the last
      :meth:`release`;
    - :meth:`close` force-unlinks (shutdown path).

    POSIX semantics keep already-attached mappings valid after the
    unlink, so retirement only ever affects *future* attaches — which
    is exactly the atomic-swap contract the index manager needs.
    """

    def __init__(self, arrays: dict[str, np.ndarray],
                 meta: dict | None = None):
        if not arrays:
            raise ConfigError("a shared bank needs at least one array")
        self._lock = threading.Lock()
        self._borrowers = 0
        self._retired = False
        self._unlinked = False
        self._blocks: list[shared_memory.SharedMemory] = []
        self.arrays: dict[str, np.ndarray] = {}
        segments = []
        try:
            for name, array in arrays.items():
                array = np.ascontiguousarray(array)
                block = _create_segment(max(array.nbytes, 1))
                view = np.ndarray(array.shape, dtype=array.dtype,
                                  buffer=block.buf)
                view[...] = array
                view.flags.writeable = False
                self._blocks.append(block)
                self.arrays[name] = view
                segments.append((name, block.name, tuple(array.shape),
                                 str(array.dtype)))
        except Exception:
            self.close()
            raise
        self.handle = BankHandle(segments=tuple(segments),
                                 meta=_freeze_meta(meta))
        self.meta = dict(meta or {})

    # -- borrower accounting -------------------------------------------
    def acquire(self) -> "SharedArrayBank":
        """Register one borrower; refuse if the bank is already gone."""
        with self._lock:
            if self._unlinked:
                raise ConfigError("shared bank has been unlinked")
            self._borrowers += 1
            return self

    def release(self) -> None:
        """Drop one borrower; unlink now if retired and last out."""
        with self._lock:
            self._borrowers = max(self._borrowers - 1, 0)
            ready = self._retired and self._borrowers == 0
        if ready:
            self._unlink()

    def retire(self) -> None:
        """Request unlink — honoured after the last borrower drops."""
        with self._lock:
            self._retired = True
            ready = self._borrowers == 0
        if ready:
            self._unlink()

    @property
    def borrowers(self) -> int:
        with self._lock:
            return self._borrowers

    @property
    def retired(self) -> bool:
        with self._lock:
            return self._retired

    @property
    def unlinked(self) -> bool:
        with self._lock:
            return self._unlinked

    # -- teardown ------------------------------------------------------
    def _unlink(self) -> None:
        with self._lock:
            if self._unlinked:
                return
            self._unlinked = True
        self.arrays = {}
        for block in self._blocks:
            try:
                block.unlink()
            except (FileNotFoundError, OSError):
                pass
            try:
                block.close()
            except BufferError:
                # a live view pins the buffer; the segment is unlinked,
                # so it vanishes once those references die
                pass
        self._blocks = []

    def close(self) -> None:
        """Force-unlink every segment regardless of borrowers."""
        self._unlink()

    def __enter__(self) -> "SharedArrayBank":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):
        try:
            self._unlink()
        except Exception:
            pass


#: ``SharedMemory(track=...)`` exists from Python 3.13; before that the
#: only way to attach untracked is to suppress ``register`` while the
#: attach runs.
_HAS_TRACK = sys.version_info >= (3, 13)

#: Pre-3.13 only: serializes every ``SharedMemory`` construction in
#: this process — attaches (which suppress ``register``) AND creates
#: (which must NOT land inside an attacher's suppression window, or the
#: new segment is never registered and a crash leaks it in
#: ``/dev/shm``).  Creators in *other* processes see their own
#: ``resource_tracker.register`` and are unaffected.
_tracker_lock = threading.Lock()


def _create_segment(size: int) -> shared_memory.SharedMemory:
    """Create a tracked segment, safe against concurrent attachers."""
    if _HAS_TRACK:
        return shared_memory.SharedMemory(create=True, size=size)
    with _tracker_lock:
        return shared_memory.SharedMemory(create=True, size=size)


def _attach_untracked(shm_name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker tracking.

    Attaching must not register the segment as if the attacher owned
    it: a forked worker shares the owner's tracker process, so *any*
    dereg/unlink pairing double-books the one cache entry, and an
    unrelated attacher's tracker tries to unlink the owner's segment
    at exit.  On 3.13+ ``track=False`` says exactly that; before,
    suppress the registration at its source, under the same lock
    creators take so no concurrent create goes unregistered.
    """
    if _HAS_TRACK:
        return shared_memory.SharedMemory(name=shm_name, track=False)
    with _tracker_lock:
        original = resource_tracker.register
        resource_tracker.register = lambda name, rtype: None
        try:
            return shared_memory.SharedMemory(name=shm_name)
        finally:
            resource_tracker.register = original


class AttachedBank:
    """Borrower-side view of a :class:`SharedArrayBank` (O(1) attach).

    Holds the :class:`multiprocessing.shared_memory.SharedMemory`
    objects alive for as long as the NumPy views are used; never
    unlinks (the owner does that).
    """

    def __init__(self, handle: BankHandle):
        self.handle = handle
        self.meta = handle.meta_dict
        self._blocks: list[shared_memory.SharedMemory] = []
        self.arrays: dict[str, np.ndarray] = {}
        try:
            for name, shm_name, shape, dtype in handle.segments:
                block = _attach_untracked(shm_name)
                view = np.ndarray(shape, dtype=np.dtype(dtype),
                                  buffer=block.buf)
                view.flags.writeable = False
                self._blocks.append(block)
                self.arrays[name] = view
        except Exception:
            self.close()
            raise

    def close(self) -> None:
        """Drop the mapping (idempotent; never unlinks)."""
        self.arrays = {}
        for block in self._blocks:
            try:
                block.close()
            except BufferError:
                pass
        self._blocks = []

    def __enter__(self) -> "AttachedBank":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass


def attach_bank(handle: BankHandle) -> AttachedBank:
    """Attach to the named segments of ``handle`` (borrower side)."""
    return AttachedBank(handle)


# ----------------------------------------------------------------------
# Memmap-able on-disk format
# ----------------------------------------------------------------------
def save_array_bank(path: str | os.PathLike, arrays: dict[str, np.ndarray],
                    meta: dict | None = None) -> None:
    """Write ``arrays`` as an uncompressed, memmap-able bank directory.

    Layout: ``<path>/manifest.json`` plus one plain ``.npy`` file per
    array.  Unlike ``savez_compressed``, a reader can
    ``np.load(..., mmap_mode="r")`` each member, so attaching costs
    O(1) regardless of bank size.
    """
    path = os.fspath(path)
    os.makedirs(path, exist_ok=True)
    manifest = {
        "format": "repro-array-bank",
        "version": BANK_FORMAT_VERSION,
        "meta": dict(meta or {}),
        "arrays": {},
    }
    for name, array in arrays.items():
        if "/" in name or name.startswith("."):
            raise ConfigError(f"bad array name {name!r}")
        array = np.ascontiguousarray(array)
        np.save(os.path.join(path, f"{name}.npy"), array)
        manifest["arrays"][name] = {
            "shape": list(array.shape),
            "dtype": str(array.dtype),
            "nbytes": int(array.nbytes),
        }
    with open(os.path.join(path, _MANIFEST), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def bank_manifest(path: str | os.PathLike) -> dict:
    """Read and validate a bank directory's manifest (no array I/O).

    A damaged manifest — unreadable, not JSON, not an object, a
    non-integer ``version``, a malformed ``arrays`` table — raises one
    :class:`~repro.exceptions.ConfigError` naming the file.
    """
    manifest_path = os.path.join(os.fspath(path), _MANIFEST)
    if not os.path.exists(manifest_path):
        raise ConfigError(f"{os.fspath(path)!r} is not an array-bank "
                          f"directory (no {_MANIFEST})")
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as error:
        raise ConfigError(
            f"cannot read bank manifest {manifest_path!r}: {error}") from error
    if (not isinstance(manifest, dict)
            or manifest.get("format") != "repro-array-bank"):
        raise ConfigError(f"{manifest_path!r} is not an array-bank manifest")
    version = manifest.get("version", 0)
    if isinstance(version, bool) or not isinstance(version, int):
        raise ConfigError(f"{manifest_path!r} has a non-integer format "
                          f"version {version!r}")
    if version > BANK_FORMAT_VERSION:
        raise ConfigError(
            f"{manifest_path!r}: bank format version {version} is newer "
            f"than this library supports ({BANK_FORMAT_VERSION})")
    arrays = manifest.get("arrays")
    if (not isinstance(arrays, dict)
            or not isinstance(manifest.get("meta", {}), dict)
            or not all(_valid_entry(name, spec)
                       for name, spec in arrays.items())):
        raise ConfigError(
            f"{manifest_path!r} has a malformed arrays or meta table")
    return manifest


def _valid_entry(name: str, spec) -> bool:
    """Whether an ``arrays`` entry is a safe member name with a
    shape/dtype/nbytes record."""
    return (not ("/" in name or name.startswith("."))
            and isinstance(spec, dict)
            and isinstance(spec.get("shape"), list)
            and all(isinstance(dim, int) for dim in spec["shape"])
            and isinstance(spec.get("dtype"), str)
            and isinstance(spec.get("nbytes"), int))


def load_array_bank(path: str | os.PathLike, *, mmap: bool = True,
                    ) -> tuple[dict[str, np.ndarray], dict]:
    """Load a bank directory; returns ``(arrays, meta)``.

    With ``mmap=True`` (default) every array is an O(1) read-only
    memory map; pages fault in lazily as queries touch them.
    """
    path = os.fspath(path)
    manifest = bank_manifest(path)
    arrays: dict[str, np.ndarray] = {}
    for name, spec in manifest["arrays"].items():
        member = os.path.join(path, f"{name}.npy")
        try:
            array = np.load(member, mmap_mode="r" if mmap else None)
        except (OSError, ValueError, EOFError) as error:
            raise ConfigError(
                f"cannot read bank member {member!r}: {error}") from error
        if (not isinstance(array, np.ndarray)
                or list(array.shape) != spec["shape"]
                or str(array.dtype) != spec["dtype"]):
            raise ConfigError(f"bank member {member!r} does not match "
                              f"its manifest entry")
        arrays[name] = array
    return arrays, dict(manifest.get("meta", {}))
