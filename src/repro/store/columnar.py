"""Per-shard columnar trial storage with content-addressed keys.

One **shard** holds the per-trial outcome vectors of one Monte-Carlo
work item (a contiguous block of trials of one sweep point), as a NumPy
structured array over the fixed :data:`SHARD_SCHEMA`:

======================= =========== ==========================================
field                   dtype       meaning
======================= =========== ==========================================
``point``               ``uint32``  campaign point index the trial belongs to
``trial``               ``uint32``  trial id *within the point* (global, so a
                                    shard's rows are self-describing)
``time``                ``int64``   stabilization step (valid iff converged)
``converged``           ``bool``    the trial reached a legitimate state
``timed_out``           ``bool``    the trial exhausted its step budget
``hit_terminal``        ``bool``    retired in an illegitimate terminal state
``fault_time``          ``int64``   step the fault fired at (−1: none fired)
``rounds``              ``float64`` completed rounds (NaN unless measured)
======================= =========== ==========================================

The on-disk container is deliberately *not* ``.npz`` (zip archives embed
member timestamps, which would break the campaign tier's byte-identity
guarantee).  A shard file is a pure function of its records and
metadata::

    b"RSHARD01"                magic + format version
    uint64 LE                  metadata length in bytes
    metadata                   canonical JSON (sorted keys, compact)
    uint64 LE                  record count
    payload                    records.tobytes() over SHARD_SCHEMA
    sha256(everything above)   32-byte checksum footer

:func:`decode_shard` re-hashes everything before the footer, so a
truncated, bit-flipped, or foreign file raises
:class:`~repro.errors.StoreCorruptionError` — which
:meth:`ResultStore.load` converts into *quarantine + regenerate*
(the Dolev–Herman stance: the store stabilizes after transient faults
in its own environment instead of crashing the campaign).

Shards are **content-addressed**: :func:`shard_key` hashes a canonical
metadata dict — system signature, sampler signature, legitimacy
signature, trials, step budget, fault plan, and seed — so re-running
the same work item is a cache hit and two stores holding the same
science hold the same files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import struct
import weakref
from typing import Mapping

import numpy as np

from repro.errors import StoreCorruptionError, StoreError
from repro.store.atomic import atomic_write_bytes

__all__ = [
    "SHARD_SCHEMA",
    "SHARD_MAGIC",
    "ResultStore",
    "decode_shard",
    "encode_shard",
    "fault_signature",
    "legitimacy_signature",
    "read_shard",
    "records_from_arrays",
    "sampler_signature",
    "shard_key",
    "system_cache_key",
    "system_signature",
    "write_shard",
]

#: Fixed per-trial record layout — append-only by design: widening the
#: schema bumps :data:`SHARD_MAGIC`'s version byte instead of mutating
#: the meaning of existing files.
SHARD_SCHEMA = np.dtype(
    [
        ("point", np.uint32),
        ("trial", np.uint32),
        ("time", np.int64),
        ("converged", np.bool_),
        ("timed_out", np.bool_),
        ("hit_terminal", np.bool_),
        ("fault_time", np.int64),
        ("rounds", np.float64),
    ]
)

#: Container magic: format name + version.
SHARD_MAGIC = b"RSHARD01"

_LENGTH = struct.Struct("<Q")
_CHECKSUM_BYTES = 32


# ----------------------------------------------------------------------
# canonical signatures and the content-address key
# ----------------------------------------------------------------------
def _canonical_json(value) -> str:
    """Deterministic JSON: sorted keys, compact separators, no NaN."""
    try:
        return json.dumps(
            value, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except (TypeError, ValueError) as error:
        raise StoreError(
            f"metadata is not canonically JSON-serializable: {error}"
        ) from None


def shard_key(meta: Mapping) -> str:
    """Content address of a shard: sha256 over canonical JSON metadata.

    Key order never matters — two semantically equal dicts hash equally:

    >>> shard_key({"family": "Q1", "seed": 7}) == shard_key(
    ...     {"seed": 7, "family": "Q1"})
    True
    """
    return hashlib.sha256(_canonical_json(dict(meta)).encode()).hexdigest()


def _scalar_attributes(obj) -> dict:
    """The plain-scalar attributes of ``obj`` (private underscores
    stripped), sorted — the JSON-able parameter surface of an algorithm
    or sampler instance.  Float subclasses (e.g. affine coin
    probabilities) serialize by value."""
    params = {}
    for name, value in (getattr(obj, "__dict__", None) or {}).items():
        if isinstance(value, bool):
            params[name.lstrip("_")] = value
        elif isinstance(value, int):
            params[name.lstrip("_")] = int(value)
        elif isinstance(value, float):
            params[name.lstrip("_")] = float(value)
        elif isinstance(value, str):
            params[name.lstrip("_")] = value
    return dict(sorted(params.items()))


def _nested_algorithms(algorithm) -> dict:
    """The algorithms ``algorithm`` wraps in its attributes (a
    transform's base, say), by attribute name (private underscores
    stripped): each one's type name, scalar parameters and, recursively,
    its own wrapped algorithms."""
    from repro.core.algorithm import Algorithm

    return {
        name.lstrip("_"): [
            type(value).__name__,
            _scalar_attributes(value),
            _nested_algorithms(value),
        ]
        for name, value in sorted(
            (getattr(algorithm, "__dict__", None) or {}).items()
        )
        if isinstance(value, Algorithm)
    }


def system_signature(system) -> dict:
    """Canonical, process-independent description of a
    :class:`~repro.core.system.System` — stable across runs and hosts
    (type names, parameters, and domain/wiring structure, never object
    identities).

    ``algorithm_params`` (the algorithm instance's scalar attributes —
    ring size, counter modulus, coin biases) and ``topology_sha256``
    (the ordered adjacency lists) make the signature *semantically
    discriminating* up to per-process constants, which it leaves out:
    it is part of every campaign shard key and must not change.  The
    cache key, :func:`system_cache_key`, adds the constants.
    """
    domains = [
        [
            [spec.size, list(map(repr, spec.domain))]
            for spec in layout.specs
        ]
        for layout in system.layouts
    ]
    adjacency = [
        list(system.topology.neighbors(process))
        for process in range(system.num_processes)
    ]
    return {
        "algorithm": type(system.algorithm).__name__,
        "algorithm_params": _scalar_attributes(system.algorithm),
        "topology": type(system.topology).__name__,
        "topology_sha256": hashlib.sha256(
            _canonical_json(adjacency).encode()
        ).hexdigest(),
        "processes": int(system.num_processes),
        "variables": list(system.variable_names()),
        "domains_sha256": hashlib.sha256(
            _canonical_json(domains).encode()
        ).hexdigest(),
    }


def _strict_json(value):
    """Type-strict JSON form of one constant value: every leaf carries
    its exact type (``0``, ``False`` and ``0.0`` differ), floats their
    bit pattern (``0.0`` and ``-0.0`` differ), tuples and frozensets
    recurse.  Any other value — lists, subclasses, arbitrary objects —
    has no canonical form and raises ``TypeError``."""
    kind = type(value)
    if kind is tuple:
        return ["tuple", [_strict_json(item) for item in value]]
    if kind is frozenset:
        items = [_strict_json(item) for item in value]
        return ["frozenset", sorted(items, key=_canonical_json)]
    if kind is float:
        return ["float", value.hex()]
    if kind in (bool, int, str, type(None)):
        return [kind.__name__, value]
    raise TypeError(f"constant of type {kind.__name__} has no canonical form")


def canonical_constants(constants: Mapping) -> str:
    """Canonical JSON of one process's constants, compared type-strictly
    (see :func:`_strict_json`); ``TypeError`` when a value has none.

    The one definition of "equal constants": process classing
    (:func:`repro.core.encoding.process_classes`) and the cache key
    (:func:`system_cache_key`) both use it, so two processes share a
    class exactly when their constants would share a key.
    """
    return _canonical_json(
        {name: _strict_json(value) for name, value in constants.items()}
    )


def canonical_layout(layout) -> str:
    """Canonical JSON of one variable layout — each variable's name and
    domain, compared type-strictly (see :func:`_strict_json`);
    ``TypeError`` when a domain value has none.  Process classing
    (:func:`repro.core.encoding.process_classes`) compares layouts by it.
    """
    return _canonical_json(
        [[spec.name, _strict_json(spec.domain)] for spec in layout.specs]
    )


#: Live system → its cache key.  Weak keys: an entry dies with its
#: system, so a recycled object id can never inherit a stale key.
_CACHE_KEYS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def system_cache_key(system) -> str | None:
    """Content-address of one system's *semantics*, or ``None``.

    sha256 over the canonical :func:`system_signature` JSON plus every
    process's :func:`canonical_constants` and the parameters of every
    algorithm the system's algorithm wraps (:func:`_nested_algorithms`)
    — the signature keeps only the outer algorithm's scalar attributes,
    so two systems that differ only in constants (``0`` versus
    ``False``, say) or in a wrapped base's parameters (a coin-toss
    transform of two Herman biases) share a signature but never a cache
    key.  A system with a constant that has
    no canonical form gets ``None``: it has no content address and is
    not cached.  Every registry family has plain int/bool constants, so
    its systems always have a key; the serving tier relies on that.

    This is the key the warm caches use — the process-wide compiled-table
    cache (:func:`repro.core.encoding.tables_for`), :class:`SweepRunner`'s
    engine/runner entries and the serving tier's chain and
    parametric-chain caches — so cache hits survive garbage collection
    and object-identity reuse, and value-equal systems built by
    different tenants share one compilation.  Memoized per live system
    object."""
    try:
        return _CACHE_KEYS[system]
    except KeyError:
        pass
    try:
        constants = [
            canonical_constants(system.constants(process))
            for process in range(system.num_processes)
        ]
    except TypeError:
        key = None
    else:
        payload = {
            "signature": system_signature(system),
            "constants": constants,
            "nested": _nested_algorithms(system.algorithm),
        }
        key = hashlib.sha256(_canonical_json(payload).encode()).hexdigest()
    _CACHE_KEYS[system] = key
    return key


def sampler_signature(sampler) -> list:
    """Canonical description of a scheduler sampler: type name plus its
    simple scalar parameters (private underscores stripped)."""
    params = {}
    for name, value in (getattr(sampler, "__dict__", None) or {}).items():
        if isinstance(value, (bool, int, float, str)):
            params[name.lstrip("_")] = value
    return [type(sampler).__name__, dict(sorted(params.items()))]


def legitimacy_signature(batch_legitimate, legitimate=None) -> list:
    """Canonical description of the legitimacy predicate.

    Compiled code-matrix predicates describe themselves by type and
    parameters; a bare Python callable falls back to its qualified name
    (campaign point families pin the predicate anyway, so the name only
    needs to distinguish, not to define)."""
    if batch_legitimate is not None:
        count = getattr(batch_legitimate, "count", None)
        if type(batch_legitimate).__name__ == "EnabledCountLegitimacy":
            return ["enabled-count", int(count)]
        return ["batch", type(batch_legitimate).__name__]
    name = getattr(legitimate, "__qualname__", None) or repr(legitimate)
    return ["predicate", name]


def fault_signature(fault) -> dict | None:
    """Canonical description of a fault plan (``None`` for fault-free)."""
    if fault is None:
        return None
    if dataclasses.is_dataclass(fault):
        return dataclasses.asdict(fault)
    raise StoreError(
        f"cannot canonicalize fault of type {type(fault).__name__}"
    )


# ----------------------------------------------------------------------
# the shard container
# ----------------------------------------------------------------------
def records_from_arrays(
    point: int,
    trial_offset: int,
    times: np.ndarray,
    converged: np.ndarray,
    timed_out: np.ndarray,
    hit_terminal: np.ndarray,
    fault_times: np.ndarray | None = None,
    rounds: np.ndarray | None = None,
) -> np.ndarray:
    """Assemble per-trial outcome vectors into a :data:`SHARD_SCHEMA`
    array (the exact payload a :class:`~repro.markov.montecarlo.TrialSink`
    receives from the execution engines)."""
    count = len(times)
    records = np.zeros(count, dtype=SHARD_SCHEMA)
    records["point"] = point
    records["trial"] = trial_offset + np.arange(count, dtype=np.uint32)
    records["time"] = times
    records["converged"] = converged
    records["timed_out"] = timed_out
    records["hit_terminal"] = hit_terminal
    records["fault_time"] = -1 if fault_times is None else fault_times
    records["rounds"] = np.nan if rounds is None else rounds
    return records


def encode_shard(records: np.ndarray, meta: Mapping) -> bytes:
    """Serialize records + metadata into the deterministic container."""
    if records.dtype != SHARD_SCHEMA:
        raise StoreError(
            f"records dtype {records.dtype} does not match SHARD_SCHEMA"
        )
    meta_bytes = _canonical_json(dict(meta)).encode()
    body = b"".join(
        (
            SHARD_MAGIC,
            _LENGTH.pack(len(meta_bytes)),
            meta_bytes,
            _LENGTH.pack(len(records)),
            np.ascontiguousarray(records).tobytes(),
        )
    )
    return body + hashlib.sha256(body).digest()


def decode_shard(data: bytes) -> tuple[np.ndarray, dict]:
    """Parse and *validate* a shard container.

    Raises :class:`StoreCorruptionError` on any structural damage:
    foreign magic, truncation, trailing garbage, or a checksum mismatch
    (bit flips anywhere in the file).
    """
    if len(data) < len(SHARD_MAGIC) + _CHECKSUM_BYTES:
        raise StoreCorruptionError("shard truncated below header size")
    if data[: len(SHARD_MAGIC)] != SHARD_MAGIC:
        raise StoreCorruptionError(
            f"bad shard magic {data[:len(SHARD_MAGIC)]!r}"
        )
    body, footer = data[:-_CHECKSUM_BYTES], data[-_CHECKSUM_BYTES:]
    if hashlib.sha256(body).digest() != footer:
        raise StoreCorruptionError("shard checksum mismatch")
    cursor = len(SHARD_MAGIC)
    try:
        (meta_length,) = _LENGTH.unpack_from(body, cursor)
        cursor += _LENGTH.size
        meta = json.loads(body[cursor : cursor + meta_length].decode())
        cursor += meta_length
        (count,) = _LENGTH.unpack_from(body, cursor)
        cursor += _LENGTH.size
        payload = body[cursor:]
        if len(payload) != count * SHARD_SCHEMA.itemsize:
            raise StoreCorruptionError(
                f"shard payload holds {len(payload)} bytes,"
                f" expected {count * SHARD_SCHEMA.itemsize}"
            )
        records = np.frombuffer(payload, dtype=SHARD_SCHEMA).copy()
    except (struct.error, ValueError, UnicodeDecodeError) as error:
        raise StoreCorruptionError(f"shard body unparseable: {error}") from None
    return records, meta


def write_shard(
    path: str | pathlib.Path, records: np.ndarray, meta: Mapping
) -> pathlib.Path:
    """Encode and atomically persist one shard (see :mod:`.atomic`)."""
    return atomic_write_bytes(path, encode_shard(records, meta))


def read_shard(path: str | pathlib.Path) -> tuple[np.ndarray, dict]:
    """Read and validate one shard file."""
    try:
        data = pathlib.Path(path).read_bytes()
    except OSError as error:
        raise StoreError(f"cannot read shard {path}: {error}") from None
    return decode_shard(data)


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
class ResultStore:
    """Directory of content-addressed shards with a quarantine bay.

    Layout::

        <root>/shards/<key>.shard          validated columnar shards
        <root>/quarantine/<key>.<n>.bad    corrupt files, kept for autopsy

    The store never deletes science: :meth:`load` moves a corrupt shard
    aside (unique ``.bad`` name) and reports it missing, so the caller
    regenerates it from its coordinates — crashing is not an option the
    campaign tier ever takes on corruption.
    """

    SHARD_SUFFIX = ".shard"

    def __init__(self, root: str | pathlib.Path) -> None:
        self.root = pathlib.Path(root)
        self.shards_dir = self.root / "shards"
        self.quarantine_dir = self.root / "quarantine"
        self.shards_dir.mkdir(parents=True, exist_ok=True)
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> pathlib.Path:
        """Where the shard with this content address lives."""
        return self.shards_dir / f"{key}{self.SHARD_SUFFIX}"

    def has(self, key: str) -> bool:
        """Whether a shard file exists (existence only — :meth:`load`
        validates)."""
        return self.path_for(key).exists()

    def keys(self) -> list[str]:
        """Content addresses present on disk, sorted."""
        return sorted(
            path.name[: -len(self.SHARD_SUFFIX)]
            for path in self.shards_dir.glob(f"*{self.SHARD_SUFFIX}")
        )

    def write(
        self, key: str, records: np.ndarray, meta: Mapping
    ) -> pathlib.Path:
        """Atomically persist one shard under its content address."""
        return write_shard(self.path_for(key), records, meta)

    def read(self, key: str) -> tuple[np.ndarray, dict]:
        """Read + validate; raises on absence or corruption."""
        path = self.path_for(key)
        if not path.exists():
            raise StoreError(f"no shard for key {key}")
        return decode_shard(path.read_bytes())

    def load(self, key: str) -> tuple[np.ndarray, dict] | None:
        """Read + validate, quarantining corruption.

        Returns ``None`` when the shard is absent *or* was just moved to
        quarantine — either way the caller's move is to regenerate it.
        """
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            return decode_shard(path.read_bytes())
        except StoreCorruptionError:
            self.quarantine(key)
            return None

    def quarantine(self, key: str) -> pathlib.Path:
        """Move a shard file into the quarantine bay (unique suffix)."""
        source = self.path_for(key)
        attempt = 0
        while True:
            target = self.quarantine_dir / f"{key}.{attempt}.bad"
            if not target.exists():
                break
            attempt += 1
        source.replace(target)
        return target

    def verify(self) -> tuple[list[str], list[str]]:
        """Validate every shard on disk → ``(ok keys, corrupt keys)``.

        Corrupt shards are left in place — verification observes, the
        campaign runner decides (quarantine + regenerate).
        """
        ok: list[str] = []
        corrupt: list[str] = []
        for key in self.keys():
            try:
                decode_shard(self.path_for(key).read_bytes())
            except StoreCorruptionError:
                corrupt.append(key)
            else:
                ok.append(key)
        return ok, corrupt

    def sweep_temp(self) -> int:
        """Remove interrupted-write droppings (``*.tmp``); returns count."""
        removed = 0
        for path in self.shards_dir.glob("*.tmp"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed
