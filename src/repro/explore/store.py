"""Content-addressed artifact store shared by every sweep-shaped workload.

:class:`ArtifactCAS` is the on-disk record store behind the sweep engine,
the scenario suite and the robustness Monte Carlo runs.  Records are keyed
by the SHA-256 content hash of everything that could change them (see
:meth:`repro.explore.sweep.SweepPoint.cache_key`), so the store is
*content-addressed*: a key fully determines its record bytes, and any two
writers of the same key write identical content by construction.

Layout and concurrency contract
-------------------------------
* **Two-level sharded layout** — entry ``<key>`` lives at
  ``<root>/<key[:2]>/<key[2:]>.json`` (256 shard directories), so even
  million-entry stores keep every directory small enough to list cheaply.
  A root-level ``<root>/<stem>.json`` is an entry only for degenerate keys
  no longer than the shard prefix; a pre-shard flat ``<root>/<key>.json``
  is not an entry at all — it misses, counts as stale and is pruned.
* **Concurrent-writer safety** — :meth:`put` writes to a per-writer unique
  temp name (pid + per-process counter) in the entry's shard directory and
  publishes with one atomic ``os.replace``.  Readers never lock: a reader
  sees either no entry or a complete entry, never a torn one.  Racing
  writers of one key are last-writer-wins with identical bytes, so the
  race is unobservable.
* **Crash consistency** — a writer killed between temp-write and rename
  leaves only an orphaned ``*.tmp`` file; the published entry (if any) is
  untouched.  Orphans are visible in :meth:`stats` and reclaimed by
  :meth:`prune` once older than its temp grace window.
* **Miss-and-heal** — corrupt, truncated or schema-mismatched entries
  count as misses; the next :meth:`put` of the key overwrites them.

The backend is pluggable behind six primitives — byte reads, atomic byte
publication, existence probes, **batched** existence probes
(:meth:`LocalDirBackend.probe_many`), deletion and a single-pass scan:

* :class:`LocalDirBackend` implements them for a local directory, and
  because it only relies on POSIX atomic rename within one directory,
  pointing it at any shared filesystem mount (NFS, Lustre, a fuse-mounted
  bucket) shares one store across machines through the same API.
* :class:`ObjectStoreBackend` implements them over S3-style keyed blobs —
  any client speaking the small keyed-blob verb set (put/get/head/delete/
  paginated list) can host a store with **no shared mount at all**.
  :class:`FakeObjectStore` is the in-memory client used by the tests and
  the SDK-free CI lane; ``s3://bucket/prefix`` specs resolve to a real
  boto3 client when the SDK is installed (and fail with a one-line error
  when it is not — importing this module never requires boto3).

``diff`` is index-free — it probes keys instead of listing directories —
and batched through ``probe_many``, so resuming a grid against a
high-latency object store costs O(list pages), not one round trip per
grid point.  :func:`open_store` maps a store spec (directory path,
``mem://NAME``, ``s3://BUCKET[/PREFIX]`` or an existing store) to an
:class:`ArtifactCAS`; :mod:`repro.explore.transfer` moves records between
any two stores.

See ``docs/CACHING.md`` for the full layout and workflow description.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.obs import trace

__all__ = [
    "ArtifactCAS",
    "LocalDirBackend",
    "ObjectStoreBackend",
    "FakeObjectStore",
    "BlobStat",
    "TransientObjectStoreError",
    "fake_object_store",
    "open_store",
    "CACHE_SCHEMA_VERSION",
    "SHARD_PREFIX_LEN",
    "MAX_VALIDATE_BYTES",
    "TMP_GRACE_S",
]

#: Bump when the record layout (or the numerics that produce it) changes so
#: stale entries miss instead of deserializing into the wrong shape.
#: Version 2: the halfband zero-phase response switched to a multiplication
#: recurrence (last-ulp different from the old ``pow`` evaluation), which
#: can steer the CSD refinement to different coefficients.  The PR-6 move
#: to the sharded CAS layout did **not** bump the version: record content
#: is unchanged, only its location moved (pre-shard flat entries miss).
CACHE_SCHEMA_VERSION = 2

#: Hex characters of the key that name the shard directory (two levels of
#: 16 → 256 shard directories).
SHARD_PREFIX_LEN = 2

#: Validation read cap: entries larger than this are classified stale
#: without reading them, so one corrupt multi-GB file cannot stall
#: ``stats()``/``prune()`` (real records are a few kilobytes).
MAX_VALIDATE_BYTES = 64 * 1024 * 1024

#: Age (seconds) below which ``prune()`` leaves ``*.tmp`` files alone — a
#: live writer publishes within milliseconds, so anything older is an
#: orphan from a killed writer.
TMP_GRACE_S = 3600.0

#: Per-process monotonic counter making concurrent temp names unique even
#: for threads of one process writing the same key.
_TMP_COUNTER = itertools.count()


class LocalDirBackend:
    """Filesystem primitives of the CAS for one local (or mounted) directory.

    The whole backend contract is: byte reads, atomic byte publication
    (unique temp + rename within the destination directory), existence
    probes (single and batched), deletion and a single-pass scan.  Any
    path where ``os.replace`` is atomic — every local filesystem and
    POSIX-compliant network mounts — can host a shared store.

    The root directory is created lazily on first write, so merely
    opening a store spec (e.g. for a ``--dry-run`` transfer or a stats
    probe) leaves the filesystem untouched.
    """

    #: Entries are plain files addressable with :meth:`path` — enables
    #: :meth:`ArtifactCAS.path_for` and direct-file test hooks.
    #: Object-store backends set this ``False``.
    has_local_paths = True

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def path(self, rel: str) -> Path:
        """Absolute path of a store-relative file name."""
        return self.root / rel

    def exists(self, rel: str) -> bool:
        """Whether a store-relative file exists (no read, no lock)."""
        return (self.root / rel).is_file()

    def probe_many(self, rels: Sequence[str]) -> Dict[str, bool]:
        """Batched existence probe: one ``scandir`` pass per touched
        directory instead of one ``stat`` per name.

        Grid resumes probe hundreds of names that cluster into a handful
        of shard directories; listing each directory once turns O(grid)
        metadata round trips into O(directories) — the difference between
        usable and unusable on high-latency network mounts.
        """
        by_dir: Dict[str, set] = {}
        for rel in rels:
            parent, _, name = rel.rpartition("/")
            by_dir.setdefault(parent, set()).add(name)
        present: Dict[str, bool] = {}
        for parent, names in by_dir.items():
            directory = self.root / parent if parent else self.root
            try:
                with os.scandir(directory) as it:
                    found = {entry.name for entry in it if entry.is_file()}
            except (FileNotFoundError, NotADirectoryError):
                found = set()
            for name in names:
                rel = f"{parent}/{name}" if parent else name
                present[rel] = name in found
        return present

    def read_bytes(self, rel: str) -> bytes:
        """Raw bytes of a store-relative file (raises ``OSError`` if absent)."""
        return (self.root / rel).read_bytes()

    def write_bytes_atomic(self, rel: str, data: bytes) -> None:
        """Publish ``data`` under ``rel`` atomically.

        Writes to a per-writer unique temp name (pid + per-process counter)
        in the destination directory, then renames over the final name.  A
        writer killed mid-write leaves only its own orphaned temp file.
        """
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f"{path.name}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp"
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)

    def delete(self, rel: str) -> bool:
        """Remove a store-relative file; ``True`` when something was removed."""
        try:
            (self.root / rel).unlink()
            return True
        except FileNotFoundError:
            return False

    def scan(self) -> Iterator[Tuple[str, os.stat_result]]:
        """Single-pass scan of every file in the store.

        Yields ``(relative_name, stat)`` for the root directory and each
        shard directory, using ``os.scandir`` so each file is stat'ed
        exactly once — ``stats()``/``prune()`` build everything they need
        from this one traversal.
        """
        try:
            top = list(os.scandir(self.root))
        except FileNotFoundError:
            return
        for entry in sorted(top, key=lambda e: e.name):
            if entry.is_file():
                yield entry.name, entry.stat()
            elif entry.is_dir():
                for sub in sorted(os.scandir(entry.path), key=lambda e: e.name):
                    if sub.is_file():
                        yield f"{entry.name}/{sub.name}", sub.stat()


class TransientObjectStoreError(OSError):
    """A retryable object-store failure (throttle, timeout, 5xx, torn put).

    :class:`ObjectStoreBackend` retries these with exponential backoff;
    one that survives every retry propagates.  Subclassing ``OSError``
    keeps the CAS read contract intact: a store that stays unreachable
    reads as a miss (:meth:`ArtifactCAS.get` already maps ``OSError`` to
    ``None``), while writes surface the failure to the caller.
    """


class BlobStat:
    """Minimal ``os.stat_result`` stand-in for object-store blobs.

    Carries exactly the two fields the CAS maintenance scan consumes
    (``st_size``/``st_mtime``), so :meth:`ArtifactCAS.stats` and
    :meth:`ArtifactCAS.prune` run unchanged over keyed-blob backends.
    """

    __slots__ = ("st_size", "st_mtime")

    def __init__(self, size: int, mtime: float) -> None:
        self.st_size = size
        self.st_mtime = mtime


class FakeObjectStore:
    """In-memory S3-style keyed-blob service (test double + no-SDK CI path).

    Speaks the keyed-blob verb set :class:`ObjectStoreBackend` drives —
    ``put_object``/``get_object``/``head_object``/``delete_object`` and a
    paginated ``list_page`` — entirely in memory and thread-safe, with
    injectable fault hooks:

    * ``latency_s`` — synchronous per-call delay, to make round-trip
      counts observable as wall time (high-latency backend simulation).
    * ``fail_next[op] = n`` — the next ``n`` calls of ``op`` (``"put"``,
      ``"get"``, ``"head"``, ``"delete"``, ``"list"``) raise
      :class:`TransientObjectStoreError` before touching any blob.
    * ``tear_next_put = n`` — the next ``n`` puts store a torn prefix of
      the payload *and then* fail, modeling a partial upload that a
      non-atomic service made visible.
    * ``calls`` — a :class:`collections.Counter` of every verb invocation,
      the measuring instrument behind the O(pages) probe-batching pins.

    ``page_size`` caps ``list_page`` responses, so tests can force
    multi-page LISTs with tiny stores.
    """

    _OPS = ("put", "get", "head", "delete", "list")

    def __init__(self, latency_s: float = 0.0, page_size: int = 1000) -> None:
        self.latency_s = latency_s
        self.page_size = page_size
        self.calls: Counter = Counter()
        self.fail_next: Counter = Counter()
        self.tear_next_put = 0
        self._blobs: Dict[str, Tuple[bytes, float]] = {}
        self._lock = threading.RLock()
        self._clock = itertools.count(1)

    def _op(self, name: str) -> None:
        """Account one verb call, apply latency, fire injected failures."""
        if self.latency_s:
            time.sleep(self.latency_s)
        with self._lock:
            self.calls[name] += 1
            if self.fail_next.get(name, 0) > 0:
                self.fail_next[name] -= 1
                raise TransientObjectStoreError(
                    f"injected transient {name} failure")

    def put_object(self, key: str, data: bytes) -> None:
        """Store ``data`` under ``key`` (whole-blob PUT, last writer wins)."""
        self._op("put")
        with self._lock:
            if self.tear_next_put > 0:
                self.tear_next_put -= 1
                torn = data[:max(1, len(data) // 2)]
                self._blobs[key] = (torn, float(next(self._clock)))
                raise TransientObjectStoreError("injected torn put")
            self._blobs[key] = (bytes(data), float(next(self._clock)))

    def get_object(self, key: str) -> bytes:
        """Blob bytes for ``key``; raises ``KeyError`` when absent."""
        self._op("get")
        with self._lock:
            return self._blobs[key][0]

    def head_object(self, key: str) -> bool:
        """Existence probe for one key (no payload transfer)."""
        self._op("head")
        with self._lock:
            return key in self._blobs

    def delete_object(self, key: str) -> bool:
        """Remove ``key``; ``True`` when a blob was removed."""
        self._op("delete")
        with self._lock:
            return self._blobs.pop(key, None) is not None

    def list_page(self, prefix: str = "",
                  start_after: str = "") -> Tuple[List[Tuple[str, int, float]], bool]:
        """One LIST page: ``([(key, size, mtime), ...], truncated)``.

        Keys are returned in lexicographic order, at most ``page_size``
        per call, strictly after ``start_after`` — the same pagination
        contract as S3 ``ListObjectsV2`` (``StartAfter``/``IsTruncated``).
        """
        self._op("list")
        with self._lock:
            matching = sorted(k for k in self._blobs
                              if k.startswith(prefix) and k > start_after)
            page = [(k, len(self._blobs[k][0]), self._blobs[k][1])
                    for k in matching[:self.page_size]]
            return page, len(matching) > self.page_size

    # -- test hooks (no accounting, no latency, no fault injection) -----
    def inject(self, key: str, data: bytes) -> None:
        """Write a blob directly, bypassing all hooks — models damage or
        debris left by a foreign writer (corruption tests)."""
        with self._lock:
            self._blobs[key] = (bytes(data), float(next(self._clock)))

    def peek(self, key: str) -> Optional[bytes]:
        """Raw blob bytes without accounting, or ``None`` when absent."""
        with self._lock:
            blob = self._blobs.get(key)
            return blob[0] if blob else None

    def keys(self) -> List[str]:
        """Every stored blob key, sorted (no accounting)."""
        with self._lock:
            return sorted(self._blobs)


#: Process-local registry behind ``mem://NAME`` store specs: every opener
#: of one name shares one FakeObjectStore, so CLI handlers and tests in
#: the same process see the same blobs.
_MEM_STORES: Dict[str, FakeObjectStore] = {}


def fake_object_store(name: str) -> FakeObjectStore:
    """The process-local :class:`FakeObjectStore` registered under ``name``
    (created on first use) — the client behind ``mem://NAME`` specs."""
    return _MEM_STORES.setdefault(name, FakeObjectStore())


class ObjectStoreBackend:
    """Keyed-blob implementation of the CAS backend primitives.

    Maps the six-primitive backend protocol onto any client speaking the
    S3-style verb set (``put_object``/``get_object``/``head_object``/
    ``delete_object``/``list_page``): :class:`FakeObjectStore` in tests
    and SDK-free CI, a boto3 S3 client behind ``s3://`` specs.  Every
    store-relative name is mapped to ``<prefix><rel>``, so many stores
    can share one bucket.

    Semantics differ from the filesystem backend in two load-bearing
    ways, both absorbed here:

    * **Atomicity** — object PUTs are atomic per key on real services
      (S3 never exposes partial uploads), so ``write_bytes_atomic`` is a
      plain PUT; there is no rename and no temp file.  Torn blobs from
      non-atomic or crashed uploaders are still safe: they fail record
      validation and read as misses (miss-and-heal).
    * **Transient faults** — throttles/timeouts are expected; every verb
      retries :class:`TransientObjectStoreError` up to ``max_retries``
      times with exponential backoff before letting it propagate.

    ``scan``/``probe_many`` ride the paginated LIST, so maintenance and
    grid diffs cost O(pages) round trips regardless of grid size.
    """

    #: Blobs are not files: no :meth:`LocalDirBackend.path`, no
    #: direct-file hooks.
    has_local_paths = False

    def __init__(self, client, prefix: str = "", label: Optional[str] = None,
                 max_retries: int = 4, retry_base_s: float = 0.005) -> None:
        self.client = client
        cleaned = prefix.strip("/")
        self.prefix = f"{cleaned}/" if cleaned else ""
        self.root = label if label is not None else f"object://{self.prefix}"
        self.max_retries = max_retries
        self.retry_base_s = retry_base_s

    def _key(self, rel: str) -> str:
        """Full blob key of a store-relative name."""
        return self.prefix + rel

    def _retrying(self, fn, *args):
        """Run one client verb, retrying transient failures with backoff."""
        for attempt in range(self.max_retries + 1):
            try:
                return fn(*args)
            except TransientObjectStoreError:
                if attempt == self.max_retries:
                    raise
                time.sleep(self.retry_base_s * (2 ** attempt))

    def exists(self, rel: str) -> bool:
        """Whether a blob exists for this store-relative name (HEAD)."""
        return bool(self._retrying(self.client.head_object, self._key(rel)))

    def read_bytes(self, rel: str) -> bytes:
        """Blob bytes (GET); raises ``FileNotFoundError`` when absent."""
        try:
            return self._retrying(self.client.get_object, self._key(rel))
        except KeyError:
            raise FileNotFoundError(rel) from None

    def write_bytes_atomic(self, rel: str, data: bytes) -> None:
        """Publish ``data`` (whole-blob PUT, atomic per key on real
        services; retried on transient failures, which also heals any
        torn debris a failed attempt left behind)."""
        self._retrying(self.client.put_object, self._key(rel), data)

    def delete(self, rel: str) -> bool:
        """Remove a blob; ``True`` when one was removed."""
        return bool(self._retrying(self.client.delete_object, self._key(rel)))

    def _pages(self) -> Iterator[List[Tuple[str, int, float]]]:
        """Every LIST page under this store's prefix, in key order."""
        start_after = ""
        while True:
            page, truncated = self._retrying(
                self.client.list_page, self.prefix, start_after)
            if page:
                yield page
            if not truncated or not page:
                return
            start_after = page[-1][0]

    def scan(self) -> Iterator[Tuple[str, BlobStat]]:
        """Single-pass scan of every blob in the store (paginated LIST).

        Yields ``(relative_name, stat-like)`` exactly as the filesystem
        backend does, so ``stats()``/``prune()``/``keys()`` work
        unchanged over keyed blobs.
        """
        strip = len(self.prefix)
        for page in self._pages():
            for key, size, mtime in page:
                yield key[strip:], BlobStat(size, mtime)

    def probe_many(self, rels: Sequence[str]) -> Dict[str, bool]:
        """Batched existence probe via the paginated LIST.

        One prefix scan answers every name in the batch, so a grid
        resume costs O(pages) round trips instead of one HEAD per grid
        point — the contract :func:`repro.explore.runner.run_sweep`
        relies on against high-latency stores.
        """
        present = set()
        for page in self._pages():
            present.update(key for key, _size, _mtime in page)
        return {rel: self._key(rel) in present for rel in rels}


def _boto3_s3_client(bucket: str):
    """A boto3-backed keyed-blob client for ``bucket``, or a one-line
    ``ValueError`` when the SDK is not installed (import stays lazy so
    the module never requires boto3)."""
    try:
        import boto3  # local import: the SDK is optional
        import botocore.exceptions
    except ImportError:
        raise ValueError(
            "s3:// stores require the boto3 SDK, which is not installed "
            "(pip install boto3)") from None

    _RETRYABLE = {"SlowDown", "InternalError", "RequestTimeout",
                  "ThrottlingException", "503", "500"}

    _SDK_ERRORS = (botocore.exceptions.ClientError,
                   botocore.exceptions.BotoCoreError)

    class _BotoS3Client:
        """Adapter from the backend's keyed-blob verbs to boto3 S3 calls.

        SDK failures are translated into the store's error model:
        throttles/5xx become :class:`TransientObjectStoreError` (retried
        by the backend), everything else — missing credentials, access
        denied, unreachable endpoint — becomes a plain ``OSError`` whose
        message the CLI surfaces as a one-line error.
        """

        def __init__(self, client, bucket_name):
            self._s3 = client
            self._bucket = bucket_name

        def _translate(self, exc):
            code = ""
            if isinstance(exc, botocore.exceptions.ClientError):
                code = exc.response.get("Error", {}).get("Code", "")
            if code in _RETRYABLE:
                raise TransientObjectStoreError(str(exc)) from exc
            raise OSError(str(exc)) from exc

        def put_object(self, key, data):
            try:
                self._s3.put_object(Bucket=self._bucket, Key=key, Body=data)
            except _SDK_ERRORS as exc:
                self._translate(exc)

        def get_object(self, key):
            try:
                return self._s3.get_object(
                    Bucket=self._bucket, Key=key)["Body"].read()
            except self._s3.exceptions.NoSuchKey:
                raise KeyError(key) from None
            except _SDK_ERRORS as exc:
                self._translate(exc)

        def head_object(self, key):
            try:
                self._s3.head_object(Bucket=self._bucket, Key=key)
                return True
            except botocore.exceptions.ClientError as exc:
                if exc.response.get("Error", {}).get("Code") in ("404", "NoSuchKey"):
                    return False
                self._translate(exc)
            except botocore.exceptions.BotoCoreError as exc:
                self._translate(exc)

        def delete_object(self, key):
            existed = self.head_object(key)
            if existed:
                try:
                    self._s3.delete_object(Bucket=self._bucket, Key=key)
                except _SDK_ERRORS as exc:
                    self._translate(exc)
            return existed

        def list_page(self, prefix="", start_after=""):
            try:
                resp = self._s3.list_objects_v2(
                    Bucket=self._bucket, Prefix=prefix, StartAfter=start_after)
            except _SDK_ERRORS as exc:
                self._translate(exc)
            page = [(obj["Key"], obj["Size"], obj["LastModified"].timestamp())
                    for obj in resp.get("Contents", [])]
            return page, bool(resp.get("IsTruncated"))

    return _BotoS3Client(boto3.client("s3"), bucket)


def open_store(spec: Union[str, Path, "ArtifactCAS"],
               must_exist: bool = False) -> "ArtifactCAS":
    """Open an :class:`ArtifactCAS` from a store specification.

    Accepted specs:

    * an existing :class:`ArtifactCAS` — returned unchanged;
    * a directory path (``str``/``Path``, also ``file://PATH``) — a
      :class:`LocalDirBackend` store;
    * ``mem://NAME`` — a process-local :class:`FakeObjectStore` shared by
      every opener of ``NAME`` (tests, SDK-free CI smokes);
    * ``s3://BUCKET[/PREFIX]`` — a boto3-backed S3 store; raises a
      one-line ``ValueError`` when boto3 is not installed.

    ``must_exist=True`` raises ``ValueError`` for a local path that is
    not a directory or a ``mem://`` name never opened in this process —
    the guard transfer sources use to turn typos into clean errors
    instead of silently empty stores.
    """
    if isinstance(spec, ArtifactCAS):
        return spec
    if isinstance(spec, Path):
        text = str(spec)
    else:
        text = str(spec)
    if "://" in text:
        scheme, _, rest = text.partition("://")
        if scheme == "mem":
            if must_exist and rest not in _MEM_STORES:
                raise ValueError(f"store not found: {text}")
            backend = ObjectStoreBackend(fake_object_store(rest), label=text)
            return ArtifactCAS(backend=backend)
        if scheme == "s3":
            bucket, _, prefix = rest.partition("/")
            if not bucket:
                raise ValueError(f"invalid s3 store spec: {text!r} "
                                 "(expected s3://BUCKET[/PREFIX])")
            backend = ObjectStoreBackend(_boto3_s3_client(bucket),
                                         prefix=prefix, label=text)
            return ArtifactCAS(backend=backend)
        if scheme == "file":
            text = rest
        else:
            raise ValueError(
                f"unknown store scheme {scheme!r} in {text!r} (expected a "
                "directory path, mem://NAME or s3://BUCKET[/PREFIX])")
    if must_exist and not os.path.isdir(text):
        raise ValueError(f"store not found: {text}")
    return ArtifactCAS(text)


class ArtifactCAS:
    """Content-addressed, shard-laid-out, concurrent-writer-safe record store.

    Parameters
    ----------
    directory:
        Root of a :class:`LocalDirBackend` store; created (with parents)
        on first write.  Ignored when ``backend`` is given.
    backend:
        Alternative backend implementing the six-primitive protocol —
        e.g. a :class:`LocalDirBackend` rooted on a shared filesystem
        mount, or an :class:`ObjectStoreBackend` over keyed blobs.

    Attributes
    ----------
    hits, misses:
        In-process read telemetry.
    """

    def __init__(self, directory: Union[str, Path, None] = None,
                 backend=None) -> None:
        if backend is None:
            if directory is None:
                raise ValueError("ArtifactCAS needs a directory or a backend")
            backend = LocalDirBackend(directory)
        self.backend = backend
        self._local = getattr(backend, "has_local_paths", True)
        self._backend_kind = "local-dir" if self._local else "object-store"
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    @property
    def directory(self) -> Union[Path, str]:
        """Store root: a ``Path`` for directory backends, a spec label
        (e.g. ``mem://shared``) for object-store backends."""
        return self.backend.root

    @staticmethod
    def _rel_for(key: str) -> str:
        """Sharded store-relative file name of ``key``."""
        if len(key) <= SHARD_PREFIX_LEN:
            # Degenerate short keys (tests, ad-hoc tags) skip sharding.
            return f"{key}.json"
        return f"{key[:SHARD_PREFIX_LEN]}/{key[SHARD_PREFIX_LEN:]}.json"

    @staticmethod
    def key_of(rel: str) -> Optional[str]:
        """Key encoded by a store-relative entry name (``None`` for temp
        files, pre-shard flat entries and anything else that is not a
        record)."""
        if not rel.endswith(".json"):
            return None
        stem = rel[:-len(".json")]
        if "/" in stem:
            prefix, rest = stem.split("/", 1)
            if len(prefix) != SHARD_PREFIX_LEN or "/" in rest:
                return None
            return prefix + rest
        return stem if len(stem) <= SHARD_PREFIX_LEN else None

    def path_for(self, key: str) -> Path:
        """Path of the (sharded) entry for ``key``, whether or not it
        exists; the shard directory is created so callers can write to it
        directly.  Only meaningful on directory backends — object-store
        entries are blobs, not files."""
        if not self._local:
            raise TypeError("path_for() needs a directory backend; "
                            f"this store is {self.directory}")
        path = self.backend.path(self._rel_for(key))
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------
    def contains(self, key: str) -> bool:
        """Whether an entry exists for ``key``.

        Pure existence probe — no read, no validation, no counter update —
        which is what keeps :meth:`diff` index-free and cheap on shared
        mounts.
        """
        return self.backend.exists(self._rel_for(key))

    def __contains__(self, key: str) -> bool:
        return self.contains(key)

    def get(self, key: str) -> Optional[dict]:
        """Load a record, or ``None`` on a miss.

        Corrupt, truncated or schema-mismatched entries count as misses
        (and will be overwritten by the next :meth:`put`).
        """
        with trace.span("cas.get", backend=self._backend_kind) as span:
            record, nbytes = self._load(self._rel_for(key))
            if record is None:
                self.misses += 1
                span.set(hit=False)
                return None
            self.hits += 1
            span.set(hit=True, bytes=nbytes)
            return record

    def _load(self, rel: str) -> Tuple[Optional[dict], int]:
        """Parse + schema-validate one store-relative entry (no counters);
        returns ``(record, entry_bytes)`` — ``(None, 0)`` on any miss."""
        try:
            data = self.backend.read_bytes(rel)
            entry = json.loads(data)
        except (OSError, ValueError):
            return None, 0
        if not isinstance(entry, dict) or entry.get("schema") != CACHE_SCHEMA_VERSION:
            return None, 0
        return entry.get("record"), len(data)

    def put(self, key: str, record: dict) -> None:
        """Publish a record atomically (unique temp name + rename).

        Safe against concurrent writers of the same key: each writer uses
        its own temp file and the content is identical by construction, so
        whichever rename lands last changes nothing observable.
        """
        entry = {"schema": CACHE_SCHEMA_VERSION, "key": key, "record": record}
        data = json.dumps(entry, sort_keys=True).encode("utf-8")
        with trace.span("cas.put", backend=self._backend_kind,
                        bytes=len(data)):
            self.backend.write_bytes_atomic(self._rel_for(key), data)

    def get_raw(self, key: str) -> Optional[bytes]:
        """Published entry bytes for ``key``, or ``None`` — the
        verbatim-transfer read used by
        :func:`repro.explore.transfer.transfer_records` so copies are
        byte-identical by construction."""
        try:
            return self.backend.read_bytes(self._rel_for(key))
        except OSError:
            return None

    def put_raw(self, key: str, data: bytes) -> None:
        """Publish raw entry bytes verbatim under ``key``'s sharded name
        (atomic) — the write half of the verbatim-transfer contract."""
        self.backend.write_bytes_atomic(self._rel_for(key), data)

    def delete(self, key: str) -> bool:
        """Remove an entry; ``True`` when one existed."""
        return self.backend.delete(self._rel_for(key))

    # ------------------------------------------------------------------
    # Grid diffing
    # ------------------------------------------------------------------
    def probe_many(self, keys: Iterable[str]) -> Dict[str, bool]:
        """Batched existence probe: ``{key: present}`` for every key.

        Rides the backend's batched primitive — one ``scandir`` per
        touched shard directory locally, one paginated LIST for object
        stores — so probing a whole grid costs O(directories) or
        O(pages) round trips, never one per key.  Equivalent to
        ``{k: contains(k) for k in keys}`` (the property tests pin the
        equivalence).
        """
        keys = list(keys)
        with trace.span("cas.probe_many", backend=self._backend_kind,
                        n_keys=len(keys)) as span:
            rels = {key: self._rel_for(key) for key in keys}
            hit = self.backend.probe_many(list(set(rels.values())))
            present = {key: hit[rels[key]] for key in keys}
            span.set(n_present=sum(1 for v in present.values() if v))
            return present

    def diff(self, keys: Iterable[str]) -> List[str]:
        """The subset of ``keys`` with no published entry, in input order.

        Index-free — keys are probed, not inferred from a directory
        listing — and batched through :meth:`probe_many`, so the round
        trips scale with shard directories / LIST pages rather than with
        the grid.  By construction ``set(diff(keys))`` and the present
        keys partition ``keys``: their union is the grid and they are
        disjoint — the property-based tests pin this contract.
        """
        keys = list(keys)
        present = self.probe_many(keys)
        return [key for key in keys if not present[key]]

    # ------------------------------------------------------------------
    # Maintenance (single-pass scan shared by stats and prune)
    # ------------------------------------------------------------------
    def _classify(self, rel: str, stat: os.stat_result,
                  size_guard: int) -> str:
        """One file's role: ``"entry"``, ``"stale"`` or ``"tmp"``.

        Entries are parsed at most once and never re-opened after the
        scan's ``stat`` (the pre-PR-6 store stat'ed then reopened every
        file); entries above ``size_guard`` are stale without any read.
        """
        if rel.endswith(".tmp"):
            return "tmp"
        if self.key_of(rel) is None:
            return "stale"
        if stat.st_size > size_guard:
            return "stale"
        return "entry" if self._load(rel)[0] is not None else "stale"

    def stats(self, size_guard: int = MAX_VALIDATE_BYTES) -> dict:
        """Summary of the on-disk store in one scan pass.

        ``stale_entries`` counts files that are corrupt, oversized (above
        ``size_guard``), carry a schema version other than
        :data:`CACHE_SCHEMA_VERSION` or sit at no entry name (such as
        pre-shard flat ``<key>.json`` files); ``tmp_files``/``tmp_bytes``
        count orphaned temp files left by killed writers.  Both populations
        always miss and are reclaimable with :meth:`prune`.
        """
        entries = 0
        total_bytes = 0
        stale = 0
        tmp_files = 0
        tmp_bytes = 0
        oldest: Optional[float] = None
        newest: Optional[float] = None
        for rel, stat in self.backend.scan():
            kind = self._classify(rel, stat, size_guard)
            if kind == "tmp":
                tmp_files += 1
                tmp_bytes += stat.st_size
                continue
            entries += 1
            total_bytes += stat.st_size
            oldest = stat.st_mtime if oldest is None else min(oldest, stat.st_mtime)
            newest = stat.st_mtime if newest is None else max(newest, stat.st_mtime)
            if kind == "stale":
                stale += 1
        return {
            "directory": str(self.directory),
            "schema": CACHE_SCHEMA_VERSION,
            "entries": entries,
            "total_bytes": total_bytes,
            "stale_entries": stale,
            "tmp_files": tmp_files,
            "tmp_bytes": tmp_bytes,
            "oldest_mtime": oldest,
            "newest_mtime": newest,
        }

    def prune(self, older_than_s: Optional[float] = None,
              everything: bool = False,
              tmp_grace_s: float = TMP_GRACE_S,
              size_guard: int = MAX_VALIDATE_BYTES) -> int:
        """Remove reclaimable files in one scan pass; returns the count.

        Always removes corrupt, oversized and schema-mismatched entries
        (they can never hit) plus orphaned ``*.tmp`` files older than
        ``tmp_grace_s`` (live writers publish within milliseconds, so the
        default one-hour grace only spares genuinely in-flight temps).
        ``older_than_s`` additionally removes valid entries whose file is
        older than that many seconds; ``everything=True`` empties the
        store (same as :meth:`clear`).
        """
        if everything:
            return self.clear()
        now = time.time()
        removed = 0
        for rel, stat in self.backend.scan():
            kind = self._classify(rel, stat, size_guard)
            if kind == "tmp":
                reclaim = now - stat.st_mtime > tmp_grace_s
            elif kind == "stale":
                reclaim = True
            else:
                reclaim = (older_than_s is not None
                           and now - stat.st_mtime > older_than_s)
            if reclaim and self.backend.delete(rel):
                removed += 1
        return removed

    def clear(self) -> int:
        """Delete every record and temp file; returns the number removed
        (temp files are cleaned but not counted, matching the historical
        entry-count return value)."""
        removed = 0
        for rel, _stat in list(self.backend.scan()):
            if self.backend.delete(rel) and not rel.endswith(".tmp"):
                removed += 1
        return removed

    def keys(self) -> List[str]:
        """Every stored key, sorted."""
        found = set()
        for rel, _stat in self.backend.scan():
            key = self.key_of(rel)
            if key is not None:
                found.add(key)
        return sorted(found)

    def __len__(self) -> int:
        return sum(1 for rel, _stat in self.backend.scan()
                   if self.key_of(rel) is not None)
