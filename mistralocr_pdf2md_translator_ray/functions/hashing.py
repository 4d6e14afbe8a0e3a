"""Vectorized bucket-id computation for shuffle prologues.

Every bucketed co-group / grouped-assembly stage prepends a
``bucket = hash(key) % B`` column. The round-1 implementation looped
``zlib.crc32`` over ``to_pylist()``; this module hashes the Arrow
column zero-copy through polars' 64-bit seeded hash (measured 4x
faster per million keys, and it skips the Arrow->Python conversion
entirely).

Stability contract: polars' seeded hash is deterministic across
PROCESSES within one library version — exactly what transient shuffle
bucketing needs (all workers of one job agree). It is NOT promised
stable across polars upgrades, so checkpoint ``part_id``
(state/checkpoint.py) stays on crc32, and the indexes partitioned on
``bucket_ids`` carry ``partition_hash_tag()`` and refuse a mismatch.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def bucket_ids(arr: "pa.Array | pa.ChunkedArray", num_buckets: int) -> pa.Array:
    """Arrow column -> int32 bucket ids in [0, num_buckets).

    Every keyed shuffle hashes through here (stages/joins.py), and so
    do three persisted indexes that partition their files on it: the
    MinHash band index (``bb=``), the exact-dedup LSM (``hb=``) and the
    hyperplane band index. The ids change with the polars version, so
    those indexes record ``partition_hash_tag()`` in their meta.json at
    build and refuse an increment from any other version (a probe
    would read the wrong partition and miss duplicates silently)."""
    import polars as pl

    h = pl.from_arrow(arr if isinstance(arr, (pa.Array, pa.ChunkedArray))
                      else pa.array(arr)).hash(seed=0)
    return pa.array((h % num_buckets).to_numpy().astype(np.int32))


def partition_hash_tag() -> str:
    """Names the ``bucket_ids`` build: the polars version."""
    import polars as pl

    return f"polars-{pl.__version__}"


#: Version tag recorded in checkpoint lineage next to content hashes.
#: polars' seeded hash is cross-process deterministic within a library
#: version but not across upgrades, so a hash computed by a different
#: version must not be compared — the tag makes that detectable.
CONTENT_HASH_FN = "polars-xxh64-sum-v2"

#: Tag for the scalar fallback (nested-type columns): a different hash
#: family with different null encoding, so lineage entries must record
#: which path actually ran — comparing across tags is meaningless.
CONTENT_HASH_FN_FALLBACK = "py-blake2b-sum-v1"


def content_hash_sum(tbl: pa.Table, cols: list[str]) -> tuple[int, str]:
    """Order-insensitive 64-bit content hash of selected columns:
    vectorized per-row hash (cast-to-string + join + polars seeded
    hash), summed mod 2^64. Replaces the round-3 per-row Python blake2b
    loop (O(corpus) single-core work on every checkpoint readback).
    Columns that cannot cast to string (nested types) fall back to the
    scalar path for that table.

    Returns ``(hash, fn_tag)`` — the tag names the path that actually
    ran (CONTENT_HASH_FN or CONTENT_HASH_FN_FALLBACK) so lineage
    consumers never compare hashes from different families."""
    import polars as pl
    import pyarrow.compute as pc

    try:
        parts = [pc.fill_null(pc.cast(tbl[c], pa.string()), "\x00null")
                 for c in cols]
    except pa.ArrowNotImplementedError:
        import hashlib

        acc = 0
        for vals in zip(*(tbl[c].to_pylist() for c in cols)):
            h = hashlib.blake2b(
                "\x1f".join(str(v) for v in vals).encode("utf-8"),
                digest_size=8).digest()
            acc = (acc + int.from_bytes(h, "little")) & 0xFFFFFFFFFFFFFFFF
        return acc, CONTENT_HASH_FN_FALLBACK
    joined = (parts[0] if len(parts) == 1
              else pc.binary_join_element_wise(*parts, "\x1f"))
    h = pl.from_arrow(joined).hash(seed=0).to_numpy()
    return int(h.sum(dtype=np.uint64)), CONTENT_HASH_FN


def crc32_part_ids(col: "pa.Array | pa.ChunkedArray",
                   n_partitions: int) -> np.ndarray:
    """Arrow string column -> int64 ``crc32(key) % N`` partition ids.

    The hash MUST stay zlib.crc32 (checkpoint part_id stability
    contract — see module docstring), but the per-row Python loop is
    avoided by dictionary-encoding first: conv_ids repeat across every
    turn of a conversation, so the crc runs once per UNIQUE key and a
    vectorized gather fans it back out. Non-string key columns (e.g.
    int64 doc_id) hash their canonical decimal string — stable across
    runs by the same contract."""
    import zlib

    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if not (pa.types.is_string(col.type) or pa.types.is_large_string(col.type)):
        col = pc.cast(col, pa.string())
    enc = col.dictionary_encode()
    uniq = enc.dictionary.to_pylist()
    pids = np.fromiter(
        (zlib.crc32(u.encode("utf-8")) % n_partitions for u in uniq),
        dtype=np.int64, count=len(uniq))
    idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    return pids[idx]
