"""Per-partition Parquet checkpoints with lineage + resume (SURVEY §4).

The reference checkpoints whole stages as pickle blobs and resumes on
file existence (``mistralocr_app.py:523-541``, ``:577-649``). The
distributed equivalent here:

- input rows hash-partition on a key (``part_id = crc32(key) % N`` —
  process-independent, never Python's salted hash)
- each partition's output lands in its own parquet directory
  ``<ckpt>/data/part_id=<k>/`` (resumable layout: a failed run leaves
  complete partitions usable)
- ``<ckpt>/_lineage.json`` records per-partition
  ``{row_count, content_hash, input_fragment}``; a partition is "done"
  iff its lineage entry exists (written only after a verified readback)
- resume = manifest anti-join: recompute ONLY partitions missing from
  the lineage manifest, touching nothing that's done

``content_hash`` is an order-insensitive 64-bit sum of per-row hashes,
so it is stable under block reordering and verifies what's actually on
disk (computed from a readback, not from the in-flight stream).
"""

from __future__ import annotations

import os
import shutil
import zlib

import pyarrow as pa
import ray
import ray.data as rd

from .durable import read_json, write_json

_LINEAGE = "_lineage.json"
_META = "_meta.json"


def part_id_for_key(key: str, n_partitions: int) -> int:
    return zlib.crc32(key.encode("utf-8")) % n_partitions


def add_part_id(ds: "rd.Dataset", key: str, n_partitions: int) -> "rd.Dataset":
    from ..functions.hashing import crc32_part_ids

    def fn(t: pa.Table) -> pa.Table:
        # crc32 once per unique key + vectorized gather; identical ids
        # to part_id_for_key (stability contract pins crc32)
        pids = pa.array(crc32_part_ids(t[key], n_partitions).astype("int32"),
                        pa.int32())
        return t.append_column("part_id", pids)

    return ds.map_batches(fn, batch_format="pyarrow")


def filter_to_partitions(ds: "rd.Dataset", missing) -> "rd.Dataset":
    """Keep only rows whose ``part_id`` is in ``missing`` (vectorized
    np.isin). The ONE pruning rule for resume paths — run_checkpointed
    and the curate stages must agree on the part_id dtype/derivation
    contract, so they share this helper."""
    import numpy as np

    want_set = set(missing)
    want = np.fromiter(sorted(want_set), dtype=np.int64,
                       count=len(want_set))

    def keep(t: pa.Table) -> pa.Table:
        pids = t["part_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.filter(pa.array(np.isin(pids, want)))

    return ds.map_batches(keep, batch_format="pyarrow")


def load_lineage(ckpt_dir: str) -> dict[int, dict]:
    raw = read_json(os.path.join(ckpt_dir, _LINEAGE)) or {}
    return {int(k): v for k, v in raw.items()}


def _save_lineage(ckpt_dir: str, lineage: dict[int, dict]) -> None:
    """The inverse of ``load_lineage``: string keys, in partition order."""
    write_json(os.path.join(ckpt_dir, _LINEAGE),
               {str(k): v for k, v in sorted(lineage.items())})


@ray.remote
def _verify_partition(part_dir: str,
                      hash_cols: list[str]) -> tuple[int, int, str]:
    """Read a written partition back; return
    (row_count, content_hash, hash_fn_tag).

    Hashing is vectorized (functions/hashing.py content_hash_sum —
    the per-row blake2b loop was days of single-core-equivalent work at
    10^12 rows); the tag names the hash path that actually ran (the
    nested-type fallback is a different hash family) and is recorded in
    the lineage entry; ``part_id`` itself stays on crc32 (stability
    contract)."""
    import pyarrow.parquet as pq

    from ..functions.hashing import CONTENT_HASH_FN, content_hash_sum

    files = sorted(
        os.path.join(part_dir, f) for f in os.listdir(part_dir)
        if f.endswith(".parquet")
    )
    count, acc, fn = 0, 0, CONTENT_HASH_FN
    seen_fns: set[str] = set()
    for f in files:
        t = pq.read_table(f, columns=hash_cols)
        count += t.num_rows
        h, fn = content_hash_sum(t, hash_cols)
        seen_fns.add(fn)
        acc = (acc + h) & 0xFFFFFFFFFFFFFFFF
    if len(seen_fns) > 1:
        # files of one partition took DIFFERENT hash paths (schema
        # drift mid-partition): a cross-family sum under a single tag
        # would defeat the never-compare-across-families guarantee —
        # fail loudly instead of recording a meaningless hash
        raise ValueError(
            f"mixed content-hash families in {part_dir}: {sorted(seen_fns)}")
    return count, acc, fn


def run_checkpointed(
    ds: "rd.Dataset",
    transform,
    ckpt_dir: str,
    key: str = "conv_id",
    n_partitions: int = 16,
    hash_cols: list[str] | None = None,
    input_fragment: str = "",
    data_name: str = "data",
) -> "rd.Dataset":
    """Run ``transform(ds_partition_subset)`` for partitions missing
    from the lineage manifest, then return the full checkpointed output
    as a (lazy) Dataset over ``<ckpt>/<data_name>``.

    ``transform`` must preserve the ``part_id`` column it receives
    (re-deriving it from the key via ``add_part_id`` is equivalent —
    part_id is a pure function of the key). Completed partitions are
    never recomputed or rewritten. ``data_name`` lets a caller give the
    data directory a consumer-meaningful name (curate stages use
    ``documents.parquet`` so each stage stays readable by the
    standalone query of the same name).
    """
    hash_cols = hash_cols or ["conv_id", "turn_idx", "md", "status"]
    data_dir = os.path.join(ckpt_dir, data_name)
    os.makedirs(data_dir, exist_ok=True)

    # purge strays that aren't partition dirs (a crashed writer or a
    # foreign file dropped into the data root would pollute the
    # returned read while escaping per-partition invalidation)
    for entry in os.listdir(data_dir):
        if not entry.startswith("part_id="):
            p = os.path.join(data_dir, entry)
            shutil.rmtree(p) if os.path.isdir(p) else os.remove(p)

    lineage = load_lineage(ckpt_dir)

    # Resume validation (never trust stale state silently):
    # - a different partition count invalidates the whole hash layout
    #   (part_id = crc32 % N changed for every row) -> full recompute
    # - a per-partition entry recorded against a different input
    #   fragment is stale -> recompute just that partition
    meta = read_json(os.path.join(ckpt_dir, _META))
    pruned = False
    if meta is not None and meta.get("n_partitions") != n_partitions:
        pruned = bool(lineage)
        lineage = {}
        # persist the cleared manifest BEFORE deleting data: a crash
        # between these steps must never leave on-disk lineage claiming
        # partitions whose data is gone
        _save_lineage(ckpt_dir, lineage)
        if os.path.isdir(data_dir):
            shutil.rmtree(data_dir)
            os.makedirs(data_dir, exist_ok=True)
    stale = [p for p, v in lineage.items()
             if v.get("input_fragment", "") != input_fragment]
    for p in stale:
        del lineage[p]
        pruned = True
    if pruned:
        # the pruned manifest must hit disk before the new meta does;
        # otherwise a crash during recompute leaves new meta + stale
        # lineage entries, and the next resume silently skips partitions
        # that were invalidated (returning a dataset missing their rows)
        _save_lineage(ckpt_dir, lineage)
    write_json(os.path.join(ckpt_dir, _META),
               {"n_partitions": n_partitions, "key": key,
                "input_fragment": input_fragment})

    missing = [p for p in range(n_partitions) if p not in lineage]

    if missing:
        missing_set = set(missing)
        pending = filter_to_partitions(
            add_part_id(ds, key, n_partitions), missing_set)
        import inspect

        if "missing" in inspect.signature(transform).parameters:
            # transforms that can prune side inputs (e.g. the child
            # payload phase) get told which partitions are pending
            out = transform(pending, missing=missing_set)
        else:
            out = transform(pending)
        # clear any partial leftovers from a crashed previous attempt
        for p in missing:
            part_dir = os.path.join(data_dir, f"part_id={p}")
            if os.path.isdir(part_dir):
                shutil.rmtree(part_dir)
        out.write_parquet(data_dir, partition_cols=["part_id"])

        # verify-by-readback, then (atomically) extend the manifest
        verify = {}
        for p in missing:
            part_dir = os.path.join(data_dir, f"part_id={p}")
            if not os.path.isdir(part_dir):
                os.makedirs(part_dir, exist_ok=True)  # empty partition
            verify[p] = _verify_partition.remote(part_dir, hash_cols)

        for p, ref in verify.items():
            count, chash, hash_fn = ray.get(ref)
            lineage[p] = {
                "row_count": count,
                "content_hash": f"{chash:016x}",
                # the tag names the path that RAN (the nested-type
                # fallback is a different hash family than the
                # vectorized polars path)
                "hash_fn": hash_fn,
                "input_fragment": input_fragment,
            }
        _save_lineage(ckpt_dir, lineage)

    return rd.read_parquet(data_dir)


# ---------------------------------------------------------------------------
# Append-only incremental processing (shard-keyed lineage)
# ---------------------------------------------------------------------------

_SHARDS = "_shards.json"


def _shard_fingerprint(path: str) -> str:
    """Cheap content fingerprint: file size + a digest of the raw
    parquet FOOTER bytes (row-group stats, page offsets, compressed
    sizes, row counts — any rewrite that changes data perturbs these
    even when byte size and row count happen to survive). Metadata-only
    I/O: one seek + one footer read, no data scan. mtime is
    deliberately excluded — a byte-identical copy/restore must not
    force recompute (its footer bytes are identical too)."""
    import hashlib

    size = os.path.getsize(path)
    with open(path, "rb") as f:
        f.seek(-8, os.SEEK_END)
        tail = f.read(8)
        if tail[4:] != b"PAR1":
            raise ValueError(f"not a parquet file: {path}")
        flen = int.from_bytes(tail[:4], "little")
        f.seek(-(8 + flen), os.SEEK_END)
        digest = hashlib.blake2b(f.read(flen), digest_size=8).hexdigest()
    return f"{size}:{digest}"


def run_checkpointed_append(
    input_files: list[str],
    transform,
    ckpt_dir: str,
    hash_cols: list[str] | None = None,
    columns: list[str] | None = None,
) -> "rd.Dataset":
    """Incremental append-only processing: lineage is keyed by INPUT
    SHARD (file), not by key hash — the complement of
    ``run_checkpointed`` for the 100-TB pattern where a corpus GROWS
    (new parquet shards land daily) and reprocessing must touch only
    the new files.

    Key-hash partitioning cannot express this: new conversations
    scatter across every crc32 bucket, so any input growth invalidates
    ALL partitions there. Here each input file is its own output
    partition (``<ckpt>/data/shard_id=<sid>/``):

    - NEW files (unseen path) are processed and appended;
    - CHANGED files (size or raw footer bytes differ — see
      ``_shard_fingerprint``) are recomputed
      in place — their old partition is dropped first;
    - REMOVED files have their output partition pruned (manifest first,
      then data — a crash never leaves lineage claiming pruned rows);
    - UNCHANGED files are never read, never recomputed, their output
      bytes never rewritten.

    ``transform(ds)`` receives ONE Dataset over all pending shards with
    a ``shard_id`` column it must preserve (same contract as
    ``run_checkpointed``'s ``part_id``) — so a single streaming
    pipeline covers all new files, not one pipeline per file. The
    transform must be shard-local (row-wise maps/filters/flat-maps):
    cross-shard aggregation would change already-finalized partitions
    and belongs downstream of this sink.

    Fingerprints are metadata-only (size + footer rows, no scan); the
    per-shard output verify is the same readback content hash as
    ``run_checkpointed``. Returns the full output as a lazy Dataset.
    """
    import numpy as np

    hash_cols = hash_cols or ["conv_id", "turn_idx", "md", "status"]
    data_dir = os.path.join(ckpt_dir, "data")
    os.makedirs(data_dir, exist_ok=True)

    files = sorted({os.path.abspath(p) for p in input_files})
    shards_path = os.path.join(ckpt_dir, _SHARDS)
    shards = read_json(shards_path) or {}

    # prune removed inputs (manifest before data, crash-safe order)
    removed = [p for p in shards if p not in files]
    if removed:
        for p in removed:
            del shards[p]
        write_json(shards_path, dict(sorted(shards.items())))
    # reconcile data_dir against the manifest: any shard dir whose sid
    # the manifest doesn't claim is an orphan — a crash between the
    # manifest save above and this point (or a partial write from a
    # crashed run) must self-heal here, never serve phantom rows forever
    claimed = {v["sid"] for v in shards.values()}
    for d in os.listdir(data_dir):
        if d.startswith("shard_id=") and int(d.split("=")[1]) not in claimed:
            shutil.rmtree(os.path.join(data_dir, d))

    fps = {p: _shard_fingerprint(p) for p in files}
    pending = [p for p in files
               if p not in shards or shards[p]["fingerprint"] != fps[p]]

    if pending:
        next_sid = 1 + max((v["sid"] for v in shards.values()), default=-1)
        sid_of: dict[str, int] = {}
        for p in pending:
            if p in shards:          # changed file: recompute in place
                sid_of[p] = shards[p]["sid"]
            else:
                sid_of[p] = next_sid
                next_sid += 1

        # Ray's include_paths rendering varies (may drop the leading
        # '/', resolve symlinks, or normalize duplicate slashes) — match
        # on a canonical realpath on BOTH sides, and fail with the
        # unmatched path named rather than a bare KeyError.
        sid_canon = {os.path.realpath(p): s for p, s in sid_of.items()}

        def tag_shard(t: pa.Table) -> pa.Table:
            # one sid lookup per path value (a block spans one file in
            # practice; dictionary-encode keeps it vectorized either way)
            enc = t["path"].combine_chunks().dictionary_encode()

            def _sid(raw: str) -> int:
                for cand in (raw, "/" + raw.lstrip("/")):
                    s = sid_canon.get(os.path.realpath(cand))
                    if s is not None:
                        return s
                raise ValueError(
                    f"input path {raw!r} from include_paths matches no "
                    f"pending shard (known: {sorted(sid_of)[:3]}...)")

            lut = np.array([_sid(v.as_py()) for v in enc.dictionary],
                           dtype=np.int32)
            sids = lut[enc.indices.to_numpy(zero_copy_only=False)]
            return t.drop_columns(["path"]).append_column(
                "shard_id", pa.array(sids, pa.int32()))

        pending_ds = rd.read_parquet(pending, columns=columns,
                                     include_paths=True)
        out = transform(pending_ds.map_batches(tag_shard,
                                               batch_format="pyarrow"))

        # clear partial leftovers / stale versions of pending shards
        for p in pending:
            d = os.path.join(data_dir, f"shard_id={sid_of[p]}")
            if os.path.isdir(d):
                shutil.rmtree(d)
        out.write_parquet(data_dir, partition_cols=["shard_id"])

        verify = {}
        for p in pending:
            d = os.path.join(data_dir, f"shard_id={sid_of[p]}")
            if not os.path.isdir(d):
                os.makedirs(d, exist_ok=True)  # shard produced no rows
            verify[p] = _verify_partition.remote(d, hash_cols)
        for p, ref in verify.items():
            count, chash, hash_fn = ray.get(ref)
            shards[p] = {
                "sid": sid_of[p],
                "fingerprint": fps[p],
                "row_count": count,
                "content_hash": f"{chash:016x}",
                "hash_fn": hash_fn,
            }
        write_json(shards_path, dict(sorted(shards.items())))

    return rd.read_parquet(data_dir)
