"""Incremental dedup against PERSISTED indexes — the growing-corpus
path a 100-TB pipeline actually runs: the corpus was deduped once; new
shards land daily; re-processing the whole history per increment is
O(corpus) per day, so every blocking family here has an O(new) path:

- MinHash near-dup        build_dedup_index / dedup_minhash_incremental
- exact (content-hash)    build_exact_index / dedup_exact_incremental
                          (+ exact_index_kept / exact_index_compact)
- hyperplane-LSH (embed)  build_embdedup_index /
                          neardup_embedding_incremental
- (IVF ANN lives in stages/similarity.py: append_to_ivf_index)

All share one crash contract: appends land via the tag-staged move
protocol (`_staged_partition_append` — deterministic inc-ordinal file
names, purge-then-move, meta written LAST and atomically), so a
crash-retry can never double-append; labels/kept fold via a
generation swap (`.next` written fully, retire, rename) that
`_healed_subdir` completes on next access if interrupted.

The MinHash design in detail (the band families mirror it):
``build_dedup_index`` persists the dedup run's three artifacts —

  <index_dir>/bands/bb=<k>/   (band_key, doc_id) for EVERY old doc
                              (removed docs included: they carry
                              transitivity — a new doc similar only to
                              a removed doc must still join that doc's
                              cluster), band_key-sorted within each
                              hash partition so row-group stats serve
                              pushdown probes
  <index_dir>/labels/         (doc_id, cluster_id) for old clustered
                              docs — the old verified pairs compressed
                              to star edges (same components)
  <index_dir>/kept/           the old run's surviving doc_ids
  <index_dir>/meta.json       seed / bands / n_perm / threshold /
                              doc_path / band partition count

and ``dedup_minhash_incremental`` processes ONLY the new shards:

  1. band the new docs (identical sketch path — shared
     ``_minhash_band_rows``);
  2. new-vs-new candidates via the standard ``_pairs_dataset``;
  3. new-vs-old candidates by PROBING the band index: new band rows
     group by the index's partition hash, each group task reads only
     its own ``bb=`` partition with a ``band_key IN (...)`` pushdown
     filter — the old corpus is never scanned (reference analog: the
     checkpoint-existence skip semantics, mistralocr_app.py:585-597; Ray
     pattern analog: ``build_ivf_index``/``knn_cosine_ivf_indexed``,
     stages/similarity.py:186,221);
  4. exact-Jaccard verify reads old + new documents by doc_id
     pushdown (the shared ``_verify_jaccard_ds``, multi-path);
  5. keep = ``_keep_after_pairs`` over (old kept ∪ new docs) with
     edges = old labels ∪ verified new pairs. Min-label union-find
     over star-compressed old components is exactly the from-scratch
     clustering, so the kept set EQUALS a from-scratch run on the
     concatenated corpus (pytest-pinned, including the case where a
     new doc bridges two old clusters and evicts a previously-kept
     old doc).

Contract: doc_ids are globally unique across the old corpus and every
increment (the tables' invariant). ``update_index=True`` folds the
increment back in (bands append; labels/kept rewrite) so increments
chain — two successive increments equal one from-scratch run over all
three corpora (pytest-pinned).
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from .dedup import (
    _BANDS,
    _N_PERM,
    _all_pairs,
    _distinct_pairs_ds,
    _ensure_pair_schema,
    _keep_after_pairs,
    _minhash_band_rows,
    _pairs_dataset,
    _read_docs,
    _vec_ids_as_doc_ids,
    _verify_jaccard_ds,
    cluster_labels,
)
from ..functions.dedup import char_shingles
from ..functions.hashing import partition_hash_tag
from .joins import BUCKET_COL, bucket_groups, with_bucket

_BAND_PARTS = 64


def _doc_ids(docs: "rd.Dataset") -> "rd.Dataset":
    return docs.map_batches(
        lambda t: pa.table({"doc_id": t["doc_id"]}),
        batch_format="pyarrow")


def _distinct_ids(ids: "rd.Dataset", num_buckets: int = 64) -> "rd.Dataset":
    """Bucketed DISTINCT over a doc_id Dataset (ids-only shuffle). The
    kept∪new universe can hold repeats when a crash-retry re-presents
    an increment whose docs the labels/kept swap already folded —
    without this, `_keep_after_pairs` would emit those docs twice."""

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return g[["doc_id"]].drop_duplicates()

    return bucket_groups(ids, "doc_id", per_bucket, num_buckets)


def _labels_as_edges(labels: "rd.Dataset") -> "rd.Dataset":
    """(doc_id, cluster_id) -> (a, b) star edges for union-find (self
    edges for roots are harmless no-ops)."""
    return labels.map_batches(
        lambda t: pa.table({"a": t["cluster_id"].cast(pa.int64()),
                            "b": t["doc_id"].cast(pa.int64())}),
        batch_format="pyarrow")


_LABELS_SCHEMA = pa.schema([("doc_id", pa.int64()),
                            ("cluster_id", pa.int64())])
_KEPT_SCHEMA = pa.schema([("doc_id", pa.int64())])


def _write_ds(ds: "rd.Dataset", path: str, schema: pa.Schema) -> None:
    """write_parquet that survives the empty case: an empty Dataset
    writes no files at all (an old corpus with zero near-dup pairs has
    empty labels), which would make the later read_parquet fail — seed
    a typed empty file instead."""
    import pyarrow.parquet as pq

    ds.write_parquet(path)
    os.makedirs(path, exist_ok=True)
    if not any(f.endswith(".parquet") for f in os.listdir(path)):
        pq.write_table(schema.empty_table(),
                       os.path.join(path, "empty.parquet"))


def _write_bands(bands: "rd.Dataset", bands_dir: str,
                 num_parts: int = _BAND_PARTS) -> None:
    """Append band rows as parquet partitioned by ``bb = hash(band_key)
    % num_parts``, globally sorted by (bb, band_key) first so each
    partition's files carry sorted band_key row groups — the one-time
    all-to-all that makes every later probe a pruned read (the
    build_ivf_index trade)."""
    os.makedirs(bands_dir, exist_ok=True)
    with_bucket(bands, "band_key", num_parts, "bb") \
        .sort(["bb", "band_key"]) \
        .write_parquet(bands_dir, partition_cols=["bb"])


def _purge_tagged(live_dir: str, tag: str) -> None:
    """Remove every ``<tag>_``-prefixed file under a partitioned dir —
    the leftovers of a crashed previous append attempt of this tag."""
    if not os.path.isdir(live_dir):
        return
    for root, _dirs, files in os.walk(live_dir):
        for f in files:
            if f.startswith(f"{tag}_"):
                os.remove(os.path.join(root, f))


def _healed_subdir(index_dir: str, name: str,
                   staged: str = ".next") -> str:
    """Resolve (and heal) a swap-replaced index subdir (labels/kept).
    ``_fold_band_index`` writes the next generation to ``<name>.next``
    COMPLETELY before retiring the old one, so if ``<name>`` is absent
    the ``.next`` (or ``.retired``) on disk is a complete generation —
    promote it. ``staged`` names the fully-written-next-generation
    suffix (``.next`` for folds, ``.compact`` for compaction) — the
    staged candidate is preferred over ``.retired`` because it is the
    NEWER complete generation."""
    final = os.path.join(index_dir, name)
    if not os.path.isdir(final):
        for cand in (final + staged, final + ".retired"):
            if os.path.isdir(cand):
                os.rename(cand, final)
                break
    retired = final + ".retired"
    if os.path.isdir(final) and os.path.isdir(retired):
        shutil.rmtree(retired)  # swap completed, old generation is junk
    return final


def _swap_in(final: str, staged: str = ".next") -> None:
    """Promote a fully-written ``<final><staged>`` generation: retire
    the old dir, rename the new one in, drop the retired copy. A crash
    at any point leaves a complete generation reachable by
    ``_healed_subdir`` (old, or new via the staged/``.retired``
    candidates) — never a missing or half-written dir. The ONE swap
    implementation for folds and compaction."""
    retired = final + ".retired"
    if os.path.isdir(retired):
        shutil.rmtree(retired)
    os.rename(final, retired)
    os.rename(final + staged, final)
    shutil.rmtree(retired)


def _load_meta(index_dir: str) -> dict:
    """An index's meta.json, refused when its partitions were hashed by
    another ``bucket_ids`` build: a probe would read the wrong
    partition and miss every old duplicate without an error."""
    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    built = meta.get("partition_hash")
    if built != partition_hash_tag():
        raise ValueError(
            f"index built with {built or 'an untagged partition hash'}; "
            f"this process hashes partitions with {partition_hash_tag()}; "
            f"rebuild {index_dir}")
    return meta


def _save_meta_atomic(index_dir: str, meta: dict) -> None:
    """meta.json is the keystone of the tag-retry protocol (the
    increment ordinal derives from it) — fsync'd tmp + os.replace so
    neither a process crash nor a power loss shortly after can leave
    it truncated."""
    path = os.path.join(index_dir, "meta.json")
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(meta, f)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


_FOLDING = "_folding.json"


def _fold_guard_check(index_dir: str, input_path: str,
                      indexed_paths: list) -> None:
    """The fold updates bands/labels/kept/meta — each crash-safe alone,
    but consistent ACROSS artifacts only if a crashed fold is retried
    with the SAME increment (the retry reconverges: the star-edge
    union is idempotent). Enforce that: any query against an index
    with a pending fold of a DIFFERENT input is refused — otherwise
    the half-folded increment's cluster merges (already in labels)
    would silently pollute this call's kept set.

    A guard naming a path that meta already lists (``indexed_paths``)
    is stale: meta is written LAST, so that fold finished and only the
    guard's removal was lost. It is cleared, not enforced — else the
    finished increment is refused as a duplicate and every other one
    as an incomplete fold, wedging the index."""
    path = os.path.join(index_dir, _FOLDING)
    if os.path.exists(path):
        with open(path) as f:
            pending = json.load(f)
        if pending.get("input_path") in indexed_paths:
            _fold_guard_exit(index_dir)
        elif pending.get("input_path") != input_path:
            raise RuntimeError(
                f"index {index_dir} has an incomplete fold of "
                f"{pending.get('input_path')!r} (tag {pending.get('tag')}) "
                f"— retry THAT increment to completion before using the "
                f"index with {input_path!r}")


def _fold_guard_mark(index_dir: str, tag: str, input_path: str) -> None:
    """Record the in-flight increment before the fold's first mutation
    (fsync'd tmp + replace, like meta)."""
    path = os.path.join(index_dir, _FOLDING)
    with open(path + ".tmp", "w") as f:
        json.dump({"tag": tag, "input_path": input_path}, f)
        f.flush()
        os.fsync(f.fileno())
    os.replace(path + ".tmp", path)


def _fold_guard_exit(index_dir: str) -> None:
    path = os.path.join(index_dir, _FOLDING)
    if os.path.exists(path):
        os.remove(path)


def _fold_band_index(index_dir: str, new_bands: "rd.Dataset",
                     num_parts: int, tag: str, edges: "rd.Dataset",
                     kept: "rd.Dataset") -> None:
    """THE shared fold sequence for band-index increments (MinHash and
    hyperplane-LSH — one implementation so the crash contract cannot
    drift between families): tag-staged band append (a crash-retry
    purges and re-moves the same files, never double-appends), then
    labels/kept generation swap (write ``.next`` fully, retire, rename
    — a crash leaves a complete generation reachable via
    ``_healed_subdir``, never a missing or torn dir). Cross-artifact
    consistency relies on retry-the-same-increment, which
    ``_fold_guard_enter`` enforces. The caller writes meta (the
    doc-path guard and the tag's ordinal source) LAST, atomically,
    then clears the fold guard."""
    _staged_partition_append(
        lambda d: _write_bands(new_bands, d, num_parts),
        os.path.join(index_dir, "bands"), tag)
    new_labels = cluster_labels(edges)  # materializes internally
    for name, ds, schema in (("labels", new_labels, _LABELS_SCHEMA),
                             ("kept", kept, _KEPT_SCHEMA)):
        final = _healed_subdir(index_dir, name)
        nxt = final + ".next"
        if os.path.isdir(nxt):
            shutil.rmtree(nxt)
        _write_ds(ds, nxt, schema)
        _swap_in(final)


def _staged_partition_append(write_fn, live_dir: str, tag: str) -> None:
    """Crash-idempotent append into a hive-partitioned parquet dir.

    ``write_fn(staging_dir)`` produces the increment's partitioned
    files in a tag-scoped staging dir; any ``<tag>_``-prefixed files a
    crashed previous attempt left in the live partitions are purged;
    then the staged files move in under deterministic ``<tag>_<i>``
    names. A retry after a crash at ANY point (staging, purge,
    mid-move) reproduces the same final state — the double-append a
    bare ``write_parquet(live_dir)`` retry would cause cannot happen.
    The caller must derive ``tag`` deterministically from the index
    state (increment ordinal), which is stable across retries because
    the meta update is always LAST."""
    staging = f"{live_dir}.staging-{tag}"
    if os.path.isdir(staging):
        shutil.rmtree(staging)
    write_fn(staging)
    os.makedirs(live_dir, exist_ok=True)
    _purge_tagged(live_dir, tag)
    for part in sorted(os.listdir(staging)):
        src_part = os.path.join(staging, part)
        if not os.path.isdir(src_part):
            continue
        dst_part = os.path.join(live_dir, part)
        os.makedirs(dst_part, exist_ok=True)
        for i, f in enumerate(sorted(os.listdir(src_part))):
            if f.endswith(".parquet"):
                os.replace(os.path.join(src_part, f),
                           os.path.join(dst_part,
                                        f"{tag}_{i:05d}.parquet"))
    shutil.rmtree(staging)


def build_dedup_index(sf_dir: str, index_dir: str, threshold: float = 0.8,
                      seed: int = 42,
                      num_band_parts: int = _BAND_PARTS) -> None:
    """Run the from-scratch MinHash dedup over ``sf_dir`` and persist
    the band index + labels + kept set (layout in the module
    docstring). Same banding/verification as ``dedup_minhash`` — the
    increments' parity depends on it."""
    docs = _read_docs(sf_dir)
    # sketch ONCE: the band table (16 fixed-width rows per doc — the
    # same budget the from-scratch LSH shuffle moves) feeds both the
    # pair generation and the index write
    bands = _minhash_band_rows(docs, seed).materialize()
    pairs, n_raw = _pairs_dataset(bands, _all_pairs)
    verified = _verify_jaccard_ds(
        os.path.join(sf_dir, "documents.parquet"), pairs, char_shingles,
        threshold, n_upper=n_raw).materialize()  # feeds labels AND kept

    tmp = index_dir + ".tmp"
    if os.path.isdir(tmp):
        shutil.rmtree(tmp)
    os.makedirs(tmp)

    _write_bands(bands, os.path.join(tmp, "bands"), num_band_parts)
    _write_ds(cluster_labels(verified), os.path.join(tmp, "labels"),
              _LABELS_SCHEMA)
    _write_ds(_keep_after_pairs(docs, verified),
              os.path.join(tmp, "kept"), _KEPT_SCHEMA)
    with open(os.path.join(tmp, "meta.json"), "w") as f:
        json.dump({"seed": seed, "bands": _BANDS, "n_perm": _N_PERM,
                   "threshold": threshold,
                   "num_band_parts": num_band_parts,
                   "partition_hash": partition_hash_tag(),
                   "doc_paths": [os.path.abspath(
                       os.path.join(sf_dir, "documents.parquet"))]}, f)
    if os.path.isdir(index_dir):
        shutil.rmtree(index_dir)
    os.replace(tmp, index_dir)


def _probe_band_index(new_bands: "rd.Dataset", bands_dir: str,
                      num_parts: int) -> "rd.Dataset":
    """New (band_key, doc_id) rows -> raw new-vs-old candidate (a, b)
    pairs. Grouped by the index's partition hash; each group task reads
    ONLY its own partition, filtered to the group's band keys (row-group
    pruning via the sorted write). Emits (min, max)-oriented pairs so
    the cross-band distinct combine can dedupe them."""

    def probe(g: pd.DataFrame) -> pd.DataFrame:
        import pyarrow.parquet as pq

        empty = pd.DataFrame({"a": pd.Series([], dtype="int64"),
                              "b": pd.Series([], dtype="int64")})
        part = os.path.join(bands_dir, f"bb={int(g[BUCKET_COL].iloc[0])}")
        if not os.path.isdir(part):
            return empty
        # list files explicitly: a partition emptied by the crash-heal
        # purge reads as an empty-schema dataset and the filter
        # wouldn't bind
        files = [os.path.join(part, f) for f in os.listdir(part)
                 if f.endswith(".parquet")]
        if not files:
            return empty
        keys = g["band_key"].drop_duplicates().tolist()
        old = pq.read_table(
            files, columns=["band_key", "doc_id"],
            filters=[("band_key", "in", keys)]).to_pandas()
        if old.empty:
            return empty
        m = g[["band_key", "doc_id"]].merge(
            old, on="band_key", suffixes=("_new", "_old"))
        if m.empty:
            return empty
        lo = np.minimum(m["doc_id_new"].to_numpy(),
                        m["doc_id_old"].to_numpy())
        hi = np.maximum(m["doc_id_new"].to_numpy(),
                        m["doc_id_old"].to_numpy())
        return pd.DataFrame({"a": pd.Series(lo, dtype="int64"),
                             "b": pd.Series(hi, dtype="int64")})

    return bucket_groups(new_bands, "band_key", probe, num_parts) \
        .map_batches(_ensure_pair_schema, batch_format="pyarrow")


def dedup_minhash_incremental(new_dir: str, index_dir: str,
                              update_index: bool = False) -> "rd.Dataset":
    """Dedup NEW shards against a ``build_dedup_index`` index without
    re-reading the old corpus (band probes + doc_id-pushdown verify
    reads only). Returns the kept doc_ids over old ∪ new — bitwise the
    set a from-scratch ``dedup_minhash`` over the concatenated corpus
    returns. ``update_index=True`` folds the increment back into the
    index so further increments chain."""
    meta = _load_meta(index_dir)
    seed, threshold = meta["seed"], meta["threshold"]
    num_parts = meta["num_band_parts"]
    new_doc_path = os.path.abspath(
        os.path.join(new_dir, "documents.parquet"))
    _fold_guard_check(index_dir, new_doc_path, meta["doc_paths"])
    if new_doc_path in meta["doc_paths"]:
        raise ValueError(f"{new_doc_path} is already in the index")

    # heal a crashed previous fold attempt of THIS increment: its tag
    # is the increment ordinal (stable across retries — meta is written
    # LAST), and its partial band files must not be probed as "old"
    tag = f"inc{len(meta['doc_paths']):05d}"
    _purge_tagged(os.path.join(index_dir, "bands"), tag)

    new_docs = _read_docs(new_dir)
    new_bands = _minhash_band_rows(new_docs, seed)
    # the band rows feed two consumers (new-new pairing, index probe) —
    # materialize the sketch, not the corpus (fixed 16 rows x ~24 B per
    # doc, the same budget the from-scratch shuffle moves)
    new_bands = new_bands.materialize()

    nn_pairs, nn_raw = _pairs_dataset(new_bands, _all_pairs)
    no_raw = _probe_band_index(new_bands,
                               os.path.join(index_dir, "bands"), num_parts)
    no_pairs, no_n = _distinct_pairs_ds(no_raw)
    # new-new and new-old pair sets are disjoint (one endpoint old vs
    # none), so the union is already distinct. Normalize BOTH sides to
    # Arrow blocks first: the adaptive distinct tails emit pandas
    # blocks on the small path and Arrow on the bucketed one, and a
    # mixed-block union trips downstream sort shuffles.
    pairs = nn_pairs.map_batches(
        _ensure_pair_schema, batch_format="pyarrow").union(
        no_pairs.map_batches(_ensure_pair_schema, batch_format="pyarrow"))

    verified = _verify_jaccard_ds(
        meta["doc_paths"] + [new_doc_path], pairs, char_shingles,
        threshold, n_upper=nn_raw + no_n).materialize()

    old_labels = rd.read_parquet(_healed_subdir(index_dir, "labels"))
    old_kept = rd.read_parquet(_healed_subdir(index_dir, "kept"))
    # materialize: edges feeds both the kept computation and (on the
    # update path) cluster_labels — without this the labels read +
    # union re-execute per consumer
    edges = verified.union(_labels_as_edges(old_labels)).materialize()
    universe = _distinct_ids(old_kept.union(_doc_ids(new_docs)))
    kept = _keep_after_pairs(universe, edges)

    if not update_index:
        return kept

    _fold_guard_mark(index_dir, tag, new_doc_path)
    _fold_band_index(index_dir, new_bands, num_parts, tag, edges, kept)
    meta["doc_paths"].append(new_doc_path)
    _save_meta_atomic(index_dir, meta)
    _fold_guard_exit(index_dir)
    # materialize: the NEXT increment's generation swap deletes these
    # files underneath a lazily-bound Dataset
    return rd.read_parquet(_healed_subdir(index_dir, "kept")).materialize()


# ---------------------------------------------------------------------------
# Incremental EXACT dedup against a persisted content-hash index
# ---------------------------------------------------------------------------
#
# The exact-dedup analog of the band index above, with an LSM twist that
# keeps increments APPEND-ONLY: the index is a log of per-increment
# per-hash minima ``(h, doc_id=min, n_dups)`` partitioned by
# ``hb = hash(h) % parts`` (sorted by (hb, h) within each write so
# row-group stats serve pushdown probes). A hash may appear once per
# increment that saw it; readers merge with keep-min / sum — exactly the
# ``dedup_exact`` first-writer-wins contract — so an increment never
# rewrites an existing byte (O(new) work, like ``append_to_ivf_index``),
# and the merged index content IS the kept set of a from-scratch
# ``dedup_exact`` over everything indexed (pytest-pinned, including
# keeper eviction when a new doc_id undercuts an old keeper).

_EXACT_PARTS = 64

_EXACT_SCHEMA = pa.schema([("h", pa.string()), ("doc_id", pa.int64()),
                           ("n_dups", pa.int64())])


def _merge_lsm_rows(g: pd.DataFrame, keep_hb: bool = True) -> pd.DataFrame:
    """THE exact-index merge rule — keep-min keeper, summed counts per
    hash. One definition shared by the minima build, the probe's
    old-side merge, the kept view, and compaction, so the pinned
    'compaction/probe/view all agree' invariants cannot drift."""
    if keep_hb:
        out = g.groupby("h", as_index=False).agg(
            hb=("hb", "first"), doc_id=("doc_id", "min"),
            n_dups=("n_dups", "sum"))
        cols = ["h", "hb", "doc_id", "n_dups"]
    else:
        out = g.groupby("h", as_index=False).agg(
            doc_id=("doc_id", "min"), n_dups=("n_dups", "sum"))
        cols = ["h", "doc_id", "n_dups"]
    out["n_dups"] = out["n_dups"].astype("int64")
    return out[cols]


def _exact_minima(docs_dir: str, num_parts: int) -> "rd.Dataset":
    """One corpus -> (h, hb, doc_id=min, n_dups) per distinct text —
    the same partial/bucketed-combine shape as ``library.dedup_exact``
    (shared ``content_hash`` kernel keeps the two paths equal)."""
    from ..functions.textstats import content_hash

    ds = rd.read_parquet(os.path.join(docs_dir, "documents.parquet"),
                         columns=["doc_id", "text"])

    def partial(t: pa.Table) -> pa.Table:
        h = pa.array([content_hash(s) for s in t["text"].to_pylist()],
                     pa.string())
        df = pa.table({"doc_id": t["doc_id"], "h": h}).to_pandas()
        agg = df.groupby("h", as_index=False).agg(
            doc_id=("doc_id", "min"), n_dups=("doc_id", "size"))
        return pa.Table.from_pandas(agg, preserve_index=False)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # the bucket id IS the persisted hb partition
        return _merge_lsm_rows(g.rename(columns={BUCKET_COL: "hb"}))

    return bucket_groups(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536),
        "h", per_bucket, num_parts)


def _append_exact_rows(minima: "rd.Dataset", data_dir: str,
                       num_parts: int) -> None:
    """Append one increment's minima into the ``hb=`` partitions,
    (hb, h)-sorted so probe reads prune row groups."""
    os.makedirs(data_dir, exist_ok=True)
    minima.sort(["hb", "h"]).write_parquet(data_dir,
                                           partition_cols=["hb"])


def build_exact_index(sf_dir: str, index_dir: str,
                      num_parts: int = _EXACT_PARTS) -> None:
    """Persist the exact-dedup state of ``sf_dir`` (layout above)."""
    tmp = index_dir + ".tmp"
    if os.path.isdir(tmp):
        shutil.rmtree(tmp)
    os.makedirs(tmp)
    _append_exact_rows(_exact_minima(sf_dir, num_parts),
                       os.path.join(tmp, "data"), num_parts)
    with open(os.path.join(tmp, "meta.json"), "w") as f:
        json.dump({"num_parts": num_parts,
                   "partition_hash": partition_hash_tag(),
                   "doc_paths": [os.path.abspath(
                       os.path.join(sf_dir, "documents.parquet"))]}, f)
    if os.path.isdir(index_dir):
        shutil.rmtree(index_dir)
    os.replace(tmp, index_dir)


def dedup_exact_incremental(new_dir: str, index_dir: str,
                            update_index: bool = True) -> "rd.Dataset":
    """Exact-dedup NEW shards against a ``build_exact_index`` index.

    Returns the DELTA for every text hash present in the new shard:
    ``(doc_id, n_dups, evicted_doc_id)`` — the merged keeper (min over
    old ∪ new ids), the merged duplicate count, and the old keeper's id
    when the new shard evicted it (else null). The old corpus is never
    scanned: each hash-bucket group task reads only its own ``hb=``
    partition filtered to the group's hashes. ``update_index=True``
    (default) appends the increment's minima — O(new) bytes, no
    existing file rewritten — so increments chain and
    ``exact_index_kept`` over the updated index equals a from-scratch
    ``dedup_exact`` on the concatenated corpus."""
    meta = _load_meta(index_dir)
    num_parts = meta["num_parts"]
    new_doc_path = os.path.abspath(
        os.path.join(new_dir, "documents.parquet"))
    if new_doc_path in meta["doc_paths"]:
        raise ValueError(f"{new_doc_path} is already in the index")

    data_dir = _exact_data_dir(index_dir)  # heals an interrupted swap
    # heal a crashed previous fold of THIS increment before probing —
    # its partial rows must not be merged as "old" (they'd double-count
    # n_dups and make every new doc collide with itself)
    tag = f"inc{len(meta['doc_paths']):05d}"
    _purge_tagged(data_dir, tag)
    minima = _exact_minima(new_dir, num_parts).materialize()

    def probe(g: pd.DataFrame) -> pd.DataFrame:
        import pyarrow.parquet as pq

        part = os.path.join(data_dir, f"hb={int(g[BUCKET_COL].iloc[0])}")
        old = None
        # list files explicitly: a partition emptied by the crash-heal
        # purge (its only file was tagged) reads as an empty-schema
        # dataset, and the h-filter would fail to bind
        files = [os.path.join(part, f) for f in os.listdir(part)
                 if f.endswith(".parquet")] if os.path.isdir(part) else []
        if files:
            keys = g["h"].drop_duplicates().tolist()
            t = pq.read_table(files, columns=["h", "doc_id", "n_dups"],
                              filters=[("h", "in", keys)])
            if t.num_rows:
                # LSM merge of prior increments' rows for these hashes
                old = _merge_lsm_rows(t.to_pandas(), keep_hb=False)
        m = g[["h", "doc_id", "n_dups"]]
        if old is None or old.empty:
            out = m.copy()
            out["evicted_doc_id"] = pd.Series(
                [pd.NA] * len(out), dtype="Int64")
            return out[["doc_id", "n_dups", "evicted_doc_id"]].astype(
                {"doc_id": "int64", "n_dups": "int64"})
        # nullable-Int64 merge: a plain left-merge fills the missing
        # side as float64, which silently rounds doc_ids above 2^53 —
        # the exact hazard class the repo pins elsewhere. All id
        # arithmetic below stays in int64.
        j = m.merge(old.astype({"doc_id": "Int64", "n_dups": "Int64"}),
                    on="h", how="left", suffixes=("", "_old"))
        has_old = j["doc_id_old"].notna().to_numpy()
        new_ids = j["doc_id"].to_numpy()
        old_ids = j["doc_id_old"].fillna(
            np.iinfo(np.int64).max).astype("int64").to_numpy()
        new_wins = new_ids < old_ids  # ids unique -> never equal
        evict_mask = new_wins & has_old
        return pd.DataFrame({
            "doc_id": np.where(new_wins, new_ids, old_ids),
            "n_dups": (j["n_dups"].astype("Int64")
                       + j["n_dups_old"].fillna(0)).astype("int64"),
            "evicted_doc_id": pd.Series(
                pd.array(old_ids, dtype="Int64")).where(
                    pd.Series(evict_mask), pd.NA),
        })

    delta_schema = pa.schema([("doc_id", pa.int64()),
                              ("n_dups", pa.int64()),
                              ("evicted_doc_id", pa.int64())])

    def pin_schema(t: pa.Table) -> pa.Table:
        # an increment with zero evictions leaves evicted_doc_id all-NA,
        # which pandas->Arrow renders as the null type — cast pins int64
        return t.select([f.name for f in delta_schema]).cast(delta_schema)

    delta = (
        bucket_groups(minima, "h", probe, num_parts)
        .map_batches(pin_schema, batch_format="pyarrow")
    ).materialize()  # probe reads must finish BEFORE the append below

    if update_index:
        # tag-staged append: crash-retry purges + re-moves the same
        # files, never double-appends; meta (the doc_paths guard and
        # the tag's ordinal source) is written LAST
        _staged_partition_append(
            lambda d: _append_exact_rows(minima, d, num_parts),
            data_dir, tag)
        meta["doc_paths"].append(new_doc_path)
        _save_meta_atomic(index_dir, meta)
    return delta


def exact_index_kept(index_dir: str) -> "rd.Dataset":
    """Merged view of the index: (doc_id, n_dups) per distinct text —
    bitwise the rows a from-scratch ``dedup_exact`` over every indexed
    corpus returns. The merge is per-``hb``-bucket (the partition
    column comes back from the hive layout), so no task holds more
    than one bucket."""
    ds = rd.read_parquet(_exact_data_dir(index_dir))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return _merge_lsm_rows(g, keep_hb=False)[["doc_id", "n_dups"]]

    return ds.groupby("hb").map_groups(per_bucket, batch_format="pandas")


def _exact_data_dir(index_dir: str) -> str:
    """Resolve (and heal) the exact index's data generation — the
    shared ``_healed_subdir`` machinery with compaction's staged
    suffix. A crash between compaction's two renames leaves ``data``
    absent with the fully-written ``data.compact`` (or the retired old
    one) on disk; readers promote it and never see a mix."""
    return _healed_subdir(index_dir, "data", staged=".compact")


def exact_index_compact(index_dir: str) -> None:
    """LSM compaction: rewrite the index as merged per-hash minima
    (one row per distinct text again). Increments append one file per
    delivery per touched partition; after many deliveries every probe
    merges that whole history — compaction restores single-row reads
    without changing the merged content (``exact_index_kept`` before
    == after, pytest-pinned).

    The merge runs DISTRIBUTED (bucketed Ray groupby — no partition
    ever concentrates on the driver, matching every other
    corpus-scaled pass here) into a fresh generation dir, then swaps
    generations with two renames. A crash at any point leaves either
    the old generation or the complete new one (``_exact_data_dir``
    heals an interrupted swap on next access) — never a partition
    mixing compacted and source files, which would double-count
    n_dups.

    Orphaned rows of a crashed UN-finalized increment (tagged with the
    next ordinal, absent from meta doc_paths) are purged first — were
    they merged into the compacted generation, the increment's retry
    could no longer heal them by tag and would double-count."""
    data_dir = _exact_data_dir(index_dir)
    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    _purge_tagged(data_dir, f"inc{len(meta['doc_paths']):05d}")

    gen = data_dir + ".compact"
    if os.path.isdir(gen):
        shutil.rmtree(gen)  # partial previous attempt

    (
        rd.read_parquet(data_dir)
        .groupby("hb")
        .map_groups(_merge_lsm_rows, batch_format="pandas")
        .sort(["hb", "h"])
        .write_parquet(gen, partition_cols=["hb"])
    )
    _swap_in(data_dir, staged=".compact")


# ---------------------------------------------------------------------------
# Incremental EMBEDDING near-dup against a persisted hyperplane-band index
# ---------------------------------------------------------------------------
#
# The embedding-family analog of the MinHash band index above (same
# layout, same probe, same crash contract): hyperplane-LSH band rows for
# every indexed vector persist partitioned by band-key hash; new shards
# band locally with the SAME planes (deterministic in (dim, bands,
# planes, seed)) and probe colliding history by pushdown; exact cosine
# verification reads old + new vectors by vec_id pushdown; the kept set
# equals a from-scratch `neardup_embedding` over the concatenated
# corpus. Completes the incremental story: every blocking family
# (MinHash, exact-hash, IVF, hyperplane-LSH) has an O(new) path.

def build_embdedup_index(sf_dir: str, index_dir: str,
                         threshold: float = 0.95, n_bands: int = 4,
                         planes_per_band: int = 8, seed: int = 13,
                         num_band_parts: int = _BAND_PARTS) -> None:
    """Run the from-scratch embedding near-dup over
    ``<sf_dir>/embeddings.parquet`` and persist bands + labels + kept
    (the ``build_dedup_index`` layout) PLUS the hyperplane tensor
    itself (``planes.npy``) — increments must band under the exact
    planes that produced the stored rows, and NumPy Generator streams
    are not version-stable, so the seed alone is not durable (the same
    reason ``build_ivf_index`` persists centroids.npy)."""
    from .dedup import (
        _embedding_band_rows,
        _embedding_dim,
        _hyperplanes,
        _verify_cosine_ds,
    )

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    dim = _embedding_dim(emb_path)
    planes = _hyperplanes(dim, n_bands, planes_per_band, seed)
    bands = _embedding_band_rows(emb_path, planes).materialize()
    pairs, n_raw = _pairs_dataset(bands, _all_pairs)
    verified = _verify_cosine_ds(emb_path, pairs, threshold,
                                 n_upper=n_raw).materialize()

    tmp = index_dir + ".tmp"
    if os.path.isdir(tmp):
        shutil.rmtree(tmp)
    os.makedirs(tmp)
    _write_bands(bands, os.path.join(tmp, "bands"), num_band_parts)
    _write_ds(cluster_labels(verified), os.path.join(tmp, "labels"),
              _LABELS_SCHEMA)
    _write_ds(_keep_after_pairs(_vec_ids_as_doc_ids(emb_path), verified),
              os.path.join(tmp, "kept"), _KEPT_SCHEMA)
    np.save(os.path.join(tmp, "planes.npy"), planes)
    with open(os.path.join(tmp, "meta.json"), "w") as f:
        json.dump({"dim": dim, "n_bands": n_bands,
                   "planes_per_band": planes_per_band, "seed": seed,
                   "threshold": threshold,
                   "num_band_parts": num_band_parts,
                   "partition_hash": partition_hash_tag(),
                   "emb_paths": [os.path.abspath(emb_path)]}, f)
    if os.path.isdir(index_dir):
        shutil.rmtree(index_dir)
    os.replace(tmp, index_dir)


def neardup_embedding_incremental(new_dir: str, index_dir: str,
                                  update_index: bool = False
                                  ) -> "rd.Dataset":
    """Near-dup NEW embedding shards against a ``build_embdedup_index``
    index without re-banding the history (band probes + vec_id-pushdown
    cosine verify only). Returns the kept ids over old ∪ new — bitwise
    the set a from-scratch ``neardup_embedding`` over the concatenated
    corpus returns (same plane tensor — loaded from the index, never
    re-derived from the seed). ``update_index=True`` folds the
    increment in (tag-staged band append, labels/kept atomic rewrite —
    the shared crash contract) so increments chain. The new shard's
    embedding width must match the indexed ``dim``."""
    from .dedup import (
        _embedding_band_rows,
        _embedding_dim,
        _verify_cosine_ds,
    )

    meta = _load_meta(index_dir)
    num_parts = meta["num_band_parts"]
    planes_path = os.path.join(index_dir, "planes.npy")
    if not os.path.exists(planes_path):
        raise ValueError(
            f"{index_dir} has no planes.npy — it predates the persisted-"
            "plane index format (seed-only indexes are not durable "
            "across numpy upgrades); rebuild with build_embdedup_index")
    planes = np.load(planes_path)
    new_emb_path = os.path.abspath(
        os.path.join(new_dir, "embeddings.parquet"))
    _fold_guard_check(index_dir, new_emb_path, meta["emb_paths"])
    if new_emb_path in meta["emb_paths"]:
        raise ValueError(f"{new_emb_path} is already in the index")
    dim = _embedding_dim(new_emb_path)
    if dim != planes.shape[1]:
        raise ValueError(
            f"embedding dim {dim} != indexed dim {planes.shape[1]}")

    tag = f"inc{len(meta['emb_paths']):05d}"
    _purge_tagged(os.path.join(index_dir, "bands"), tag)

    new_bands = _embedding_band_rows(new_emb_path, planes).materialize()

    nn_pairs, nn_raw = _pairs_dataset(new_bands, _all_pairs)
    no_raw = _probe_band_index(new_bands,
                               os.path.join(index_dir, "bands"), num_parts)
    no_pairs, no_n = _distinct_pairs_ds(no_raw)
    pairs = nn_pairs.map_batches(
        _ensure_pair_schema, batch_format="pyarrow").union(
        no_pairs.map_batches(_ensure_pair_schema, batch_format="pyarrow"))

    verified = _verify_cosine_ds(
        _emb_files(meta["emb_paths"] + [new_emb_path]), pairs,
        meta["threshold"], n_upper=nn_raw + no_n).materialize()

    old_labels = rd.read_parquet(_healed_subdir(index_dir, "labels"))
    old_kept = rd.read_parquet(_healed_subdir(index_dir, "kept"))
    # materialize: edges feeds both the kept computation and (on the
    # update path) cluster_labels inside _fold_band_index
    edges = verified.union(_labels_as_edges(old_labels)).materialize()
    universe = _distinct_ids(
        old_kept.union(_vec_ids_as_doc_ids(new_emb_path)))
    kept = _keep_after_pairs(universe, edges)

    if not update_index:
        return kept

    _fold_guard_mark(index_dir, tag, new_emb_path)
    _fold_band_index(index_dir, new_bands, num_parts, tag, edges, kept)
    meta["emb_paths"].append(new_emb_path)
    _save_meta_atomic(index_dir, meta)
    _fold_guard_exit(index_dir)
    # materialize: the NEXT increment's generation swap deletes these
    # files underneath a lazily-bound Dataset
    return rd.read_parquet(_healed_subdir(index_dir, "kept")).materialize()


def _emb_files(paths: list) -> list:
    """Expand a mix of embeddings.parquet files and directories to a
    flat file list (pq.read_table accepts a list of FILES only)."""
    out: list = []
    for p in paths:
        if os.path.isdir(p):
            out.extend(os.path.join(p, f) for f in sorted(os.listdir(p))
                       if f.endswith(".parquet"))
        else:
            out.append(p)
    return out
