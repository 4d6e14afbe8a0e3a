"""Approximate nearest-neighbor search over an embedding column.

Brute-force cosine top-k lives in ``pipelines.library.knn_cosine`` (the
baseline: numpy matmul per batch against a broadcast query). This module
adds the scale path: IVF-style coarse quantization — deterministic
seeded centroids, per-batch assignment, probe only the closest
``nprobe`` partitions for a query. At 100 TB the assignment column is
written once (partitioned parquet by centroid id) and queries read only
their probed partitions.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..functions.vectors import (
    list_column_to_matrix,
    normalize_rows,
    topk_prune,
)
from ..state.durable import (
    fresh_dir,
    healed_dir,
    read_json,
    staged_partition_append,
    swap_in,
    write_json,
)


def _centroids(sf_dir: str, n_centroids: int, seed: int) -> np.ndarray:
    """Deterministic coarse centroids from a ROW-GROUP sample.

    The driver never loads the corpus: parquet footer metadata gives
    the row-group count, a seeded permutation picks row groups to read
    until ~4x the sample target is collected, and the training sample
    is drawn from those rows. Driver RAM is bounded by a few row
    groups (O(centroids), not O(corpus)); one k-means-style
    refinement pass runs over the sample only."""
    pf = pq.ParquetFile(os.path.join(sf_dir, "embeddings.parquet"))
    rng = np.random.default_rng(seed)
    sample_target = n_centroids * 32
    chunks, got = [], 0
    for rg in rng.permutation(pf.metadata.num_row_groups):
        t = pf.read_row_group(int(rg), columns=["embedding"])
        chunks.append(t)
        got += t.num_rows
        if got >= sample_target * 4:
            break
    M = normalize_rows(
        list_column_to_matrix(pa.concat_tables(chunks)["embedding"]))
    take = rng.choice(len(M), size=min(len(M), sample_target), replace=False)
    sample = M[np.sort(take)]
    C = sample[np.sort(rng.choice(len(sample), size=n_centroids, replace=False))].copy()
    for _ in range(3):  # a few Lloyd passes on the sample
        assign = (sample @ C.T).argmax(axis=1)
        for c in range(n_centroids):
            members = sample[assign == c]
            if len(members):
                C[c] = normalize_rows(
                    members.mean(axis=0, keepdims=True))[0]
    return C


def kmeans_refine(sf_dir: str, C0: np.ndarray, n_iters: int = 2,
                  batch_size: int = 8192) -> tuple[np.ndarray, list[float]]:
    """Distributed spherical k-means (Lloyd) refinement over the FULL
    embeddings table — the iterative-algorithm pattern on Ray Data:
    each iteration is ONE streaming pass where every batch emits a
    K x D partial sum + K counts (+ its objective contribution), the
    partials pre-reduce on-cluster to <= 8 rows, and the driver update
    is O(K*D). The corpus never concentrates anywhere: per-iteration
    driver traffic is centroids-sized, independent of row count.

    Returns (refined centroids, per-iteration objective) — the
    objective (sum of cosine similarity to the assigned centroid) is
    non-decreasing under spherical Lloyd updates, which the tests pin.
    Empty clusters keep their previous centroid."""
    path = os.path.join(sf_dir, "embeddings.parquet")
    C = np.ascontiguousarray(C0, dtype=np.float64)
    K, D = C.shape
    objectives: list[float] = []

    def combine(df):
        import pandas as pd

        S = np.zeros(K * D, np.float64)
        cnt = np.zeros(K, np.int64)
        obj = 0.0
        for s_blob, c_blob, o in zip(df["S"], df["cnt"], df["obj"]):
            S += np.frombuffer(s_blob, np.float64)
            cnt += np.frombuffer(c_blob, np.int64)
            obj += o
        return pd.DataFrame({"S": [S.tobytes()], "cnt": [cnt.tobytes()],
                             "obj": [obj]})

    for _ in range(n_iters):
        ref = ray.put(C)

        def partial(t: pa.Table, _ref=ref) -> pa.Table:
            Cc = ray.get(_ref)
            M = normalize_rows(list_column_to_matrix(t["embedding"]))
            sims = M @ Cc.T
            a = sims.argmax(axis=1)
            obj = float(sims[np.arange(len(a)), a].sum())
            S = np.zeros_like(Cc)
            np.add.at(S, a, M)
            cnt = np.bincount(a, minlength=K).astype(np.int64)
            return pa.table({"S": pa.array([S.reshape(-1).tobytes()],
                                           pa.binary()),
                             "cnt": pa.array([cnt.tobytes()], pa.binary()),
                             "obj": pa.array([obj], pa.float64())})

        rows = (
            rd.read_parquet(path, columns=["embedding"])
            .map_batches(partial, batch_format="pyarrow",
                         batch_size=batch_size)
            .repartition(8)
            .map_batches(combine, batch_format="pandas", batch_size=None)
            .take_all()
        )  # <= 8 centroid-sized rows reach the driver
        S = np.zeros(K * D, np.float64)
        cnt = np.zeros(K, np.int64)
        obj = 0.0
        for r in rows:
            S += np.frombuffer(r["S"], np.float64)
            cnt += np.frombuffer(r["cnt"], np.int64)
            obj += r["obj"]
        objectives.append(obj)
        S = S.reshape(K, D)
        nonempty = cnt > 0
        C = C.copy()
        C[nonempty] = S[nonempty] / np.linalg.norm(
            S[nonempty], axis=1, keepdims=True)
    return C, objectives


def knn_cosine_ivf(sf_dir: str, k: int = 10, n_centroids: int = 8,
                   nprobe: int = 3, seed: int = 5) -> "rd.Dataset":
    """IVF-bucketed approximate top-k for the vec_id=0 query vector.

    Per-batch: assign vectors to their nearest centroid, keep only rows
    whose centroid is among the query's ``nprobe`` closest, score those.
    Returns (vec_id, score) — approximate, so it gets a rows-only
    driver check; the exactness bound is tested in pytest against the
    brute-force baseline (recall at nprobe=n_centroids must be 1.0).
    """
    C = _centroids(sf_dir, n_centroids, seed)
    qt = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                       columns=["vec_id", "embedding"],
                       filters=[("vec_id", "==", 0)])
    qv = np.asarray(qt["embedding"][0].as_py(), dtype=np.float64)
    qv = qv / np.linalg.norm(qv)
    probed = np.sort(np.argsort(-(C @ qv))[:nprobe])
    ref = ray.put((C, qv, probed))

    ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                         columns=["vec_id", "embedding"])

    def score(t: pa.Table) -> pa.Table:
        Cc, v, probe = ray.get(ref)
        ids = t["vec_id"].to_numpy()
        M = normalize_rows(list_column_to_matrix(t["embedding"]))
        assign = (M @ Cc.T).argmax(axis=1)
        mask = np.isin(assign, probe) & (ids != 0)
        ids, M = ids[mask], M[mask]
        sims = M @ v
        ids, sims = topk_prune(ids, sims, k)
        return pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "score": pa.array(np.round(sims, 3), pa.float64()),
            "score_raw": pa.array(sims, pa.float64()),
        })

    return (
        ds.map_batches(score, batch_format="pyarrow", batch_size=8192)
        .sort(["score_raw", "vec_id"], descending=[True, False])
        .limit(k)
        .select_columns(["vec_id", "score"])
    )


# ---------------------------------------------------------------------------
# Persisted IVF index: the 100-TB path made concrete. Assignment is
# written ONCE as parquet partitioned by centroid id; a query then
# READS only its probed partitions (partition pruning at the source —
# the corpus is never re-scanned per query).
# ---------------------------------------------------------------------------

def _assign_and_write(C: np.ndarray, src_dir: str,
                      index_dir: str) -> None:
    """Stream ``<src_dir>/embeddings.parquet`` through per-batch
    nearest-centroid assignment against the broadcast matrix and write
    the rows into ``<index_dir>/cid=<k>/`` partitions. The ONE
    assignment rule for both the initial build and every append —
    appended vectors must partition under exactly the rules the
    indexed corpus did, or probes silently miss rows."""
    c_ref = ray.put(C)

    ds = rd.read_parquet(os.path.join(src_dir, "embeddings.parquet"),
                         columns=["vec_id", "embedding"])

    def assign(t: pa.Table) -> pa.Table:
        Cc = ray.get(c_ref)
        M = normalize_rows(list_column_to_matrix(t["embedding"]))
        cid = (M @ Cc.T).argmax(axis=1).astype(np.int32)
        return t.append_column("cid", pa.array(cid))

    os.makedirs(index_dir, exist_ok=True)
    ds.map_batches(assign, batch_format="pyarrow",
                   batch_size=8192).write_parquet(index_dir,
                                                  partition_cols=["cid"])


def build_ivf_index(sf_dir: str, index_dir: str, n_centroids: int = 8,
                    seed: int = 5, refine_iters: int = 0) -> np.ndarray:
    """Partition the embeddings table by nearest-centroid id into
    ``<index_dir>/cid=<k>/`` parquet plus ``centroids.npy``.

    One streaming pass: assignment happens per batch against the
    broadcast centroid matrix; Ray's partitioned parquet writer routes
    rows to their partition directories. Returns the centroid matrix.
    ``refine_iters > 0`` runs that many distributed spherical-k-means
    passes over the full table between the sampled init and the
    assignment write (``kmeans_refine`` — one extra corpus scan each,
    tighter partitions, same index layout)."""
    C = _centroids(sf_dir, n_centroids, seed)
    if refine_iters > 0:
        C, _ = kmeans_refine(sf_dir, C, n_iters=refine_iters)
    # build into a tmp dir + generation swap: a crashed build followed
    # by a rerun must not leave (or double) partial partitions, and a
    # crashed rebuild leaves the old index reachable
    tmp = fresh_dir(index_dir + ".tmp")
    _assign_and_write(C, sf_dir, tmp)
    np.save(os.path.join(tmp, "centroids.npy"), C)
    write_json(os.path.join(tmp, "meta.json"), {"appended_paths": []})
    swap_in(index_dir, src=tmp)
    return C


def append_to_ivf_index(new_dir: str, index_dir: str) -> None:
    """Add NEW vectors to a persisted IVF index without retraining —
    the growing-corpus increment for ANN (the pattern
    ``dedup_minhash_incremental`` uses for near-dup): centroids stay
    FROZEN (the IVF contract — inverted lists grow, the geometry they
    were assigned under doesn't move, so old partitions remain valid
    without being touched), each new batch assigns against the saved
    centroid matrix and its rows land as new files inside the matching
    ``cid=`` partitions (Ray's partitioned writer appends
    uniquely-named files; existing bytes are never rewritten). Work is
    O(new vectors); the indexed corpus is never re-read.

    Contract: vec_ids are globally unique across the indexed corpus
    and every increment (the tables' invariant). After enough growth
    skews the partition balance, rebuild with ``build_ivf_index``
    (optionally ``refine_iters>0``) — same trade as any IVF system.

    The append is crash-retry idempotent: files land via the same
    tag-staged move protocol the dedup indexes use (deterministic
    ``inc<ordinal>_`` names, purge-then-move; the appended-paths meta
    is written LAST), so a crash at any point cannot double-append,
    and re-appending an already-folded shard is rejected. An index
    without ``meta.json`` predates that protocol and is refused.
    """
    C = np.load(os.path.join(healed_dir(index_dir), "centroids.npy"))
    meta_p = os.path.join(index_dir, "meta.json")
    meta = read_json(meta_p)
    if meta is None:
        raise ValueError(
            f"{index_dir} has no meta.json — it predates the crash-safe "
            "append format (no duplicate or crash-retry guard); rebuild "
            "with build_ivf_index")
    new_path = os.path.abspath(os.path.join(new_dir, "embeddings.parquet"))
    if new_path in meta["appended_paths"]:
        raise ValueError(f"{new_path} is already in the index")
    tag = f"inc{len(meta['appended_paths']):05d}"
    staged_partition_append(
        lambda d: _assign_and_write(C, new_dir, d), index_dir, tag)
    meta["appended_paths"].append(new_path)
    write_json(meta_p, meta)


def knn_cosine_ivf_indexed(index_dir: str, query_vec: np.ndarray,
                           k: int = 10, nprobe: int = 3,
                           exclude_vec_id: int | None = None) -> "rd.Dataset":
    """Approximate top-k against a PREBUILT IVF index: only the
    ``nprobe`` partitions nearest the query are read from storage —
    at scale this prunes (n_centroids - nprobe)/n_centroids of all
    bytes before a single batch moves."""
    C = np.load(os.path.join(healed_dir(index_dir), "centroids.npy"))
    qv = np.asarray(query_vec, dtype=np.float64)
    qv = qv / np.linalg.norm(qv)
    probed = np.argsort(-(C @ qv))[:nprobe]
    # expand the probed partition dirs to their parquet files (Ray's
    # reader resolves a single dir recursively but not a list of dirs)
    files: list[str] = []
    for c in probed:
        part_dir = os.path.join(index_dir, f"cid={int(c)}")
        if os.path.isdir(part_dir):
            files.extend(sorted(
                os.path.join(part_dir, f) for f in os.listdir(part_dir)
                if f.endswith(".parquet")))
    q_ref = ray.put(qv)

    ds = rd.read_parquet(files, columns=["vec_id", "embedding"])

    def score(t: pa.Table) -> pa.Table:
        v = ray.get(q_ref)
        ids = t["vec_id"].to_numpy()
        M = normalize_rows(list_column_to_matrix(t["embedding"]))
        sims = M @ v
        if exclude_vec_id is not None:
            mask = ids != exclude_vec_id
            ids, sims = ids[mask], sims[mask]
        ids, sims = topk_prune(ids, sims, k)
        return pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "score": pa.array(np.round(sims, 3), pa.float64()),
            "score_raw": pa.array(sims, pa.float64()),
        })

    return (
        ds.map_batches(score, batch_format="pyarrow", batch_size=8192)
        .sort(["score_raw", "vec_id"], descending=[True, False])
        .limit(k)
        .select_columns(["vec_id", "score"])
    )
