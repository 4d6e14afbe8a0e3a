"""Near-duplicate detection pipelines over a documents table.

Four detectors, each the standard shape for web-scale dedup:

  sketch per doc (map_batches, vectorized)
    -> explode to (band_key, doc_id) rows
    -> groupby(band_key): buckets with >1 doc emit candidate pairs
    -> verify pairs exactly (Jaccard / Hamming / cosine)
    -> cluster (union-find / label propagation) -> keep min doc_id per cluster

Scale notes: the shuffle only moves sketch rows (16 x 16B per doc), not
text or vectors. Candidate pairs are a ``Dataset`` END-TO-END — they are
deduped across bands by a bucketed combine, verified by ``map_batches``
over pair blocks (each block reads ONLY its colliding docs via parquet
predicate pushdown and recomputes shingles / cosines locally — cheaper
than shipping payloads through the shuffle), and fed to clustering as a
Dataset. The driver never holds a pair list: clustering is adaptive —
below ``_UNION_FIND_MAX_PAIRS`` the pair blocks go by ObjectRef into ONE
Ray task running union-find (bounded by the constant, not the corpus);
above it, distributed min-label propagation (bucketed co-group rounds
over the edge Dataset) takes over. The two paths are equality-tested.
The final removal is adaptive too: a bounded removed-id set broadcasts
via ``ray.put``; an unbounded one anti-joins distributed.
"""

from __future__ import annotations

import os
import warnings

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from ..functions.dedup import (
    band_hashes,
    char_shingles,
    hamming64,
    jaccard,
    minhash_signature,
    simhash64,
    simhash_bands,
    word_ngrams,
)

_N_PERM = 128
_BANDS = 16


def _read_docs(sf_dir: str) -> "rd.Dataset":
    return rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )


def _union_find(n_pairs: list[tuple[int, int]]) -> dict[int, int]:
    """Min-label union-find over verified pairs -> {doc_id: root}.

    Pure function; in production it runs INSIDE a Ray task
    (``_union_find_labels``), never on the driver."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in n_pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = min(ra, rb), max(ra, rb)
            parent[hi] = lo
    return {x: find(x) for x in parent}


_UNION_FIND_MAX_PAIRS = 1_000_000
# raw (pre-dedupe) candidate-pair sets below this fit one task's pandas
# drop_duplicates; larger sets dedupe via the bucketed combine
_SMALL_PAIRS_MAX = 1_000_000
# removed-id sets up to this size broadcast as one sorted int64 array
# (<= 16 MB object); larger sets switch to a distributed anti-join so no
# single heap ever holds the id set.
_BROADCAST_REMOVED_MAX = 2_000_000
# _keep_after_pairs' union-find branch broadcasts unconditionally on
# the strength of this bound (removed ids <= 2 * pairs)
assert 2 * _UNION_FIND_MAX_PAIRS <= _BROADCAST_REMOVED_MAX


@ray.remote
def _union_find_labels(*blocks: pa.Table) -> pa.Table:
    """Union-find over pair blocks, run as ONE Ray task: the pair
    blocks arrive by ObjectRef (zero driver involvement) and only the
    (doc_id, cluster_id) root map leaves (roots map to themselves,
    rows sorted by doc_id). Gated by _UNION_FIND_MAX_PAIRS, so the
    task heap is bounded by the constant, not the corpus. Removal is a
    FILTER of this view (doc_id != cluster_id) — one remote serves
    both the assignment and removal paths."""
    pairs: list[tuple[int, int]] = []
    for t in blocks:
        if t.num_rows == 0 or "a" not in t.column_names:
            continue
        pairs.extend(zip(t["a"].to_numpy().tolist(), t["b"].to_numpy().tolist()))
    roots = _union_find(pairs)
    items = sorted(roots.items())
    return pa.table({
        "doc_id": pa.array([d for d, _ in items], pa.int64()),
        "cluster_id": pa.array([r for _, r in items], pa.int64()),
    })


def _labels_ds_by_propagation(pairs: "rd.Dataset",
                              num_buckets: int = 32,
                              max_iters: int = 64) -> "rd.Dataset":
    """Connected components by distributed min-label propagation.

    Takes the verified-pair Dataset directly (no driver materialization).
    Each round co-groups the edge set with the current labels (one
    bucketed shuffle) and re-minimizes per node. Labels only ever
    decrease, so the global label sum is a monotone convergence witness —
    iterate until it is stable (O(cluster diameter) rounds; near-dup
    clusters are star/clique shaped, so 2-3 in practice). Returns the
    full fixpoint label Dataset ``(nbr, lbl)`` — node and its cluster's
    min id. Memory per task is one bucket's edges, never the whole
    graph. Warns loudly if max_iters rounds pass without reaching the
    fixpoint (adversarial chain-shaped graphs deeper than max_iters) —
    unconverged clustering is never silent.
    """
    from ray.data.aggregate import Sum

    from .joins import bucket_groups, cogroup

    def to_edges(t: pa.Table) -> pa.Table:
        # both directions so min labels flow either way along an edge
        t = _ensure_pair_schema(t)
        a = t["a"].to_numpy()
        b = t["b"].to_numpy()
        return pa.table({
            "node": pa.array(np.concatenate([a, b]).astype(np.int64)),
            "nbr": pa.array(np.concatenate([b, a]).astype(np.int64)),
        })

    edges = pairs.map_batches(to_edges, batch_format="pyarrow").materialize()

    # initial labels = every node self-labelled; distinct node ids via
    # per-batch unique -> bucketed distinct (never a driver collect)
    def batch_nodes(t: pa.Table) -> pa.Table:
        u = np.unique(t["node"].to_numpy())
        return pa.table({"nbr": pa.array(u, pa.int64())})

    def distinct_self_label(g: pd.DataFrame) -> pd.DataFrame:
        u = g["nbr"].drop_duplicates().astype("int64")
        return pd.DataFrame({"nbr": u, "lbl": u})

    labels = bucket_groups(
        edges.map_batches(batch_nodes, batch_format="pyarrow"),
        "nbr", distinct_self_label, num_buckets).materialize()

    def merge(ldf: pd.DataFrame, rdf: pd.DataFrame) -> pd.DataFrame:
        # ldf: edges (node, nbr); rdf: labels (nbr, lbl). Emit each
        # node's neighbor-label candidates plus the neighbor's own
        # self-entry so isolated labels survive the round.
        m = ldf.merge(rdf, on="nbr", how="inner")[["node", "lbl"]]
        own = rdf.rename(columns={"nbr": "node"})[["node", "lbl"]]
        out = pd.concat([m, own], ignore_index=True)
        out = out.astype({"node": "int64", "lbl": "int64"})
        return out.groupby("node", as_index=False).agg(lbl=("lbl", "min"))

    def re_min(g: pd.DataFrame) -> pd.DataFrame:
        # node cardinality ~ dup-doc count (can be huge): bucketed
        # combine, never Ray's sort aggregate (fixed cost per task at
        # high key counts — see BASELINE.md)
        out = g.groupby("node", as_index=False).agg(lbl=("lbl", "min"))
        return pd.DataFrame({"nbr": out["node"].astype("int64"),
                             "lbl": out["lbl"].astype("int64")})

    prev_sum = None
    converged = False
    for _ in range(max_iters):
        new_labels = bucket_groups(
            cogroup(
                edges, labels, on=["nbr"], merge_fn=merge,
                left_schema=pa.schema([("node", pa.int64()), ("nbr", pa.int64())]),
                right_schema=pa.schema([("nbr", pa.int64()), ("lbl", pa.int64())]),
                num_buckets=num_buckets,
            ),
            "node", re_min, num_buckets).materialize()
        cur_sum = new_labels.aggregate(Sum("lbl", alias_name="s"))["s"]
        labels = new_labels
        if prev_sum is not None and cur_sum == prev_sum:
            converged = True
            break  # labels only decrease; equal sum == fixpoint
        prev_sum = cur_sum
    if not converged:
        warnings.warn(
            f"label propagation did not reach a fixpoint in {max_iters} "
            "rounds; duplicate clusters may be under-merged (graph "
            "diameter exceeds max_iters). Raise max_iters.",
            RuntimeWarning,
        )

    return labels


def cluster_labels(pairs: "rd.Dataset") -> "rd.Dataset":
    """Verified-pair Dataset -> (doc_id, cluster_id) for every doc that
    appears in at least one pair (cluster_id = min doc_id of the
    connected component; roots are included, mapping to themselves).

    The ASSIGNMENT view of the dedup family — _keep_after_pairs answers
    "which docs survive", this answers "which docs belong together"
    (canonical-document selection, cluster-size audits, per-cluster
    sampling). Adaptive exactly like removal: bounded pair sets run one
    union-find Ray task (pair blocks travel by ObjectRef); larger sets
    take the distributed min-label propagation fixpoint."""
    pairs = pairs.materialize()
    n_pairs = pairs.count()
    if n_pairs == 0:
        return rd.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "cluster_id": pa.array([], pa.int64())}))
    if n_pairs <= _UNION_FIND_MAX_PAIRS:
        return rd.from_arrow(
            ray.get(_union_find_labels.remote(*pairs.to_arrow_refs())))

    def rename(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["nbr"], "cluster_id": t["lbl"]})

    return _labels_ds_by_propagation(pairs).map_batches(
        rename, batch_format="pyarrow")


def _removed_ds_by_label_propagation(pairs: "rd.Dataset",
                                     num_buckets: int = 32,
                                     max_iters: int = 64) -> "rd.Dataset":
    """Label propagation projected to the docs to DROP (final label
    isn't the node itself)."""

    def removed_only(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        mask = pc.not_equal(t["nbr"], t["lbl"])
        return pa.table({"doc_id": t.filter(mask)["nbr"]})

    return _labels_ds_by_propagation(pairs, num_buckets, max_iters) \
        .map_batches(removed_only, batch_format="pyarrow")


def _collect_bounded_ids(ids: "rd.Dataset") -> np.ndarray:
    """Materialized id Dataset -> sorted int64 array on the driver.
    ONLY called behind a count() gate (<= _BROADCAST_REMOVED_MAX), i.e.
    this is the deliberate broadcast-small-side pattern, bounded by a
    constant — never corpus-scaled."""
    tbls = ray.get(ids.to_arrow_refs())
    parts = [t["doc_id"].to_numpy() for t in tbls if t.num_rows]
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.sort(np.concatenate(parts).astype(np.int64))


def _keep_after_pairs(docs: "rd.Dataset", pairs: "rd.Dataset") -> "rd.Dataset":
    """Drop every doc whose cluster root isn't itself.

    ``pairs`` is a Dataset of verified (a, b) edges and stays distributed:
    clustering is adaptive (single-task union-find for bounded pair
    counts, distributed min-label propagation past _UNION_FIND_MAX_PAIRS)
    and the removal filter is adaptive too (ray.put broadcast of a
    bounded id array; bucketed anti-join when the removed set itself is
    too big for one heap)."""
    def project(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["doc_id"]})

    pairs = pairs.materialize()
    n_pairs = pairs.count()
    if n_pairs == 0:
        return docs.map_batches(project, batch_format="pyarrow")

    def broadcast_filter(removed_arr: np.ndarray) -> "rd.Dataset":
        removed_ref = ray.put(removed_arr)

        def keep(t: pa.Table) -> pa.Table:
            # np.isin against a Python set silently degrades to an
            # object-scalar comparison — always pass an ndarray
            rm = ray.get(removed_ref)
            mask = pa.array(~np.isin(t["doc_id"].to_numpy(), rm))
            return pa.table({"doc_id": t["doc_id"].filter(mask)})

        return docs.map_batches(keep, batch_format="pyarrow")

    if n_pairs <= _UNION_FIND_MAX_PAIRS:
        # pair blocks travel object-store -> ONE task; its removed set
        # is <= 2*n_pairs <= _BROADCAST_REMOVED_MAX by construction
        # (asserted below), so the broadcast filter applies
        # unconditionally — fetch the single bounded result table
        # straight to the driver instead of spending a Dataset
        # execution round trip on wrap+materialize+count
        lbl = ray.get(_union_find_labels.remote(*pairs.to_arrow_refs()))
        # removal = the labels view filtered to non-roots
        import pyarrow.compute as _pc

        tbl = lbl.filter(_pc.not_equal(lbl["doc_id"], lbl["cluster_id"]))
        # _union_find_labels sorts by doc_id; np.isin
        # in the filter is order-insensitive anyway — no re-sort
        return broadcast_filter(tbl["doc_id"].to_numpy().astype(np.int64))

    removed = _removed_ds_by_label_propagation(pairs).materialize()
    n_removed = removed.count()

    if n_removed <= _BROADCAST_REMOVED_MAX:
        return broadcast_filter(_collect_bounded_ids(removed))

    # removed set too large to broadcast: distributed anti-join
    from .joins import cogroup

    def anti(ldf: pd.DataFrame, rdf: pd.DataFrame) -> pd.DataFrame:
        out = ldf[~ldf["doc_id"].isin(rdf["doc_id"])]
        return out[["doc_id"]].astype({"doc_id": "int64"})

    return cogroup(
        docs.map_batches(project, batch_format="pyarrow"),
        removed,
        on=["doc_id"],
        merge_fn=anti,
        left_schema=pa.schema([("doc_id", pa.int64())]),
        right_schema=pa.schema([("doc_id", pa.int64())]),
    )


def _pairs_dataset(bucket_rows: "rd.Dataset", group_pair_fn,
                   num_buckets: int = 64) -> tuple["rd.Dataset", int]:
    """band_key rows -> (Dataset of distinct candidate pairs (a, b),
    raw pre-dedupe pair count).

    Groups by ``hash(band_key) % B`` through ``bucket_groups`` (one
    call per shuffle output block, each holding whole buckets — never
    one per band, since almost every band has exactly one member and
    per-group UDF overhead would dominate). Inside a bucket, bands
    with >= 2 members are found vectorized; ``group_pair_fn(sub)`` emits
    pairs for one colliding band's rows. The same pair surfaces once per
    colliding band, so a second bucketed combine (keyed on ``a``)
    deduplicates distributed — the pair set never lands on the driver.

    The returned raw count is an UPPER BOUND on the distinct-pair count;
    downstream gates (verify range-sort, union-find routing) reuse it so
    they don't re-materialize the stream just to re-count it — each
    dedup run pays exactly one pre-clustering pipeline execution.
    """
    from .joins import bucket_groups

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["band_key", "doc_id"], kind="mergesort")
        sizes = g.groupby("band_key")["doc_id"].transform("size")
        g = g[sizes > 1]
        a_out, b_out = [], []
        for _, sub in g.groupby("band_key", sort=False):
            for pair in group_pair_fn(sub):
                a_out.append(pair[0])
                b_out.append(pair[1])
        return pd.DataFrame({"a": pd.array(a_out, dtype="int64"),
                             "b": pd.array(b_out, dtype="int64")})

    raw_pairs = bucket_groups(bucket_rows, "band_key", per_bucket,
                              num_buckets)
    return _distinct_pairs_ds(raw_pairs, num_buckets)


def _distinct_pairs_ds(raw_pairs: "rd.Dataset",
                       num_buckets: int = 64) -> tuple["rd.Dataset", int]:
    """Raw (a, b) pair Dataset -> (distinct pairs, raw count).

    Adaptive cross-band dedupe (same pattern as clustering): below the
    bound the whole raw pair set is one task's pandas drop_duplicates
    (Dataset-native — one repartition, no sort shuffle, nothing on the
    driver); above it, a bucketed combine keyed on ``a``. Shared by
    ``_pairs_dataset`` and the incremental path's new-vs-old probe."""
    from .joins import bucket_groups

    def distinct_pairs(g: pd.DataFrame) -> pd.DataFrame:
        out = g.drop_duplicates(["a", "b"]).sort_values(["a", "b"])
        return out[["a", "b"]].astype({"a": "int64", "b": "int64"})

    raw_pairs = raw_pairs.map_batches(
        _ensure_pair_schema, batch_format="pyarrow").materialize()
    n_raw = raw_pairs.count()  # metadata-only on a materialized Dataset
    if n_raw <= _SMALL_PAIRS_MAX:
        # batch_size=None: the UDF must see the single repartitioned
        # block WHOLE, or drop_duplicates runs per default-sized batch
        # and duplicate pairs survive the "distinct" stage
        return raw_pairs.repartition(1).map_batches(
            distinct_pairs, batch_format="pandas", batch_size=None), n_raw
    return (
        bucket_groups(raw_pairs, "a", distinct_pairs, num_buckets)
        # the sort-based groupby reduce emits SCHEMA-LESS empty blocks
        # for empty partitions; coerce every block to the (a, b) schema
        # so downstream sorts / map_batches never see a degenerate block
        .map_batches(_ensure_pair_schema, batch_format="pyarrow")
    ), n_raw


def _ensure_pair_schema(t: pa.Table) -> pa.Table:
    if "a" not in t.column_names:
        return pa.table({"a": pa.array([], pa.int64()),
                         "b": pa.array([], pa.int64())})
    return pa.table({"a": t["a"].cast(pa.int64()),
                     "b": t["b"].cast(pa.int64())})


def _all_pairs(sub: pd.DataFrame):
    ids = sorted(set(int(x) for x in sub["doc_id"]))
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            yield ids[i], ids[j]


# below this many candidate pairs the whole pair set fits a handful of
# verify batches, so the range sort buys no parquet row-group locality —
# skip its fixed cost; above it, sorted pairs keep each verify batch's
# "doc_id in (...)" predicate touching few row groups
_VERIFY_SORT_MIN_PAIRS = 100_000


def _sorted_pair_blocks(pairs: "rd.Dataset",
                        n_upper: int | None = None) -> "rd.Dataset":
    """Range-sort pairs for verify row-group locality — but only past
    the threshold. ``n_upper`` (the raw pre-dedupe count from
    ``_pairs_dataset``) lets the small case skip the materialize+count
    entirely and stream straight into verification."""
    if n_upper is not None and n_upper < _VERIFY_SORT_MIN_PAIRS:
        return pairs
    pairs = pairs.materialize()
    n = pairs.count()
    if n == 0 or n < _VERIFY_SORT_MIN_PAIRS:
        return pairs
    return pairs.sort(["a", "b"])


def _verify_jaccard_ds(doc_path: "str | list[str]", pairs: "rd.Dataset",
                       shingle_fn,
                       threshold: float,
                       batch_size: int = 4096,
                       n_upper: int | None = None) -> "rd.Dataset":
    """Exact-verify candidate pairs as a map_batches stage over pair
    blocks. Pairs are range-sorted by (a, b) first so each batch's doc
    set is id-clustered and its parquet predicate scan touches few row
    groups; no task (and never the driver) holds every colliding doc's
    text — each batch reads only its own docs and builds shingle sets
    once per doc in-task."""

    def verify(t: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        if t.num_rows == 0:
            return t
        a = t["a"].to_numpy()
        b = t["b"].to_numpy()
        need = np.unique(np.concatenate([a, b])).tolist()
        # doc_path may be a list (incremental dedup: old + new corpora
        # with disjoint doc_ids) — each file is probed with the same
        # pushdown filter, any doc lives in exactly one
        paths = doc_path if isinstance(doc_path, (list, tuple)) \
            else [doc_path]
        texts: dict = {}
        for p in paths:
            tbl = pq.read_table(p, columns=["doc_id", "text"],
                                filters=[("doc_id", "in", need)])
            texts.update(zip(tbl["doc_id"].to_pylist(),
                             tbl["text"].to_pylist()))
        shingles = {d: shingle_fn(texts[d]) for d in need}
        mask = np.fromiter(
            (jaccard(shingles[int(x)], shingles[int(y)]) >= threshold
             for x, y in zip(a, b)),
            dtype=bool, count=len(a))
        return t.filter(pa.array(mask))

    return _sorted_pair_blocks(pairs, n_upper).map_batches(
        verify, batch_format="pyarrow", batch_size=batch_size)


def _verify_cosine_ds(emb_path: "str | list[str]", pairs: "rd.Dataset",
                      threshold: float, batch_size: int = 4096,
                      n_upper: int | None = None) -> "rd.Dataset":
    """Exact cosine verification over pair blocks: each batch reads ONLY
    its colliding vectors by parquet predicate pushdown and scores the
    pairs with one vectorized gather + row-wise dot — the embeddings
    never travel through the LSH shuffle (band keys + ids only).
    ``emb_path`` may be a list of parquet files (the incremental path
    verifies old+new corpora in one read)."""

    def verify(t: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        from ..functions.vectors import list_column_to_matrix

        if t.num_rows == 0:
            return t
        a = t["a"].to_numpy()
        b = t["b"].to_numpy()
        need = np.unique(np.concatenate([a, b])).tolist()
        tbl = pq.read_table(emb_path, columns=["vec_id", "embedding"],
                            filters=[("vec_id", "in", need)])
        ids = tbl["vec_id"].to_numpy()
        from ..functions.vectors import normalize_rows

        M = normalize_rows(list_column_to_matrix(
            tbl["embedding"]).astype(np.float64))
        pos = {int(v): i for i, v in enumerate(ids)}
        ia = np.fromiter((pos[int(x)] for x in a), np.int64, count=len(a))
        ib = np.fromiter((pos[int(x)] for x in b), np.int64, count=len(b))
        sims = np.einsum("ij,ij->i", M[ia], M[ib])
        return t.filter(pa.array(sims >= threshold))

    return _sorted_pair_blocks(pairs, n_upper).map_batches(
        verify, batch_format="pyarrow", batch_size=batch_size)


# ---------------------------------------------------------------------------

def _minhash_band_rows(docs: "rd.Dataset", seed: int) -> "rd.Dataset":
    """documents -> (band_key, doc_id) LSH rows, MinHash(_N_PERM) cut
    into _BANDS bands. THE banding step — shared by the from-scratch
    dedup family and the persisted-index incremental path
    (dedup_incremental.py), which must band identically or new-vs-old
    collisions would differ from a from-scratch run."""

    def sketch(t: pa.Table) -> pa.Table:
        ids, keys = [], []
        for d, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            sig = minhash_signature(char_shingles(text), _N_PERM, seed)
            for i, bh in enumerate(band_hashes(sig, _BANDS)):
                ids.append(d)
                keys.append(f"{i}:{bh:x}")
        return pa.table({"band_key": pa.array(keys, pa.string()),
                         "doc_id": pa.array(ids, pa.int64())})

    return docs.map_batches(sketch, batch_format="pyarrow", batch_size=2048)


def _minhash_verified_pairs(sf_dir: str, threshold: float,
                            seed: int) -> tuple["rd.Dataset", "rd.Dataset"]:
    """Shared MinHash(128)+LSH(16) candidate generation + exact-Jaccard
    verification: (docs, verified_pairs). dedup_minhash (removal view)
    and neardup_clusters (assignment view) consume the SAME pipeline so
    their pytest-pinned consistency can't drift."""
    docs = _read_docs(sf_dir)
    buckets = _minhash_band_rows(docs, seed)
    pairs, n_raw = _pairs_dataset(buckets, _all_pairs)
    verified = _verify_jaccard_ds(
        os.path.join(sf_dir, "documents.parquet"), pairs, char_shingles,
        threshold, n_upper=n_raw)
    return docs, verified


def dedup_minhash(sf_dir: str, threshold: float = 0.8, seed: int = 42) -> "rd.Dataset":
    """MinHash(128) + LSH(16 bands): char-5-shingle near-dup removal.
    Returns the kept doc_ids."""
    docs, verified = _minhash_verified_pairs(sf_dir, threshold, seed)
    return _keep_after_pairs(docs, verified)


def neardup_clusters(sf_dir: str, threshold: float = 0.8,
                     seed: int = 42) -> "rd.Dataset":
    """Cluster-assignment view of dedup_minhash: the SAME pipeline
    (shared `_minhash_verified_pairs`), but returning (doc_id,
    cluster_id) for every clustered document instead of the kept set —
    what canonical-document selection and cluster-size audits consume.
    Singleton documents (no verified pair) are absent by contract.
    Consistency with dedup_minhash is pytest-pinned: removed ==
    clustered minus the cluster minima."""
    _docs, verified = _minhash_verified_pairs(sf_dir, threshold, seed)
    return cluster_labels(verified)


def dedup_ngram(sf_dir: str, threshold: float = 0.7, seed: int = 7) -> "rd.Dataset":
    """Word-3-gram Jaccard near-dup removal (MinHash-blocked, exact
    n-gram Jaccard verification). Returns kept doc_ids."""
    docs = _read_docs(sf_dir)

    def sketch(t: pa.Table) -> pa.Table:
        ids, keys = [], []
        for d, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            sig = minhash_signature(word_ngrams(text), _N_PERM, seed)
            for i, bh in enumerate(band_hashes(sig, _BANDS)):
                ids.append(d)
                keys.append(f"{i}:{bh:x}")
        return pa.table({"band_key": pa.array(keys, pa.string()),
                         "doc_id": pa.array(ids, pa.int64())})

    buckets = docs.map_batches(sketch, batch_format="pyarrow", batch_size=2048)
    pairs, n_raw = _pairs_dataset(buckets, _all_pairs)
    verified = _verify_jaccard_ds(
        os.path.join(sf_dir, "documents.parquet"), pairs, word_ngrams,
        threshold, n_upper=n_raw)
    return _keep_after_pairs(docs, verified)


def _hamming_component_pairs(sub: pd.DataFrame, max_hamming: int,
                             hash_col: str = "simhash"):
    """Connectivity-equivalent verified pairs for a band bucket of
    (doc_id, 64-bit hash) rows — O(n + |U|^2) instead of the naive
    O(n^2), where U is the bucket's set of DISTINCT hash values.

    Sound because these pairs feed CLUSTERING only (connected
    components), and the hash IS the verified quantity: members
    sharing a hash are connected by a star to their minimum id, and
    two identical-hash groups within Hamming range need exactly one
    representative-representative edge to merge their components. An
    exact-duplicate-heavy corpus (the common web case: one page
    mirrored a million times) yields one n-member star per bucket,
    not n^2/2 pairs."""
    rows = sorted(set(zip((int(x) for x in sub["doc_id"]),
                          (int(h) for h in sub[hash_col]))))
    groups: dict[int, list[int]] = {}
    for d, h in rows:
        groups.setdefault(h, []).append(d)
    reps = {h: min(ds) for h, ds in groups.items()}
    for h, ds in groups.items():
        rep = reps[h]
        for d in ds:
            if d != rep:
                yield rep, d
    uniq = sorted(groups)
    for i in range(len(uniq)):
        ha = int(np.int64(uniq[i]).astype(np.uint64))
        for j in range(i + 1, len(uniq)):
            hb = int(np.int64(uniq[j]).astype(np.uint64))
            if hamming64(ha, hb) <= max_hamming:
                yield reps[uniq[i]], reps[uniq[j]]


def dedup_simhash(sf_dir: str, max_hamming: int = 3) -> "rd.Dataset":
    """SimHash(64) near-dup removal with band blocking. The band count
    is DERIVED from the verification threshold (bands = max_hamming+1)
    so the pigeonhole recall guarantee — Hamming <= bands-1 implies at
    least one identical band — always matches what verification
    accepts; a fixed band count would silently lose recall for larger
    thresholds. Returns kept doc_ids."""
    if not 0 <= max_hamming <= 63:
        raise ValueError(f"max_hamming must be in [0, 63], got {max_hamming}")
    n_bands = max_hamming + 1
    docs = _read_docs(sf_dir)

    def sketch(t: pa.Table) -> pa.Table:
        ids, keys, hashes = [], [], []
        for d, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            h = simhash64(text)
            for i, band in enumerate(simhash_bands(h, bands=n_bands)):
                ids.append(d)
                keys.append(f"{i}:{band:x}")
                hashes.append(h)
        return pa.table({
            "band_key": pa.array(keys, pa.string()),
            "doc_id": pa.array(ids, pa.int64()),
            "simhash": pa.array(np.array(hashes, dtype=np.uint64).astype(np.int64),
                                pa.int64()),
        })

    buckets = docs.map_batches(sketch, batch_format="pyarrow", batch_size=2048)

    def hamming_pairs(sub: pd.DataFrame):
        # verification happens inline (the sketch IS the full
        # signature); star + representative edges keep components
        # identical at O(n + |U|^2) per bucket (_hamming_component_pairs)
        yield from _hamming_component_pairs(sub, max_hamming)

    verified, _n_raw = _pairs_dataset(buckets, hamming_pairs)
    return _keep_after_pairs(docs, verified)


def _vec_ids_as_doc_ids(emb_path: str) -> "rd.Dataset":
    """embeddings parquet -> Dataset[doc_id] (vec_id renamed — the
    dedup machinery's uniform id column). The ONE rename shared by the
    from-scratch and incremental embedding paths."""
    return rd.read_parquet(emb_path, columns=["vec_id"]).map_batches(
        lambda t: pa.table({"doc_id": t["vec_id"].cast(pa.int64())}),
        batch_format="pyarrow")


def _embedding_dim(emb_path: str) -> int:
    """Probe the embedding width from the parquet schema (fixed-size
    list) or one driver-side record batch — never a Ray execution
    round trip. ``emb_path`` may be a directory (embed_corpus output):
    any one file carries the schema."""
    import pyarrow.parquet as pq

    probe_path = emb_path
    if os.path.isdir(emb_path):
        probe_path = os.path.join(emb_path, sorted(
            f for f in os.listdir(emb_path) if f.endswith(".parquet"))[0])
    pf = pq.ParquetFile(probe_path)
    etype = pf.schema_arrow.field("embedding").type
    if pa.types.is_fixed_size_list(etype):
        return etype.list_size
    first = next(pf.iter_batches(batch_size=1, columns=["embedding"]))
    return len(first["embedding"][0])


def _hyperplanes(dim: int, n_bands: int, planes_per_band: int,
                 seed: int) -> np.ndarray:
    """Seeded hyperplane tensor (n_bands, dim, planes_per_band). A
    PERSISTED band index must store the tensor itself, not this seed —
    NumPy Generator streams are not guaranteed bit-stable across numpy
    versions (NEP 19), and planes that drift would silently band new
    shards into a different key space than the stored rows."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_bands, dim, planes_per_band))


def _embedding_band_rows(emb_path: str,
                         planes: np.ndarray) -> "rd.Dataset":
    """(vec_id, embedding) parquet -> (band_key, doc_id) hyperplane-LSH
    band rows — the sketch both the from-scratch ``neardup_embedding``
    and the incremental index build/probe share (the SAME plane tensor
    means increments collide with history exactly as a from-scratch
    banding would). Zero-norm vectors are excluded (no direction ->
    never candidates)."""
    planes_ref = ray.put(planes)
    weights = (1 << np.arange(planes.shape[2])).astype(np.int64)

    def bucketize(t: pa.Table) -> pa.Table:
        from ..functions.vectors import list_column_to_matrix, normalize_rows

        M = list_column_to_matrix(t["embedding"])
        ids = t["vec_id"].to_numpy()
        # zero-norm vectors (degenerate embeddings — e.g. sub-n-gram
        # texts) have no direction: cosine to anything is undefined, so
        # they are never candidates and always kept. Banding them would
        # collide EVERY zero vector in one bucket per band (identical
        # sign pattern) — a planted O(n^2) pair bomb.
        nz = np.linalg.norm(M, axis=1) > 0
        if not nz.all():
            M, ids = M[nz], ids[nz]
        P = ray.get(planes_ref)
        M = normalize_rows(M)
        key_parts, id_parts = [], []
        for band in range(P.shape[0]):
            bits = (M @ P[band]) > 0
            codes = bits.astype(np.int64) @ weights
            key_parts.extend(f"{band}:{c:x}" for c in codes)
            id_parts.append(ids)
        return pa.table({
            "band_key": pa.array(key_parts, pa.string()),
            "doc_id": pa.array(
                np.concatenate(id_parts) if id_parts else
                np.empty(0, np.int64), pa.int64()),
        })

    ds = rd.read_parquet(emb_path, columns=["vec_id", "embedding"])
    return ds.map_batches(bucketize, batch_format="pyarrow",
                          batch_size=8192)


def neardup_embedding(sf_dir: str, threshold: float = 0.95,
                      n_bands: int = 4, planes_per_band: int = 8,
                      seed: int = 13) -> "rd.Dataset":
    """Embedding-cosine near-dup removal: MULTI-BAND random-hyperplane
    LSH (each doc lands in ``n_bands`` independent buckets — a pair at
    angle theta collides in at least one band with probability
    1-(1-(1-theta/pi)^planes)^bands, vs a single band's
    (1-theta/pi)^planes; at cos=0.95 that's ~0.89 recall for 4x8 vs
    ~0.28 for one 12-plane band), exact cosine verification in sharded
    pair blocks that re-read ONLY their colliding vectors by parquet
    predicate pushdown (false positives cost verification only, never
    correctness; the shuffle moves band keys + ids, never the vectors).
    Returns kept vec_ids (column name doc_id for uniformity)."""
    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    dim = _embedding_dim(emb_path)
    buckets = _embedding_band_rows(
        emb_path, _hyperplanes(dim, n_bands, planes_per_band, seed))
    pairs, n_raw = _pairs_dataset(buckets, _all_pairs)
    verified = _verify_cosine_ds(emb_path, pairs, threshold, n_upper=n_raw)
    return _keep_after_pairs(_vec_ids_as_doc_ids(emb_path), verified)


def dedup_spans(sf_dir: str, span_tokens: int = 16,
                num_buckets: int = 32) -> "rd.Dataset":
    """Corpus-wide duplicate token-SPAN removal (sub-document dedup —
    the Lee et al. "Deduplicating Training Data" shape at fixed-window
    granularity; doc-level exact dedup keeps whole near-copies of
    boilerplate-bearing documents, this removes the repeated runs
    inside otherwise-unique documents).

    Semantics (deterministic, pinned by the pytest reference): each
    document's whitespace tokens are cut into consecutive
    NON-OVERLAPPING windows of ``span_tokens`` (last window may be
    short); a window whose exact token content appears anywhere else in
    the corpus keeps only its globally-first occurrence (min
    ``(doc_id, span_idx)``) — later occurrences drop, including repeats
    inside one document. Output text re-joins surviving windows with
    single spaces (training normalization, same contract as
    chunk_documents).

    Scale shape: two bucketed all-to-alls — (1) spans bucket by 128-bit
    content hash, each bucket keeps first-per-hash with one vectorized
    sort+drop_duplicates; (2) kept spans co-group with the (doc_id,
    n_spans) universe by doc_id for ordered reassembly (the universe
    side guarantees fully-deduped documents still emit an empty row).
    No driver state, no per-group Python loops.

    Hot-hash skew guard: the explode pass pre-combines BATCH-LOCALLY to
    one candidate per hash (min (doc_id, span_idx)) before the shuffle.
    This is lossless — only a batch's minimum occurrence can ever be
    the global first, and every non-winning occurrence is dropped from
    the output by construction (kept spans ARE the reassembled text) —
    and it bounds a boilerplate span that appears in half the corpus to
    ONE shuffled row per input batch instead of one per occurrence.
    """
    from .joins import bucket_groups, cogroup
    from ..functions.textstats import split_tokens_expr

    ds = _read_docs(sf_dir)

    def explode(t: pa.Table) -> pa.Table:
        # Vectorized polars (tokenize -> explode -> window group ->
        # join); replaces the round-4 per-document Python loop. Spans
        # are identified by a 128-bit content key (two independently
        # seeded 64-bit polars hashes — transient, within-run only, so
        # the cross-version stability caveat of functions/hashing.py
        # does not apply; collision odds at 100 TB are ~n^2/2^129).
        import polars as pl

        pf = pl.from_arrow(t.select(["doc_id", "text"]))
        spans = (
            pf.lazy()
            .select("doc_id", tok=split_tokens_expr(pf))
            .filter(pl.col("tok").list.len() > 0)
            .explode("tok", empty_as_null=False)
            # one input row per doc -> exploded tokens are contiguous,
            # so the per-doc running index is the token position
            .with_columns(span_idx=pl.int_range(pl.len())
                          .over("doc_id") // span_tokens)
            .group_by("doc_id", "span_idx", maintain_order=True)
            .agg(span=pl.col("tok"))
            # list.join, not the agg-context str.join whose
            # empty-group default flips in polars 2.0 (groups here are
            # never empty, but don't depend on a moving default)
            .with_columns(span=pl.col("span").list.join(" "))
            .with_columns(h1=pl.col("span").hash(seed=1),
                          h2=pl.col("span").hash(seed=2))
            # batch-local map-side combine (see docstring: lossless,
            # and the hot-hash skew guard): one min-candidate per hash
            .sort(["h1", "h2", "doc_id", "span_idx"])
            .unique(subset=["h1", "h2"], keep="first",
                    maintain_order=True)
            .collect()
        )
        return spans.to_arrow().cast(pa.schema([
            ("doc_id", pa.int64()), ("span_idx", pa.int64()),
            ("span", pa.string()), ("h1", pa.uint64()),
            ("h2", pa.uint64())]))

    def first_per_hash(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["h1", "h2", "doc_id", "span_idx"],
                          kind="mergesort")
        keep = g.drop_duplicates(["h1", "h2"], keep="first")
        return keep[["doc_id", "span_idx", "span"]]

    kept = bucket_groups(
        ds.map_batches(explode, batch_format="pyarrow", batch_size=4096),
        "h1", first_per_hash, num_buckets)

    def n_spans(t: pa.Table) -> pa.Table:
        # count_matches, not extract_all: counting tokens must not
        # materialize them
        import polars as pl

        from ..functions.textstats import CTRL_WS_RE

        pf = pl.from_arrow(t.select(["doc_id", "text"]))
        text = pl.col("text")
        if pf["text"].str.contains(CTRL_WS_RE).any():
            text = text.str.replace_all(CTRL_WS_RE, " ")
        counts = pf.select(
            n=((text.str.count_matches(r"\S+") + (span_tokens - 1))
               // span_tokens).fill_null(0).cast(pl.Int64))["n"]
        return pa.table({"doc_id": t["doc_id"],
                         "n_spans": counts.to_arrow().cast(pa.int64())})

    universe = ds.map_batches(n_spans, batch_format="pyarrow",
                              batch_size=65536)

    def reassemble(ldf: pd.DataFrame, rdf: pd.DataFrame) -> pd.DataFrame:
        # rdf: one row per document (universe); ldf: surviving spans
        ldf = ldf.sort_values(["doc_id", "span_idx"], kind="mergesort")
        joined = ldf.groupby("doc_id", sort=True)["span"].agg(" ".join)
        n_kept = ldf.groupby("doc_id", sort=True)["span"].size()
        out = rdf[["doc_id", "n_spans"]].sort_values("doc_id")
        out = out.set_index("doc_id")
        out["text_deduped"] = joined.reindex(out.index, fill_value="")
        out["n_spans_kept"] = (n_kept.reindex(out.index, fill_value=0)
                               .astype("int64"))
        out["n_spans_dropped"] = (out["n_spans"] - out["n_spans_kept"]) \
            .astype("int64")
        out = out.reset_index()
        return out[["doc_id", "text_deduped", "n_spans_kept",
                    "n_spans_dropped"]]

    return cogroup(
        kept, universe, ["doc_id"], reassemble,
        left_schema=pa.schema([("doc_id", pa.int64()),
                               ("span_idx", pa.int64()),
                               ("span", pa.string())]),
        right_schema=pa.schema([("doc_id", pa.int64()),
                                ("n_spans", pa.int64())]),
        num_buckets=num_buckets,
    )
