"""The keyed bucket shuffle, and the co-group join built on it.

Why not ``groupby(keys).map_groups``: Ray invokes the UDF once per
group; with millions of tiny groups the per-group pandas overhead
(~5 ms) dwarfs the work (observed: 180 s of overhead for 8 s of real
extraction). Why not ``Dataset.join``: its persistent aggregator actors
can be starved by map actor pools on small CPU budgets, and its
shuffle showed high constant overhead.

Pattern here (``bucket_groups``): every row gets
``_bucket = bucket_ids(key, B)``; one sort shuffle on that column
range-partitions the rows, so all rows of a bucket land in the same
sort output block; ``fn`` runs once per non-empty output block on a
pandas frame holding every row of each bucket in it — usually several
buckets. ``fn`` is called as many times as the shuffle has output
blocks (the input's block count), not B times. Even one call per
bucket (``groupby(_bucket).map_groups``, the same sort followed by a
split, an Arrow-to-pandas conversion and a ``fn`` call per bucket) cost
most of a small query's wall: a profile of ``customer_order_counts``
on the perfbench ``tables`` input spent ~10 ms in the two sort
suboperators and 1.18 s in 64 per-bucket calls (~18 ms of pandas
fixed cost each) for 1,140 rows. Every keyed shuffle in the package
goes through this helper and groups on stored columns go through
``sorted_blocks`` (pinned by tests/test_structure.py); ``cogroup`` tags
both sides, unions them and runs the merge as one ``bucket_groups``.
``Dataset.sort`` plans Ray's sort shuffle whatever
``DataContext.shuffle_strategy`` says; ``map_groups`` took the
hash-aggregator route under HASH_SHUFFLE, which did not finish.

Per-call contract audit (every ``fn`` of the ~45 call sites): each is
keyed by its own columns (groupby / merge / drop_duplicates / a sort
led by the key), so a frame with several buckets gives the union of
the per-bucket results. The three that read the bucket id itself
handle several per frame: the band and exact-index probes
(``stages/dedup_incremental.py``) read every partition named in the
frame in one filtered read, and ``pack_documents`` packs per
``BUCKET_COL`` group so its ``seq_id``s do not move. The top-k
pushdowns (``top_users_by_events``, ``top_tokens``,
``shipping_priority``'s merge) emit a per-call top k, a superset of
the per-bucket ones the final sort cuts from; ``funnel_counts`` emits
per-call counts that its combine sums. Skew note: a hot *key* is fine
(it stays one bucket's pandas work); with N input blocks an output
block holds ~1/N of the rows, plus whole buckets at its range edges,
and a call converts the whole block to pandas at once.

Measured, one call per block against one per bucket (perfbench
``tables``, ``--seconds 8``, 10 alternating pairs, seeds 301-310, Ray at
2 logical CPUs on a 1-vCPU shared VM, every run correct): ``rows_per_s``
median 6,337 against 3,573 (better in 10/10 pairs), ``setup_s`` 17.0
against 22.3 s, ``peak_rss_mb`` 945 against 943 (3 of 10 change runs
near 997), ``output_mb`` equal.

Width rule: no repartition before the shuffle. Ray's sort shuffle makes
one output partition per input block, so the input's block count sets
the shuffle's parallelism. A coalescing ``repartition`` to ~1 block per
core used to run before 12 of the shuffles. Measured against that rule
applied to every shuffle (perfbench traced runs, seeds 151-153,
interleaved, Ray at 2 logical CPUs on a 4-vCPU shared VM; medians,
with repartition vs without): hot-aware assembly of the 4,000-turn
skewed corpus 1.46 vs 0.81 s, the job's single-phase docs assembly
1.01 vs 0.80 s, ``customer_order_counts`` 0.99 vs 0.79 s,
``order_rank_in_customer`` 0.38 vs 0.30 s, incremental exact dedup
1.77 vs 1.33 s; only the MinHash index build and fold read slightly
better with it (1.22 vs 1.30 s, 2.07 vs 2.26 s, inside their run
spread). The case the coalesce was written for — hundreds of KB-sized
input blocks, said to make the sort 4x slower — does not occur at that
scale and is unverified.
"""

from __future__ import annotations

from typing import Callable, Sequence, Union

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from ..functions.hashing import bucket_ids

SIDE_COL = "_side"
BUCKET_COL = "_bucket"


def _key_array(t: pa.Table, keys: list[str]) -> "pa.ChunkedArray":
    """The hashed key: one column as is, several cast to string and
    joined with ``"\\x1f"``."""
    import pyarrow.compute as pc

    if len(keys) == 1:
        return t[keys[0]]
    return pc.binary_join_element_wise(
        *[pc.cast(t[k], pa.string()) for k in keys], "\x1f")


def with_bucket(ds: "rd.Dataset", key: Union[str, Sequence[str]],
                num_buckets: int, col: str = BUCKET_COL) -> "rd.Dataset":
    """Append ``col = bucket_ids(key, num_buckets)`` to every block.
    The blocks leave as Arrow whatever they came in as, so every shuffle
    sorts Arrow blocks and emits the same empty-partition blocks."""
    keys = [key] if isinstance(key, str) else list(key)

    def append(t: pa.Table) -> pa.Table:
        return t.append_column(
            col, bucket_ids(_key_array(t, keys), num_buckets))

    return ds.map_batches(append, batch_format="pyarrow")


def sorted_blocks(ds: "rd.Dataset", col: str,
                  fn: Callable[[pd.DataFrame], pd.DataFrame]
                  ) -> "rd.Dataset":
    """Sort ``ds`` on ``col`` and run ``fn`` once per non-empty sort
    output block, as pandas. The sort range-partitions on ``col``, so
    every row of one ``col`` value lands in the same block; a block can
    hold many values. This is Ray's ``map_groups`` without its
    per-group split-and-convert loop, and ``Dataset.sort`` plans the
    sort shuffle whatever ``DataContext.shuffle_strategy`` says."""

    def per_block(df: pd.DataFrame):
        if len(df):
            yield fn(df)

    per_block.__name__ = getattr(fn, "__name__", "per_block")
    return ds.sort(col).map_batches(per_block, batch_format="pandas",
                                    batch_size=None)


def bucket_groups(ds: "rd.Dataset", key: Union[str, Sequence[str]],
                  fn: Callable[[pd.DataFrame], pd.DataFrame],
                  num_buckets: int) -> "rd.Dataset":
    """Group ``ds`` by ``bucket_ids(key, num_buckets)`` and run ``fn``
    once per shuffle output block on a pandas frame that holds every row
    of each bucket in it, so every row of each of its keys. A frame can
    hold several buckets. ``key`` is a column or a list of columns. The
    frame carries the bucket id in ``BUCKET_COL`` (the persisted-index
    probes read it to find their partitions); ``fn`` must not return
    that column."""
    return sorted_blocks(with_bucket(ds, key, num_buckets), BUCKET_COL, fn)


def _tag(ds: "rd.Dataset", schema: pa.Schema, side: int) -> "rd.Dataset":
    """Project to the union schema (missing columns -> typed nulls) and
    add the side column."""

    def fn(t: pa.Table) -> pa.Table:
        n = t.num_rows
        cols = {}
        for field in schema:
            if field.name in t.column_names:
                cols[field.name] = t[field.name].cast(field.type)
            else:
                cols[field.name] = pa.nulls(n, field.type)
        cols[SIDE_COL] = pa.array(np.full(n, side, dtype=np.int8))
        return pa.table(cols)

    return ds.map_batches(fn, batch_format="pyarrow")


def cogroup(
    left: "rd.Dataset",
    right: "rd.Dataset",
    on: list[str],
    merge_fn: Callable[[pd.DataFrame, pd.DataFrame], "pd.DataFrame | pa.Table"],
    left_schema: pa.Schema,
    right_schema: pa.Schema,
    num_buckets: int = 64,
) -> "rd.Dataset":
    """Co-partition two Datasets on ``on`` and merge per bucket.

    ``merge_fn(ldf, rdf) -> DataFrame`` (or Arrow table) receives the
    rows of one or more whole buckets from each side (only that side's
    own columns) and runs vectorized pandas logic (pd.merge /
    groupby-agg). One shuffle total, one call per shuffle output block.
    """
    union_fields: dict[str, pa.Field] = {}
    for f in list(left_schema) + list(right_schema):
        if f.name not in union_fields:
            union_fields[f.name] = f
    schema = pa.schema(list(union_fields.values()))
    l_names = [f.name for f in left_schema]
    r_names = [f.name for f in right_schema]

    # The bucket hashes the union-schema (CAST) key columns, never the
    # raw input ones: a side whose key arrived as float64 (pandas
    # null-coercion from an earlier cogroup) would otherwise hash
    # "123.0" while the other side hashes "123" — silently dropping
    # every match.
    tagged = _tag(left, schema, 0).union(_tag(right, schema, 1))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        ldf = g[g[SIDE_COL] == 0][l_names]
        rdf = g[g[SIDE_COL] == 1][r_names]
        return merge_fn(ldf, rdf)

    return bucket_groups(tagged, on, per_bucket, num_buckets)
