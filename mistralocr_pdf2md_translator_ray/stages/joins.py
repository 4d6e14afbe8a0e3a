"""The keyed bucket shuffle, and the co-group join built on it.

Why not ``groupby(keys).map_groups``: Ray invokes the UDF once per
group; with millions of tiny groups the per-group pandas overhead
(~5 ms) dwarfs the work (observed: 180 s of overhead for 8 s of real
extraction). Why not ``Dataset.join``: its persistent aggregator actors
can be starved by map actor pools on small CPU budgets, and its
shuffle showed high constant overhead.

Pattern here (``bucket_groups``): every row gets
``_bucket = bucket_ids(key, B)``; a single sort-shuffle groups by the B
buckets only; inside each bucket ``fn`` runs vectorized pandas over
thousands of rows. Every keyed shuffle in the package goes through it
(pinned by tests/test_structure.py); ``cogroup`` tags both sides, unions
them and runs the merge as one ``bucket_groups``. B bounds the number of
groups — size it ~2-4x the cluster's cores. Skew note: a hot *key* is
fine (it stays one bucket's pandas work); if one bucket outgrows
memory, raise B (keys are hashed, so buckets split evenly in
expectation).

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


def bucket_groups(ds: "rd.Dataset", key: Union[str, Sequence[str]],
                  fn: Callable[[pd.DataFrame], pd.DataFrame],
                  num_buckets: int) -> "rd.Dataset":
    """Group ``ds`` by ``bucket_ids(key, num_buckets)`` and run ``fn``
    once per bucket on a pandas frame holding every row of the bucket's
    keys. ``key`` is a column or a list of columns. The frame carries
    the bucket id in ``BUCKET_COL`` (the persisted-index probes read it
    to find their partition); ``fn`` must not return that column."""
    return (
        with_bucket(ds, key, num_buckets)
        .groupby(BUCKET_COL)
        .map_groups(fn, batch_format="pandas")
    )


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
    merge_fn: Callable[[pd.DataFrame, pd.DataFrame], pd.DataFrame],
    left_schema: pa.Schema,
    right_schema: pa.Schema,
    num_buckets: int = 64,
) -> "rd.Dataset":
    """Co-partition two Datasets on ``on`` and merge per bucket.

    ``merge_fn(ldf, rdf) -> DataFrame`` receives the bucket's rows from
    each side (only that side's own columns) and runs vectorized pandas
    logic (pd.merge / groupby-agg). One shuffle total, B groups.
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
