"""Flagship pipeline: transcript turns -> clean per-turn Markdown.

Ray-Data-native restatement of the reference's six-stage dataflow
(``mistralocr_app.py:546-765``). ``extract_turns`` splices child
payloads back in by one of two joins, chosen by the child-table size
(``BROADCAST_CHILD_MAX_ROWS``):

    broadcast (child table fits):
    read_parquet(transcripts)                         # S1
      -> payloads -> child map, one object-store ref  # M3/ST5 + A1 regroup
      -> map_batches(extract+splice+normalize)        # M1 + J1 + M6 + M12

    co-group (child table too big to broadcast):
    read_parquet(transcripts)                         # S1
      [placeholder-bearing turns only]
      -> map_batches(extract_raw_md)                  # M1 doc extraction
      -> payloads -> map_batches(extract_children)    # M3/ST5 child extraction
      -> bucketed co-group with parents (left outer)  # A1 regroup + J1 join
      -> map_batches(finalize: splice+normalize)      # M6 + M12
      [placeholder-free turns]
      -> map_batches(extract+normalize)               # M1 + M12
      -> union                                        # per-turn output

Every map is a stateless function run as Ray Data tasks; extraction
starts no actor pools. The broadcast map reaches the tasks as one
ObjectRef, fetched once per worker process (``stages/extract.py``).

``extract_documents`` then assembles one document per conversation
with ``assemble_conversations_hotaware`` (A2 ordered concat), salting
only the conversations longer than ``hot_threshold`` turns.

Scale notes: on the co-group route only the ~10-15% of turns that
actually carry placeholders enter the join shuffle; everything else
streams straight through stateless map stages. The child table
is pre-reduced to one row per (conv_id, turn_idx) inside each bucket,
so the merge is bounded by distinct placeholder-bearing turns, not
payload count.
"""

from __future__ import annotations

from typing import Optional

import ray.data
import ray.data as rd

from ..stages.extract import (
    CHILD_SCHEMA,
    PARENT_SCHEMA,
    extract_children,
    extract_finalize,
    extract_raw_md,
    finalize_with_children,
    merge_children_into_parents,
)
from ..stages.joins import cogroup


def _payload_files(payloads_path) -> list[str]:
    """Top-level parquet files under a LOCAL payloads path (the
    overlapped raw-task path's listing; non-local URIs and nested
    layouts return [] and route through ``ray.data.read_parquet``,
    which resolves them itself). Accepts a directory, a single file,
    or an explicit list of files (callers extracting a shard subset
    pass the matching payload shards so child extraction isn't run
    for conversations outside the subset)."""
    import os

    if isinstance(payloads_path, (list, tuple)):
        # Remote URIs can't be existence-checked locally: return [] so
        # the caller routes the list through ray.data.read_parquet
        # (which resolves them itself) — the documented non-local path.
        if any("://" in f for f in payloads_path):
            return []
        # An explicit LOCAL list is a hard contract: silently dropping
        # a missing shard would assemble its conversations with
        # unresolved placeholders and no error. (Directory scanning
        # below keeps its documented lenient fallback.)
        bad = [f for f in payloads_path
               if not f.endswith(".parquet") or not os.path.exists(f)]
        if bad:
            raise FileNotFoundError(
                f"payload shard(s) missing or not parquet: {bad}")
        return list(payloads_path)
    if os.path.isdir(payloads_path):
        return sorted(
            os.path.join(payloads_path, f)
            for f in os.listdir(payloads_path)
            if f.endswith(".parquet")
        )
    if payloads_path.endswith(".parquet") and os.path.exists(payloads_path):
        return [payloads_path]
    return []


def _parquet_meta_rows(files: list[str]) -> int:
    """Total row count from parquet FOOTER metadata only — no column
    data is read, so bounding the broadcast path costs milliseconds
    even when the payload table is 100x too big to broadcast."""
    import pyarrow.parquet as pq

    return sum(pq.ParquetFile(f).metadata.num_rows for f in files)


def _keep_conv_partitions(t, conv_filter):
    """Rows of ``t`` whose conversation hashes into the pending
    partitions of ``conv_filter = (part_ids, n_partitions)`` (the resume
    path). crc32 per UNIQUE conv via dictionary encoding + vectorized
    isin — the hash itself stays crc32 (checkpoint stability
    contract)."""
    import numpy as np
    import pyarrow as pa

    from ..functions.hashing import crc32_part_ids

    part_ids, n_parts = conv_filter
    want = np.fromiter(sorted(part_ids), dtype=np.int64, count=len(part_ids))
    pids = crc32_part_ids(t["conv_id"], n_parts)
    return t.filter(pa.array(np.isin(pids, want)))


def _filter_conv_partitions(payloads: "rd.Dataset", conv_filter) -> "rd.Dataset":
    """Restrict a payloads Dataset to the pending partitions (resume
    path for the non-broadcast route)."""
    return payloads.map_batches(_keep_conv_partitions, batch_format="pyarrow",
                                fn_args=(conv_filter,))


@ray.remote
def _child_partial(conv_filter, *sources) -> dict:
    """One shard's child partial map {(conv, turn): {payload_id:
    extracted}}. A source is a payload parquet file or, on the Dataset
    route, a payload block (an Arrow table, resolved by the scheduler
    because it arrives as a top-level argument)."""
    import pyarrow.parquet as pq

    from ..functions.extract import extract_child_payload

    cols = ["conv_id", "turn_idx", "payload_id", "kind", "payload"]
    out: dict = {}
    for src in sources:
        t = (pq.read_table(src, columns=cols) if isinstance(src, str)
             else src.select(cols))
        if conv_filter is not None:
            t = _keep_conv_partitions(t, conv_filter)
        for conv, turn, pid, kind, blob in zip(
            t["conv_id"].to_pylist(), t["turn_idx"].to_pylist(),
            t["payload_id"].to_pylist(), t["kind"].to_pylist(),
            t["payload"].to_pylist(),
        ):
            extracted, _status = extract_child_payload(blob, pid, kind)
            out.setdefault((conv, turn), {})[pid] = extracted
    return out


def _cluster_cpus() -> int:
    """The cluster's logical CPUs (8 before Ray is initialized)."""
    return int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8


def _shards(items: list) -> list[list]:
    """Split the inputs of a raw-task launch that runs BESIDE a Ray Data
    pipeline into at most half the cluster's CPUs of shards (at least
    one), so the pipeline's read and map tasks always find a CPU."""
    k = max(1, min(len(items), _cluster_cpus() // 2))
    return [items[i::k] for i in range(k)]


def _child_partial_refs(sources: list, conv_filter=None):
    """Launch raw Ray tasks computing per-shard child partial maps over
    payload files or block refs; returns pending refs.

    ``conv_filter`` is an optional ``(part_ids:set, n_partitions:int)``
    restricting extraction to conversations hashing into those
    partitions (resume path: don't re-extract children for completed
    partitions)."""
    return [_child_partial.remote(conv_filter, *shard)
            for shard in _shards(sources)]


@ray.remote
def _merge_child_partials(*partials: dict) -> dict:
    """Merge the per-shard partials into the one broadcast child map.
    They arrive as top-level arguments, so the scheduler resolves them
    before this task takes a CPU: no worker holds a core while it waits
    for them."""
    cmap: dict = {}
    for part in partials:
        for k, v in part.items():
            cmap.setdefault(k, {}).update(v)
    return cmap


#: Rows per extraction batch, and the size larger input blocks are split
#: to first, for an input of at least 4,096 rows per CPU or of unknown
#: size. Larger batches amortize the Arrow<->Python conversion. Measured on the
#: perfbench `turns` input (8,000 turns, read -> extract -> write, 2
#: logical CPUs, 10 rotated reps, median [quartiles]): 1024 rows 0.749 s
#: [0.727-0.795], 2048 0.746 s [0.694-0.795], 4096 0.705 s
#: [0.679-0.780]. For corpora with very wide turns lower it so batch
#: bytes x tasks in flight fit worker heaps.
EXTRACT_BATCH_ROWS = 4096
EXTRACT_BLOCK_ROWS = 8192


def _small_input_blocks(rows: Optional[int], cpus: int) -> Optional[int]:
    """How many equal blocks, one extraction task each, an input of
    ``rows`` rows is split to on ``cpus`` CPUs; ``None`` keeps the fixed
    plan (``EXTRACT_BATCH_ROWS`` per batch, blocks over
    ``EXTRACT_BLOCK_ROWS`` split).

    Ray bundles whole input blocks into one task until the bundle holds
    ``batch_size`` rows, so the fixed plan runs an input of fewer than
    4,096 rows per CPU as fewer tasks than CPUs (perfbench
    `documents_skew`: 4,005 turns in one task on 2 CPUs). Such an input
    is split to one equal block per CPU instead, whatever its files or
    blocks. Bundling read blocks to a per-CPU row target gave the same
    split, but the bundled map is admitted only once the read and split
    operators above it finish: at 2 CPUs its two tasks ran one after
    the other in about half the rounds. The split is a barrier, so both
    tasks start together. Measured on perfbench `documents_skew` (2
    logical CPUs, 10 alternating pairs, median [quartiles]): rows_per_s
    3,867 [3,654-4,022] -> 4,708 [4,465-4,952], better in 10/10 pairs;
    the bundled variant was better in 6/10 (+3.5%)."""
    if rows is None or rows <= 0 or rows >= cpus * EXTRACT_BATCH_ROWS:
        return None
    return min(cpus, rows)


def _known_rows(ds: "ray.data.Dataset") -> Optional[int]:
    """Row count of an input Ray knows without executing anything: a
    materialized Dataset (its block metadata) or a bare read whose
    datasource reports it (parquet footers). ``None`` for every other
    Dataset: a derived one would have to run its lineage to be
    counted."""
    from ray.data._internal.logical.operators.input_data_operator import InputData
    from ray.data._internal.logical.operators.read_operator import Read

    dag = ds._logical_plan.dag
    if isinstance(dag, (InputData, Read)):
        return dag.infer_metadata().num_rows
    return None


def _extract_finalize(transcripts: "ray.data.Dataset", cmap_ref,
                      emit_original: bool,
                      batch_size: Optional[int]) -> "ray.data.Dataset":
    """The fused extract+splice+normalize map as stateless tasks; every
    task fetches the child map behind ``cmap_ref`` (which may still be
    pending) once per worker process. With ``batch_size`` None every
    input block is one task. One task writes one block, so the batch
    also sets the files per checkpoint partition."""
    from ..stages.registry import get_registry

    return transcripts.map_batches(
        extract_finalize, batch_format="pyarrow", batch_size=batch_size,
        fn_kwargs={"cmap_ref": cmap_ref, "extra_extractors": get_registry(),
                   "emit_original": emit_original})


BROADCAST_CHILD_MAX_ROWS = 2_000_000

#: Block-size target of the extraction plan's private ``DataContext``.
#: Until an operator has produced an output, Ray Data charges each of its
#: pending tasks ``target_max_block_size`` x its streaming-generator
#: buffer (2 blocks) of object store, against a budget of half the
#: store: at the 128 MiB default a 512 MiB store admits ONE extraction
#: task until the first finishes. A 4,096-turn batch is ~4-8 MB, so
#: 32 MiB fits every block and admits 4 tasks before any output.
EXTRACT_TARGET_MAX_BLOCK_BYTES = 32 * 2**20


def _on_engine_context(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """``ds`` re-rooted on a private copy of its ``DataContext`` whose
    block-size target is at most ``EXTRACT_TARGET_MAX_BLOCK_BYTES``.
    ``ds`` must be a Dataset this module created: the copy shares its
    logical plan and points that plan at the new context, so copying a
    caller's Dataset would change the caller's plan. Neither the
    caller's context nor the global one is mutated."""
    own = ray.data.Dataset.copy(ds, _deep_copy=True)
    cap = own.context.target_max_block_size
    if cap is None or cap > EXTRACT_TARGET_MAX_BLOCK_BYTES:
        own.context.target_max_block_size = EXTRACT_TARGET_MAX_BLOCK_BYTES
    return own


def extract_turns(
    transcripts: "ray.data.Dataset",
    payloads: Optional["ray.data.Dataset"] = None,
    payloads_path: Optional[str] = None,  # enables the overlapped path
    conv_filter=None,  # (part_ids, n_partitions) resume restriction
    emit_original: bool = False,  # dual-variant output (md_original column)
) -> "ray.data.Dataset":
    """Per-turn extraction; returns Dataset with columns
    (conv_id, turn_idx, role, tool, ts, md, n_tokens, status, error).

    Child-splice join strategy:

    - **broadcast** (child table <= BROADCAST_CHILD_MAX_ROWS): the
      child results ride the object store once as one map and every
      extraction task probes it locally. One extraction branch, zero
      shuffles — the two-branch union + sort barrier otherwise
      serializes the pipeline (measured 2x wall on the bench corpus).
    - **cogroup** (when the child side is too big to broadcast):
      pre-split on placeholder presence; only the ~12%% of turns that
      carry placeholders enter the bucketed co-group shuffle
      (stages/joins.py).

    Every map runs as stateless Ray Data tasks (no actor pools).
    """
    from ..stages.registry import get_registry

    # One map task per input BLOCK: a read of few large single-row-group
    # files yields fewer blocks than CPUs and starves the extraction
    # (8 files on a 24-actor extraction pool ran at 1/4 throughput).
    # target_num_rows_per_block splits only blocks LARGER than the
    # target — minimal movement, a pass-through for already-fine inputs
    # (the 48-shard headline A/B'd flat) — and every join strategy
    # below benefits. Every branch then runs on the engine's own
    # DataContext (_on_engine_context), so the extraction map runs at
    # full width from its first task. A small input whose row count is
    # known without running it runs as one equal task per CPU instead
    # (_small_input_blocks).
    blocks = _small_input_blocks(_known_rows(transcripts), _cluster_cpus())
    if blocks is None:
        batch = EXTRACT_BATCH_ROWS
        transcripts = transcripts.repartition(
            target_num_rows_per_block=EXTRACT_BLOCK_ROWS)
    else:
        batch = None
        transcripts = transcripts.repartition(blocks)
    transcripts = _on_engine_context(transcripts)

    children = None
    if payloads_path is not None:
        # Overlapped broadcast path: child partial maps are computed by
        # raw Ray TASKS over the payload parquet shards, and one merge
        # task combines them into a single pending ref (the Dataset API
        # cannot express "start the main stream now, wait on a
        # still-running side computation"). The extraction tasks block
        # in ray.get on that ref — giving up their CPU meanwhile —
        # while the main pipeline's read stages already stream.
        #
        # The broadcast is BOUNDED: total child rows come from parquet
        # footer metadata (no data read); past BROADCAST_CHILD_MAX_ROWS
        # the merged per-process map would not fit worker heaps at
        # scale, so it re-routes to the streaming cogroup join instead
        # (byte-identical output — TestOverlappedBound).
        files = _payload_files(payloads_path)
        if files:
            if _parquet_meta_rows(files) <= BROADCAST_CHILD_MAX_ROWS:
                refs = _child_partial_refs(files, conv_filter=conv_filter)
                return _extract_finalize(
                    transcripts, _merge_child_partials.remote(*refs),
                    emit_original, batch)
            payloads = rd.read_parquet(files)
            if conv_filter is not None:
                payloads = _filter_conv_partitions(payloads, conv_filter)
            # the footers already rule the broadcast out: child
            # extraction streams straight into the co-group
            children = payloads.map_batches(extract_children,
                                            batch_format="pyarrow")
        else:
            # No top-level local parquet files (remote URI, nested
            # layout, or caller passed a Dataset alongside the path):
            # fall back to the Dataset route via Ray's own reader.
            if payloads is None:
                payloads = rd.read_parquet(payloads_path)
            if conv_filter is not None:
                payloads = _filter_conv_partitions(payloads, conv_filter)

    if payloads is None:
        return _extract_finalize(transcripts, None, emit_original, batch)

    if children is None:
        # The payload blocks materialize first (the gate needs their
        # row count), then feed the same partial -> merge tasks as the
        # payloads_path route, as top-level arguments.
        payloads = payloads.materialize()
        if payloads.count() <= BROADCAST_CHILD_MAX_ROWS:
            refs = _child_partial_refs(payloads.to_arrow_refs())
            return _extract_finalize(
                transcripts, _merge_child_partials.remote(*refs),
                emit_original, batch)
        children = payloads.map_batches(extract_children,
                                        batch_format="pyarrow")

    # Pre-split on the *input* text so each branch extracts its rows
    # exactly once (a lazy Dataset consumed by two branches would
    # re-execute the extraction per branch — 2x cost at scale; the
    # parquet re-scan per branch is the cheap recompute).
    def _route(batch, want: bool):
        import pyarrow.compute as pc

        mask = pc.match_substring(batch["text"], "![")
        return batch.filter(mask if want else pc.invert(mask))

    with_ph = transcripts.map_batches(
        lambda b: _route(b, True), batch_format="pyarrow"
    ).map_batches(extract_raw_md, batch_format="pyarrow",
                  fn_kwargs={"extra_extractors": get_registry()})
    plain = transcripts.map_batches(
        lambda b: _route(b, False), batch_format="pyarrow")

    # Bucketed co-group join on (conv_id, turn_idx) — one shuffle with
    # ~num_buckets groups; the child aggregation (A1 regroup) and the
    # left-outer merge (J1) both run vectorized inside each bucket.
    # See stages/joins.py for why this beats per-group map_groups and
    # the actor-backed JoinOperator.
    joined = cogroup(
        with_ph,
        children,
        on=["conv_id", "turn_idx"],
        merge_fn=merge_children_into_parents,
        left_schema=PARENT_SCHEMA,
        right_schema=CHILD_SCHEMA,
        num_buckets=64,
    )
    spliced = joined.map_batches(finalize_with_children, batch_format="pyarrow",
                                 fn_kwargs={"emit_original": emit_original})
    return spliced.union(_extract_finalize(plain, None, emit_original, batch))


def _hot_conversations(transcripts: "ray.data.Dataset",
                       hot_threshold: int,
                       driver_cap: int = 2_000_000) -> set:
    """Conversations longer than ``hot_threshold`` turns, counted on the
    RAW transcript input (``conv_id`` column only) for
    ``extract_documents`` given a Dataset (with ``transcripts_path`` it
    counts with raw tasks over the files instead,
    ``_hot_conversations_from_files``). Turn counts are invariant
    under extraction — errors are values, rows are never dropped
    (SURVEY.md §1.1) — so hot detection never consumes the expensive
    extraction stream.

    ADAPTIVE combine: the per-batch partials (one row per (batch,
    conv)) stream to the driver and combine in one vectorized
    groupby — bounded by ``driver_cap`` partial rows (<= 100 MB).
    Past the cap (billions of conversations), it bails to the
    distributed bucketed reduce, which re-executes the conv_id scan
    but never holds a row per conversation in any one heap. The
    driver path removes the bucketed reduce's fixed costs
    (repartition + sort groupby, ~2-3 s) from every normal-scale run."""
    import pandas as pd

    from ..stages.joins import bucket_groups

    def batch_counts(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("conv_id", as_index=False).agg(n=("conv_id", "size"))

    partials = transcripts.select_columns(["conv_id"]).map_batches(
        batch_counts, batch_format="pandas", batch_size=65536,
    )

    frames: list[pd.DataFrame] = []
    total = 0
    over_cap = False
    for b in partials.iter_batches(batch_format="pandas", batch_size=65536):
        frames.append(b)
        total += len(b)
        if total > driver_cap:
            over_cap = True
            break
    if not over_cap:
        if not frames:
            return set()
        s = pd.concat(frames, ignore_index=True).groupby("conv_id")["n"].sum()
        return set(s[s > hot_threshold].index)

    def per_bucket(g):
        s = g.groupby("conv_id", as_index=False)["n"].sum()
        return s.loc[s["n"] > hot_threshold, ["conv_id"]]

    hot_rows = bucket_groups(partials, "conv_id", per_bucket, 32)
    return {r["conv_id"] for r in hot_rows.take_all()}


@ray.remote
def _conv_counts_shard(files: list[str]) -> dict:
    """Per-shard conversation turn counts from the conv_id column only
    (footer-indexed single-column read; no text bytes move). Null
    conv_ids are dropped — matching the pandas groupby in the Dataset
    hot-scan path, which silently drops NaN keys."""
    import pyarrow.compute as _pc
    import pyarrow.parquet as pq

    out: dict = {}
    for f in files:
        vc = _pc.value_counts(pq.read_table(f, columns=["conv_id"])["conv_id"])
        for v, c in zip(vc.field("values").to_pylist(),
                        vc.field("counts").to_pylist()):
            if v is not None:
                out[v] = out.get(v, 0) + c
    return out


@ray.remote
def _hot_from_counts(threshold: int, *partials: dict) -> set:
    """Combine per-shard counts into the hot conv-id set. Holds one
    entry per DISTINCT conversation in a single task heap — same bound
    as the Dataset path's driver-side combine (billions of
    conversations would route through _hot_conversations' distributed
    fallback instead; pass transcripts_path=None there)."""
    agg: dict = {}
    for p in partials:
        for k, v in p.items():
            agg[k] = agg.get(k, 0) + v
    return {k for k, v in agg.items() if v > threshold}


@ray.remote
def _as_value_set(hot: set):
    """Chain a pending hot-set ref into the pa.Array value_set the
    assembly closures consume (keeps the streaming regime's count fully
    overlapped — nothing on the driver ever blocks on it)."""
    import pyarrow as _pa

    return _pa.array(sorted(hot), _pa.string())


def _hot_conversations_from_files(files: list[str], threshold: int):
    """Hot-conversation count as raw Ray tasks over the transcript
    parquet shards; returns a PENDING ObjectRef of the hot set. Much
    cheaper than the full Dataset hot-scan (no Ray Data fixed costs —
    parallel single-column reads + value_counts), and the caller can
    launch it early and get() it only when assembly needs the set."""
    partials = [_conv_counts_shard.remote(s) for s in _shards(files)]
    return _hot_from_counts.remote(threshold, *partials)


#: Below this many turn rows (known from parquet FOOTER metadata only),
#: extract_documents inserts an explicit materialize barrier between
#: extraction and the assembly shuffle. Ray's sort-based shuffle holds
#: the whole input in the object store anyway, so below the cap the
#: barrier only adds one bounded extra pass; past it the stream goes
#: straight into the shuffle so the corpus is never held twice (the
#: 100-TB shape). Measured with pool-free extraction on its own
#: DataContext (perfbench `documents_skew` input, 4,000 turns with one
#: conversation holding half, 2 logical CPUs, 10 interleaved reps,
#: median [quartiles]): with that conversation hot (threshold 1,000)
#: barrier 0.959 s [0.893-1.036] vs streaming 0.893 s [0.833-0.995],
#: streaming faster in 7/10; with no hot conversation barrier 0.773 s
#: [0.721-0.892] vs streaming 0.810 s [0.779-0.876], barrier faster in
#: 8/10. Streaming does not win both, so the gate stays: the barrier
#: is what keeps the empty-hot single-phase shortcut reachable.
BARRIER_ASSEMBLY_MAX_ROWS = 2_000_000


def extract_documents(
    transcripts: "ray.data.Dataset",
    payloads: Optional["ray.data.Dataset"] = None,
    salt_span: int = 256,
    payloads_path: Optional[str] = None,
    emit_original: bool = False,
    hot_threshold: int = 10_000,
    transcripts_path=None,  # enables footer gating + overlapped hot count
) -> "ray.data.Dataset":
    """Whole-document output: one row per conversation
    (conv_id, n_turns, doc_md), turn order restored inside groups.
    With ``emit_original`` both variants assemble in one pass
    (doc_md + doc_md_original — the reference's dual
    original/translated outputs, mistralocr_app.py:714-717).

    Extraction runs ONCE and feeds ``assemble_conversations_hotaware``,
    which salts only the conversations longer than ``hot_threshold``
    turns: cold conversations finalize in phase 1, and only the hot
    ones' doc-level partials take the tiny phase-2 shuffle. The earlier
    design split the raw input into concurrent cold/hot extraction
    branches with fractional actor pools — two assembly shuffles and
    double input scans measured 2.2x slower than extract-once on the
    50%%-hot skew corpus. The hot count runs on the RAW input's conv_id
    column (turn counts are invariant under extraction — errors are
    values, rows are never dropped).

    With ``transcripts_path`` the count runs as overlapped raw tasks
    over the transcript files, and the parquet footer row count picks
    the size regime (``BARRIER_ASSEMBLY_MAX_ROWS``, read at call time):
    bounded inputs take an explicit materialize BARRIER between
    extraction and the assembly shuffle — extraction runs first, then
    the all-to-all gets the whole cluster (measurement at the
    constant). Larger inputs STREAM into the one hot-aware
    shuffle without ever being held twice, the assembly closures
    resolving the pending hot count at their first batch.

    Without ``transcripts_path``, assumes ``transcripts`` is cheaply
    re-consumable — a parquet read or in-memory Dataset (the hot scan
    re-reads only ``conv_id``). The checkpointed job
    (pipelines/job.py) counts on its per-turn checkpoint parquet
    instead."""
    import ray

    from ..stages.assemble import assemble_conversations_hotaware

    turns = extract_turns(transcripts, payloads,
                          payloads_path=payloads_path,
                          emit_original=emit_original)
    files = _payload_files(transcripts_path) if transcripts_path is not None else []
    if files:
        # Launch the raw-task hot count NOW (parallel single-column
        # reads, no Ray Data fixed costs); both regimes share it.
        hot_ref = _hot_conversations_from_files(files, hot_threshold)
        if _parquet_meta_rows(files) <= BARRIER_ASSEMBLY_MAX_ROWS:
            # BARRIER regime: extraction runs to completion, then the
            # assembly shuffle gets the whole cluster. The
            # count overlaps the materialize barrier; the get() after
            # it is ~free, and the empty-hot single-phase shortcut
            # stays reachable.
            turns = turns.materialize()
            return assemble_conversations_hotaware(
                turns, ray.get(hot_ref), salt_span=salt_span,
                include_original=emit_original)
        # STREAMING regime: no barrier exists to hide the count behind,
        # so pass a PENDING ref — the count runs WHILE the pipeline's
        # read/extract stages stream, and the assembly closures resolve
        # it at their first batch. (A driver-side get() here would
        # serialize a full conv_id scan in front of a lazy, not-yet-
        # started pipeline — at 100 TB a real serial wall.)
        return assemble_conversations_hotaware(
            turns, _as_value_set.remote(hot_ref), salt_span=salt_span,
            include_original=emit_original)
    hot = _hot_conversations(transcripts, hot_threshold)
    return assemble_conversations_hotaware(turns, hot, salt_span=salt_span,
                                           include_original=emit_original)
