"""Ordered document assembly (SURVEY.md A2/O2) with skew salting.

The reference joins pages with ``"\\n\\n---\\n\\n"`` in list order
(``mistralocr_app.py:716-717``). Distributed equivalent: co-locate each
conversation, sort *inside the group* by ``(turn_idx, ts)``, join.
Block order is never trusted.

One entry point, ``assemble_conversations_hotaware``, with two scale
levers:

- **Bucketing**: grouping runs on ``bucket_ids(key, B)`` buckets, not
  raw conversation ids — every shuffle here is one
  ``joins.bucket_groups``, one call per shuffle output block (whole
  buckets) with vectorized pandas inside, never one UDF call per
  conversation (millions of tiny groups would pay ~ms of per-group
  overhead each; see stages/joins.py).
- **Salting** (``salt_span``), for the conversations in the hot set
  only: one hot conversation can hold ~half of all turns (FIXTURES.md).
  Phase 1 groups by (conv, salt) where ``salt = turn_idx // span`` —
  contiguous ranges, so concatenating per-salt partials in salt order
  equals concatenating the whole sorted conversation (splice
  associativity: ``sep.join(parts)`` where each part is
  ``sep.join(chunk)`` == ``sep.join(all)``). Phase 2 reduces the much
  smaller partials per conversation. The hot set only routes rows, so
  every hot set gives the same documents; an empty one is the
  single-phase path.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from ..functions.scalars import PAGE_SEPARATOR


# (turn column, assembled document column) pairs; the dual variant
# carries the pre-normalization text alongside (mistralocr_app.py:714-717)
_SINGLE_COLS = [("md", "doc_md")]
_DUAL_COLS = [("md", "doc_md"), ("md_original", "doc_md_original")]
#: Phase-1 buckets; the hot partials' phase 2 takes a quarter of them.
_BUCKETS = 64


def _assemble_bucket(g: pd.DataFrame, value_cols=_SINGLE_COLS) -> pd.DataFrame:
    g = g.sort_values(["conv_id", "turn_idx", "ts"], kind="mergesort")
    aggs = {out: (src, PAGE_SEPARATOR.join) for src, out in value_cols}
    out = g.groupby("conv_id", sort=False).agg(
        n_turns=(value_cols[0][0], "size"), **aggs
    ).reset_index()
    out["n_turns"] = out["n_turns"].astype("int64")
    return out[["conv_id", "n_turns"] + [o for _, o in value_cols]]


def _partial_bucket(g: pd.DataFrame, value_cols=_SINGLE_COLS) -> pd.DataFrame:
    g = g.sort_values(["conv_id", "salt", "turn_idx", "ts"], kind="mergesort")
    aggs = {out: (src, PAGE_SEPARATOR.join) for src, out in value_cols}
    out = g.groupby(["conv_id", "salt"], sort=False).agg(
        n_turns=(value_cols[0][0], "size"), **aggs
    ).reset_index()
    out["n_turns"] = out["n_turns"].astype("int64")
    return out


def _final_bucket(g: pd.DataFrame, value_cols=_SINGLE_COLS) -> pd.DataFrame:
    g = g.sort_values(["conv_id", "salt"], kind="mergesort")
    doc_cols = [o for _, o in value_cols]
    aggs = {o: (o, PAGE_SEPARATOR.join) for o in doc_cols}
    out = g.groupby("conv_id", sort=False).agg(
        n_turns=("n_turns", "sum"), **aggs
    ).reset_index()
    out["n_turns"] = out["n_turns"].astype("int64")
    return out[["conv_id", "n_turns"] + doc_cols]


def _assemble_single_phase(per_turn_ds, include_original: bool):
    """Empty hot set: one bucketed shuffle, each conversation assembled
    whole inside its bucket. With ``include_original`` the input's
    ``md_original`` column assembles to ``doc_md_original`` in the same
    pass (one shuffle for both variants)."""
    import functools

    from .joins import bucket_groups

    value_cols = _DUAL_COLS if include_original else _SINGLE_COLS
    return bucket_groups(
        per_turn_ds.select_columns(
            ["conv_id", "turn_idx", "ts"] + [src for src, _ in value_cols]),
        "conv_id",
        functools.partial(_assemble_bucket, value_cols=value_cols),
        _BUCKETS)


def assemble_conversations_hotaware(per_turn_ds, hot: set,
                                    salt_span: int = 256,
                                    include_original: bool = False):
    """Single-pass adaptive assembly given a known hot-conversation set:
    per-turn Dataset (conv_id, turn_idx, ts, md, ...) -> one row per
    conversation (conv_id, n_turns, doc_md); ``include_original`` also
    assembles ``md_original`` to ``doc_md_original`` in the same pass.

    ONE full-volume shuffle: every row gets a salt, but only rows of
    conversations in ``hot`` carry a real one (``turn_idx // span``);
    cold rows get salt 0, so a cold conversation's whole group lands in
    one phase-1 bucket and its phase-1 "partial" IS the finished
    document. Only the hot conversations' partials — one row per
    (conv, salt), i.e. tiny — take the phase-2 shuffle. Versus the old
    design (split the per-turn stream into cold/hot branches, assemble
    each, union) this consumes the expensive per-turn stream ONCE and
    never runs two concurrent assembly shuffles; measured 28s -> ~17s
    on the 200k-turn 50%%-hot skew corpus at 32 CPUs.

    Phase-1 output is DOC-level (one row per (conv, salt)) and is
    materialized because two consumers split it (cold finals, hot
    partials) — O(output bytes), never the per-turn stream (the
    round-3 regression this replaces). With an EMPTY hot set the
    single-phase path runs instead and nothing materializes at all.

    ``hot`` may also be a PENDING ``ray.ObjectRef`` resolving to a
    ``pa.Array`` of hot conv ids (the streaming regime of
    ``extract_documents``: the raw-task hot count runs WHILE this
    pipeline's read/extract stages stream, instead of serializing a
    full conv_id scan before the pipeline can start). With a ref the
    full hot-aware DAG is built unconditionally — an empty hot array
    degenerates to exactly the single-phase result (all salts 0, hot
    side empty) — and the closures block on the ref only at their
    first batch.
    """
    import functools

    import ray

    if isinstance(hot, ray.ObjectRef):
        hot_ref = hot
    else:
        if not hot:
            return _assemble_single_phase(per_turn_ds, include_original)
        hot_ref = ray.put(pa.array(sorted(hot), pa.string()))

    import pyarrow.compute as pc

    from .joins import bucket_groups

    value_cols = _DUAL_COLS if include_original else _SINGLE_COLS
    ds = per_turn_ds.select_columns(
        ["conv_id", "turn_idx", "ts"] + [src for src, _ in value_cols])
    span = int(salt_span)

    def add_salt(t: pa.Table) -> pa.Table:
        is_hot = pc.is_in(t["conv_id"], value_set=ray.get(hot_ref))
        salt_all = pc.divide(pc.cast(t["turn_idx"], pa.int64()),
                             pa.scalar(span, pa.int64()))
        return t.append_column(
            "salt", pc.if_else(is_hot, salt_all, pa.scalar(0, pa.int64())))

    partials = bucket_groups(
        ds.map_batches(add_salt, batch_format="pyarrow"),
        ["conv_id", "salt"],
        functools.partial(_partial_bucket, value_cols=value_cols),
        _BUCKETS)

    final_cols = ["conv_id", "n_turns"] + [o for _, o in value_cols]

    def mark(t: pa.Table) -> pa.Table:
        return t.append_column(
            "is_hot", pc.is_in(t["conv_id"], value_set=ray.get(hot_ref)))

    phase1 = partials.map_batches(mark, batch_format="pyarrow").materialize()

    cold = phase1.map_batches(
        lambda t: t.filter(pc.invert(t["is_hot"].combine_chunks()))
        .select(final_cols),
        batch_format="pyarrow")

    hot_final = (
        bucket_groups(
            phase1.map_batches(
                lambda t: t.filter(t["is_hot"].combine_chunks()),
                batch_format="pyarrow"),
            "conv_id",
            functools.partial(_final_bucket, value_cols=value_cols),
            _BUCKETS // 4)
        # arrow-coerce: the union's other side is Arrow and mixed block
        # types break downstream batching
        .map_batches(lambda t: t.select(final_cols), batch_format="pyarrow")
    )
    return cold.union(hot_final)
