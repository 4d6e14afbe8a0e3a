"""Ray Data stages for the flagship extraction pipeline.

Stateless batch functions, run as Ray Data tasks. The reference keeps
its OCR/LLM clients process-global (``mistralocr_app.py:775-800``);
here the per-process state is only the compiled kernels (bound when
``functions/`` is imported) and the broadcast child map, which
``_child_map`` fetches once per worker process. All stages are
Arrow-in/Arrow-out (``batch_format="pyarrow"``); the per-string kernel
work is inherently scalar, but columns are materialized once per batch
and rebuilt as single Arrow arrays (no per-row Dataset ops).
"""

from __future__ import annotations

import json

import pyarrow as pa

from ..functions.extract import extract_turn, extract_child_payload
from ..functions.markdown import md_spans, normalize_markdown
from ..functions.scalars import splice_children
from ..functions.textstats import token_count


def _extract(batch: pa.Table, extra_extractors) -> tuple[list, list, list]:
    """``extract_turn`` over the batch's ``text``/``tool`` columns:
    raw Markdown, status and error per row. ``extra_extractors`` is the
    snapshot of the extractor registry taken when the pipeline was built
    (stages/registry.py)."""
    extra = extra_extractors or {}
    raws, statuses, errors = [], [], []
    for text, tool in zip(batch["text"].to_pylist(), batch["tool"].to_pylist()):
        raw, status, err = extract_turn(text, tool, extra)
        raws.append(raw)
        statuses.append(status)
        errors.append(err)
    return raws, statuses, errors


def extract_raw_md(batch: pa.Table, extra_extractors=None) -> pa.Table:
    """Per-turn extraction: route by ``tool`` and extract raw Markdown.

    Output adds ``raw_md:string status:string error:string`` to the
    input columns."""
    raws, statuses, errors = _extract(batch, extra_extractors)
    return (
        batch.append_column("raw_md", pa.array(raws, pa.string()))
        .append_column("status", pa.array(statuses, pa.string()))
        .append_column("error", pa.array(errors, pa.string()))
    )


def extract_children(batch: pa.Table) -> pa.Table:
    """Per-payload structuring (ST5 analog): payload bytes ->
    ``extracted`` pretty-JSON + ``child_status``."""
    extracted, statuses = [], []
    for blob, pid, kind in zip(batch["payload"].to_pylist(),
                               batch["payload_id"].to_pylist(),
                               batch["kind"].to_pylist()):
        s, st = extract_child_payload(blob, pid, kind)
        extracted.append(s)
        statuses.append(st)
    return (
        batch.select(["conv_id", "turn_idx", "payload_id"])
        .append_column("extracted", pa.array(extracted, pa.string()))
        .append_column("child_status", pa.array(statuses, pa.string()))
    )


_OUT_COLS = ["conv_id", "turn_idx", "role", "tool", "ts", "md", "spans",
             "n_tokens", "status", "error"]

SPANS_TYPE = pa.list_(
    pa.struct([("start", pa.int64()), ("end", pa.int64()), ("kind", pa.string())])
)


def _finish(batch: pa.Table, raws: list, children, emit_original: bool
            ) -> pa.Table:
    """Splice each turn's children below their placeholders (J1+M6),
    normalize (M12 analog) and count tokens. ``children`` holds one
    entry per row: a ``{payload_id: extracted}`` dict, its JSON string,
    or anything falsy / NaN (no children)."""
    mds, origs, spans, ntoks = [], [], [], []
    for raw, cj in zip(raws, children):
        if isinstance(cj, str) and cj:
            cj = json.loads(cj)
        if isinstance(cj, dict) and cj:  # guards NaN/None from the left join
            raw = splice_children(raw, cj)
        md = normalize_markdown(raw)
        mds.append(md)
        if emit_original:
            origs.append(raw)
        spans.append(md_spans(md))
        ntoks.append(token_count(md))
    out = (
        batch.append_column("md", pa.array(mds, pa.string()))
        .append_column("spans", pa.array(spans, SPANS_TYPE))
        .append_column("n_tokens", pa.array(ntoks, pa.int64()))
    )
    if emit_original:
        # dual-variant output (mistralocr_app.py:714-717 writes both
        # final_markdown_original and final_markdown_translated): the
        # pre-normalization spliced text rides alongside, invariant
        # normalize_markdown(md_original) == md
        out = out.append_column("md_original", pa.array(origs, pa.string()))
        return out.select(_OUT_COLS + ["md_original"])
    return out.select(_OUT_COLS)


def finalize_with_children(batch: pa.Table,
                           emit_original: bool = False) -> pa.Table:
    """Co-group route's last step: splice the joined ``children_json``
    into ``raw_md``, then normalize."""
    return _finish(batch, batch["raw_md"].to_pylist(),
                   batch["children_json"].to_pylist(), emit_original)


def build_child_rows(child_df):
    """Reduce child rows to one (conv_id, turn_idx, children_json) row
    per turn — the deterministic JSON map the cogroup merge builds;
    runs inside cluster buckets for the broadcast join's small side."""
    child_df = child_df.sort_values(["conv_id", "turn_idx", "payload_id"],
                                    kind="mergesort")
    agg = (
        child_df.groupby(["conv_id", "turn_idx"], sort=False)
        .apply(lambda g: json.dumps(dict(zip(g["payload_id"], g["extracted"])),
                                    ensure_ascii=False, sort_keys=True),
               include_groups=False)
        .rename("children_json")
        .reset_index()
    )
    return agg[["conv_id", "turn_idx", "children_json"]]


#: (ObjectRef hex, child map) of the last map this worker process
#: fetched. One entry: each ``extract_turns`` call brings a new ref, so
#: a new call evicts the old map instead of serving it.
_CHILD_MAP_CACHE: tuple = (None, {})


def _child_map(cmap_ref) -> dict:
    """The broadcast child map behind ``cmap_ref`` (``None``: empty),
    fetched and deserialized once per worker process rather than once
    per batch. The ref may still be pending: a task blocked in
    ``ray.get`` gives up its CPU, so the tasks that compute the map
    run even on a one-CPU session."""
    global _CHILD_MAP_CACHE
    if cmap_ref is None:
        return {}
    key = cmap_ref.hex()
    cached_key, cmap = _CHILD_MAP_CACHE
    if cached_key != key:
        import ray

        cmap = ray.get(cmap_ref)
        _CHILD_MAP_CACHE = (key, cmap)
    return cmap


def extract_finalize(batch: pa.Table, cmap_ref=None, extra_extractors=None,
                     emit_original: bool = False) -> pa.Table:
    """Fused single pass for the broadcast-join and no-payload routes:
    extract -> splice (children from the broadcast map behind
    ``cmap_ref``, keyed by ``(conv_id, turn_idx)``) -> normalize ->
    token count, one Arrow->Python->Arrow round-trip per batch. The
    split extract/finalize pair paid that conversion twice over every
    turn's text (~2x total CPU at bench scale)."""
    cmap = _child_map(cmap_ref)
    raws, statuses, errors = _extract(batch, extra_extractors)
    children = [cmap.get(k) for k in zip(batch["conv_id"].to_pylist(),
                                         batch["turn_idx"].to_pylist())]
    batch = (batch.append_column("status", pa.array(statuses, pa.string()))
             .append_column("error", pa.array(errors, pa.string())))
    return _finish(batch, raws, children, emit_original)


# ---------------------------------------------------------------------------
# Bucketed co-group merge (J1 + A1): runs inside stages/joins.cogroup.
# The child aggregation (regroup by (conv,turn), the reference's
# ``ocr_by_page``, mistralocr_app.py:513-519) and the left-outer merge
# happen vectorized per bucket — never one UDF call per tiny group.
# ---------------------------------------------------------------------------

PARENT_SCHEMA = pa.schema([
    ("conv_id", pa.string()),
    ("turn_idx", pa.int32()),
    ("role", pa.string()),
    ("tool", pa.string()),
    ("ts", pa.timestamp("us")),
    ("raw_md", pa.large_string()),
    ("status", pa.string()),
    ("error", pa.string()),
])

CHILD_SCHEMA = pa.schema([
    ("conv_id", pa.string()),
    ("turn_idx", pa.int32()),
    ("payload_id", pa.string()),
    ("extracted", pa.large_string()),
])


def merge_children_into_parents(ldf, rdf):
    """cogroup merge_fn: parents (ldf) left-join aggregated children
    (rdf) on (conv_id, turn_idx); children collapse to a deterministic
    JSON map sorted by payload_id."""
    import pandas as pd

    if ldf.empty:
        return ldf.assign(children_json=pd.Series(dtype=object))
    if rdf.empty:
        return ldf.assign(children_json=None)
    rdf = rdf.sort_values(["conv_id", "turn_idx", "payload_id"], kind="mergesort")
    agg = (
        rdf.groupby(["conv_id", "turn_idx"], sort=False)
        .apply(lambda g: json.dumps(dict(zip(g["payload_id"], g["extracted"])),
                                    ensure_ascii=False, sort_keys=True),
               include_groups=False)
        .rename("children_json")
        .reset_index()
    )
    return ldf.merge(agg, on=["conv_id", "turn_idx"], how="left")
