"""End-to-end checkpointed extraction job (the ``ray job submit`` unit).

Composes the flagship pipeline with per-partition checkpoints + lineage
(state/checkpoint.py): a killed run resumes by recomputing only the
partitions whose lineage entries are missing — the distributed
restatement of the reference's pickle-per-stage resume
(``mistralocr_app.py:577-649``).

Layout under ``out_dir``::

    turns/data/part_id=<p>/   per-turn checkpointed parquet,
                              part_id = crc32(conv_id) % n_partitions
    turns/_lineage.json
    docs/part-<p>.parquet     the documents of partition p's conversations
    docs/_done                the turns lineage entries docs/ was built from

The docs phase is a partition-wise reduce: the turns checkpoint already
holds every turn of a conversation under one ``part_id``, so one task
per non-empty partition reads that partition's ``conv_id``, ``turn_idx``,
``ts`` and ``md`` and assembles its documents whole — no shuffle, no hot
count. A task holds one partition's ``md`` plus its documents, so
``n_partitions`` bounds the memory of each task.

``docs/`` is current iff ``_done`` parses and equals the turns lineage;
otherwise (absent, cut by a crash, written by an older build, or built
before the turns were recomputed on another input) it is rebuilt whole.

Usage (driver owns the Ray session)::

    from mistralocr_pdf2md_translator_ray.pipelines.job import run_extract_job
    run_extract_job(transcripts_path, payloads_path, out_dir)
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..stages.assemble import _assemble_bucket
from ..state.checkpoint import add_part_id, load_lineage, run_checkpointed
from ..state.durable import fresh_dir, read_marker, write_json
from .extract_pipeline import extract_turns

_DOC_INPUT_COLS = ["conv_id", "turn_idx", "ts", "md"]


@ray.remote
def _assemble_partition(part_dir: str, out_path: str) -> None:
    """Assemble one turns partition's conversations into ``out_path``."""
    files = sorted(os.path.join(part_dir, f) for f in os.listdir(part_dir)
                   if f.endswith(".parquet"))
    turns = pa.concat_tables(
        pq.read_table(f, columns=_DOC_INPUT_COLS) for f in files)
    if turns.num_rows:
        docs = _assemble_bucket(turns.to_pandas())
        pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                       out_path)


def _write_docs(turns_data: str, docs_dir: str, lineage: dict) -> None:
    fresh_dir(docs_dir)
    parts = sorted(
        int(d.split("=", 1)[1]) for d in os.listdir(turns_data)
        if d.startswith("part_id=") and any(
            f.endswith(".parquet")
            for f in os.listdir(os.path.join(turns_data, d))))
    ray.get([
        _assemble_partition.remote(
            os.path.join(turns_data, f"part_id={p}"),
            os.path.join(docs_dir, f"part-{p}.parquet"))
        for p in parts])
    write_json(os.path.join(docs_dir, "_done"), lineage)


def run_extract_job(
    transcripts_path: str,
    payloads_path: str | None,
    out_dir: str,
    n_partitions: int = 16,
    assemble: bool = True,
) -> "rd.Dataset":
    """Run (or resume) the flagship extraction; returns the per-turn
    Dataset read back from the checkpoint store. With ``assemble`` the
    documents land in ``docs/`` (module docstring)."""
    turns_ckpt = os.path.join(out_dir, "turns")

    def transform(pending: "rd.Dataset", missing=None) -> "rd.Dataset":
        # part_id must survive the pipeline for partitioned output; the
        # extract pipeline preserves input columns it doesn't consume,
        # but its finalize projects a fixed schema — so re-derive
        # part_id on the way out (same crc32 rule, zero-cost).
        # `missing` prunes the child phase to pending partitions on
        # resume (completed partitions' payloads are never re-extracted).
        conv_filter = (missing, n_partitions) if missing else None
        out = extract_turns(pending, payloads_path=payloads_path,
                            conv_filter=conv_filter)
        return add_part_id(out, "conv_id", n_partitions)

    per_turn = run_checkpointed(
        rd.read_parquet(transcripts_path),
        transform,
        turns_ckpt,
        key="conv_id",
        n_partitions=n_partitions,
        hash_cols=["conv_id", "turn_idx", "md", "status"],
        input_fragment=transcripts_path,
    )

    if assemble:
        docs_dir = os.path.join(out_dir, "docs")
        # the lineage as _lineage.json spells it (string keys), so it
        # compares equal to the _done record read back
        lineage = {str(k): v
                   for k, v in sorted(load_lineage(turns_ckpt).items())}
        if read_marker(os.path.join(docs_dir, "_done")) != lineage:
            _write_docs(os.path.join(turns_ckpt, "data"), docs_dir, lineage)
    return per_turn
