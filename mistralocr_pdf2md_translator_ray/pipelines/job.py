"""End-to-end checkpointed extraction job (the ``ray job submit`` unit).

Composes the flagship pipeline with per-partition checkpoints + lineage
(state/checkpoint.py): a killed run resumes by recomputing only the
partitions whose lineage entries are missing — the distributed
restatement of the reference's pickle-per-stage resume
(``mistralocr_app.py:577-649``).

Layout under ``out_dir``::

    turns/            per-turn checkpointed parquet, partitioned by part_id
    turns/_lineage.json
    docs/             per-conversation output (written after turns complete)

Usage (driver owns the Ray session)::

    from mistralocr_pdf2md_translator_ray.pipelines.job import run_extract_job
    run_extract_job(transcripts_path, payloads_path, out_dir)
"""

from __future__ import annotations

import os

import ray.data as rd

from ..state.checkpoint import run_checkpointed
from .extract_pipeline import _hot_conversations, extract_turns
from ..stages.assemble import assemble_conversations_hotaware


def run_extract_job(
    transcripts_path: str,
    payloads_path: str | None,
    out_dir: str,
    n_partitions: int = 16,
    assemble: bool = True,
    salt_span: int = 256,
    hot_threshold: int = 10_000,
    assembly_buckets: int = 64,
) -> "rd.Dataset":
    """Run (or resume) the flagship extraction; returns the per-turn
    Dataset read back from the checkpoint store."""
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
        from ..state.checkpoint import add_part_id

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
        if not os.path.exists(os.path.join(docs_dir, "_done")):
            # crash-safe rerun: a previous attempt that died mid-write
            # left uniquely-named partial parquet files with no _done
            # marker; clear them or readers would see duplicated
            # conversations (the turns phase has the equivalent
            # per-partition cleanup in state/checkpoint.py)
            if os.path.isdir(docs_dir):
                import shutil

                shutil.rmtree(docs_dir)
            # the per-turn checkpoint store is re-consumable parquet, so
            # the hot count re-reads only its conv_id column; only
            # conversations over hot_threshold turns are salted
            hot = _hot_conversations(per_turn, hot_threshold)
            docs = assemble_conversations_hotaware(
                per_turn, hot, salt_span=salt_span,
                num_buckets=assembly_buckets)
            docs.write_parquet(docs_dir)
            open(os.path.join(docs_dir, "_done"), "w").close()
    return per_turn
