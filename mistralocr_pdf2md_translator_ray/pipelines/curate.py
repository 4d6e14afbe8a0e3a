"""End-to-end training-data curation job: staged, resumable, composed.

The curation suite's ops compose the way a real 100-TB prep run does —
each stage STREAMS from the previous stage's parquet and writes its own
partitioned parquet, checkpointed at PARTITION granularity through
``state/checkpoint.run_checkpointed``'s per-partition lineage (resume
after a mid-stage crash recomputes ONLY the partitions whose lineage
entry is missing — a run killed 90% through a stage redoes ~10%, not
the whole stage; reference analog: the per-stage pickle checkpoints at
``mistralocr_app.py:577-580``, upgraded from stage- to
partition-granular). A ``_SUCCESS`` marker still closes each finished
stage so completed stages are skipped without constructing any plan.

    scrub   : PII redaction (redact_pii kernel), text rewritten
              — row-local, so resume recomputes only missing
              partitions' ROWS end to end
    dedup   : MinHash/LSH near-dup removal, survivors only
              (bucketed co-group semi-join — the kept-id set is
              corpus-scaled, so it never broadcasts)
    spans   : sub-document duplicate token-window removal
    order   : deterministic seeded global shuffle + greedy sequence
              packing manifest

The dedup/spans/order stages have a GLOBAL compute (corpus-wide kept
set / span winners / shuffle sort) that resume must re-run — it is
deterministic, so re-running reproduces the same values — but their
WRITE is partition-pruned: finished partitions are never rewritten,
and the global pass's output is filtered to the missing part_ids
before it touches disk. Output physical order within the order stage
is by part_id; the stage's ordering contract is the ``shuffle_key``
column (a pure function of doc_id and seed), not file order.

Every stage reads/writes a ``documents.parquet`` layout (now a
hive-partitioned directory, ``documents.parquet/part_id=<k>/``) so
each is individually re-runnable with the standalone query of the same
name. Downstream invalidation is content-driven: each stage's
``input_fragment`` digests the upstream stage's lineage manifest, so
regenerating an upstream stage invalidates exactly the checkpoints
that read it.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from ..state.checkpoint import (
    add_part_id,
    filter_to_partitions,
    load_lineage,
    run_checkpointed,
)
from ..state.durable import healed_dir, read_json, read_marker, write_json

_SUCCESS = "_SUCCESS"
_N_PARTS = 16


def _stage_dir(out_dir: str, name: str) -> str:
    return os.path.join(out_dir, name)


def _marker(d: str, name: str = _SUCCESS) -> dict | None:
    """The stage's ``_SUCCESS`` record (or another JSON record ``name``
    in ``d``), or None while it is absent or does not parse, so resume
    reruns the stage."""
    return read_marker(os.path.join(d, name))


def _mark(d: str, meta: dict) -> dict:
    """Close a stage (``write_json``: a crash never leaves a partial
    marker). Returns ``meta``."""
    write_json(os.path.join(d, _SUCCESS), meta)
    return meta


def _stage_fingerprint(stage_dir: str) -> str:
    """Content fingerprint of a completed upstream stage: a digest of
    its lineage manifest, which records per-partition content hashes of
    what is actually on disk (written post-readback). Deterministic for
    unchanged content, perturbed by any rewrite — the downstream
    ``input_fragment`` that makes cross-stage invalidation content-
    driven rather than existence-driven. A finished stage without a
    manifest predates per-partition lineage and cannot be trusted."""
    import hashlib

    path = os.path.join(stage_dir, "_lineage.json")
    if not os.path.exists(path):
        out_dir = os.path.dirname(os.path.abspath(stage_dir))
        raise RuntimeError(
            f"old-format checkpoint: stage {stage_dir} is marked done but "
            f"has no _lineage.json — delete {out_dir} and rerun")
    with open(path, "rb") as f:
        return hashlib.blake2b(f.read(), digest_size=8).hexdigest()


def _ckpt_stage(src: "rd.Dataset", transform, stage_dir: str,
                hash_cols: list[str], input_fragment: str,
                data_name: str = "documents.parquet") -> int:
    """Run one curate stage through per-partition lineage; returns the
    stage row count summed from the (verified-by-readback) lineage."""
    run_checkpointed(
        src, transform, stage_dir, key="doc_id", n_partitions=_N_PARTS,
        hash_cols=hash_cols, input_fragment=input_fragment,
        data_name=data_name)
    return sum(v["row_count"] for v in load_lineage(stage_dir).values())


def _filter_parts(ds: "rd.Dataset", missing: set[int]) -> "rd.Dataset":
    """Prune a globally-computed stage output to the partitions that
    still need writing (resume path of the non-row-local stages) —
    the same rule run_checkpointed applies to its input."""
    return filter_to_partitions(ds, missing)


_DOCS_SCHEMA = pa.schema([("doc_id", pa.int64()), ("text", pa.string())])


def _write_documents(ds: "rd.Dataset", d: str,
                     filename: str = "documents.parquet",
                     empty_schema: "pa.Schema | None" = None) -> int:
    """Distributed write of a parquet-directory layout (Ray writes one
    file per block — no driver funnel, resumable-output shape). Used
    for the small packing manifest; corpus-bytes outputs go through
    ``_ckpt_stage``. Row count comes from the written footers, not a
    re-execution. ``empty_schema`` seeds a typed zero-row file when the
    dataset writes nothing — an empty Dataset writes NO files, and a
    schemaless directory breaks every downstream reader (a delivery
    whose docs are ALL near-dups of shipped history is routine)."""
    target = os.path.join(d, filename)
    # crash healing: a stage dir without _SUCCESS may hold a partial
    # previous write — clear it so stale files can't mix into this
    # write's footer count
    if os.path.exists(target):
        import shutil

        shutil.rmtree(target)
    os.makedirs(target, exist_ok=True)
    ds.write_parquet(target)
    if empty_schema is not None and not any(
            f.endswith(".parquet") for f in os.listdir(target)):
        pq.write_table(empty_schema.empty_table(),
                       os.path.join(target, "empty.parquet"))
    return sum(
        pq.ParquetFile(os.path.join(target, f)).metadata.num_rows
        for f in os.listdir(target) if f.endswith(".parquet"))


def _survivors_semi_join(docs: "rd.Dataset",
                         kept: "rd.Dataset") -> "rd.Dataset":
    """(doc_id, text) docs ∩ kept ids via the bucketed co-group
    semi-join — the kept set is corpus-scaled, so it never broadcasts.
    Shared by the batch dedup stage and the per-delivery increment."""
    from ..stages.joins import cogroup

    def semi(ldf, rdf):
        return ldf.merge(rdf[["doc_id"]].drop_duplicates(),
                         on="doc_id")[["doc_id", "text"]]

    return cogroup(
        docs, kept, ["doc_id"], semi,
        left_schema=_DOCS_SCHEMA,
        right_schema=pa.schema([("doc_id", pa.int64())]),
    )


def curate_corpus(sf_dir: str, out_dir: str, span_tokens: int = 16,
                  seq_tokens: int = 512, seed: int = 0,
                  embed_dim: int | None = None) -> dict:
    """Run (or resume) the staged curation job; returns the manifest
    {stage: row_count}. Completed stages (a ``_SUCCESS`` that parses) are
    skipped without re-reading their inputs; an INCOMPLETE stage
    resumes at partition granularity from its lineage manifest.
    ``embed_dim`` adds the optional text->embedding stage
    (stages/embed.py) producing the embeddings.parquet the ANN /
    embedding-near-dup family consumes."""
    from ..stages.dedup import dedup_minhash, dedup_spans
    from ..stages.textstats import RedactActor
    from . import library as lib

    manifest: dict[str, int] = {}

    def _docs(d: str) -> "rd.Dataset":
        return rd.read_parquet(os.path.join(d, "documents.parquet"),
                               columns=["doc_id", "text"])

    # ---- stage 1: PII scrub (row-local -> true partition resume) -----
    d1 = _stage_dir(out_dir, "scrub")
    meta = _marker(d1)
    if meta is None:
        def scrub(pending: "rd.Dataset") -> "rd.Dataset":
            red = pending.map_batches(
                RedactActor, batch_format="pyarrow", batch_size=4096,
                concurrency=(1, 4), num_cpus=1,
            ).map_batches(
                lambda t: pa.table({"doc_id": t["doc_id"],
                                    "text": t["text_redacted"]}),
                batch_format="pyarrow")
            return add_part_id(red, "doc_id", _N_PARTS)

        src = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                              columns=["doc_id", "text"])
        n = _ckpt_stage(src, scrub, d1, ["doc_id", "text"],
                        f"scrub:{os.path.abspath(sf_dir)}")
        meta = _mark(d1, {"rows": n})
    manifest["scrub"] = meta["rows"]

    # ---- stage 2: near-dup removal -----------------------------------
    d2 = _stage_dir(out_dir, "dedup")
    meta = _marker(d2)
    if meta is None:
        def dedup_stage(pending: "rd.Dataset") -> "rd.Dataset":
            # kept set is a GLOBAL deterministic compute over d1; the
            # semi-join against it runs on the pending subset only
            kept = dedup_minhash(d1)  # Dataset[doc_id] — corpus-scaled
            left = pending.map_batches(
                lambda t: t.select(["doc_id", "text"]),
                batch_format="pyarrow")
            return add_part_id(_survivors_semi_join(left, kept),
                               "doc_id", _N_PARTS)

        n = _ckpt_stage(src=_docs(d1), transform=dedup_stage,
                        stage_dir=d2, hash_cols=["doc_id", "text"],
                        input_fragment=f"dedup:{_stage_fingerprint(d1)}")
        meta = _mark(d2, {"rows": n})
    manifest["dedup"] = meta["rows"]

    # ---- stage 3: sub-document span dedup ----------------------------
    d3 = _stage_dir(out_dir, "spans")
    meta = _marker(d3)
    if meta is None:
        def spans_stage(pending: "rd.Dataset",
                        missing: set[int]) -> "rd.Dataset":
            # span winners are corpus-global: recompute the (determin-
            # istic) full pass, write only the missing partitions.
            # `pending` is unused — lazy, so its plan never executes.
            full = dedup_spans(d2, span_tokens=span_tokens).map_batches(
                lambda t: pa.table({"doc_id": t["doc_id"],
                                    "text": t["text_deduped"]}),
                batch_format="pyarrow")
            return _filter_parts(add_part_id(full, "doc_id", _N_PARTS),
                                 missing)

        n = _ckpt_stage(
            src=_docs(d2), transform=spans_stage, stage_dir=d3,
            hash_cols=["doc_id", "text"],
            input_fragment=f"spans:{span_tokens}:{_stage_fingerprint(d2)}")
        meta = _mark(d3, {"rows": n})
    manifest["spans"] = meta["rows"]

    # ---- stage 4: deterministic order + packing manifest -------------
    d4 = _stage_dir(out_dir, "order")
    meta4 = _marker(d4)
    if meta4 is None:
        def order_stage(pending: "rd.Dataset",
                        missing: set[int]) -> "rd.Dataset":
            # shuffle_key is a pure function of (doc_id, seed); the
            # global range sort re-runs on resume, the write is pruned
            full = lib.shuffle_documents(d3, seed=seed)
            return _filter_parts(add_part_id(full, "doc_id", _N_PARTS),
                                 missing)

        n = _ckpt_stage(
            src=_docs(d3), transform=order_stage, stage_dir=d4,
            hash_cols=["doc_id", "text", "shuffle_key"],
            input_fragment=f"order:{seed}:{_stage_fingerprint(d3)}")
        n_seq = _write_documents(
            lib.pack_documents(d3, seq_tokens=seq_tokens), d4,
            filename="packing.parquet")
        meta4 = _mark(d4, {"rows": n, "sequences": n_seq})
    manifest["order"] = meta4["rows"]
    manifest["sequences"] = meta4.get("sequences", 0)

    # ---- stage 5 (optional): text -> embedding table ------------------
    if embed_dim is not None:
        from ..stages.embed import HashedNgramEmbedder

        d5 = _stage_dir(out_dir, "embed")
        meta = _marker(d5)
        if meta is None:
            def embed_stage(pending: "rd.Dataset") -> "rd.Dataset":
                emb = pending.map_batches(
                    HashedNgramEmbedder,
                    fn_constructor_kwargs={"dim": embed_dim, "seed": seed},
                    batch_format="pyarrow", batch_size=2048,
                    concurrency=(1, 4), num_cpus=1)
                # vec_id == doc_id by the embedder's contract, so the
                # re-derived part_id matches the input partitioning
                return add_part_id(emb, "vec_id", _N_PARTS)

            n = _ckpt_stage(
                src=_docs(d4), transform=embed_stage, stage_dir=d5,
                hash_cols=["vec_id", "embedding"],
                input_fragment=(f"embed:{embed_dim}:{seed}:"
                                f"{_stage_fingerprint(d4)}"),
                data_name="embeddings.parquet")
            meta = _mark(d5, {"rows": n})
        manifest["embed"] = meta["rows"]
    return manifest


# ---------------------------------------------------------------------------
# Incremental curation: one delivery at a time against accumulated state
# ---------------------------------------------------------------------------

def curate_increment(new_dir: str, out_dir: str, span_tokens: int = 16,
                     seq_tokens: int = 512, seed: int = 0,
                     threshold: float = 0.8) -> dict:
    """Process ONE new corpus delivery (``<new_dir>/documents.parquet``)
    against the accumulated curation state — the growing-corpus
    composition of the suite's incremental pieces, i.e. what a daily
    100-TB prep run actually executes instead of re-curating history:

      scrub  : PII redaction of the NEW docs only
      dedup  : MinHash near-dup against the PERSISTED band index
               (``dedup_minhash_incremental`` — old corpus probed by
               pushdown, never scanned; first delivery builds the
               index), folding the delivery in so deliveries chain
      spans  : sub-document span dedup WITHIN the delivery's survivors
      order  : deterministic seeded shuffle key + packing manifest for
               the delivery

    Outputs land under ``<out_dir>/increments/inc=<k>/`` (one directory
    per delivery — the resumable-output shape); the dedup index lives
    under ``<out_dir>/state/dedup_index``. Span dedup and packing are
    per-delivery by design (the industry-standard semantics: shipped
    sequences are immutable); document-level near-dup is GLOBAL across
    all deliveries via the index.

    No retraction: a later delivery can evict a previously-shipped doc
    from the global kept set (a bridge near-dup), but already-written
    increment outputs are immutable — ``curate_evicted(out_dir)``
    derives the current retraction list from on-disk state alone
    (shipped ∪ minus index kept), so the reconciliation invariant

        shipped_survivors − evicted == from-scratch kept on the
        concatenated corpus

    holds at every point (pytest-pinned). Returns the delivery manifest
    {increment, scrub, kept, spans, order, sequences}. A delivery
    crashed mid-run is healed on retry: the scrub rewrite is clean, and
    an index that already folded the delivery is detected (its doc path
    is in the index meta) and its kept set reused instead of re-folded.
    """
    from ..stages.dedup import dedup_spans
    from ..stages.dedup_incremental import (
        build_dedup_index,
        dedup_minhash_incremental,
    )
    from ..stages.textstats import RedactActor
    from . import library as lib

    state = os.path.join(out_dir, "state")
    index = os.path.join(state, "dedup_index")
    incs = os.path.join(out_dir, "increments")
    os.makedirs(incs, exist_ok=True)

    new_doc_path = os.path.abspath(os.path.join(new_dir,
                                                "documents.parquet"))
    # one directory per delivery; a crashed (no _SUCCESS) dir for the
    # SAME input is resumed, otherwise the next ordinal is allocated. A
    # dir with no readable _input.json crashed before recording its
    # delivery (nothing else is written first), so it is claimed again.
    inc_dir, rec = None, None
    for d in sorted(os.listdir(incs)):
        rec = _marker(os.path.join(incs, d), "_input.json")
        if rec is None or rec["doc_path"] == new_doc_path:
            inc_dir = os.path.join(incs, d)
            break
    if inc_dir is None:
        inc_dir = os.path.join(incs, f"inc={len(os.listdir(incs)):05d}")
        os.makedirs(inc_dir)
        rec = None
    if rec is None:
        write_json(os.path.join(inc_dir, "_input.json"),
                   {"doc_path": new_doc_path})
    done = _marker(inc_dir)
    if done is not None:
        return done

    manifest: dict[str, int] = {"increment": int(
        os.path.basename(inc_dir).split("=")[1])}

    # ---- scrub the delivery ------------------------------------------
    scrub_dir = os.path.join(inc_dir, "scrub")
    red = rd.read_parquet(new_doc_path, columns=["doc_id", "text"]) \
        .map_batches(RedactActor, batch_format="pyarrow", batch_size=4096,
                     concurrency=(1, 4), num_cpus=1) \
        .map_batches(lambda t: pa.table({"doc_id": t["doc_id"],
                                         "text": t["text_redacted"]}),
                     batch_format="pyarrow")
    manifest["scrub"] = _write_documents(red, scrub_dir)

    # ---- global near-dup via the persisted index ---------------------
    index_meta = read_json(os.path.join(healed_dir(index), "meta.json"))
    if index_meta is None:
        build_dedup_index(scrub_dir, index, threshold=threshold)
        kept = rd.read_parquet(os.path.join(index, "kept"))
    elif os.path.abspath(os.path.join(scrub_dir, "documents.parquet")) \
            in index_meta["doc_paths"]:
        # crashed after the fold on a previous attempt
        kept = rd.read_parquet(healed_dir(os.path.join(index, "kept")))
    else:
        kept = dedup_minhash_incremental(scrub_dir, index,
                                         update_index=True)

    # survivors = this delivery's docs ∩ global kept; an all-near-dup
    # re-delivery legitimately survives with ZERO docs — the typed
    # empty seed keeps spans/order readable downstream
    survivors = _survivors_semi_join(
        rd.read_parquet(os.path.join(scrub_dir, "documents.parquet"),
                        columns=["doc_id", "text"]),
        kept)
    dedup_dir = os.path.join(inc_dir, "dedup")
    manifest["kept"] = _write_documents(survivors, dedup_dir,
                                        empty_schema=_DOCS_SCHEMA)

    # ---- span dedup within the delivery ------------------------------
    spans_dir = os.path.join(inc_dir, "spans")
    sp = dedup_spans(dedup_dir, span_tokens=span_tokens).map_batches(
        lambda t: pa.table({"doc_id": t["doc_id"],
                            "text": t["text_deduped"]}),
        batch_format="pyarrow")
    manifest["spans"] = _write_documents(sp, spans_dir,
                                         empty_schema=_DOCS_SCHEMA)

    # ---- deterministic order + packing for the delivery --------------
    order_dir = os.path.join(inc_dir, "order")
    manifest["order"] = _write_documents(
        lib.shuffle_documents(spans_dir, seed=seed), order_dir,
        empty_schema=_DOCS_SCHEMA.append(
            pa.field("shuffle_key", pa.int64())))
    manifest["sequences"] = _write_documents(
        lib.pack_documents(spans_dir, seq_tokens=seq_tokens), order_dir,
        filename="packing.parquet",
        empty_schema=pa.schema([("doc_id", pa.int64()),
                                ("seq_id", pa.int64()),
                                ("n_tokens", pa.int64())]))

    _mark(inc_dir, manifest)
    return manifest


def curate_evicted(out_dir: str) -> "rd.Dataset":
    """Docs shipped by SOME completed increment that the global kept
    set no longer contains (bridge near-dups discovered by later
    deliveries). Derived purely from on-disk state — shipped survivor
    ids anti-joined against the index kept set — so it is correct after
    any crash. Returns Dataset[doc_id]."""
    from ..stages.joins import cogroup

    incs = os.path.join(out_dir, "increments")
    # expand dirs to files: Ray's reader resolves a single dir
    # recursively but not a list of dirs
    shipped_files = [
        os.path.join(dd, f)
        for d in (sorted(os.listdir(incs)) if os.path.isdir(incs) else [])
        if _marker(os.path.join(incs, d)) is not None
        for dd in [os.path.join(incs, d, "dedup", "documents.parquet")]
        for f in sorted(os.listdir(dd)) if f.endswith(".parquet")
    ]
    if not shipped_files:
        # nothing completed yet (fresh out_dir, or the very first
        # delivery crashed) -> zero evictions, not an exception — the
        # "correct after any crash" contract includes this state
        return rd.from_arrow(
            pa.schema([("doc_id", pa.int64())]).empty_table())
    index = healed_dir(os.path.join(out_dir, "state", "dedup_index"))
    kept = rd.read_parquet(healed_dir(os.path.join(index, "kept")))
    shipped = rd.read_parquet(shipped_files, columns=["doc_id"])

    def anti(ldf, rdf):
        out = ldf[~ldf["doc_id"].isin(rdf["doc_id"])]
        return out[["doc_id"]].drop_duplicates()

    return cogroup(
        shipped, kept, ["doc_id"], anti,
        left_schema=pa.schema([("doc_id", pa.int64())]),
        right_schema=pa.schema([("doc_id", pa.int64())]),
    )
