"""Fault-injection sweep over every persisted family.

For each family, the k-th ``os.replace``/``os.rename`` on a path under
the test's tmp dir raises, for every k an uninterrupted run makes (the
raise stands for the process dying at that rename). After the fault:

- a different increment is accepted, or refused with a message that
  names the remedy (retry or rebuild) and accepted once the retry is
  done; it never wedges;
- a retry of the interrupted operation converges to the result of an
  uninterrupted run. When the other increment was accepted, that is the
  result with both folded in: incremental results do not depend on the
  order of deliveries.

A rebuild over an existing index must also leave a complete index
(old or new) that the next call can read, at every k.

This shows process-crash atomicity only: Ray's ``write_parquet`` does
not fsync the data files, so power loss is not covered.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

BASE = ("The quick brown fox jumps over the lazy dog while the rain in "
        "spain falls mainly on the plain and every good boy deserves "
        "fudge because the five boxing wizards jump quickly tonight.")
OTHER = ("Completely different content about distributed dataflow engines "
         "streaming arrow batches through actor pools with salted hash "
         "partitioning and per-partition lineage checkpoints for resume.")
THIRD = ("Entirely unrelated prose concerning mountain weather patterns "
         "and the migratory habits of alpine birds across seasonal ranges "
         "with long descriptive passages about snowfall accumulation.")
FOURTH = ("A recipe for sourdough bread needs flour water salt and a lively "
          "starter fed the night before, then a long cold proof overnight "
          "so the crumb opens and the crust blisters in a hot oven.")


class _Crash(Exception):
    """The process dying at a rename."""


@contextlib.contextmanager
def _renames(monkeypatch, root: str, crash_at: int = 0):
    """Count ``os.replace``/``os.rename`` calls whose source lies under
    ``root`` (Ray's own files are never touched) and raise ``_Crash`` at
    call number ``crash_at`` (0: never). Yields the list of calls."""
    calls: list = []

    def wrap(real):
        def call(src, dst, *a, **kw):
            if os.fspath(src).startswith(root):
                calls.append((real.__name__, os.fspath(src)))
                if len(calls) == crash_at:
                    raise _Crash(f"crash at {real.__name__} #{crash_at}")
            return real(src, dst, *a, **kw)
        return call

    with monkeypatch.context() as m:
        for name in ("replace", "rename"):
            m.setattr(os, name, wrap(getattr(os, name)))
        yield calls


def _run(steps, start: int = 0):
    """Run ``steps[start:]``; the index of the step a crash hit, or None."""
    for i in range(start, len(steps)):
        try:
            steps[i]()
        except _Crash:
            return i
    return None


def _docs(root: str, name: str, rows) -> str:
    d = os.path.join(root, name)
    os.makedirs(d)
    pq.write_table(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string()),
    }), os.path.join(d, "documents.parquet"))
    return d


def _embs(root: str, name: str, ids, M) -> str:
    d = os.path.join(root, name)
    os.makedirs(d)
    pq.write_table(pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(M.astype(np.float32).ravel(), pa.float32()),
            M.shape[1]),
    }), os.path.join(d, "embeddings.parquet"))
    return d


def _meta(idx: str) -> dict:
    with open(os.path.join(idx, "meta.json"), encoding="utf-8") as f:
        return json.load(f)


def _rows(path: str, cols) -> list:
    return sorted(pq.read_table(path, columns=cols).to_pylist(),
                  key=lambda r: tuple(r[c] for c in cols))


# ---------------------------------------------------------------------------
# Families. Each holds: ``prepare(tmpl)`` (the starting state, built once
# and copied per k), ``steps(d)`` (the operation; a retry resumes at the
# step that crashed), ``other(d)`` (a different increment), ``read(d)``
# (what must converge), and ``folds``: True when the other increment
# folds in beside the operation's, False when the operation overrides it.
# ---------------------------------------------------------------------------


class _Checkpoint:
    """``run_checkpointed`` lineage, 4 partitions: a resume whose input
    fragment changed prunes every entry, then recomputes them all."""
    folds = False

    def __init__(self, root):
        self.src = rd.from_arrow(pa.table({
            "conv_id": [f"c{i % 12:02d}" for i in range(48)],
            "turn_idx": pa.array([i // 12 for i in range(48)], pa.int32()),
            "text": [f"turn {i}" for i in range(48)],
        })).materialize()

    def _run(self, d, frag):
        from mistralocr_pdf2md_translator_ray.state import run_checkpointed

        def transform(ds):
            def fn(t):
                md = pa.array([f"{s}|{frag}" for s in t["text"].to_pylist()])
                return pa.table({"conv_id": t["conv_id"],
                                 "turn_idx": t["turn_idx"], "md": md,
                                 "status": pa.array(["ok"] * t.num_rows),
                                 "part_id": t["part_id"]})
            return ds.map_batches(fn, batch_format="pyarrow")

        run_checkpointed(self.src, transform, os.path.join(d, "ckpt"),
                         n_partitions=4, input_fragment=frag)

    def prepare(self, tmpl):
        self._run(tmpl, "v1")

    def steps(self, d):
        return [lambda: self._run(d, "v2")]

    def other(self, d):
        self._run(d, "v3")

    def read(self, d):
        from mistralocr_pdf2md_translator_ray.state import load_lineage

        ckpt = os.path.join(d, "ckpt")
        return (_rows(os.path.join(ckpt, "data"), ["conv_id", "turn_idx",
                                                   "md"]),
                load_lineage(ckpt))


class _CurateStage:
    """One curate stage: per-partition checkpoint, then ``_mark``;
    a stage whose marker exists is skipped (``curate_corpus``'s rule)."""
    folds = False

    def __init__(self, root):
        self.src = _docs(root, "stage_src",
                         [(i, f"doc {i} text") for i in range(40)])

    def _stage(self, d, frag):
        from mistralocr_pdf2md_translator_ray.pipelines import curate

        src = rd.read_parquet(os.path.join(self.src, "documents.parquet"))
        if curate._marker(d) is None:
            curate._mark(d, {"rows": curate._ckpt_stage(
                src, lambda ds: ds, d, ["doc_id", "text"], frag)})

    def prepare(self, tmpl):
        pass

    def steps(self, d):
        return [lambda: self._stage(os.path.join(d, "scrub"), "up:a")]

    def other(self, d):
        self._stage(os.path.join(d, "scrub"), "up:b")

    def read(self, d):
        from mistralocr_pdf2md_translator_ray.pipelines import curate

        stage = os.path.join(d, "scrub")
        return (curate._marker(stage),
                _rows(os.path.join(stage, "documents.parquet"),
                      ["doc_id", "text"]))


class _MinHashFold:
    """The MinHash fold (tag-staged band append, labels/kept swaps, meta,
    fold guard) into a 4-part band index."""
    folds = True

    def __init__(self, root):
        near = BASE.replace("lazy dog", "sleepy dog")
        self.old = _docs(root, "mh_old", [(1, BASE), (2, OTHER)])
        self.a = _docs(root, "mh_a", [(10, near), (11, THIRD)])
        self.b = _docs(root, "mh_b", [(20, FOURTH),
                                      (21, OTHER + " with a tail")])

    def prepare(self, tmpl):
        from mistralocr_pdf2md_translator_ray.stages.dedup_incremental import (
            build_dedup_index,
        )

        build_dedup_index(self.old, os.path.join(tmpl, "idx"),
                          num_band_parts=4)

    def _fold(self, d, new):
        from mistralocr_pdf2md_translator_ray.stages.dedup_incremental import (
            dedup_minhash_incremental,
        )

        dedup_minhash_incremental(new, os.path.join(d, "idx"),
                                  update_index=True)

    def steps(self, d):
        return [lambda: self._fold(d, self.a)]

    def other(self, d):
        self._fold(d, self.b)

    def read(self, d):
        idx = os.path.join(d, "idx")
        assert not os.path.exists(os.path.join(idx, "_folding.json"))
        return (_rows(os.path.join(idx, "kept"), ["doc_id"]),
                pq.read_table(os.path.join(idx, "bands")).num_rows,
                sorted(_meta(idx)["doc_paths"]))


class _ExactAppendCompact:
    """The exact index: a tag-staged append, then compaction's swap."""
    folds = True

    def __init__(self, root):
        self.old = _docs(root, "ex_old", [(5, BASE), (6, OTHER)])
        self.a = _docs(root, "ex_a", [(1, BASE), (7, THIRD)])
        self.b = _docs(root, "ex_b", [(3, OTHER), (8, FOURTH)])
        self.delta = None

    def prepare(self, tmpl):
        from mistralocr_pdf2md_translator_ray.stages.dedup_incremental import (
            build_exact_index,
        )

        build_exact_index(self.old, os.path.join(tmpl, "idx"), num_parts=4)

    def steps(self, d):
        from mistralocr_pdf2md_translator_ray.stages.dedup_incremental import (
            dedup_exact_incremental,
            exact_index_compact,
        )

        idx = os.path.join(d, "idx")

        def append():
            self.delta = sorted(
                dedup_exact_incremental(self.a, idx).take_all(),
                key=lambda r: r["doc_id"])

        return [append, lambda: exact_index_compact(idx)]

    def other(self, d):
        from mistralocr_pdf2md_translator_ray.stages.dedup_incremental import (
            dedup_exact_incremental,
        )

        dedup_exact_incremental(self.b, os.path.join(d, "idx")).materialize()

    def read(self, d):
        from mistralocr_pdf2md_translator_ray.stages.dedup_incremental import (
            exact_index_kept,
        )

        idx = os.path.join(d, "idx")
        kept = sorted(exact_index_kept(idx).take_all(),
                      key=lambda r: r["doc_id"])
        return kept, self.delta, sorted(_meta(idx)["doc_paths"])


class _IvfAppend:
    """The IVF append: tag-staged move into ``cid=`` partitions, meta last."""
    folds = True

    def __init__(self, root):
        M = np.random.default_rng(7).standard_normal((36, 8))
        self.old = _embs(root, "ivf_old", list(range(20)), M[:20])
        self.a = _embs(root, "ivf_a", list(range(20, 28)), M[20:28])
        self.b = _embs(root, "ivf_b", list(range(28, 36)), M[28:])

    def prepare(self, tmpl):
        from mistralocr_pdf2md_translator_ray.stages.similarity import (
            build_ivf_index,
        )

        build_ivf_index(self.old, os.path.join(tmpl, "idx"), n_centroids=4,
                        seed=5)

    def _append(self, d, new):
        from mistralocr_pdf2md_translator_ray.stages.similarity import (
            append_to_ivf_index,
        )

        append_to_ivf_index(new, os.path.join(d, "idx"))

    def steps(self, d):
        return [lambda: self._append(d, self.a)]

    def other(self, d):
        self._append(d, self.b)

    def read(self, d):
        idx = os.path.join(d, "idx")
        rows = sorted(
            (part, v)
            for part in os.listdir(idx) if part.startswith("cid=")
            for f in os.listdir(os.path.join(idx, part))
            for v in pq.read_table(os.path.join(idx, part, f),
                                   columns=["vec_id"])["vec_id"].to_pylist())
        return rows, sorted(_meta(idx)["appended_paths"])


class _Rebuild:
    """``build_exact_index`` over an existing index; every k must also
    leave a complete index (old or new) readable before the retry."""
    folds = False

    def __init__(self, root):
        self.old = _docs(root, "rb_old", [(1, BASE), (2, OTHER)])
        self.new = _docs(root, "rb_new", [(3, THIRD), (4, BASE)])
        self.b = _docs(root, "rb_b", [(9, FOURTH)])

    def _build(self, d, src):
        from mistralocr_pdf2md_translator_ray.stages.dedup_incremental import (
            build_exact_index,
        )

        build_exact_index(src, os.path.join(d, "idx"), num_parts=4)

    def prepare(self, tmpl):
        self._build(tmpl, self.old)

    def steps(self, d):
        return [lambda: self._build(d, self.new)]

    def other(self, d):
        from mistralocr_pdf2md_translator_ray.stages.dedup_incremental import (
            dedup_exact_incremental,
        )

        dedup_exact_incremental(self.b, os.path.join(d, "idx")).materialize()

    def read(self, d):
        from mistralocr_pdf2md_translator_ray.stages.dedup_incremental import (
            exact_index_kept,
        )

        idx = os.path.join(d, "idx")
        return (sorted(exact_index_kept(idx).take_all(),
                       key=lambda r: r["doc_id"]),
                _meta(idx)["doc_paths"])


@pytest.mark.parametrize("family", [
    _Checkpoint, _CurateStage, _MinHashFold, _ExactAppendCompact,
    _IvfAppend, _Rebuild,
], ids=lambda f: f.__name__.lstrip("_"))
def test_crash_at_every_rename_converges(family, tmp_path, monkeypatch,
                                         ray_session):
    root = str(tmp_path)
    fam = family(root)
    tmpl = os.path.join(root, "template")
    os.makedirs(tmpl)
    fam.prepare(tmpl)
    before = fam.read(tmpl) if family is _Rebuild else None

    def fresh(name):
        d = os.path.join(root, name)
        shutil.copytree(tmpl, d)
        return d

    # the uninterrupted references, once per family
    d = fresh("ref")
    with _renames(monkeypatch, root) as calls:
        assert _run(fam.steps(d)) is None
    n_calls = len(calls)
    assert n_calls >= 1
    ref = fam.read(d)
    fam.other(d)
    ref_both = fam.read(d) if fam.folds else ref

    for k in range(1, n_calls + 1):
        d = fresh(f"k{k}")
        steps = fam.steps(d)
        with _renames(monkeypatch, root, crash_at=k):
            hit = _run(steps)
        assert hit is not None, f"k={k}: no crash at rename #{k}"
        if family is _Rebuild:
            assert fam.read(d) in (before, ref), (
                f"k={k}: the crashed rebuild left no complete index")
        try:
            fam.other(d)
            accepted = True
        except (RuntimeError, ValueError) as e:
            assert re.search(r"\b(retry|rebuild)\b", str(e), re.I), (
                f"k={k}: the refusal names no remedy: {e}")
            accepted = False
        assert _run(steps, start=hit) is None
        assert fam.read(d) == (ref_both if accepted else ref), f"k={k}"
        if fam.folds and not accepted:  # refused only until the retry
            fam.other(d)
            assert fam.read(d) == ref_both, f"k={k}"
