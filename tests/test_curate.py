"""Staged curation job: end-to-end composition, stage-granular resume,
and determinism of the final ordered corpus."""

from __future__ import annotations

import os

import pandas as pd
import pyarrow.parquet as pq
import pytest

from mistralocr_pdf2md_translator_ray.pipelines.curate import curate_corpus

SF = "/root/testdata/sf0.001"


def _read_docs_dir(d):
    return pq.read_table(os.path.join(d, "documents.parquet")).to_pandas()


class TestCurateCorpus:
    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory, ray_session):
        out = str(tmp_path_factory.mktemp("curate"))
        manifest = curate_corpus(SF, out, span_tokens=8)
        return out, manifest

    def test_stage_outputs_and_monotone_counts(self, run):
        out, m = run
        for stage in ("scrub", "dedup", "spans", "order"):
            assert os.path.exists(os.path.join(out, stage, "_SUCCESS"))
        src_rows = pq.ParquetFile(f"{SF}/documents.parquet").metadata.num_rows
        assert m["scrub"] == src_rows              # scrub rewrites, never drops
        assert m["dedup"] <= m["scrub"]            # near-dup removal shrinks
        assert m["spans"] == m["dedup"]            # span dedup keeps every doc
        assert m["order"] == m["spans"]
        assert m["sequences"] >= 1

    def test_dedup_stage_matches_standalone(self, run):
        from mistralocr_pdf2md_translator_ray.stages.dedup import dedup_minhash

        out, m = run
        kept = sorted(
            r["doc_id"]
            for r in dedup_minhash(os.path.join(out, "scrub")).take_all())
        got = sorted(_read_docs_dir(os.path.join(out, "dedup"))["doc_id"])
        assert got == kept

    def test_span_stage_matches_standalone(self, run):
        from mistralocr_pdf2md_translator_ray.stages.dedup import dedup_spans

        out, m = run
        exp = dedup_spans(os.path.join(out, "dedup"), span_tokens=8) \
            .to_pandas().set_index("doc_id")["text_deduped"]
        got = _read_docs_dir(os.path.join(out, "spans")).set_index("doc_id")
        assert len(got) == len(exp)
        assert (got["text"] == exp.reindex(got.index)).all()

    def test_resume_skips_completed_stages(self, run):
        import shutil

        out, m = run
        # record stage-1 output mtimes, delete the LAST stage only
        d1 = os.path.join(out, "scrub", "documents.parquet")
        before = {f: os.path.getmtime(os.path.join(d1, f))
                  for f in os.listdir(d1)}
        shutil.rmtree(os.path.join(out, "order"))
        m2 = curate_corpus(SF, out, span_tokens=8)
        assert m2 == m
        after = {f: os.path.getmtime(os.path.join(d1, f))
                 for f in os.listdir(d1)}
        assert after == before  # earlier stages untouched byte-for-byte

    def test_crash_healing_clears_partial_stage(self, run):
        """A stage dir WITHOUT _SUCCESS (mid-write crash) may hold
        stale files; the rerun must clear them so footer counts can't
        mix old and new writes."""
        import os as _os
        import shutil

        out, m = run
        d4 = _os.path.join(out, "order")
        _os.remove(_os.path.join(d4, "_SUCCESS"))  # simulate crash
        stray = _os.path.join(d4, "documents.parquet", "zz_stale.parquet")
        target = _os.path.join(out, "spans", "documents.parquet")
        src = next(
            _os.path.join(r, f) for r, _, fs in _os.walk(target)
            for f in fs if f.endswith(".parquet"))
        shutil.copy(src, stray)
        m2 = curate_corpus(SF, out, span_tokens=8)
        assert m2 == m                      # counts unchanged
        assert not _os.path.exists(stray)   # stale file purged

    def test_truncated_marker_counts_as_not_done(self, run):
        """A crash mid-write of ``_SUCCESS`` leaves it empty or cut.
        Resume must rerun that stage, not fail in json.load, and
        return the from-scratch row counts; the marker is rewritten
        whole."""
        import json

        out, m = run
        marker = os.path.join(out, "dedup", "_SUCCESS")
        open(marker, "w").close()
        m2 = curate_corpus(SF, out, span_tokens=8)
        assert m2 == m
        with open(marker, encoding="utf-8") as f:
            assert json.load(f) == {"rows": m["dedup"]}
        assert not os.path.exists(marker + ".tmp")

    def test_partition_granular_resume_within_stage(self, run):
        """Kill-mid-stage semantics: wipe ONE partition's lineage entry
        + data from the scrub stage; resume must recompute only that
        partition — every other partition's files stay byte-untouched
        (mtimes unchanged) — and restore identical content."""
        import json
        import shutil

        out, m = run
        d1 = os.path.join(out, "scrub")
        data = os.path.join(d1, "documents.parquet")
        before = pq.read_table(data).to_pandas().sort_values(
            "doc_id").reset_index(drop=True)

        # simulate a crash that lost partition 3 mid-stage
        victim = 3
        lineage_path = os.path.join(d1, "_lineage.json")
        lineage = json.load(open(lineage_path))
        assert str(victim) in lineage
        victim_entry = lineage[str(victim)]
        del lineage[str(victim)]
        json.dump(lineage, open(lineage_path, "w"))
        shutil.rmtree(os.path.join(data, f"part_id={victim}"))
        os.remove(os.path.join(d1, "_SUCCESS"))

        untouched = {
            os.path.join(r, f): os.path.getmtime(os.path.join(r, f))
            for r, _, fs in os.walk(data) for f in fs}

        m2 = curate_corpus(SF, out, span_tokens=8)
        assert m2 == m

        # survivors never rewritten
        for path, mtime in untouched.items():
            assert os.path.getmtime(path) == mtime, path
        # victim partition restored with identical content
        after = pq.read_table(data).to_pandas().sort_values(
            "doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(before, after)
        # and its lineage entry is back, matching the original readback
        lineage2 = json.load(open(lineage_path))
        assert (lineage2[str(victim)]["content_hash"]
                == victim_entry["content_hash"])

    def test_old_format_stage_fails_with_actionable_message(self, tmp_path):
        """A stage marked done by a run that predates per-partition
        lineage (``_SUCCESS`` but no ``_lineage.json``) must be refused
        with an error that says what to delete."""
        import json

        out = tmp_path / "old_format"
        scrub = out / "scrub"
        scrub.mkdir(parents=True)
        pq.write_table(pq.read_table(f"{SF}/documents.parquet"),
                       str(scrub / "documents.parquet"))
        (scrub / "_SUCCESS").write_text(json.dumps({"rows": 1}))
        with pytest.raises(RuntimeError, match="old-format checkpoint") as e:
            curate_corpus(SF, str(out), span_tokens=8)
        assert f"delete {out}" in str(e.value)

    def test_final_order_deterministic(self, run, tmp_path):
        out, m = run
        a = pq.read_table(os.path.join(out, "order", "documents.parquet")) \
            .to_pandas()
        out2 = str(tmp_path / "again")
        curate_corpus(SF, out2, span_tokens=8)
        b = pq.read_table(os.path.join(out2, "order", "documents.parquet")) \
            .to_pandas()
        pd.testing.assert_frame_equal(
            a.sort_values("shuffle_key").reset_index(drop=True),
            b.sort_values("shuffle_key").reset_index(drop=True))


BASE = (
    "The quick brown fox jumps over the lazy dog while the rain in "
    "spain falls mainly on the plain and every good boy deserves "
    "fudge because the five boxing wizards jump quickly tonight."
)
OTHER = (
    "Completely different content about distributed dataflow engines "
    "streaming arrow batches through actor pools with salted hash "
    "partitioning and per-partition lineage checkpoints for resume."
)


def _mkdocs(tmp_path, name, rows):
    import pyarrow as pa

    d = tmp_path / name
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string()),
    }), str(d / "documents.parquet"))
    return str(d)


class TestCurateIncrement:
    """Growing-corpus curation: per-delivery outputs, global near-dup
    via the persisted index, and the reconciliation invariant
    shipped − evicted == from-scratch kept on the concatenated corpus."""

    def _corpora(self, tmp_path):
        # delivery 1: a/b distinct at threshold 0.7; delivery 2 brings
        # a BRIDGE near both -> one cluster, evicting shipped doc 2
        a = BASE
        b = BASE.replace("quick brown fox", "swift auburn fox") \
                .replace("lazy dog", "idle dog") \
                .replace("boxing wizards", "sparring wizards") \
                .replace("rain in spain", "rain in maine")
        bridge = BASE.replace("lazy dog", "idle dog") \
                     .replace("boxing wizards", "sparring wizards")
        r1 = [(1, a), (2, b), (3, OTHER)]
        r2 = [(30, bridge), (31, OTHER + " appended tail v2"),
              (32, "fresh short text")]
        c1 = _mkdocs(tmp_path, "del1", r1)
        c2 = _mkdocs(tmp_path, "del2", r2)
        concat = _mkdocs(tmp_path, "delall", r1 + r2)
        return c1, c2, concat

    def test_reconciliation_invariant(self, tmp_path, ray_session):
        from mistralocr_pdf2md_translator_ray.pipelines.curate import (
            curate_evicted,
            curate_increment,
        )
        from mistralocr_pdf2md_translator_ray.stages.dedup import dedup_minhash

        c1, c2, concat = self._corpora(tmp_path)
        out = str(tmp_path / "inc_out")
        m1 = curate_increment(c1, out, span_tokens=8, threshold=0.7)
        assert m1["increment"] == 0
        assert m1["scrub"] == 3 and m1["kept"] == 3   # a,b distinct yet
        assert m1["spans"] == m1["kept"] == m1["order"]

        m2 = curate_increment(c2, out, span_tokens=8, threshold=0.7)
        assert m2["increment"] == 1
        # bridge 30 absorbed into {1,2}-cluster -> dropped; 31 near 3
        exp_concat = sorted(
            r["doc_id"] for r in dedup_minhash(concat,
                                               threshold=0.7).take_all())
        shipped = set()
        for d in ("inc=00000", "inc=00001"):
            t = pq.read_table(os.path.join(out, "increments", d, "dedup",
                                           "documents.parquet"),
                              columns=["doc_id"])
            shipped |= set(t["doc_id"].to_pylist())
        evicted = {r["doc_id"]
                   for r in curate_evicted(out).take_all()}
        assert sorted(shipped - evicted) == exp_concat
        assert 2 in evicted                  # the planted bridge eviction

    def test_rerun_is_a_noop_and_crash_heals(self, tmp_path, ray_session):
        from mistralocr_pdf2md_translator_ray.pipelines.curate import (
            curate_increment,
        )

        c1, c2, _ = self._corpora(tmp_path)
        out = str(tmp_path / "inc_out2")
        curate_increment(c1, out, span_tokens=8, threshold=0.7)
        m2 = curate_increment(c2, out, span_tokens=8, threshold=0.7)

        # completed increments are immutable on re-run
        inc1 = os.path.join(out, "increments", "inc=00000")
        before = {os.path.join(r, f): os.path.getmtime(os.path.join(r, f))
                  for r, _, fs in os.walk(inc1) for f in fs}
        again = curate_increment(c1, out, span_tokens=8, threshold=0.7)
        assert again == curate_increment(c1, out, span_tokens=8,
                                         threshold=0.7)
        after = {os.path.join(r, f): os.path.getmtime(os.path.join(r, f))
                 for r, _, fs in os.walk(inc1) for f in fs}
        assert after == before

        # crash AFTER the index fold but before _SUCCESS: retry detects
        # the delivery already folded, reuses the kept set, and finishes
        # with the identical manifest
        inc2 = os.path.join(out, "increments", "inc=00001")
        os.remove(os.path.join(inc2, "_SUCCESS"))
        m2b = curate_increment(c2, out, span_tokens=8, threshold=0.7)
        assert m2b == m2

    def test_crash_writing_input_record_does_not_wedge(
            self, tmp_path, ray_session, monkeypatch):
        """A crash while ``_input.json`` is written must not wedge the
        out_dir: every later call reads the record of every ``inc=``
        dir, so a record left empty would fail all of them. A retry of
        the same delivery returns the manifest of an uninterrupted run."""
        import json

        from mistralocr_pdf2md_translator_ray.pipelines.curate import (
            curate_increment,
        )

        c1, _, _ = self._corpora(tmp_path)
        ref = curate_increment(c1, str(tmp_path / "ref"), span_tokens=8,
                               threshold=0.7)
        real_dump = json.dump

        def crash_once(obj, fp, *a, **kw):
            if os.path.basename(getattr(fp, "name", "")) \
                    .startswith("_input.json"):
                monkeypatch.setattr(json, "dump", real_dump)
                raise RuntimeError("simulated crash writing _input.json")
            return real_dump(obj, fp, *a, **kw)

        monkeypatch.setattr(json, "dump", crash_once)
        out = str(tmp_path / "wedge")
        with pytest.raises(RuntimeError, match="simulated crash"):
            curate_increment(c1, out, span_tokens=8, threshold=0.7)
        assert curate_increment(c1, out, span_tokens=8,
                                threshold=0.7) == ref

    def test_span_stage_matches_standalone_per_delivery(self, tmp_path,
                                                        ray_session):
        from mistralocr_pdf2md_translator_ray.pipelines.curate import (
            curate_increment,
        )
        from mistralocr_pdf2md_translator_ray.stages.dedup import dedup_spans

        c1, _, _ = self._corpora(tmp_path)
        out = str(tmp_path / "inc_out3")
        curate_increment(c1, out, span_tokens=8, threshold=0.7)
        inc = os.path.join(out, "increments", "inc=00000")
        exp = dedup_spans(os.path.join(inc, "dedup"), span_tokens=8) \
            .to_pandas().set_index("doc_id")["text_deduped"]
        got = pq.read_table(os.path.join(inc, "spans",
                                         "documents.parquet")) \
            .to_pandas().set_index("doc_id")
        assert len(got) == len(exp)
        assert (got["text"] == exp.reindex(got.index)).all()

    def test_all_neardup_redelivery_survives_with_zero_docs(
            self, tmp_path, ray_session):
        """A delivery that is ENTIRELY near-dups of shipped history
        (a routine re-delivery) must complete with kept == 0 — typed
        empty outputs, not a schemaless-directory crash — and a fresh
        out_dir reports zero evictions instead of raising."""
        from mistralocr_pdf2md_translator_ray.pipelines.curate import (
            curate_evicted,
            curate_increment,
        )

        r1 = [(1, BASE), (2, OTHER)]
        c1 = _mkdocs(tmp_path, "rd1", r1)
        c2 = _mkdocs(tmp_path, "rd2", [(10, BASE), (11, OTHER)])
        out = str(tmp_path / "inc_out4")

        assert curate_evicted(out).count() == 0     # fresh dir: no raise

        curate_increment(c1, out, span_tokens=8, threshold=0.7)
        m2 = curate_increment(c2, out, span_tokens=8, threshold=0.7)
        assert m2["scrub"] == 2
        assert m2["kept"] == 0 and m2["spans"] == 0 and m2["order"] == 0
        assert m2["sequences"] == 0
        # increment is resumable/skippable like any other
        assert curate_increment(c2, out, span_tokens=8,
                                threshold=0.7) == m2
        assert curate_evicted(out).count() == 0     # nothing evicted
