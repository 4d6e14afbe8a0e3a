"""Incremental MinHash dedup against a persisted band index
(stages/dedup_incremental.py): kept-set parity with from-scratch runs
on the concatenated corpus, transitivity through removed old docs,
bridge-eviction of previously-kept docs, chained increments, and the
old-corpus-never-rescanned property."""

import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

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
THIRD = (
    "Entirely unrelated prose concerning mountain weather patterns and "
    "the migratory habits of alpine birds across seasonal ranges with "
    "long descriptive passages about snowfall accumulation rates."
)


def _write_docs(path, rows):
    """rows: list of (doc_id, text)."""
    pq.write_table(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string()),
    }), path)


def _mkcorpus(tmp_path, name, rows):
    d = tmp_path / name
    d.mkdir()
    _write_docs(str(d / "documents.parquet"), rows)
    return str(d)


def _kept(ds) -> list:
    return sorted(r["doc_id"] for r in ds.take_all())


class TestIncrementalDedup:
    def _corpora(self, tmp_path):
        near = BASE.replace("lazy dog", "sleepy dog")
        near2 = BASE.replace("rain in spain", "rain in maine")
        # old: 10~11 near-dups (11 removed), 12/13 distinct singletons
        old_rows = [(10, BASE), (11, near), (12, OTHER), (13, THIRD)]
        # new: 20 near-dup of the REMOVED old 11 (transitivity: must
        # join cluster {10, 11}); 21 fresh; 22+23 new-new exact dups
        # that are ALSO near old 12 (the appended tail keeps the
        # shingle overlap high) -> the whole trio keeps only 12
        new_rows = [(20, near2), (21, "totally fresh short text"),
                    (22, OTHER + " v2"), (23, OTHER + " v2")]
        old = _mkcorpus(tmp_path, "old", old_rows)
        new = _mkcorpus(tmp_path, "new", new_rows)
        concat = _mkcorpus(tmp_path, "concat", old_rows + new_rows)
        return old, new, concat

    def test_kept_equals_from_scratch_on_concat(self, tmp_path,
                                                ray_session):
        from mistralocr_pdf2md_translator_ray.stages.dedup import dedup_minhash
        from mistralocr_pdf2md_translator_ray.stages.dedup_incremental import (
            build_dedup_index,
            dedup_minhash_incremental,
        )

        old, new, concat = self._corpora(tmp_path)
        idx = str(tmp_path / "idx")
        build_dedup_index(old, idx)
        # sanity: the old run removed 11
        assert _kept(rd.read_parquet(os.path.join(idx, "kept"))) == \
            [10, 12, 13]

        got = _kept(dedup_minhash_incremental(new, idx))
        exp = _kept(dedup_minhash(concat))
        assert got == exp
        # the planted facts themselves: 20 joined {10,11} via the
        # REMOVED 11 -> dropped; the new-new dup trio {12,22,23}
        # keeps only the old min
        assert 20 not in got
        assert 22 not in got and 23 not in got and 12 in got
        assert 21 in got and 10 in got

    def test_old_corpus_never_rescanned(self, tmp_path, ray_session):
        """After the index is built, corrupting the text of old docs
        that DON'T collide with the increment must not change the
        result: the incremental path touches old text only through
        doc_id-pushdown verify reads of colliding docs."""
        from mistralocr_pdf2md_translator_ray.stages.dedup_incremental import (
            build_dedup_index,
            dedup_minhash_incremental,
        )

        old, new, _ = self._corpora(tmp_path)
        idx = str(tmp_path / "idx2")
        build_dedup_index(old, idx)
        baseline = _kept(dedup_minhash_incremental(new, idx))

        # corrupt the one old doc nothing in the increment collides
        # with (13); keep 10/11/12 byte-identical — they collide with
        # new docs 20/22/23 and WILL be re-read by the pushdown verify
        near = BASE.replace("lazy dog", "sleepy dog")
        _write_docs(os.path.join(old, "documents.parquet"),
                    [(10, BASE), (11, near), (12, OTHER),
                     (13, "corrupted thirteen")])
        assert _kept(dedup_minhash_incremental(new, idx)) == baseline

    def test_bridge_eviction_of_previously_kept_doc(self, tmp_path,
                                                    ray_session):
        """A new doc near both of two previously-distinct old kept docs
        merges their clusters — the higher-id old doc, kept for years,
        must now drop (exactly what a from-scratch run would do)."""
        from mistralocr_pdf2md_translator_ray.stages.dedup import dedup_minhash
        from mistralocr_pdf2md_translator_ray.stages.dedup_incremental import (
            build_dedup_index,
            dedup_minhash_incremental,
        )

        a = BASE
        b = BASE.replace("quick brown fox", "swift auburn fox") \
                .replace("lazy dog", "idle dog") \
                .replace("boxing wizards", "sparring wizards") \
                .replace("rain in spain", "rain in maine")
        bridge = BASE.replace("lazy dog", "idle dog") \
                     .replace("boxing wizards", "sparring wizards")
        old_rows = [(1, a), (2, b)]
        new_rows = [(30, bridge)]
        old = _mkcorpus(tmp_path, "oldb", old_rows)
        new = _mkcorpus(tmp_path, "newb", new_rows)
        concat = _mkcorpus(tmp_path, "concatb", old_rows + new_rows)

        # measured: J(a,b)=0.638 < 0.7 <= J(bridge,a)=0.829,
        # J(bridge,b)=0.774 — distinct before, one cluster after
        idx = str(tmp_path / "idxb")
        build_dedup_index(old, idx, threshold=0.7)
        old_kept = _kept(rd.read_parquet(os.path.join(idx, "kept")))
        assert old_kept == [1, 2]    # a and b distinct before the bridge
        got = _kept(dedup_minhash_incremental(new, idx))
        exp = _kept(dedup_minhash(concat, threshold=0.7))
        assert got == exp
        assert got == [1], (old_kept, got)  # 2 evicted, 30 absorbed

    def test_chained_increments_match_from_scratch(self, tmp_path,
                                                   ray_session):
        from mistralocr_pdf2md_translator_ray.stages.dedup import dedup_minhash
        from mistralocr_pdf2md_translator_ray.stages.dedup_incremental import (
            build_dedup_index,
            dedup_minhash_incremental,
        )

        near = BASE.replace("lazy dog", "sleepy dog")
        r0 = [(1, BASE), (2, OTHER)]
        r1 = [(10, near), (11, THIRD)]
        r2 = [(20, OTHER + " appended tail"), (21, THIRD), (22, "tiny")]
        c0 = _mkcorpus(tmp_path, "c0", r0)
        c1 = _mkcorpus(tmp_path, "c1", r1)
        c2 = _mkcorpus(tmp_path, "c2", r2)
        call = _mkcorpus(tmp_path, "call", r0 + r1 + r2)

        idx = str(tmp_path / "idxc")
        build_dedup_index(c0, idx)
        dedup_minhash_incremental(c1, idx, update_index=True)
        got = _kept(dedup_minhash_incremental(c2, idx, update_index=True))
        exp = _kept(dedup_minhash(call))
        assert got == exp
        # the folded index agrees with its own return value
        assert _kept(rd.read_parquet(os.path.join(idx, "kept"))) == got
        # re-adding a shard already folded in is rejected
        with pytest.raises(ValueError, match="already in the index"):
            dedup_minhash_incremental(c1, idx)

    def test_probe_finds_cross_corpus_band_collisions(self, tmp_path,
                                                      ray_session):
        """The band-index probe alone (no verify) must surface every
        (old, new) pair a from-scratch banding of the concat corpus
        would — here the planted near-pair plus the exact dup."""
        from mistralocr_pdf2md_translator_ray.stages.dedup import (
            _minhash_band_rows,
            _read_docs,
        )
        from mistralocr_pdf2md_translator_ray.stages.dedup_incremental import (
            _BAND_PARTS,
            _probe_band_index,
            build_dedup_index,
        )

        near = BASE.replace("lazy dog", "sleepy dog")
        old = _mkcorpus(tmp_path, "oldp", [(1, BASE), (2, OTHER)])
        new = _mkcorpus(tmp_path, "newp", [(30, near), (31, OTHER)])
        idx = str(tmp_path / "idxp")
        build_dedup_index(old, idx)
        bands = _minhash_band_rows(_read_docs(new), seed=42)
        pairs = _probe_band_index(bands, os.path.join(idx, "bands"),
                                  _BAND_PARTS).to_pandas()
        got = set(zip(pairs["a"], pairs["b"]))
        assert (1, 30) in got      # near pair collides in >= 1 band
        assert (2, 31) in got      # exact dup collides in every band


class TestIncrementalExactDedup:
    """Incremental exact dedup against the persisted content-hash index
    (append-only LSM of per-increment minima): merged-view parity with
    from-scratch dedup_exact on the concatenated corpus, keeper
    eviction, chaining, and the append-only / never-rescan properties."""

    def _corpora(self, tmp_path):
        # old: 10/11 exact dups (keeper 10), 12 distinct
        old_rows = [(10, BASE), (11, BASE), (12, OTHER)]
        # new: 20 dup of old BASE group (dropped, count grows); 21
        # fresh; 5 dup of OTHER with a SMALLER id than old keeper 12 ->
        # EVICTS 12; 22+23 new-new dups
        new_rows = [(20, BASE), (21, "fresh text"), (5, OTHER),
                    (22, THIRD), (23, THIRD)]
        old = _mkcorpus(tmp_path, "xold", old_rows)
        new = _mkcorpus(tmp_path, "xnew", new_rows)
        concat = _mkcorpus(tmp_path, "xconcat", old_rows + new_rows)
        return old, new, concat

    def _df(self, ds):
        return ds.to_pandas().sort_values("doc_id").reset_index(drop=True)

    def test_delta_and_merged_view_match_from_scratch(self, tmp_path,
                                                      ray_session):
        from mistralocr_pdf2md_translator_ray.pipelines.library import dedup_exact
        from mistralocr_pdf2md_translator_ray.stages.dedup_incremental import (
            build_exact_index,
            dedup_exact_incremental,
            exact_index_kept,
        )

        old, new, concat = self._corpora(tmp_path)
        idx = str(tmp_path / "xidx")
        build_exact_index(old, idx)

        pre = {os.path.join(r, f): os.path.getmtime(os.path.join(r, f))
               for r, _, fs in os.walk(os.path.join(idx, "data"))
               for f in fs}
        delta = self._df(dedup_exact_incremental(new, idx))
        # append-only: no pre-existing index byte rewritten
        for path, mtime in pre.items():
            assert os.path.getmtime(path) == mtime, path

        # planted facts in the delta: BASE group keeper stays 10 with
        # count 3; OTHER keeper becomes 5 EVICTING 12; THIRD pair keeps
        # 22; fresh 21 is a singleton
        by_id = delta.set_index("doc_id")
        assert by_id.loc[10, "n_dups"] == 3
        assert pd.isna(by_id.loc[10, "evicted_doc_id"])
        assert by_id.loc[5, "n_dups"] == 2
        assert by_id.loc[5, "evicted_doc_id"] == 12
        assert by_id.loc[22, "n_dups"] == 2
        assert by_id.loc[21, "n_dups"] == 1

        # merged view == from-scratch dedup_exact over the concat corpus
        got = self._df(exact_index_kept(idx))
        exp = self._df(dedup_exact(concat))
        pd.testing.assert_frame_equal(got, exp, check_like=True)

    def test_old_corpus_never_read(self, tmp_path, ray_session):
        """The exact path consults only the index: corrupting EVERY old
        text after the build must not change the increment."""
        from mistralocr_pdf2md_translator_ray.stages.dedup_incremental import (
            build_exact_index,
            dedup_exact_incremental,
        )

        old, new, _ = self._corpora(tmp_path)
        idx = str(tmp_path / "xidx2")
        build_exact_index(old, idx)
        baseline = self._df(dedup_exact_incremental(new, idx,
                                                    update_index=False))
        _write_docs(os.path.join(old, "documents.parquet"),
                    [(10, "x"), (11, "y"), (12, "z")])
        again = self._df(dedup_exact_incremental(new, idx,
                                                 update_index=False))
        pd.testing.assert_frame_equal(again, baseline)

    def test_chained_increments_match_from_scratch(self, tmp_path,
                                                   ray_session):
        from mistralocr_pdf2md_translator_ray.pipelines.library import dedup_exact
        from mistralocr_pdf2md_translator_ray.stages.dedup_incremental import (
            build_exact_index,
            dedup_exact_incremental,
            exact_index_kept,
        )

        r0 = [(1, BASE), (2, OTHER)]
        r1 = [(10, BASE), (11, THIRD)]
        r2 = [(20, THIRD), (21, "tiny"), (0, OTHER)]  # 0 evicts 2
        c0 = _mkcorpus(tmp_path, "xc0", r0)
        c1 = _mkcorpus(tmp_path, "xc1", r1)
        c2 = _mkcorpus(tmp_path, "xc2", r2)
        call = _mkcorpus(tmp_path, "xcall", r0 + r1 + r2)

        idx = str(tmp_path / "xidxc")
        build_exact_index(c0, idx)
        dedup_exact_incremental(c1, idx)
        delta2 = self._df(dedup_exact_incremental(c2, idx))
        assert delta2.set_index("doc_id").loc[0, "evicted_doc_id"] == 2

        got = self._df(exact_index_kept(idx))
        exp = self._df(dedup_exact(call))
        pd.testing.assert_frame_equal(got, exp, check_like=True)
        with pytest.raises(ValueError, match="already in the index"):
            dedup_exact_incremental(c1, idx)


class TestIncrementalCrashRetry:
    """Crash-retry idempotence of the index folds: re-running after a
    crash that appended data but never reached the meta write must not
    double-append (band rows / LSM minima), and doc_ids above 2^53 must
    survive the exact probe's merge unrounded."""

    def test_exact_retry_after_partial_fold_is_idempotent(self, tmp_path,
                                                          ray_session):
        import json as _json

        from mistralocr_pdf2md_translator_ray.pipelines.library import dedup_exact
        from mistralocr_pdf2md_translator_ray.stages.dedup_incremental import (
            build_exact_index,
            dedup_exact_incremental,
            exact_index_kept,
        )

        old = _mkcorpus(tmp_path, "cr_old", [(1, BASE), (2, OTHER)])
        new = _mkcorpus(tmp_path, "cr_new", [(10, BASE), (11, THIRD)])
        concat = _mkcorpus(tmp_path, "cr_concat",
                           [(1, BASE), (2, OTHER), (10, BASE),
                            (11, THIRD)])
        idx = str(tmp_path / "cr_idx")
        build_exact_index(old, idx)
        d1 = dedup_exact_incremental(new, idx).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)

        # simulate "crashed after the append, before the meta write":
        # undo only the meta record, leaving the appended files behind
        meta_p = os.path.join(idx, "meta.json")
        meta = _json.load(open(meta_p))
        meta["doc_paths"].pop()
        _json.dump(meta, open(meta_p, "w"))

        d2 = dedup_exact_incremental(new, idx).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(d2, d1)  # delta not double-counted

        got = exact_index_kept(idx).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        exp = dedup_exact(concat).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_like=True)

    def test_minhash_retry_after_partial_fold_is_idempotent(
            self, tmp_path, ray_session):
        import json as _json

        from mistralocr_pdf2md_translator_ray.stages.dedup import dedup_minhash
        from mistralocr_pdf2md_translator_ray.stages.dedup_incremental import (
            build_dedup_index,
            dedup_minhash_incremental,
        )

        near = BASE.replace("lazy dog", "sleepy dog")
        old = _mkcorpus(tmp_path, "mr_old", [(1, BASE), (2, OTHER)])
        new = _mkcorpus(tmp_path, "mr_new", [(10, near), (11, THIRD)])
        concat = _mkcorpus(tmp_path, "mr_concat",
                           [(1, BASE), (2, OTHER), (10, near),
                            (11, THIRD)])
        idx = str(tmp_path / "mr_idx")
        build_dedup_index(old, idx)
        base_bands = rd.read_parquet(os.path.join(idx, "bands")).count()
        dedup_minhash_incremental(new, idx, update_index=True)
        once_bands = rd.read_parquet(os.path.join(idx, "bands")).count()

        meta_p = os.path.join(idx, "meta.json")
        meta = _json.load(open(meta_p))
        meta["doc_paths"].pop()
        _json.dump(meta, open(meta_p, "w"))

        got = _kept(dedup_minhash_incremental(new, idx, update_index=True))
        assert got == _kept(dedup_minhash(concat))
        # band rows NOT double-appended by the retry
        assert rd.read_parquet(os.path.join(idx, "bands")).count() \
            == once_bands
        assert once_bands > base_bands  # the increment itself did land

    def test_exact_probe_is_int64_exact_above_2_53(self, tmp_path,
                                                   ray_session):
        """doc_ids beyond float64's integer range must come back exact:
        a float-coercing merge would round 2^60+1 and 2^60+3 to the
        same value, return a keeper that exists in neither corpus, and
        lose the eviction."""
        from mistralocr_pdf2md_translator_ray.stages.dedup_incremental import (
            build_exact_index,
            dedup_exact_incremental,
        )

        big_old, big_new = (1 << 60) + 3, (1 << 60) + 1
        old = _mkcorpus(tmp_path, "big_old", [(big_old, BASE)])
        new = _mkcorpus(tmp_path, "big_new", [(big_new, BASE)])
        idx = str(tmp_path / "big_idx")
        build_exact_index(old, idx)
        delta = dedup_exact_incremental(new, idx).to_pandas()
        assert delta["doc_id"].tolist() == [big_new]      # exact keeper
        assert delta["evicted_doc_id"].tolist() == [big_old]
        assert delta["n_dups"].tolist() == [2]


class TestExactIndexCompaction:
    def test_compaction_preserves_merged_view(self, tmp_path,
                                              ray_session):
        from mistralocr_pdf2md_translator_ray.stages.dedup_incremental import (
            build_exact_index,
            dedup_exact_incremental,
            exact_index_compact,
            exact_index_kept,
        )

        c0 = _mkcorpus(tmp_path, "cp0", [(1, BASE), (2, OTHER)])
        c1 = _mkcorpus(tmp_path, "cp1", [(10, BASE), (11, THIRD)])
        c2 = _mkcorpus(tmp_path, "cp2", [(20, THIRD), (0, OTHER)])
        idx = str(tmp_path / "cpidx")
        build_exact_index(c0, idx)
        dedup_exact_incremental(c1, idx)
        dedup_exact_incremental(c2, idx)

        before = exact_index_kept(idx).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        exact_index_compact(idx)
        after = exact_index_kept(idx).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(after, before)

        # compacted generation holds ONE row per distinct hash
        data = os.path.join(idx, "data")
        files = [os.path.join(r, f) for r, _, fs in os.walk(data)
                 for f in fs if f.endswith(".parquet")]
        all_rows = pa.concat_tables(
            pq.read_table(f, columns=["h"]) for f in files)
        hashes = all_rows["h"].to_pylist()
        assert len(hashes) == len(set(hashes)) == len(before)

        # interrupted swap heals: simulate a crash between the two
        # renames (data gone, complete new generation stranded)
        os.rename(data, data + ".compact")
        healed = exact_index_kept(idx).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(healed, before)
        assert os.path.isdir(data)
        assert not os.path.isdir(data + ".compact")

        # further increments still work against the compacted index
        c3 = _mkcorpus(tmp_path, "cp3", [(30, BASE), (31, "brand new")])
        delta = dedup_exact_incremental(c3, idx).to_pandas()
        # BASE seen in c0 (doc 1), c1 (doc 10), c3 (doc 30) -> 3 total
        assert delta.set_index("doc_id").loc[1, "n_dups"] == 3


def _mkemb(tmp_path, name, rows, dim=16):
    """rows: list of (vec_id, np_vector)."""
    import numpy as np

    d = tmp_path / name
    d.mkdir()
    M = np.vstack([r[1] for r in rows]).astype(np.float32)
    pq.write_table(pa.table({
        "vec_id": pa.array([r[0] for r in rows], pa.int64()),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(M.ravel(), pa.float32()), dim),
    }), str(d / "embeddings.parquet"))
    return str(d)


class TestIncrementalEmbeddingNearDup:
    """Incremental hyperplane-LSH near-dup against the persisted band
    index: kept parity with from-scratch neardup_embedding on the
    concatenated corpus, transitivity through removed vectors,
    chaining, and the identical-plane-geometry contract."""

    def _vecs(self):
        import numpy as np

        rng = np.random.default_rng(5)
        v0 = rng.standard_normal(16)
        v0 /= np.linalg.norm(v0)
        ortho = rng.standard_normal(16)
        ortho -= (ortho @ v0) * v0
        ortho /= np.linalg.norm(ortho)

        def near(v, eps, seed):
            r = np.random.default_rng(seed).standard_normal(16)
            w = v + eps * r / np.linalg.norm(r)
            return w / np.linalg.norm(w)

        return v0, ortho, near

    def test_kept_equals_from_scratch_on_concat(self, tmp_path,
                                                ray_session):
        from mistralocr_pdf2md_translator_ray.stages.dedup import (
            neardup_embedding,
        )
        from mistralocr_pdf2md_translator_ray.stages.dedup_incremental import (
            build_embdedup_index,
            neardup_embedding_incremental,
        )

        v0, ortho, near = self._vecs()
        # old: 1=v0, 2=near dup of v0 (removed), 3=orthogonal
        old_rows = [(1, v0), (2, near(v0, 0.05, 1)), (3, ortho)]
        # new: 10 near the REMOVED 2 (transitivity -> joins {1,2});
        # 11 fresh direction
        fresh = near(ortho + v0, 0.5, 7)
        new_rows = [(10, near(v0, 0.08, 2)), (11, fresh)]
        old = _mkemb(tmp_path, "eold", old_rows)
        new = _mkemb(tmp_path, "enew", new_rows)
        concat = _mkemb(tmp_path, "econcat", old_rows + new_rows)

        idx = str(tmp_path / "eidx")
        build_embdedup_index(old, idx, threshold=0.95)
        assert _kept(rd.read_parquet(os.path.join(idx, "kept"))) == [1, 3]

        got = _kept(neardup_embedding_incremental(new, idx))
        exp = _kept(neardup_embedding(concat, threshold=0.95))
        assert got == exp
        assert 10 not in got and 1 in got and 11 in got

    def test_chained_increments_and_guards(self, tmp_path, ray_session):
        from mistralocr_pdf2md_translator_ray.stages.dedup import (
            neardup_embedding,
        )
        from mistralocr_pdf2md_translator_ray.stages.dedup_incremental import (
            build_embdedup_index,
            neardup_embedding_incremental,
        )

        v0, ortho, near = self._vecs()
        r0 = [(1, v0), (2, ortho)]
        r1 = [(10, near(v0, 0.05, 3))]
        r2 = [(20, near(ortho, 0.05, 4)), (21, near(v0 - ortho, 0.5, 9))]
        c0 = _mkemb(tmp_path, "ec0", r0)
        c1 = _mkemb(tmp_path, "ec1", r1)
        c2 = _mkemb(tmp_path, "ec2", r2)
        call = _mkemb(tmp_path, "ecall", r0 + r1 + r2)

        idx = str(tmp_path / "eidxc")
        build_embdedup_index(c0, idx, threshold=0.95)
        neardup_embedding_incremental(c1, idx, update_index=True)
        got = _kept(neardup_embedding_incremental(c2, idx,
                                                  update_index=True))
        exp = _kept(neardup_embedding(call, threshold=0.95))
        assert got == exp
        assert _kept(rd.read_parquet(os.path.join(idx, "kept"))) == got
        with pytest.raises(ValueError, match="already in the index"):
            neardup_embedding_incremental(c1, idx)

        # dim mismatch is rejected loudly
        import numpy as np

        bad = _mkemb(tmp_path, "ebad",
                     [(99, np.ones(8) / np.sqrt(8))], dim=8)
        with pytest.raises(ValueError, match="dim"):
            neardup_embedding_incremental(bad, idx)


class TestFoldGenerationHeal:
    def test_interrupted_labels_kept_swap_heals(self, tmp_path,
                                                ray_session):
        """Simulate a crash between the fold's two renames (labels/
        kept dir retired, complete .next stranded): the next read must
        promote the stranded generation and the next increment must
        work — the index is never bricked."""
        import shutil

        from mistralocr_pdf2md_translator_ray.stages.dedup import dedup_minhash
        from mistralocr_pdf2md_translator_ray.stages.dedup_incremental import (
            build_dedup_index,
            dedup_minhash_incremental,
        )
        from mistralocr_pdf2md_translator_ray.state.durable import healed_dir

        near = BASE.replace("lazy dog", "sleepy dog")
        old = _mkcorpus(tmp_path, "ho", [(1, BASE), (2, OTHER)])
        new = _mkcorpus(tmp_path, "hn", [(10, near), (11, THIRD)])
        concat = _mkcorpus(tmp_path, "hc",
                           [(1, BASE), (2, OTHER), (10, near),
                            (11, THIRD)])
        idx = str(tmp_path / "hidx")
        build_dedup_index(old, idx)
        dedup_minhash_incremental(new, idx, update_index=True)

        # crash state b with DIFFERING generations: .retired holds a
        # decoy OLD generation, .next the real new one — a heal that
        # promoted the wrong candidate would roll the index back and
        # this assert would catch it
        import pyarrow as _pa
        import pyarrow.parquet as _pq

        kept = os.path.join(idx, "kept")
        shutil.move(kept, kept + ".next")
        os.makedirs(kept + ".retired")
        _pq.write_table(_pa.table({"doc_id": _pa.array([999], _pa.int64())}),
                        os.path.join(kept + ".retired", "stale.parquet"))
        got = _kept(rd.read_parquet(healed_dir(kept)))
        assert got == _kept(dedup_minhash(concat))
        assert 999 not in got                       # decoy NOT promoted
        assert os.path.isdir(kept)
        assert not os.path.isdir(kept + ".next")
        assert not os.path.isdir(kept + ".retired")

    def test_fold_guard_refuses_different_shard_after_crash(
            self, tmp_path, ray_session):
        """A crashed fold leaves cross-artifact state consistent only
        for a retry of the SAME increment; folding (or querying with)
        a DIFFERENT shard must be refused until then."""
        from mistralocr_pdf2md_translator_ray.stages import (
            dedup_incremental as di,
        )

        old = _mkcorpus(tmp_path, "go", [(1, BASE), (2, OTHER)])
        a = _mkcorpus(tmp_path, "ga", [(10, THIRD)])
        b = _mkcorpus(tmp_path, "gb", [(20, "some other delivery")])
        idx = str(tmp_path / "gidx")
        di.build_dedup_index(old, idx)

        # simulate increment A crashing mid-fold: the guard marker is
        # on disk, meta never updated
        a_path = os.path.join(os.path.abspath(a), "documents.parquet")
        di._fold_guard_mark(idx, "inc00001", a_path)

        with pytest.raises(RuntimeError, match="incomplete fold"):
            di.dedup_minhash_incremental(b, idx)

        # retrying THE SAME increment proceeds and clears the guard
        kept = _kept(di.dedup_minhash_incremental(a, idx,
                                                  update_index=True))
        assert kept == [1, 2, 10]
        assert not os.path.exists(os.path.join(idx, "_folding.json"))
        # and afterwards B folds normally
        kept2 = _kept(di.dedup_minhash_incremental(b, idx,
                                                   update_index=True))
        assert kept2 == [1, 2, 10, 20]

    def test_crash_before_guard_exit_does_not_wedge(self, tmp_path,
                                                    ray_session,
                                                    monkeypatch):
        """A crash after meta is written but before the guard file is
        removed: the fold finished, so the stale guard must neither
        refuse the next increment nor let the folded one in twice."""
        from mistralocr_pdf2md_translator_ray.stages import (
            dedup_incremental as di,
        )
        from mistralocr_pdf2md_translator_ray.stages.dedup import dedup_minhash

        near = BASE.replace("lazy dog", "sleepy dog")
        r0, ra, rb = [(1, BASE), (2, OTHER)], [(10, near)], [(20, THIRD)]
        old = _mkcorpus(tmp_path, "wo", r0)
        a = _mkcorpus(tmp_path, "wa", ra)
        b = _mkcorpus(tmp_path, "wb", rb)
        concat = _mkcorpus(tmp_path, "wc", r0 + ra + rb)
        idx = str(tmp_path / "widx")
        di.build_dedup_index(old, idx)

        real_exit = di._fold_guard_exit

        def crash_once(index_dir):
            monkeypatch.setattr(di, "_fold_guard_exit", real_exit)
            raise RuntimeError("simulated crash before the guard exit")

        monkeypatch.setattr(di, "_fold_guard_exit", crash_once)
        with pytest.raises(RuntimeError, match="simulated crash"):
            di.dedup_minhash_incremental(a, idx, update_index=True)
        assert os.path.exists(os.path.join(idx, "_folding.json"))

        with pytest.raises(ValueError, match="already in the index"):
            di.dedup_minhash_incremental(a, idx)
        got = _kept(di.dedup_minhash_incremental(b, idx, update_index=True))
        assert got == _kept(dedup_minhash(concat))
        assert not os.path.exists(os.path.join(idx, "_folding.json"))


class TestPartitionHashTag:
    """The band and exact indexes partition their files on
    ``bucket_ids`` (polars' seeded hash, not stable across polars
    versions). meta.json records the hash build, and an increment from
    another build is refused: its probes would read the wrong
    partitions and miss old duplicates without an error."""

    def test_builds_record_the_tag(self, tmp_path, ray_session):
        import json as _json

        from mistralocr_pdf2md_translator_ray.functions.hashing import (
            partition_hash_tag,
        )
        from mistralocr_pdf2md_translator_ray.stages.dedup_incremental import (
            build_dedup_index,
            build_exact_index,
        )

        old = _mkcorpus(tmp_path, "t_old", [(1, BASE), (2, OTHER)])
        for build, name in ((build_exact_index, "x"),
                            (build_dedup_index, "m")):
            idx = str(tmp_path / name)
            build(old, idx)
            meta = _json.load(open(os.path.join(idx, "meta.json")))
            assert meta["partition_hash"] == partition_hash_tag()
            assert partition_hash_tag().startswith("polars-")

    @pytest.mark.parametrize("tag", ["polars-0.0.0", None])
    def test_other_hash_build_is_refused(self, tmp_path, ray_session,
                                         monkeypatch, tag):
        import json as _json

        from mistralocr_pdf2md_translator_ray.stages import dedup_incremental as di

        old = _mkcorpus(tmp_path, "r_old", [(1, BASE), (2, OTHER)])
        new = _mkcorpus(tmp_path, "r_new", [(3, BASE), (4, THIRD)])
        idx = str(tmp_path / "r_idx")
        if tag is None:
            # an index written before the tag existed
            di.build_exact_index(old, idx)
            meta_p = os.path.join(idx, "meta.json")
            meta = _json.load(open(meta_p))
            del meta["partition_hash"]
            _json.dump(meta, open(meta_p, "w"))
        else:
            # built under another polars version
            monkeypatch.setattr(di, "partition_hash_tag", lambda: tag)
            di.build_exact_index(old, idx)
            monkeypatch.undo()
        before = sorted(os.listdir(os.path.join(idx, "data")))
        with pytest.raises(ValueError, match=f"rebuild {idx}"):
            di.dedup_exact_incremental(new, idx)
        # refused before any probe or append touched the index
        assert sorted(os.listdir(os.path.join(idx, "data"))) == before
        with pytest.raises(ValueError, match="index built with"):
            di.dedup_minhash_incremental(new, idx)
        with pytest.raises(ValueError, match="index built with"):
            di.neardup_embedding_incremental(new, idx)
