"""Checkpoint / lineage / resume tests (SURVEY §4, north-rule resume)."""

import json
import os
import shutil

import pandas as pd
import pyarrow as pa
import ray.data as rd

from mistralocr_pdf2md_translator_ray.state import (
    load_lineage,
    part_id_for_key,
    run_checkpointed,
)

N_PARTS = 4


def _input_table() -> pa.Table:
    rows = 80
    return pa.table({
        "conv_id": pa.array([f"conv-{i % 10:03d}" for i in range(rows)]),
        "turn_idx": pa.array([i // 10 for i in range(rows)], pa.int32()),
        "text": pa.array([f"# t{i}\n\nbody {i}" for i in range(rows)]),
    })


def _transform_factory(marker_dir):
    """Transform that records which part_ids it actually processed."""

    def transform(ds):
        def fn(t: pa.Table) -> pa.Table:
            os.makedirs(marker_dir, exist_ok=True)
            for p in set(t["part_id"].to_pylist()):
                open(os.path.join(marker_dir, f"touched-{p}"), "w").close()
            md = pa.array([s.upper() for s in t["text"].to_pylist()], pa.string())
            return t.append_column("md", md).append_column(
                "status", pa.array(["ok"] * t.num_rows, pa.string())
            ).select(["conv_id", "turn_idx", "md", "status", "part_id"])

        return ds.map_batches(fn, batch_format="pyarrow")

    return transform


def _read_sorted(ds) -> pd.DataFrame:
    df = ds.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    return df[["conv_id", "turn_idx", "md", "status"]]


class TestCheckpointResume:
    def test_full_run_then_noop_resume(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        m1 = str(tmp_path / "m1")
        ds = rd.from_arrow(_input_table())
        out1 = _read_sorted(run_checkpointed(
            ds, _transform_factory(m1), ckpt, key="conv_id", n_partitions=N_PARTS))
        lineage = load_lineage(ckpt)
        assert sorted(lineage) == list(range(N_PARTS))
        assert sum(v["row_count"] for v in lineage.values()) == 80

        # second run: nothing missing -> no partition touched, same output
        m2 = str(tmp_path / "m2")
        out2 = _read_sorted(run_checkpointed(
            rd.from_arrow(_input_table()), _transform_factory(m2), ckpt,
            key="conv_id", n_partitions=N_PARTS))
        assert not os.path.exists(m2)  # zero recompute
        pd.testing.assert_frame_equal(out1, out2)

    def test_partial_resume_recomputes_only_missing(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        m1 = str(tmp_path / "m1")
        ds = rd.from_arrow(_input_table())
        out1 = _read_sorted(run_checkpointed(
            ds, _transform_factory(m1), ckpt, key="conv_id", n_partitions=N_PARTS))

        # simulate a crash that lost partitions 1 and 3
        lineage = load_lineage(ckpt)
        victims = [1, 3]
        for p in victims:
            shutil.rmtree(os.path.join(ckpt, "data", f"part_id={p}"))
            del lineage[p]
        with open(os.path.join(ckpt, "_lineage.json"), "w") as f:
            json.dump({str(k): v for k, v in lineage.items()}, f)

        mtimes_before = {
            p: os.path.getmtime(os.path.join(ckpt, "data", f"part_id={p}"))
            for p in range(N_PARTS) if p not in victims
        }
        m2 = str(tmp_path / "m2")
        out2 = _read_sorted(run_checkpointed(
            rd.from_arrow(_input_table()), _transform_factory(m2), ckpt,
            key="conv_id", n_partitions=N_PARTS))

        touched = sorted(int(f.split("-")[1]) for f in os.listdir(m2))
        assert touched == victims  # ONLY the missing partitions recomputed
        for p, mt in mtimes_before.items():
            assert os.path.getmtime(os.path.join(ckpt, "data", f"part_id={p}")) == mt
        pd.testing.assert_frame_equal(out1, out2)  # identical final output
        assert sorted(load_lineage(ckpt)) == list(range(N_PARTS))

    def test_legacy_lineage_format_resumes(self, tmp_path):
        """Cross-format resume: a manifest written by the round-3 format
        (per-row blake2b hashes, no hash_fn field) must still count its
        partitions as done — resume keys on entry existence +
        input_fragment, never on the hash-fn version."""
        ckpt = str(tmp_path / "ckpt")
        out1 = _read_sorted(run_checkpointed(
            rd.from_arrow(_input_table()), _transform_factory(str(tmp_path / "m1")),
            ckpt, key="conv_id", n_partitions=N_PARTS))
        lineage = load_lineage(ckpt)
        assert all("hash_fn" in v for v in lineage.values())
        # rewrite the manifest in the legacy shape
        legacy = {str(k): {"row_count": v["row_count"],
                           "content_hash": "deadbeef00000000",
                           "input_fragment": v["input_fragment"]}
                  for k, v in lineage.items()}
        with open(os.path.join(ckpt, "_lineage.json"), "w") as f:
            json.dump(legacy, f)

        m2 = str(tmp_path / "m2")
        out2 = _read_sorted(run_checkpointed(
            rd.from_arrow(_input_table()), _transform_factory(m2), ckpt,
            key="conv_id", n_partitions=N_PARTS))
        assert not os.path.exists(m2)  # zero recompute
        pd.testing.assert_frame_equal(out1, out2)

    def test_lineage_hash_matches_content(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        ds = rd.from_arrow(_input_table())
        run_checkpointed(ds, _transform_factory(str(tmp_path / "m")), ckpt,
                         key="conv_id", n_partitions=N_PARTS)
        l1 = load_lineage(ckpt)
        # re-run from scratch in another dir: hashes must be identical
        ckpt2 = str(tmp_path / "ckpt2")
        run_checkpointed(rd.from_arrow(_input_table()),
                         _transform_factory(str(tmp_path / "m2")), ckpt2,
                         key="conv_id", n_partitions=N_PARTS)
        l2 = load_lineage(ckpt2)
        assert {k: v["content_hash"] for k, v in l1.items()} == \
               {k: v["content_hash"] for k, v in l2.items()}


class TestResumeValidation:
    """Resume must never trust stale state: changed inputs or a changed
    partition count invalidate the affected lineage entries."""

    def test_changed_input_fragment_recomputes_all(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        out1 = _read_sorted(run_checkpointed(
            rd.from_arrow(_input_table()), _transform_factory(str(tmp_path / "m1")),
            ckpt, key="conv_id", n_partitions=N_PARTS, input_fragment="v1"))

        # same data, different declared input fragment -> every lineage
        # entry is stale -> full recompute (markers prove it ran)
        m2 = str(tmp_path / "m2")
        out2 = _read_sorted(run_checkpointed(
            rd.from_arrow(_input_table()), _transform_factory(m2),
            ckpt, key="conv_id", n_partitions=N_PARTS, input_fragment="v2"))
        touched = sorted(int(f.split("-")[1]) for f in os.listdir(m2))
        assert touched == list(range(N_PARTS))
        pd.testing.assert_frame_equal(out1, out2)
        lineage = load_lineage(ckpt)
        assert all(v["input_fragment"] == "v2" for v in lineage.values())

    def test_same_input_fragment_noop(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        run_checkpointed(
            rd.from_arrow(_input_table()), _transform_factory(str(tmp_path / "m1")),
            ckpt, key="conv_id", n_partitions=N_PARTS, input_fragment="v1")
        m2 = str(tmp_path / "m2")
        run_checkpointed(
            rd.from_arrow(_input_table()), _transform_factory(m2),
            ckpt, key="conv_id", n_partitions=N_PARTS, input_fragment="v1")
        assert not os.path.exists(m2)  # zero recompute

    def test_changed_n_partitions_recomputes_from_scratch(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        out1 = _read_sorted(run_checkpointed(
            rd.from_arrow(_input_table()), _transform_factory(str(tmp_path / "m1")),
            ckpt, key="conv_id", n_partitions=N_PARTS))

        # different partition count -> crc32 % N layout changed for
        # every row -> whole store invalid -> rebuilt, output identical
        out2 = _read_sorted(run_checkpointed(
            rd.from_arrow(_input_table()), _transform_factory(str(tmp_path / "m2")),
            ckpt, key="conv_id", n_partitions=N_PARTS * 2))
        pd.testing.assert_frame_equal(out1, out2)
        assert sorted(load_lineage(ckpt)) == list(range(N_PARTS * 2))
        # stale part dirs from the old layout are gone
        dirs = sorted(os.listdir(os.path.join(ckpt, "data")))
        assert all(int(d.split("=")[1]) < N_PARTS * 2 for d in dirs)

    def test_crash_during_invalidated_recompute_is_safe(self, tmp_path):
        """A crash AFTER invalidation persists the new meta but BEFORE
        the recompute finishes must never leave on-disk lineage claiming
        partitions whose data was deleted — the next resume has to
        recompute everything, not silently return a dataset missing
        rows."""
        ckpt = str(tmp_path / "ckpt")
        out1 = _read_sorted(run_checkpointed(
            rd.from_arrow(_input_table()), _transform_factory(str(tmp_path / "m1")),
            ckpt, key="conv_id", n_partitions=N_PARTS))

        def exploding_transform(ds):
            raise RuntimeError("simulated crash mid-recompute")

        try:
            run_checkpointed(
                rd.from_arrow(_input_table()), exploding_transform,
                ckpt, key="conv_id", n_partitions=N_PARTS * 2)
        except RuntimeError:
            pass
        # the cleared manifest must already be on disk (atomic with the
        # meta change), so nothing stale survives the crash
        assert load_lineage(ckpt) == {}

        out2 = _read_sorted(run_checkpointed(
            rd.from_arrow(_input_table()), _transform_factory(str(tmp_path / "m2")),
            ckpt, key="conv_id", n_partitions=N_PARTS * 2))
        pd.testing.assert_frame_equal(out1, out2)
        assert sorted(load_lineage(ckpt)) == list(range(N_PARTS * 2))

    def test_crash_after_fragment_prune_is_safe(self, tmp_path):
        """Same crash window for the per-partition stale-fragment prune:
        the pruned manifest hits disk before the new meta does."""
        ckpt = str(tmp_path / "ckpt")
        out1 = _read_sorted(run_checkpointed(
            rd.from_arrow(_input_table()), _transform_factory(str(tmp_path / "m1")),
            ckpt, key="conv_id", n_partitions=N_PARTS, input_fragment="v1"))

        def exploding_transform(ds):
            raise RuntimeError("simulated crash mid-recompute")

        try:
            run_checkpointed(
                rd.from_arrow(_input_table()), exploding_transform,
                ckpt, key="conv_id", n_partitions=N_PARTS, input_fragment="v2")
        except RuntimeError:
            pass
        assert load_lineage(ckpt) == {}

        out2 = _read_sorted(run_checkpointed(
            rd.from_arrow(_input_table()), _transform_factory(str(tmp_path / "m2")),
            ckpt, key="conv_id", n_partitions=N_PARTS, input_fragment="v2"))
        pd.testing.assert_frame_equal(out1, out2)


class TestAppendCheckpoint:
    """Append-only incremental mode: lineage keyed by input SHARD —
    growing the corpus must process exactly the new files (key-hash
    partitioning can't express this: new keys scatter over every crc32
    bucket)."""

    def _write_shard(self, path, lo, hi):
        import pyarrow.parquet as pq
        pq.write_table(pa.table({
            "conv_id": pa.array([f"conv-{i:04d}" for i in range(lo, hi)]),
            "turn_idx": pa.array([0] * (hi - lo), pa.int32()),
            "text": pa.array([f"body {i}" for i in range(lo, hi)]),
        }), path)

    def _transform(self, marker_dir):
        def transform(ds):
            def fn(t: pa.Table) -> pa.Table:
                os.makedirs(marker_dir, exist_ok=True)
                for s in set(t["shard_id"].to_pylist()):
                    open(os.path.join(marker_dir, f"touched-{s}"), "w").close()
                md = pa.array([s.upper() for s in t["text"].to_pylist()],
                              pa.string())
                return t.append_column("md", md).append_column(
                    "status", pa.array(["ok"] * t.num_rows, pa.string())
                ).select(["conv_id", "turn_idx", "md", "status", "shard_id"])
            return ds.map_batches(fn, batch_format="pyarrow")
        return transform

    def _read(self, ds):
        df = ds.to_pandas().sort_values("conv_id").reset_index(drop=True)
        return df[["conv_id", "md", "status"]]

    def test_grow_processes_only_new_shards(self, tmp_path, ray_session):
        from mistralocr_pdf2md_translator_ray.state import run_checkpointed_append

        f1, f2, f3 = (str(tmp_path / f"s{i}.parquet") for i in (1, 2, 3))
        self._write_shard(f1, 0, 30)
        self._write_shard(f2, 30, 50)
        ckpt = str(tmp_path / "ckpt")

        out1 = self._read(run_checkpointed_append(
            [f1, f2], self._transform(str(tmp_path / "m1")), ckpt))
        assert len(out1) == 50
        assert out1["md"].iloc[0] == "BODY 0"

        # corpus grows by one shard: only it is processed; the finished
        # shards' output bytes are untouched (mtime-verified)
        self._write_shard(f3, 50, 65)
        data = os.path.join(ckpt, "data")
        mtimes = {d: os.path.getmtime(os.path.join(data, d))
                  for d in os.listdir(data)}
        m2 = str(tmp_path / "m2")
        out2 = self._read(run_checkpointed_append(
            [f1, f2, f3], self._transform(m2), ckpt))
        assert len(out2) == 65
        touched = sorted(int(f.split("-")[1]) for f in os.listdir(m2))
        assert len(touched) == 1  # exactly the new shard
        for d, mt in mtimes.items():
            assert os.path.getmtime(os.path.join(data, d)) == mt
        pd.testing.assert_frame_equal(out2.iloc[:50].reset_index(drop=True),
                                      out1)

        # identical input list again: zero recompute
        m3 = str(tmp_path / "m3")
        out3 = self._read(run_checkpointed_append(
            [f1, f2, f3], self._transform(m3), ckpt))
        assert not os.path.exists(m3)
        pd.testing.assert_frame_equal(out3, out2)

    def test_changed_shard_recomputed_in_place(self, tmp_path, ray_session):
        from mistralocr_pdf2md_translator_ray.state import run_checkpointed_append

        f1 = str(tmp_path / "s1.parquet")
        f2 = str(tmp_path / "s2.parquet")
        self._write_shard(f1, 0, 30)
        self._write_shard(f2, 30, 50)
        ckpt = str(tmp_path / "ckpt")
        run_checkpointed_append(
            [f1, f2], self._transform(str(tmp_path / "m1")), ckpt)

        self._write_shard(f2, 30, 55)  # f2 changed (row count differs)
        m2 = str(tmp_path / "m2")
        out2 = self._read(run_checkpointed_append(
            [f1, f2], self._transform(m2), ckpt))
        touched = [int(f.split("-")[1]) for f in os.listdir(m2)]
        assert len(touched) == 1
        assert len(out2) == 55  # old f2 output replaced, not appended

    def test_orphan_partition_self_heals(self, tmp_path, ray_session):
        """A crash between the manifest save and the data prune leaves
        an unclaimed shard dir — the next run must reconcile data
        against the manifest and never serve phantom rows."""
        from mistralocr_pdf2md_translator_ray.state import run_checkpointed_append

        f1 = str(tmp_path / "s1.parquet")
        f2 = str(tmp_path / "s2.parquet")
        self._write_shard(f1, 0, 30)
        self._write_shard(f2, 30, 50)
        ckpt = str(tmp_path / "ckpt")
        run_checkpointed_append(
            [f1, f2], self._transform(str(tmp_path / "m1")), ckpt)

        # simulate the crash window: f1 dropped from the manifest, its
        # data directory left behind
        shards_path = os.path.join(ckpt, "_shards.json")
        with open(shards_path) as fh:
            shards = json.load(fh)
        sid1 = shards.pop(os.path.abspath(f1))["sid"]
        with open(shards_path, "w") as fh:
            json.dump(shards, fh)
        orphan = os.path.join(ckpt, "data", f"shard_id={sid1}")
        assert os.path.isdir(orphan)

        out = self._read(run_checkpointed_append(
            [f2], self._transform(str(tmp_path / "m2")), ckpt))
        assert not os.path.isdir(orphan)   # reconciled away
        assert len(out) == 20              # no phantom f1 rows

    def test_duplicate_input_paths_counted_once(self, tmp_path,
                                                ray_session):
        from mistralocr_pdf2md_translator_ray.state import run_checkpointed_append

        f1 = str(tmp_path / "s1.parquet")
        self._write_shard(f1, 0, 30)
        ckpt = str(tmp_path / "ckpt")
        out = self._read(run_checkpointed_append(
            [f1, f1, os.path.join(str(tmp_path), ".", "s1.parquet")],
            self._transform(str(tmp_path / "m1")), ckpt))
        assert len(out) == 30  # aliased duplicates read once

    def test_fingerprint_detects_same_size_same_rows_edit(self, tmp_path):
        """A value edit that preserves row count must change the
        fingerprint (footer stats digest), while a byte-identical copy
        must not."""
        import shutil as sh

        from mistralocr_pdf2md_translator_ray.state.checkpoint import (
            _shard_fingerprint,
        )

        f1 = str(tmp_path / "a.parquet")
        self._write_shard(f1, 0, 30)
        fp1 = _shard_fingerprint(f1)
        # byte-identical copy (different mtime): same fingerprint
        f2 = str(tmp_path / "b.parquet")
        sh.copyfile(f1, f2)
        os.utime(f2, (0, 0))
        assert _shard_fingerprint(f2) == fp1
        # same row count, one value differs: fingerprint must change
        import pyarrow.parquet as pq
        t = pq.read_table(f1)
        texts = t["text"].to_pylist()
        texts[0] = "body X"  # same length as "body 0"
        t2 = t.set_column(t.schema.get_field_index("text"), "text",
                          pa.array(texts))
        pq.write_table(t2, f1)
        assert _shard_fingerprint(f1) != fp1

    def test_removed_shard_pruned(self, tmp_path, ray_session):
        from mistralocr_pdf2md_translator_ray.state import run_checkpointed_append

        f1 = str(tmp_path / "s1.parquet")
        f2 = str(tmp_path / "s2.parquet")
        self._write_shard(f1, 0, 30)
        self._write_shard(f2, 30, 50)
        ckpt = str(tmp_path / "ckpt")
        run_checkpointed_append(
            [f1, f2], self._transform(str(tmp_path / "m1")), ckpt)

        m2 = str(tmp_path / "m2")
        out2 = self._read(run_checkpointed_append(
            [f2], self._transform(m2), ckpt))
        assert not os.path.exists(m2)      # nothing recomputed
        assert len(out2) == 20             # f1's partition pruned
        assert out2["conv_id"].iloc[0] == "conv-0030"


class TestDocsPhaseCrashSafety:
    def test_partial_docs_dir_cleared_on_rerun(self, tmp_path):
        import pyarrow.parquet as pq

        from mistralocr_pdf2md_translator_ray.pipelines.job import run_extract_job
        from mistralocr_pdf2md_translator_ray.sources import generate_transcripts

        t, p = generate_transcripts(n_convs=6, n_turns=40, seed=11)
        tp = str(tmp_path / "transcripts.parquet")
        pp = str(tmp_path / "payloads.parquet")
        pq.write_table(t, tp)
        pq.write_table(p, pp)
        out = str(tmp_path / "out")

        run_extract_job(tp, pp, out, n_partitions=4, assemble=True)
        docs_dir = os.path.join(out, "docs")
        clean = rd.read_parquet(docs_dir).to_pandas().sort_values(
            "conv_id").reset_index(drop=True)

        # simulate a crash mid-docs-write: partial files present, no _done
        os.remove(os.path.join(docs_dir, "_done"))
        files = [f for f in os.listdir(docs_dir) if f.endswith(".parquet")]
        shutil.copyfile(os.path.join(docs_dir, files[0]),
                        os.path.join(docs_dir, "leftover_partial.parquet"))

        run_extract_job(tp, pp, out, n_partitions=4, assemble=True)
        rerun = rd.read_parquet(docs_dir).to_pandas().sort_values(
            "conv_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(rerun, clean)  # no duplicated convs
        assert os.path.exists(os.path.join(docs_dir, "_done"))


def test_content_hash_sum_properties():
    """Vectorized content hash: order-insensitive, value-sensitive,
    null-vs-string distinguishing, and chunk-layout independent."""
    from mistralocr_pdf2md_translator_ray.functions.hashing import (
        CONTENT_HASH_FN,
        CONTENT_HASH_FN_FALLBACK,
        content_hash_sum,
    )

    t = pa.table({
        "a": pa.array(["x", "y", None, "None"]),
        "b": pa.array([1, 2, 3, 4], pa.int32()),
    })
    cols = ["a", "b"]
    h, fn = content_hash_sum(t, cols)
    assert fn == CONTENT_HASH_FN
    # order-insensitive (sum of row hashes)
    assert content_hash_sum(t.take([3, 1, 0, 2]), cols) == (h, fn)
    # value-sensitive
    t2 = t.set_column(1, "b", pa.array([1, 2, 3, 5], pa.int32()))
    assert content_hash_sum(t2, cols)[0] != h
    # a NULL must not collide with the string "None" (old str() path
    # conflated them); swap rows 2/3 of "a" only — hash must change
    t3 = t.set_column(0, "a", pa.array(["x", "y", "None", None]))
    assert content_hash_sum(t3, cols)[0] != h
    # chunk layout independence
    tc = pa.Table.from_batches(t.to_batches(max_chunksize=2))
    assert content_hash_sum(tc, cols) == (h, fn)
    # nested types take the scalar fallback and SAY so — the lineage
    # tag must never claim the polars family for a blake2b hash
    tn = pa.table({"a": pa.array([["u"], ["v", "w"]]),
                   "b": pa.array([1, 2], pa.int32())})
    hn, fn2 = content_hash_sum(tn, cols)
    assert fn2 == CONTENT_HASH_FN_FALLBACK
    assert content_hash_sum(tn.take([1, 0]), cols) == (hn, fn2)


def test_verify_partition_rejects_mixed_hash_families(ray_session, tmp_path):
    """Files of one partition taking different hash paths (schema drift
    mid-partition) must fail loudly — a cross-family sum under a single
    tag would defeat the never-compare-across-families guarantee."""
    import pyarrow.parquet as pq
    import pytest
    import ray

    from mistralocr_pdf2md_translator_ray.state.checkpoint import _verify_partition

    part = tmp_path / "part_id=0"
    part.mkdir()
    pq.write_table(pa.table({"v": pa.array(["x", "y"])}),
                   str(part / "a.parquet"))
    pq.write_table(pa.table({"v": pa.array([["u"], ["w"]])}),
                   str(part / "b.parquet"))
    with pytest.raises(ray.exceptions.RayTaskError, match="mixed content-hash"):
        ray.get(_verify_partition.remote(str(part), ["v"]))
    # the single-family happy path is covered by the checkpoint
    # round-trip tests above


def test_part_id_stable():
    assert part_id_for_key("conv-000001", 16) == part_id_for_key("conv-000001", 16)
    assert 0 <= part_id_for_key("anything", 7) < 7


def test_crc32_part_ids_matches_scalar_contract():
    """The vectorized (dictionary-encoded) partition hash must agree
    with part_id_for_key row-for-row — it IS the on-disk layout."""
    import pyarrow as pa

    from mistralocr_pdf2md_translator_ray.functions.hashing import crc32_part_ids

    keys = [f"conv-{i % 17:04d}" for i in range(200)] + ["", "x", "conv-9999"]
    col = pa.chunked_array([pa.array(keys[:100]), pa.array(keys[100:])])
    got = crc32_part_ids(col, 16)
    assert list(got) == [part_id_for_key(k, 16) for k in keys]
