"""End-to-end checkpointed job, export sinks, and the extractor
registry extension surface."""

import json
import os

import pandas as pd
import pytest
import pyarrow.parquet as pq
import ray.data as rd


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    if "spans" in df.columns:
        df["spans"] = df["spans"].map(
            lambda s: json.dumps([dict(x) for x in list(s)], sort_keys=True))
    return df


def _write_inputs(tmp_path, t, p, name):
    t_path = str(tmp_path / f"{name}_transcripts.parquet")
    p_path = str(tmp_path / f"{name}_payloads.parquet")
    pq.write_table(t, t_path)
    pq.write_table(p, p_path)
    return t_path, p_path


class TestExtractJob:
    def _docs(self, out_dir):
        return (
            rd.read_parquet(os.path.join(out_dir, "docs")).to_pandas()
            .sort_values("conv_id").reset_index(drop=True)
        )

    def test_job_matches_oracle_and_resumes(self, tmp_path, ray_session,
                                            tiny_fixture, oracle_turns,
                                            monkeypatch):
        from mistralocr_pdf2md_translator_ray.pipelines.job import run_extract_job
        from mistralocr_pdf2md_translator_ray.pipelines.oracle import oracle_assemble
        from mistralocr_pdf2md_translator_ray.state import load_lineage

        t_path, p_path = _write_inputs(tmp_path, *tiny_fixture, "tiny")
        out_dir = str(tmp_path / "job")
        per_turn = run_extract_job(t_path, p_path, out_dir, n_partitions=4)
        got = _canon(
            per_turn.to_pandas()
            .sort_values(["conv_id", "turn_idx"])
            .reset_index(drop=True)
        )
        exp = _canon(oracle_turns.to_pandas())
        cols = exp.columns.tolist()
        pd.testing.assert_frame_equal(got[cols], exp, check_dtype=False)

        # docs written once, equal to the oracle documents
        exp_docs = oracle_assemble(oracle_turns).to_pandas()
        pd.testing.assert_frame_equal(
            self._docs(out_dir)[exp_docs.columns.tolist()], exp_docs)

        # resume: lose one partition's lineage -> only it recomputes,
        # others' files untouched, output identical
        lineage = load_lineage(os.path.join(out_dir, "turns"))
        assert sorted(lineage) == [0, 1, 2, 3]
        victim = 2
        del lineage[victim]
        with open(os.path.join(out_dir, "turns", "_lineage.json"), "w") as f:
            json.dump({str(k): v for k, v in lineage.items()}, f)
        import shutil

        shutil.rmtree(os.path.join(out_dir, "turns", "data", f"part_id={victim}"))
        keep_mtimes = {
            p: os.path.getmtime(os.path.join(out_dir, "turns", "data", f"part_id={p}"))
            for p in (0, 1, 3)
        }
        per_turn2 = run_extract_job(t_path, p_path, out_dir, n_partitions=4,
                                    assemble=False)
        got2 = _canon(
            per_turn2.to_pandas()
            .sort_values(["conv_id", "turn_idx"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got2[cols], exp, check_dtype=False)
        for p_id, mt in keep_mtimes.items():
            assert os.path.getmtime(
                os.path.join(out_dir, "turns", "data", f"part_id={p_id}")) == mt
        l2 = load_lineage(os.path.join(out_dir, "turns"))
        assert l2[victim]["content_hash"]  # recomputed and verified

        # docs again on the completed checkpoint, with every shuffle
        # route made to fail: the docs phase assembles each part_id
        # where the checkpoint holds it, and gives the same documents
        from mistralocr_pdf2md_translator_ray.stages import joins

        def no_shuffle(*_a, **_kw):
            raise AssertionError("the docs phase shuffled")

        monkeypatch.setattr(rd.Dataset, "sort", no_shuffle)
        monkeypatch.setattr(joins, "bucket_groups", no_shuffle)
        shutil.rmtree(os.path.join(out_dir, "docs"))
        run_extract_job(t_path, p_path, out_dir, n_partitions=4)
        pd.testing.assert_frame_equal(
            self._docs(out_dir)[exp_docs.columns.tolist()], exp_docs)
        assert sorted(os.listdir(os.path.join(out_dir, "docs"))) == [
            "_done"] + [f"part-{p}.parquet" for p in range(4)]

    @pytest.mark.parametrize("n_convs,hot_conv,n_partitions", [
        (12, False, 4),   # uniform conversations
        (12, True, 4),    # one conversation holds half the turns
        (3, False, 16),   # more partitions than conversations
    ], ids=["uniform", "half_in_one_conv", "empty_partitions"])
    def test_docs_match_oracle(self, tmp_path, ray_session, n_convs,
                               hot_conv, n_partitions):
        from mistralocr_pdf2md_translator_ray.pipelines.job import run_extract_job
        from mistralocr_pdf2md_translator_ray.pipelines.oracle import (
            oracle_assemble,
            oracle_extract_turns,
        )
        from mistralocr_pdf2md_translator_ray.sources import generate_transcripts
        from mistralocr_pdf2md_translator_ray.state.checkpoint import (
            part_id_for_key,
        )

        t, p = generate_transcripts(n_convs=n_convs, n_turns=120, seed=5,
                                    hot_conv=hot_conv)
        t_path, p_path = _write_inputs(tmp_path, t, p, "in")
        out_dir = str(tmp_path / "job")
        run_extract_job(t_path, p_path, out_dir, n_partitions=n_partitions)
        exp = oracle_assemble(oracle_extract_turns(t, p)).to_pandas()
        got = self._docs(out_dir)
        pd.testing.assert_frame_equal(got[exp.columns.tolist()], exp)
        # one file per non-empty partition, in the old docs schema
        docs_dir = os.path.join(out_dir, "docs")
        parts = {part_id_for_key(c, n_partitions)
                 for c in t["conv_id"].to_pylist()}
        files = sorted(f for f in os.listdir(docs_dir) if f != "_done")
        assert files == sorted(f"part-{q}.parquet" for q in parts)
        if n_convs < n_partitions:
            assert len(parts) < n_partitions
        schema = pq.read_schema(os.path.join(docs_dir, files[0]))
        assert [(f.name, str(f.type)) for f in schema] == [
            ("conv_id", "string"), ("n_turns", "int64"),
            ("doc_md", "string")]

    def test_docs_follow_a_recomputed_checkpoint(self, tmp_path, ray_session):
        """A rerun on another input in the same out_dir recomputes the
        turns partitions, so docs/ must be rebuilt from them, not kept
        from the first input."""
        from mistralocr_pdf2md_translator_ray.pipelines.job import run_extract_job
        from mistralocr_pdf2md_translator_ray.pipelines.oracle import (
            oracle_assemble,
            oracle_extract_turns,
        )
        from mistralocr_pdf2md_translator_ray.sources import generate_transcripts

        out_dir = str(tmp_path / "job")
        for name, seed in (("a", 1), ("b", 2)):
            t, p = generate_transcripts(n_convs=8, n_turns=80, seed=seed)
            t_path, p_path = _write_inputs(tmp_path, t, p, name)
            run_extract_job(t_path, p_path, out_dir, n_partitions=4)
            exp = oracle_assemble(oracle_extract_turns(t, p)).to_pandas()
            pd.testing.assert_frame_equal(
                self._docs(out_dir)[exp.columns.tolist()], exp)

    def test_unparsable_done_marker_rebuilds_docs(self, tmp_path,
                                                  ray_session):
        """An empty ``_done`` (a crash mid-write, or a job written
        before the marker held lineage) counts as not done."""
        from mistralocr_pdf2md_translator_ray.pipelines.job import run_extract_job
        from mistralocr_pdf2md_translator_ray.sources import generate_transcripts

        t, p = generate_transcripts(n_convs=6, n_turns=40, seed=3)
        t_path, p_path = _write_inputs(tmp_path, t, p, "in")
        out_dir = str(tmp_path / "job")
        run_extract_job(t_path, p_path, out_dir, n_partitions=4)
        docs_dir = os.path.join(out_dir, "docs")
        clean = self._docs(out_dir)
        victim = sorted(f for f in os.listdir(docs_dir)
                        if f.endswith(".parquet"))[0]
        os.remove(os.path.join(docs_dir, victim))
        open(os.path.join(docs_dir, "_done"), "w").close()
        run_extract_job(t_path, p_path, out_dir, n_partitions=4)
        pd.testing.assert_frame_equal(self._docs(out_dir), clean)


class TestSinks:
    def test_export_markdown_and_assets(self, tmp_path, ray_session, tiny_fixture):
        from mistralocr_pdf2md_translator_ray.stages.sinks import (
            export_assets,
            export_markdown,
            rewrite_links,
        )

        t, p = tiny_fixture
        docs = rd.from_items([
            {"conv_id": "conv-x", "doc_md": "# T\n\n![img-1](img-1)\n\nbody"},
            {"conv_id": "conv-y", "doc_md": "plain"},
        ])
        n = export_markdown(docs, str(tmp_path))
        assert n == 2
        txt = open(tmp_path / "md" / "conv-x.md", encoding="utf-8").read()
        assert "![img-1](assets/conv-x/img-1.bin)" in txt
        assert rewrite_links("![a](a)", "c") == "![a](assets/c/a.bin)"

        n = export_assets(rd.from_arrow(p), str(tmp_path))
        assert n == p.num_rows
        one = p.to_pylist()[0]
        path = tmp_path / "assets" / one["conv_id"] / f"{one['payload_id']}.bin"
        assert path.read_bytes() == one["payload"]

    def test_export_markdown_dual_variants(self, tmp_path, ray_session):
        from mistralocr_pdf2md_translator_ray.stages.sinks import export_markdown

        docs = rd.from_items([
            {"conv_id": "conv-a", "doc_md": "# Normalized",
             "doc_md_original": "Original\n=========="},
        ])
        n = export_markdown(docs, str(tmp_path), dual=True)
        assert n == 1
        assert (tmp_path / "md" / "conv-a.md").read_text(
            encoding="utf-8") == "# Normalized"
        assert (tmp_path / "md" / "conv-a_original.md").read_text(
            encoding="utf-8") == "Original\n=========="


class TestRegistry:
    def test_custom_extractor_routes_by_tool(self, ray_session):
        import pyarrow as pa

        from mistralocr_pdf2md_translator_ray.pipelines.extract_pipeline import (
            extract_turns,
        )
        from mistralocr_pdf2md_translator_ray.stages.registry import (
            register_extractor,
            unregister_extractor,
        )

        def csv_to_md(text: str) -> str:
            rows = [r.split(",") for r in text.strip().splitlines()]
            return "\n".join("| " + " | ".join(c.strip() for c in r) + " |"
                             for r in rows)

        register_extractor("csv", csv_to_md)
        try:
            t = pa.table({
                "conv_id": ["c1", "c1"],
                "turn_idx": pa.array([0, 1], pa.int32()),
                "role": ["user", "user"],
                "text": ["a,b\n1,2", "boom"],
                "tool": ["csv", "csv"],
                "ts": pa.array([1, 2], pa.timestamp("us")),
            })
            out = (
                extract_turns(rd.from_arrow(t))
                .to_pandas()
                .sort_values("turn_idx")
                .reset_index(drop=True)
            )
            assert out.loc[0, "md"] == "| a | b |\n| 1 | 2 |"
            assert out.loc[1, "md"] == "| boom |"
            assert (out["status"] == "ok").all()
        finally:
            unregister_extractor("csv")
