"""End-to-end checkpointed job, export sinks, and the extractor
registry extension surface."""

import json
import os

import pandas as pd
import pyarrow.parquet as pq
import ray.data as rd


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    if "spans" in df.columns:
        df["spans"] = df["spans"].map(
            lambda s: json.dumps([dict(x) for x in list(s)], sort_keys=True))
    return df


def _write_fixture(tmp_path):
    from mistralocr_pdf2md_translator_ray.sources import generate_transcripts

    t, p = generate_transcripts()
    t_path = str(tmp_path / "transcripts.parquet")
    p_path = str(tmp_path / "payloads.parquet")
    pq.write_table(t, t_path)
    pq.write_table(p, p_path)
    return t, p, t_path, p_path


class TestExtractJob:
    def _docs(self, out_dir):
        return (
            rd.read_parquet(os.path.join(out_dir, "docs")).to_pandas()
            .sort_values("conv_id").reset_index(drop=True)
        )

    def test_job_matches_oracle_and_resumes(self, tmp_path, ray_session,
                                            oracle_turns, monkeypatch):
        from mistralocr_pdf2md_translator_ray.pipelines import job
        from mistralocr_pdf2md_translator_ray.pipelines.job import run_extract_job
        from mistralocr_pdf2md_translator_ray.pipelines.oracle import oracle_assemble
        from mistralocr_pdf2md_translator_ray.state import load_lineage

        _t, _p, t_path, p_path = _write_fixture(tmp_path)
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

        # docs again with a threshold below the fixture's hot
        # conversation: the job's hot count salts it, same documents
        hot_sets = []
        assemble = job.assemble_conversations_hotaware

        def spy(per_turn, hot, **kw):
            hot_sets.append(hot)
            return assemble(per_turn, hot, **kw)

        monkeypatch.setattr(job, "assemble_conversations_hotaware", spy)
        shutil.rmtree(os.path.join(out_dir, "docs"))
        run_extract_job(t_path, p_path, out_dir, n_partitions=4,
                        salt_span=16, hot_threshold=40)
        sizes = exp["conv_id"].value_counts()
        assert hot_sets == [set(sizes[sizes > 40].index)]
        assert 0 < len(hot_sets[0]) < len(sizes)
        pd.testing.assert_frame_equal(
            self._docs(out_dir)[exp_docs.columns.tolist()], exp_docs)


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
