"""Golden e2e tests: Ray pipeline output == pure-function oracle,
byte-equal per turn under stable (conv_id, turn_idx) ordering —
the BASELINE.json north-rule invariant."""

import pandas as pd
import pyarrow as pa
import ray.data as rd

from mistralocr_pdf2md_translator_ray.pipelines.extract_pipeline import extract_turns
from mistralocr_pdf2md_translator_ray.pipelines.oracle import (
    oracle_assemble,
    oracle_extract_turns,
)


import json


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    """JSON-encode the nested spans column so frame equality is exact."""
    df = df.copy()
    if "spans" in df.columns:
        df["spans"] = df["spans"].map(
            lambda s: json.dumps([dict(x) for x in list(s)], sort_keys=True))
    return df


def _as_sorted_pdf(tbl: pa.Table) -> pd.DataFrame:
    return _canon(
        tbl.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    )


class TestPerTurnEquality:
    def test_row_count_and_no_drops(self, tiny_fixture, pipeline_turns):
        t, _ = tiny_fixture
        assert len(pipeline_turns) == t.num_rows  # error rows kept, nothing dropped

    def test_md_byte_equality(self, pipeline_turns, oracle_turns):
        exp = _as_sorted_pdf(oracle_turns)
        got = _canon(pipeline_turns)[exp.columns.tolist()]
        assert (got["md"].to_numpy() == exp["md"].to_numpy()).all()

    def test_full_frame_equality(self, pipeline_turns, oracle_turns):
        exp = _as_sorted_pdf(oracle_turns)
        got = _canon(pipeline_turns)[exp.columns.tolist()]
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_error_rows_are_values(self, pipeline_turns):
        errs = pipeline_turns[pipeline_turns["status"] == "error"]
        assert len(errs) >= 1
        assert errs["md"].str.startswith("--- ERROR:").all()

    def test_children_spliced(self, pipeline_turns):
        spliced = pipeline_turns[pipeline_turns["md"].str.contains("> 📄 Extracted:", regex=False)]
        assert len(spliced) >= 1


class TestPermutationInvariance:
    """Shuffled input rows / different block split -> identical output."""

    def test_shuffled_input_same_output(self, tiny_fixture, oracle_turns):
        t, p = tiny_fixture
        import numpy as np

        rng = np.random.default_rng(7)
        perm = rng.permutation(t.num_rows)
        t_shuf = t.take(pa.array(perm))
        # also split into many small blocks
        tds = rd.from_arrow(t_shuf).repartition(9)
        pds = rd.from_arrow(p).repartition(3)
        got = _canon(
            extract_turns(tds, pds)
            .to_pandas()
            .sort_values(["conv_id", "turn_idx"])
            .reset_index(drop=True)
        )
        exp = _as_sorted_pdf(oracle_turns)
        pd.testing.assert_frame_equal(got[exp.columns.tolist()], exp, check_dtype=False)


class TestAutoFallbackEquality:
    """extract_turns must fall back to the cogroup path when the
    aggregated child table exceeds the broadcast bound — and still be
    byte-identical."""

    def test_auto_falls_back_when_children_exceed_bound(
            self, tiny_fixture, oracle_turns, monkeypatch):
        from mistralocr_pdf2md_translator_ray.pipelines import extract_pipeline as ep

        monkeypatch.setattr(ep, "BROADCAST_CHILD_MAX_ROWS", 1)
        t, p = tiny_fixture
        got = _canon(
            ep.extract_turns(rd.from_arrow(t), rd.from_arrow(p))
            .to_pandas()
            .sort_values(["conv_id", "turn_idx"])
            .reset_index(drop=True)
        )
        exp = _as_sorted_pdf(oracle_turns)
        pd.testing.assert_frame_equal(got[exp.columns.tolist()], exp,
                                      check_dtype=False)


class TestOverlappedPathEquality:
    """The raw-task overlapped broadcast path (payloads_path input) must
    match the oracle byte-for-byte too."""

    def test_payloads_path_matches_oracle(self, tiny_fixture, oracle_turns,
                                          tmp_path):
        import pyarrow.parquet as pq

        t, p = tiny_fixture
        p_path = str(tmp_path / "payloads.parquet")
        pq.write_table(p, p_path)
        got = _canon(
            extract_turns(rd.from_arrow(t), payloads_path=p_path)
            .to_pandas()
            .sort_values(["conv_id", "turn_idx"])
            .reset_index(drop=True)
        )
        exp = _as_sorted_pdf(oracle_turns)
        pd.testing.assert_frame_equal(got[exp.columns.tolist()], exp,
                                      check_dtype=False)


_ONE_CPU_SCRIPT = """
import sys

import ray
import ray.data as rd
from ray.data import DataContext

DataContext.get_current().enable_progress_bars = False
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
from mistralocr_pdf2md_translator_ray.pipelines.extract_pipeline import extract_turns

t_path, p_path, out = sys.argv[1:]
extract_turns(rd.read_parquet(t_path), payloads_path=p_path).write_parquet(out)
ray.shutdown()
"""


class TestOneCpuSession:
    """With one logical CPU the broadcast route must still finish: the
    extraction tasks wait on the child map in ray.get, which gives the
    CPU back to the tasks that compute it. Runs in its own Ray session
    in a subprocess; on timeout the whole process group (script,
    raylet, GCS, workers) is killed so nothing outlives the test."""

    TIMEOUT_S = 120

    def test_payloads_path_at_one_cpu_matches_oracle(self, tiny_fixture,
                                                     oracle_turns, tmp_path):
        import os
        import signal
        import subprocess
        import sys

        import pyarrow.parquet as pq
        import pytest

        t, p = tiny_fixture
        t_path, p_path = str(tmp_path / "t.parquet"), str(tmp_path / "p.parquet")
        pq.write_table(t, t_path)
        pq.write_table(p, p_path)
        out = str(tmp_path / "out")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = subprocess.Popen(
            [sys.executable, "-c", _ONE_CPU_SCRIPT, t_path, p_path, out],
            cwd=root, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            start_new_session=True)
        try:
            log, _ = proc.communicate(timeout=self.TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail(f"extract_turns at num_cpus=1 did not finish in "
                        f"{self.TIMEOUT_S} s")
        assert proc.returncode == 0, log.decode(errors="replace")[-4000:]
        got = _as_sorted_pdf(pq.read_table(out))
        exp = _as_sorted_pdf(oracle_turns)
        pd.testing.assert_frame_equal(got[exp.columns.tolist()], exp,
                                      check_dtype=False)


class TestChildMapCache:
    """Workers cache the broadcast child map per process. Two calls in
    one session with different payload files must each see their own
    map, never the one cached by the previous call."""

    def test_second_call_sees_its_own_payloads(self, tiny_fixture, tmp_path):
        import pyarrow.parquet as pq

        t, p = tiny_fixture
        halved = p.slice(0, p.num_rows // 2)
        exps = []
        for name, payloads in (("full", p), ("half", halved)):
            p_path = str(tmp_path / f"{name}.parquet")
            pq.write_table(payloads, p_path)
            got = _canon(
                extract_turns(rd.from_arrow(t), payloads_path=p_path)
                .to_pandas()
                .sort_values(["conv_id", "turn_idx"])
                .reset_index(drop=True)
            )
            exp = _as_sorted_pdf(oracle_extract_turns(t, payloads))
            pd.testing.assert_frame_equal(got[exp.columns.tolist()], exp,
                                          check_dtype=False)
            exps.append(exp)
        # the dropped payloads change the output, so a stale map shows
        assert not exps[0]["md"].equals(exps[1]["md"])


class TestOverlappedBound:
    """The overlapped broadcast path must be BOUNDED: when parquet
    footer metadata says the child table exceeds the broadcast cap,
    extraction must re-route to the streaming cogroup join (never
    launching the partial-map tasks) and stay byte-identical."""

    def test_over_bound_reroutes_to_cogroup(self, tiny_fixture, oracle_turns,
                                            tmp_path, monkeypatch):
        import pyarrow.parquet as pq

        from mistralocr_pdf2md_translator_ray.pipelines import extract_pipeline as ep

        t, p = tiny_fixture
        p_path = str(tmp_path / "payloads.parquet")
        pq.write_table(p, p_path)
        monkeypatch.setattr(ep, "BROADCAST_CHILD_MAX_ROWS", 1)

        def _no_broadcast(*a, **k):
            raise AssertionError("partial-map broadcast must not launch past the bound")

        monkeypatch.setattr(ep, "_child_partial_refs", _no_broadcast)
        got = _canon(
            ep.extract_turns(rd.from_arrow(t), payloads_path=p_path)
            .to_pandas()
            .sort_values(["conv_id", "turn_idx"])
            .reset_index(drop=True)
        )
        exp = _as_sorted_pdf(oracle_turns)
        pd.testing.assert_frame_equal(got[exp.columns.tolist()], exp,
                                      check_dtype=False)

    def test_meta_rows_counts_without_reading_data(self, tiny_fixture, tmp_path):
        import pyarrow.parquet as pq

        from mistralocr_pdf2md_translator_ray.pipelines.extract_pipeline import (
            _parquet_meta_rows,
            _payload_files,
        )

        _, p = tiny_fixture
        d = tmp_path / "payloads"
        d.mkdir()
        pq.write_table(p.slice(0, p.num_rows // 2), str(d / "a.parquet"))
        pq.write_table(p.slice(p.num_rows // 2), str(d / "b.parquet"))
        files = _payload_files(str(d))
        assert len(files) == 2
        assert _parquet_meta_rows(files) == p.num_rows

    def test_empty_dir_with_dataset_falls_back(self, tiny_fixture, oracle_turns,
                                               tmp_path):
        t, p = tiny_fixture
        empty = tmp_path / "no_parquet_here"
        empty.mkdir()
        got = _canon(
            extract_turns(rd.from_arrow(t), payloads=rd.from_arrow(p),
                          payloads_path=str(empty))
            .to_pandas()
            .sort_values(["conv_id", "turn_idx"])
            .reset_index(drop=True)
        )
        exp = _as_sorted_pdf(oracle_turns)
        pd.testing.assert_frame_equal(got[exp.columns.tolist()], exp,
                                      check_dtype=False)

    def test_nested_dir_reader_fallback(self, tiny_fixture, oracle_turns,
                                        tmp_path):
        """Nested layout: no top-level parquet files, no Dataset passed
        -> the ray.data.read_parquet fallback (round-1 NameError site)."""
        import pyarrow.parquet as pq

        t, p = tiny_fixture
        nested = tmp_path / "payloads" / "shard=0"
        nested.mkdir(parents=True)
        pq.write_table(p, str(nested / "part.parquet"))
        got = _canon(
            extract_turns(rd.from_arrow(t), payloads_path=str(tmp_path / "payloads"))
            .to_pandas()
            .sort_values(["conv_id", "turn_idx"])
            .reset_index(drop=True)
        )
        exp = _as_sorted_pdf(oracle_turns)
        pd.testing.assert_frame_equal(got[exp.columns.tolist()], exp,
                                      check_dtype=False)


class TestDualVariantOutput:
    """emit_original carries the pre-normalization spliced text
    alongside md (the reference's final_markdown_original /
    final_markdown_translated pair)."""

    def test_turn_level_invariant(self, tiny_fixture):
        from mistralocr_pdf2md_translator_ray.functions import normalize_markdown

        t, p = tiny_fixture
        got = (
            extract_turns(rd.from_arrow(t), rd.from_arrow(p),
                          emit_original=True)
            .to_pandas().sort_values(["conv_id", "turn_idx"])
            .reset_index(drop=True)
        )
        assert "md_original" in got.columns
        # the normalized variant must derive from the original variant
        for md, orig in zip(got["md"], got["md_original"]):
            assert normalize_markdown(orig) == md
        # splices happen BEFORE normalization, so they appear in both
        spliced = got[got["md"].str.contains("> 📄 Extracted:", regex=False)]
        assert len(spliced) >= 1
        assert spliced["md_original"].str.contains(
            "> 📄 Extracted:", regex=False).all()

    def test_document_level_dual_assembly(self, tiny_fixture):
        from mistralocr_pdf2md_translator_ray.functions.scalars import PAGE_SEPARATOR
        from mistralocr_pdf2md_translator_ray.pipelines.extract_pipeline import (
            extract_documents,
        )

        t, p = tiny_fixture
        turns = (
            extract_turns(rd.from_arrow(t), rd.from_arrow(p),
                          emit_original=True)
            .to_pandas().sort_values(["conv_id", "turn_idx"])
        )
        docs = (
            extract_documents(rd.from_arrow(t), rd.from_arrow(p),
                              salt_span=16, emit_original=True)
            .to_pandas().sort_values("conv_id").reset_index(drop=True)
        )
        assert {"doc_md", "doc_md_original"} <= set(docs.columns)
        exp = turns.groupby("conv_id").agg(
            doc_md=("md", PAGE_SEPARATOR.join),
            doc_md_original=("md_original", PAGE_SEPARATOR.join),
        ).reset_index()
        pd.testing.assert_frame_equal(
            docs[["conv_id", "doc_md", "doc_md_original"]], exp,
            check_dtype=False)

    def test_overlapped_path_dual(self, tiny_fixture, tmp_path):
        import pyarrow.parquet as pq

        from mistralocr_pdf2md_translator_ray.functions import normalize_markdown

        t, p = tiny_fixture
        p_path = str(tmp_path / "payloads.parquet")
        pq.write_table(p, p_path)
        got = (
            extract_turns(rd.from_arrow(t), payloads_path=p_path,
                          emit_original=True)
            .to_pandas().sort_values(["conv_id", "turn_idx"])
            .reset_index(drop=True)
        )
        base = (
            extract_turns(rd.from_arrow(t), rd.from_arrow(p),
                          emit_original=True)
            .to_pandas().sort_values(["conv_id", "turn_idx"])
            .reset_index(drop=True)
        )
        assert (got["md_original"].to_numpy() == base["md_original"].to_numpy()).all()


class TestAssembly:
    """Assembly is tested from the session-scoped per-turn result (one
    extraction run per session; assembly itself is what's under test).
    ``extract_documents`` is the composition of the two verified
    halves."""

    def _per_turn_ds(self, pipeline_turns):
        # scramble row order so assembly can't ride on input order;
        # drop the nested spans column (assembly doesn't use it and
        # pandas->arrow inference on object arrays is unreliable)
        shuffled = pipeline_turns.drop(columns=["spans"]).sample(
            frac=1.0, random_state=3)
        return rd.from_arrow(pa.Table.from_pandas(shuffled, preserve_index=False))

    def _docs(self, per_turn, hot, **kw):
        from mistralocr_pdf2md_translator_ray.stages.assemble import (
            assemble_conversations_hotaware,
        )

        return (
            assemble_conversations_hotaware(per_turn, hot, **kw)
            .to_pandas().sort_values("conv_id").reset_index(drop=True)
        )

    def test_salted_assembly_equals_oracle(self, pipeline_turns, oracle_turns):
        # every conversation hot: all of them take the two-phase path
        hot = set(pipeline_turns["conv_id"])
        docs = self._docs(self._per_turn_ds(pipeline_turns), hot, salt_span=16)
        exp = oracle_assemble(oracle_turns).to_pandas()
        pd.testing.assert_frame_equal(docs[exp.columns.tolist()], exp, check_dtype=False)

    def test_unsalted_matches_salted(self, pipeline_turns, oracle_turns):
        # empty hot set: the single-phase path, equal to the oracle and
        # to the all-hot two-phase documents
        a = self._docs(self._per_turn_ds(pipeline_turns), set())
        exp = oracle_assemble(oracle_turns).to_pandas()
        pd.testing.assert_frame_equal(a[exp.columns.tolist()], exp, check_dtype=False)
        salted = self._docs(self._per_turn_ds(pipeline_turns),
                            set(pipeline_turns["conv_id"]), salt_span=16)
        pd.testing.assert_frame_equal(a, salted)

    def test_adaptive_strategy_equals_oracle(self, pipeline_turns, oracle_turns):
        from mistralocr_pdf2md_translator_ray.pipelines.extract_pipeline import (
            _hot_conversations,
        )

        # the checkpointed job's composition: hot set counted on the
        # re-readable per-turn rows, hot_threshold below the fixture's
        # hot conversation size so the salted path actually engages
        per_turn = self._per_turn_ds(pipeline_turns).materialize()
        hot = _hot_conversations(per_turn, 40)
        assert hot and hot < set(pipeline_turns["conv_id"])
        a = self._docs(per_turn, hot, salt_span=16)
        exp = oracle_assemble(oracle_turns).to_pandas()
        pd.testing.assert_frame_equal(a[exp.columns.tolist()], exp, check_dtype=False)

    def test_adaptive_no_hot_fallback(self, pipeline_turns, oracle_turns):
        from mistralocr_pdf2md_translator_ray.pipelines.extract_pipeline import (
            _hot_conversations,
        )

        # threshold above every conversation size -> empty hot set ->
        # the single-phase branch must run and still match
        per_turn = self._per_turn_ds(pipeline_turns).materialize()
        hot = _hot_conversations(per_turn, 10_000)
        assert hot == set()
        a = self._docs(per_turn, hot)
        exp = oracle_assemble(oracle_turns).to_pandas()
        pd.testing.assert_frame_equal(a[exp.columns.tolist()], exp, check_dtype=False)

    def test_hotaware_any_hot_set_equals_oracle(self, pipeline_turns,
                                                oracle_turns):
        """hotaware assembly is EQUAL for every choice of hot set —
        the hot set is a routing decision, never a semantic one.
        Random subsets, empty, and all-hot, with small salt spans so
        hot conversations genuinely split into multiple partials."""
        import random

        from mistralocr_pdf2md_translator_ray.stages.assemble import (
            assemble_conversations_hotaware,
        )

        convs = sorted(pipeline_turns["conv_id"].unique())
        rng = random.Random(17)
        exp = oracle_assemble(oracle_turns).to_pandas()
        subsets = [set(), set(convs),
                   set(rng.sample(convs, len(convs) // 2)),
                   {convs[0]}]
        for hot in subsets:
            a = (
                assemble_conversations_hotaware(
                    self._per_turn_ds(pipeline_turns), hot, salt_span=8)
                .to_pandas().sort_values("conv_id").reset_index(drop=True)
            )
            pd.testing.assert_frame_equal(
                a[exp.columns.tolist()], exp, check_dtype=False)


class TestHotSplitDocuments:
    """extract_documents' hot-aware assembly: hot detection runs on the
    RAW conv_id column (turn counts are invariant under extraction),
    extraction runs once, and every route must equal the oracle
    documents byte-for-byte."""

    def _docs(self, t, p, **kw):
        from mistralocr_pdf2md_translator_ray.pipelines.extract_pipeline import (
            extract_documents,
        )

        return (
            extract_documents(rd.from_arrow(t),
                              None if p is None else rd.from_arrow(p), **kw)
            .to_pandas().sort_values("conv_id").reset_index(drop=True)
        )

    def test_hot_split_equals_single_phase(self, tiny_fixture, oracle_turns,
                                           ray_session):
        t, p = tiny_fixture
        # threshold below the fixture's ~100-turn hot conversation ->
        # both cold and hot conversations present
        split = self._docs(t, p, salt_span=16, hot_threshold=40)
        exp = oracle_assemble(oracle_turns).to_pandas()
        pd.testing.assert_frame_equal(split[exp.columns.tolist()], exp,
                                      check_dtype=False)

    def test_hot_split_shared_child_refs(self, tiny_fixture, oracle_turns,
                                         ray_session, tmp_path):
        import pyarrow.parquet as pq

        from mistralocr_pdf2md_translator_ray.pipelines.extract_pipeline import (
            extract_documents,
        )

        t, p = tiny_fixture
        p_path = str(tmp_path / "payloads.parquet")
        pq.write_table(p, p_path)
        split = (
            extract_documents(rd.from_arrow(t), payloads_path=p_path,
                              salt_span=16, hot_threshold=40,
                              emit_original=True)
            .to_pandas().sort_values("conv_id").reset_index(drop=True)
        )
        # no conversation reaches the default threshold: single phase
        base = self._docs(t, p, emit_original=True)
        cols = ["conv_id", "n_turns", "doc_md", "doc_md_original"]
        pd.testing.assert_frame_equal(split[cols], base[cols],
                                      check_dtype=False)
        exp = oracle_assemble(oracle_turns).to_pandas()
        pd.testing.assert_frame_equal(split[exp.columns.tolist()], exp,
                                      check_dtype=False)

    def test_barrier_and_streaming_regimes_equal_sync(self, tiny_fixture,
                                                      oracle_turns,
                                                      ray_session, tmp_path,
                                                      monkeypatch):
        """transcripts_path enables the footer-gated size adaptivity:
        below BARRIER_ASSEMBLY_MAX_ROWS the materialize-barrier path
        runs; the constant at 0 forces the STREAMING path, whose hot
        count is a PENDING overlapped-task ref (incl. the empty-ref
        degenerate DAG at a huge threshold). All must equal the oracle
        documents, and the dual variant the single-phase one."""
        import pyarrow.parquet as pq

        from mistralocr_pdf2md_translator_ray.pipelines import extract_pipeline as ep

        t, p = tiny_fixture
        t_path = str(tmp_path / "transcripts.parquet")
        pq.write_table(t, t_path)
        exp = oracle_assemble(oracle_turns).to_pandas()
        base_dual = self._docs(t, p, emit_original=True)
        barrier_rows = ep.BARRIER_ASSEMBLY_MAX_ROWS
        for threshold, streaming, dual in [
            (40, False, False),       # barrier, hot
            (10_000, False, False),   # barrier, no hot
            (40, True, False),        # streaming, hot (pending ref)
            (10_000, True, False),    # streaming, empty ref -> degenerate DAG
            (40, False, True),
            (40, True, True),
        ]:
            monkeypatch.setattr(ep, "BARRIER_ASSEMBLY_MAX_ROWS",
                                0 if streaming else barrier_rows)
            got = self._docs(t, p, salt_span=16, hot_threshold=threshold,
                             transcripts_path=t_path, emit_original=dual)
            pd.testing.assert_frame_equal(got[exp.columns.tolist()], exp,
                                          check_dtype=False)
            if dual:
                cols = ["conv_id", "n_turns", "doc_md", "doc_md_original"]
                pd.testing.assert_frame_equal(got[cols], base_dual[cols],
                                              check_dtype=False)

    def test_hot_detection_matches_counts(self, tiny_fixture, ray_session):
        from mistralocr_pdf2md_translator_ray.pipelines.extract_pipeline import (
            _hot_conversations,
        )

        t, _ = tiny_fixture
        sizes = pd.Series(t["conv_id"].to_pylist()).value_counts()
        for threshold in (0, 40, 10_000):
            got = _hot_conversations(rd.from_arrow(t), threshold)
            assert got == set(sizes[sizes > threshold].index)

    def test_hot_detection_fallback_equals_driver_combine(
            self, tiny_fixture, ray_session):
        """driver_cap=0 forces the distributed bucketed reduce (the
        billions-of-conversations path); it must agree with the bounded
        driver-side combine at every threshold."""
        from mistralocr_pdf2md_translator_ray.pipelines.extract_pipeline import (
            _hot_conversations,
        )

        t, _ = tiny_fixture
        for threshold in (0, 1, 40, 10_000):
            fast = _hot_conversations(rd.from_arrow(t), threshold)
            slow = _hot_conversations(rd.from_arrow(t), threshold,
                                      driver_cap=0)
            assert fast == slow


class TestAdaptiveAssemblyDual:
    def test_forced_hot_path_dual(self, tiny_fixture, oracle_turns,
                                  ray_session):
        """An all-hot set pushes EVERY conversation through the salted
        two-phase branch with include_original — the hot-aware assembler
        must still produce both variants byte-equal to the per-turn
        joins, the single-phase documents and the oracle."""
        from mistralocr_pdf2md_translator_ray.functions.scalars import PAGE_SEPARATOR
        from mistralocr_pdf2md_translator_ray.stages.assemble import (
            assemble_conversations_hotaware,
        )

        t, p = tiny_fixture
        turns_ds = extract_turns(rd.from_arrow(t), rd.from_arrow(p),
                                 emit_original=True).materialize()
        turns = turns_ds.to_pandas().sort_values(["conv_id", "turn_idx"])
        docs = (
            assemble_conversations_hotaware(
                turns_ds, set(turns["conv_id"]), salt_span=4,
                include_original=True)
            .to_pandas().sort_values("conv_id").reset_index(drop=True)
        )
        exp = turns.groupby("conv_id").agg(
            n_turns=("md", "size"),
            doc_md=("md", PAGE_SEPARATOR.join),
            doc_md_original=("md_original", PAGE_SEPARATOR.join),
        ).reset_index()
        cols = ["conv_id", "n_turns", "doc_md", "doc_md_original"]
        pd.testing.assert_frame_equal(docs[cols], exp, check_dtype=False)
        single = (
            assemble_conversations_hotaware(turns_ds, set(),
                                            include_original=True)
            .to_pandas().sort_values("conv_id").reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(docs[cols], single[cols])
        oracle = oracle_assemble(oracle_turns).to_pandas()
        pd.testing.assert_frame_equal(docs[oracle.columns.tolist()], oracle,
                                      check_dtype=False)


class TestPayloadFilesContract:
    """An EXPLICIT payload shard list is a hard contract: a missing or
    non-parquet entry raises instead of silently skipping child
    extraction for that shard's conversations. Directory scanning keeps
    its lenient listing behavior."""

    def test_explicit_list_missing_raises(self, tmp_path):
        import pytest

        from mistralocr_pdf2md_translator_ray.pipelines.extract_pipeline import (
            _payload_files,
        )

        ok = tmp_path / "a.parquet"
        ok.write_bytes(b"")
        with pytest.raises(FileNotFoundError, match="missing"):
            _payload_files([str(ok), str(tmp_path / "gone.parquet")])
        with pytest.raises(FileNotFoundError, match="not parquet"):
            _payload_files([str(ok), __file__])
        assert _payload_files([str(ok)]) == [str(ok)]
        # remote URIs can't be existence-checked locally: the list
        # routes through ray.data.read_parquet (documented fallback),
        # signalled by an empty local listing — never an error
        assert _payload_files(["s3://bucket/p-000.parquet"]) == []
        assert _payload_files([str(ok), "s3://bucket/p-000.parquet"]) == []
        # directory scan: lenient, sorted, parquet-only
        (tmp_path / "b.parquet").write_bytes(b"")
        (tmp_path / "notes.txt").write_bytes(b"")
        assert _payload_files(str(tmp_path)) == [str(ok),
                                                 str(tmp_path / "b.parquet")]


class TestSkewedCorpus:
    """The bench skew artifact's generator: deterministic, one hot
    conversation holding ~50% of all turns, ts strictly increasing
    within the hot conversation even across shard boundaries."""

    def test_shape_determinism_and_hot_share(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        from mistralocr_pdf2md_translator_ray.sources.transcripts import (
            write_skewed_transcripts_parquet,
        )

        t1, _ = write_skewed_transcripts_parquet(
            str(tmp_path / "a"), n_shards=4, turns_per_shard=500,
            convs_per_shard=10)
        t2, _ = write_skewed_transcripts_parquet(
            str(tmp_path / "b"), n_shards=4, turns_per_shard=500,
            convs_per_shard=10)
        import os

        def read_all(d):
            files = sorted(os.path.join(d, f) for f in os.listdir(d)
                           if f.endswith(".parquet"))
            return pa.concat_tables([pq.read_table(f) for f in files])

        a, b = read_all(t1), read_all(t2)
        assert a.equals(b)  # byte-deterministic across runs

        df = a.to_pandas()
        hot = df[df["conv_id"] == "hot-conv"]
        # hot shards are exact; normal shards are ~turns_per_shard
        # (zipf rounding), so the hot share is ~50%, not exactly 50%
        assert len(hot) == 1000
        assert 0.4 <= len(hot) / len(df) <= 0.55
        # dense contiguous turn_idx + strictly increasing ts across shards
        hot = hot.sort_values("turn_idx")
        assert hot["turn_idx"].tolist() == list(range(len(hot)))
        assert hot["ts"].is_monotonic_increasing
        assert hot["ts"].nunique() == len(hot)
