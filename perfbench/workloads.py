"""The four workloads. Each one generates its inputs in ``setup``, lists
the operations of one round in ``ops`` and checks a round's outputs in
``check``.

An operation is ``(name, fn)``; ``fn(state)`` runs it and may leave
results in the round's ``state`` dict for later operations and the
checks. In a traced run the same operations split their work at layer
boundaries with ``materialize()`` barriers and open one span per layer.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import checks
import gen


def dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(root, f))
    return total


def _fresh(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    return path


def spliced_children(turns) -> int:
    """Child payloads the engine spliced into the extracted turns: the
    generator's payload markers found in the output ``md``."""
    import ray

    return sum(pc.sum(pc.count_substring_regex(t["md"], r"pl[0-9]+q")).as_py() or 0
               for t in ray.get(turns.to_arrow_refs()))


class Workload:
    name = ""
    rows = 0  # input rows one round consumes (rows_per_s numerator)

    def __init__(self, root: str, seed: int, tracer, traced: bool) -> None:
        self.root, self.seed = root, seed
        self.tracer, self.traced = tracer, traced

    def span(self, name: str):
        return self.tracer.span(name)

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> list:
        raise NotImplementedError

    def check(self, state: dict) -> list[str]:
        raise NotImplementedError

    def warmup_ops(self) -> list:
        """Operations run once before timing. The first operation warms
        the worker processes when the others run the same engine code."""
        return self.ops()[:1]

    def kernels(self) -> dict[str, float]:
        """Single-core kernel timings over this workload's inputs."""
        return {}


class _Transcripts(Workload):
    """Shared set-up of the three transcript workloads."""
    n_turns = 8_000
    n_convs = 200
    hot_share = 0.0
    n_files = 8

    def setup(self) -> None:
        t, p, self.truth = gen.transcripts(self.seed, self.n_turns, self.n_convs,
                                           hot_share=self.hot_share)
        self.t_dir = os.path.join(self.root, "in", "transcripts")
        self.p_dir = os.path.join(self.root, "in", "payloads")
        gen.write_shards(t, self.t_dir, self.n_files, self.seed)
        gen.write_shards(p, self.p_dir, 2, self.seed)
        self.transcripts, self.payloads = t, p
        self.rows = t.num_rows
        self.in_mb = (dir_bytes(self.t_dir) + dir_bytes(self.p_dir)) / 1e6
        self.out = os.path.join(self.root, "out")

    def read(self):
        """The transcript read; a barrier of its own when traced."""
        import ray.data as rd

        ds = rd.read_parquet(self.t_dir)
        if not self.traced:
            return ds
        with self.span("sources.read") as c:
            ds = ds.materialize()
            c.update(rows=ds.count(), mb=self.in_mb)
        return ds

    def kernels(self) -> dict[str, float]:
        from spans import kernel_timings

        sample = self.transcripts.slice(0, 2_000)
        keys = set(zip(sample["conv_id"].to_pylist(), sample["turn_idx"].to_pylist()))
        mask = [k in keys for k in zip(self.payloads["conv_id"].to_pylist(),
                                       self.payloads["turn_idx"].to_pylist())]
        return kernel_timings(sample, self.payloads.filter(pa.array(mask)))


class Turns(_Transcripts):
    name = "turns"

    def ops(self):
        return [("extract_turns+write_parquet", self._run)]

    def _run(self, state: dict) -> None:
        from mistralocr_pdf2md_translator_ray.pipelines.extract_pipeline import (
            extract_turns,
        )

        out = _fresh(os.path.join(self.out, "turns"))
        ds = self.read()
        turns = extract_turns(ds, payloads_path=self.p_dir)
        if self.traced:
            with self.span("stages.extract") as c:
                turns = turns.materialize()
                c.update(rows=turns.count())
            c.update(child_rows=spliced_children(turns))
            with self.span("sinks.write_parquet") as c:
                turns.write_parquet(out)
                c.update(mb=dir_bytes(out) / 1e6)
        else:
            turns.write_parquet(out)
        state["out"] = out
        state["bytes"] = dir_bytes(out)

    def check(self, state: dict) -> list[str]:
        df = pq.read_table(state["out"],
                           columns=["conv_id", "turn_idx", "md", "status"]).to_pandas()
        return checks.check_turns(df, self.truth)


#: Conversations longer than this are hot. The skewed corpus's big
#: conversation (half of all turns) is over it; every other one is under.
HOT_THRESHOLD = 1_000


class DocumentsSkew(_Transcripts):
    name = "documents_skew"
    n_turns = 4_000
    hot_share = 0.5
    n_convs = 150

    def ops(self):
        return [("extract_documents+export_markdown", self._run)]

    def _assemble(self, turns):
        """Traced assembly, as ``extract_documents`` does it after its
        extraction: the engine's footer gate and raw-task hot count over
        the transcript files, then the hot-aware assembler."""
        import ray

        from mistralocr_pdf2md_translator_ray.pipelines import extract_pipeline as ep
        from mistralocr_pdf2md_translator_ray.stages.assemble import (
            assemble_conversations_hotaware,
        )

        with self.span("stages.assemble.hotaware") as c:
            files = ep._payload_files(self.t_dir)
            hot = ray.get(ep._hot_conversations_from_files(files, HOT_THRESHOLD))
            barrier = ep._parquet_meta_rows(files) <= ep.BARRIER_ASSEMBLY_MAX_ROWS
            docs = assemble_conversations_hotaware(turns, hot).materialize()
            c.update(hot_convs=len(hot), rows_in=turns.count(),
                     docs_out=docs.count(), barrier_regime=int(barrier))
        return docs

    def _run(self, state: dict) -> None:
        from mistralocr_pdf2md_translator_ray.pipelines.extract_pipeline import (
            extract_documents,
            extract_turns,
        )
        from mistralocr_pdf2md_translator_ray.stages.sinks import export_markdown

        out = _fresh(os.path.join(self.out, "docs"))
        ds = self.read()
        if self.traced:
            with self.span("stages.extract") as c:
                turns = extract_turns(ds, payloads_path=self.p_dir).materialize()
                c.update(rows=turns.count())
            c.update(child_rows=spliced_children(turns))
            docs = self._assemble(turns)
            with self.span("stages.sinks.export_markdown") as c:
                n = export_markdown(docs, out)
                c.update(files=n, mb=dir_bytes(out) / 1e6)
        else:
            docs = extract_documents(ds, payloads_path=self.p_dir,
                                     transcripts_path=self.t_dir,
                                     hot_threshold=HOT_THRESHOLD).materialize()
            export_markdown(docs, out)
        state["docs"] = docs
        state["out"] = out
        state["bytes"] = dir_bytes(out)

    def check(self, state: dict) -> list[str]:
        md_dir = os.path.join(state["out"], "md")
        files = {}
        for f in os.listdir(md_dir):
            with open(os.path.join(md_dir, f), encoding="utf-8") as fh:
                files[f[:-3]] = fh.read()
        return checks.check_documents(state["docs"].to_pandas(), files, self.truth)


#: Partitions whose lineage, data and ``docs/`` the resume has to redo.
REMOVED_PARTITIONS = frozenset({1, 6, 11, 14})
N_PARTITIONS = 16


def _partition_files(turns_dir: str) -> dict[int, dict]:
    data = os.path.join(turns_dir, "data")
    out: dict[int, dict] = {}
    for entry in sorted(os.listdir(data)):
        if not entry.startswith("part_id="):
            continue
        d = os.path.join(data, entry)
        files = {}
        for f in sorted(os.listdir(d)):
            st = os.stat(os.path.join(d, f))
            files[f] = (st.st_ino, st.st_mtime_ns, st.st_size)
        out[int(entry.split("=", 1)[1])] = files
    return out


def _lineage(turns_dir: str) -> dict[int, tuple]:
    with open(os.path.join(turns_dir, "_lineage.json")) as f:
        raw = json.load(f)
    return {int(k): (v["row_count"], v["content_hash"]) for k, v in raw.items()}


def _docs_digest(docs_dir: str) -> str:
    t = pq.read_table(docs_dir, columns=["conv_id", "n_turns", "doc_md"])
    h = hashlib.sha256()
    for conv, n, md in sorted(zip(t["conv_id"].to_pylist(),
                                  t["n_turns"].to_pylist(),
                                  t["doc_md"].to_pylist())):
        h.update(f"{conv}\x1f{n}\x1f{md}\x1e".encode())
    return h.hexdigest()


class JobResume(_Transcripts):
    name = "job_resume"
    n_turns = 4_000

    def setup(self) -> None:
        super().setup()
        removed_rows = sum(
            1 for conv, _t in self.truth
            if _crc_part(conv) in REMOVED_PARTITIONS)
        self.rows = len(self.truth) + removed_rows

    def ops(self):
        return [("run_extract_job", self._full), ("resume", self._resume)]

    def _job(self, job_dir: str, turns_span: str, docs_span: str) -> None:
        from mistralocr_pdf2md_translator_ray.pipelines.job import run_extract_job

        # the turns phase and the assembling call, timed apart
        with self.span(turns_span):
            run_extract_job(self.t_dir, self.p_dir, job_dir,
                            n_partitions=N_PARTITIONS, assemble=False)
        with self.span(docs_span):
            run_extract_job(self.t_dir, self.p_dir, job_dir,
                            n_partitions=N_PARTITIONS, assemble=True)

    def _full(self, state: dict) -> None:
        job = _fresh(os.path.join(self.out, "job"))
        self._job(job, "state.checkpoint.turns_phase", "state.checkpoint.docs_phase")
        turns = os.path.join(job, "turns")
        state.update(job=job, full_lineage=_lineage(turns),
                     full_docs=_docs_digest(os.path.join(job, "docs")),
                     files_before=_partition_files(turns),
                     bytes=dir_bytes(job))
        # lose the removed partitions' lineage entries, data and docs/
        lineage_path = os.path.join(turns, "_lineage.json")
        with open(lineage_path) as f:
            raw = json.load(f)
        for p in REMOVED_PARTITIONS:
            raw.pop(str(p), None)
            shutil.rmtree(os.path.join(turns, "data", f"part_id={p}"),
                          ignore_errors=True)
        with open(lineage_path, "w") as f:
            json.dump(raw, f)
        shutil.rmtree(os.path.join(job, "docs"))

    def _resume(self, state: dict) -> None:
        job = state["job"]
        self._job(job, "state.checkpoint.resume_turns_phase",
                  "stages.assemble.adaptive")
        turns = os.path.join(job, "turns")
        files = _partition_files(turns)
        state.update(resumed_lineage=_lineage(turns),
                     resumed_docs=_docs_digest(os.path.join(job, "docs")),
                     files_after=files)
        recomputed = [p for p in files if files[p] != state["files_before"].get(p)]
        state["bytes"] += dir_bytes(os.path.join(job, "docs")) + sum(
            v[2] for p in recomputed for v in files[p].values())
        self.tracer.count("state.checkpoint",
                          partitions_written=len(state["full_lineage"]),
                          partitions_recomputed=len(recomputed),
                          mb=state["bytes"] / 1e6)

    def check(self, state: dict) -> list[str]:
        return checks.check_resume(
            state["full_lineage"], state["resumed_lineage"],
            state["full_docs"], state["resumed_docs"],
            state["files_before"], state["files_after"],
            set(REMOVED_PARTITIONS), len(self.truth))


def _crc_part(conv: str) -> int:
    import zlib

    return zlib.crc32(conv.encode()) % N_PARTITIONS


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

#: The query mix: library function name -> the benchmark's own copy of
#: the SQL it must equal. Aggregates, outer joins, a window, top-k and a quantile.
QUERIES = {
    "q1_pricing_summary": """
SELECT l_returnflag, l_linestatus,
       CAST(sum(CAST(floor(l_quantity * 100 + 0.5) AS BIGINT)) AS BIGINT) / 100.0 AS sum_qty,
       CAST(sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)) AS BIGINT) / 100.0 AS sum_base_price,
       CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 10000 + 0.5) AS BIGINT)) AS BIGINT) / 10000.0 AS sum_disc_price,
       round(CAST(sum(CAST(floor(l_quantity * 100 + 0.5) AS BIGINT)) AS BIGINT) / 100.0 / count(*), 6) AS avg_qty,
       round(CAST(sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)) AS BIGINT) / 100.0 / count(*), 6) AS avg_price,
       CAST(count(*) AS BIGINT) AS count_order
FROM lineitem WHERE l_shipdate <= TIMESTAMP '1998-09-02'
GROUP BY l_returnflag, l_linestatus""",
    "customer_order_counts": """
SELECT c.c_custkey AS c_custkey, CAST(count(o.o_orderkey) AS BIGINT) AS n_orders,
       CAST(coalesce(sum(CAST(floor(o.o_totalprice * 100 + 0.5) AS BIGINT)), 0) AS BIGINT) / 100.0 AS total_spent
FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey
GROUP BY c.c_custkey""",
    "user_order_activity": """
SELECT COALESCE(e.user_id, o.o_custkey) AS id, COALESCE(e.n_events, 0) AS n_events,
       COALESCE(o.n_orders, 0) AS n_orders
FROM (SELECT user_id, CAST(count(*) AS BIGINT) AS n_events FROM events GROUP BY user_id) e
FULL OUTER JOIN (SELECT o_custkey, CAST(count(*) AS BIGINT) AS n_orders FROM orders GROUP BY o_custkey) o
ON e.user_id = o.o_custkey""",
    "event_type_pivot": """
SELECT user_id,
       CAST(count(*) FILTER (WHERE event_type = 'click') AS BIGINT) AS n_click,
       CAST(count(*) FILTER (WHERE event_type = 'error') AS BIGINT) AS n_error,
       CAST(count(*) FILTER (WHERE event_type = 'purchase') AS BIGINT) AS n_purchase,
       CAST(count(*) FILTER (WHERE event_type = 'signup') AS BIGINT) AS n_signup,
       CAST(count(*) FILTER (WHERE event_type = 'view') AS BIGINT) AS n_view,
       CAST(count(*) AS BIGINT) AS n_total
FROM events GROUP BY user_id""",
    "order_rank_in_customer": """
SELECT o_custkey, o_orderkey,
       CAST(row_number() OVER (PARTITION BY o_custkey ORDER BY o_totalprice DESC, o_orderkey) AS BIGINT) AS rnk
FROM orders""",
    "top_users_by_events": """
SELECT user_id, CAST(count(*) AS BIGINT) AS n_events FROM events GROUP BY user_id
ORDER BY n_events DESC, user_id LIMIT 20""",
    "median_value_by_type": """
SELECT event_type, quantile_disc(value, 0.5) AS median_value, CAST(count(*) AS BIGINT) AS n_events
FROM events GROUP BY event_type""",
}

#: DuckDB's exact dedup over the whole documents table.
EXACT_SQL = ("SELECT CAST(min(doc_id) AS BIGINT) AS doc_id, "
             "CAST(count(*) AS BIGINT) AS n_dups FROM documents GROUP BY text")

N_ORDERS, N_EVENTS, N_DOCS = 6_000, 12_000, 1_500


def duckdb_answers(sf: str, sqls: dict[str, str]) -> tuple[dict, dict]:
    """Run each SQL over the parquet files in ``sf``; returns
    (answers as DataFrames, wall seconds per query)."""
    import duckdb

    con = duckdb.connect()
    try:
        for f in os.listdir(sf):
            if f.endswith(".parquet"):
                con.sql(f"CREATE VIEW {f[:-8]} AS SELECT * FROM "
                        f"read_parquet('{os.path.join(sf, f)}')")
        answers, walls = {}, {}
        for name, sql in sqls.items():
            t = time.perf_counter()
            answers[name] = con.sql(sql).df()
            walls[name] = time.perf_counter() - t
        return answers, walls
    finally:
        con.close()


class Tables(Workload):
    name = "tables"

    def setup(self) -> None:
        from mistralocr_pdf2md_translator_ray.stages.dedup import dedup_minhash

        self.sf = os.path.join(self.root, "in", "sf")
        counts = gen.tables(self.seed, N_ORDERS, N_EVENTS, N_DOCS, self.sf)
        self.rows = sum(counts.values())
        self.old = os.path.join(self.root, "in", "old")
        self.new = os.path.join(self.root, "in", "new")
        gen.split_documents(self.sf, self.old, self.new)
        self.want, self.duckdb_s = duckdb_answers(
            self.sf, {**QUERIES, "exact_dedup": EXACT_SQL})
        self.docs = pq.read_table(os.path.join(self.sf, "documents.parquet"),
                                  columns=["doc_id", "text"])
        self.scratch_kept = [int(d) for d in
                             dedup_minhash(self.sf).to_pandas()["doc_id"]]
        self.out = os.path.join(self.root, "out")

    def ops(self):
        ops = [(q, self._query(q)) for q in QUERIES]
        return ops + [("build_dedup_index", self._build_minhash),
                      ("build_exact_index", self._build_exact),
                      ("dedup_minhash_incremental", self._fold_minhash),
                      ("dedup_exact_incremental", self._fold_exact)]

    def warmup_ops(self):
        # every operation runs different engine code; left cold, the one
        # timed round paid first-use costs in the workers (10.6-18.5 s per
        # run against 11.7-12.0 s for warm rounds in one session)
        return self.ops()

    def _query(self, name: str):
        def run(state: dict) -> None:
            from mistralocr_pdf2md_translator_ray.pipelines import library

            with self.span(f"pipelines.library.{name}") as c:
                df = getattr(library, name)(self.sf).to_pandas()
                c.update(rows=len(df))
            state.setdefault("queries", {})[name] = df
        return run

    def _index(self, kind: str) -> str:
        return os.path.join(self.out, f"index_{kind}")

    def _build_minhash(self, state: dict) -> None:
        from mistralocr_pdf2md_translator_ray.stages.dedup_incremental import (
            build_dedup_index,
        )

        with self.span("stages.dedup_incremental.build_dedup_index"):
            build_dedup_index(self.old, _fresh(self._index("minhash")))

    def _build_exact(self, state: dict) -> None:
        from mistralocr_pdf2md_translator_ray.stages.dedup_incremental import (
            build_exact_index,
        )

        with self.span("stages.dedup_incremental.build_exact_index"):
            build_exact_index(self.old, _fresh(self._index("exact")))

    def _fold_minhash(self, state: dict) -> None:
        from mistralocr_pdf2md_translator_ray.stages.dedup_incremental import (
            dedup_minhash_incremental,
        )

        with self.span("stages.dedup_incremental.dedup_minhash_incremental"):
            kept = dedup_minhash_incremental(self.new, self._index("minhash"),
                                             update_index=True).to_pandas()
        state["minhash_kept"] = [int(d) for d in kept["doc_id"]]

    def _fold_exact(self, state: dict) -> None:
        from mistralocr_pdf2md_translator_ray.stages.dedup_incremental import (
            dedup_exact_incremental,
        )

        with self.span("stages.dedup_incremental.dedup_exact_incremental"):
            dedup_exact_incremental(self.new, self._index("exact")).to_pandas()
        idx = [self._index("minhash"), self._index("exact")]
        state["bytes"] = sum(dir_bytes(d) for d in idx)
        state["fold_done"] = True
        self.tracer.count("stages.dedup_incremental",
                          index_mb=state["bytes"] / 1e6,
                          index_files=sum(len(fs) for d in idx
                                          for _r, _d, fs in os.walk(d)))

    def check(self, state: dict) -> list[str]:
        from mistralocr_pdf2md_translator_ray.stages.dedup_incremental import (
            exact_index_kept,
        )

        problems: list[str] = []
        for name, df in state.get("queries", {}).items():
            problems += checks.check_table(name, df, self.want[name])
        if state.get("fold_done"):
            got = exact_index_kept(self._index("exact")).to_pandas()
            problems += checks.check_table("exact_index_kept", got,
                                           self.want["exact_dedup"])
        if "minhash_kept" in state:
            problems += checks.check_minhash_kept(
                state["minhash_kept"], self.scratch_kept, self.docs)
        return problems

    def kernels(self) -> dict[str, float]:
        from spans import kernel_timings

        return kernel_timings(None, None, self.docs)


WORKLOADS = {w.name: w for w in (Turns, DocumentsSkew, JobResume, Tables)}
