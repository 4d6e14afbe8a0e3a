"""Benchmark harness (driver contract).

Runs the headline extraction pipeline over a deterministic synthetic
transcript corpus (cached under /tmp, shared by both scaling runs) plus
the library queries over ``$GRAFT_SF_DIR`` (default
``/root/testdata/sf0.1``). The full record, every query wall included,
goes to ``$GRAFT_BENCH_RECORD`` (default ``bench_record_<N>cpu.json``
beside this file). The last stdout line is a JSON summary kept under
``SUMMARY_MAX_CHARS`` so a capture of the output's tail still parses::

    {"metric": "...", "value": <headline sec>, "unit": "sec",
     "turns_per_sec": ..., "effective_cores_before": ...,
     "slowest_queries": {<10 slowest>}, "record": <path>, ...}

``bench.py --scaling`` re-runs the whole thing in two fresh processes
(``RAY_GRAFT_CPUS=8`` then ``32``) on the same input and reports both
throughputs plus scaling efficiency (the sandbox stand-in for the
north-rule's N vs 4N cluster sizes).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
CORPUS_DIR = os.environ.get("GRAFT_CORPUS_DIR", "/tmp/graft_bench_corpus3")
CORPUS_SHARDS = 48
CORPUS_TURNS_PER_SHARD = 30_000
HEADLINE_ONLY = os.environ.get("GRAFT_HEADLINE_ONLY", "") == "1"
RECORD_PATH = os.environ.get("GRAFT_BENCH_RECORD", os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    f"bench_record_{NUM_CPUS}cpu.json"))
SUMMARY_MAX_CHARS = 1500
N_SLOWEST = 10


def _ensure_corpus() -> tuple[str, str]:
    """Generate the bench transcript corpus once; reused (and page-cache
    warmed) across scaling runs."""
    import ray

    from mistralocr_pdf2md_translator_ray.sources.transcripts import (
        write_transcripts_parquet,
    )

    t_dir = os.path.join(CORPUS_DIR, "transcripts")
    p_dir = os.path.join(CORPUS_DIR, "payloads")
    marker = os.path.join(CORPUS_DIR, "_complete")
    if os.path.exists(marker):
        return t_dir, p_dir
    os.makedirs(CORPUS_DIR, exist_ok=True)
    write_transcripts_parquet(
        CORPUS_DIR,
        n_shards=CORPUS_SHARDS,
        turns_per_shard=CORPUS_TURNS_PER_SHARD,
        convs_per_shard=60,
    )
    open(marker, "w").close()
    return t_dir, p_dir


def _ensure_skew_corpus() -> tuple[str, str]:
    """200k-turn corpus where ONE conversation holds 50% of all turns
    (round-1 skew scenario) — the adaptive assembly's regression
    surface, benched every round."""
    from mistralocr_pdf2md_translator_ray.sources.transcripts import (
        write_skewed_transcripts_parquet,
    )

    skew_dir = os.path.join(CORPUS_DIR, "skew")
    t_dir = os.path.join(skew_dir, "transcripts")
    p_dir = os.path.join(skew_dir, "payloads")
    marker = os.path.join(skew_dir, "_complete")
    if os.path.exists(marker):
        return t_dir, p_dir
    os.makedirs(skew_dir, exist_ok=True)
    write_skewed_transcripts_parquet(
        skew_dir, n_shards=8, turns_per_shard=25_000, convs_per_shard=50)
    open(marker, "w").close()
    return t_dir, p_dir


def _consume(ds) -> int:
    """Exhaust a Dataset streaming-style; returns row count."""
    n = 0
    for batch in ds.iter_batches(batch_size=65536, batch_format="pyarrow"):
        n += batch.num_rows
    return n


def run_bench() -> dict:
    import ray
    import ray.data as rd
    from ray.data import DataContext

    # in-band host-capacity probe (see _effective_cores): walls taken
    # in a ~15-core window are ~2x a quiet-window run of the SAME code,
    # so the bench artifact must carry its own context
    cores_before = _effective_cores()

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )

    from mistralocr_pdf2md_translator_ray.pipelines.extract_pipeline import (
        extract_turns,
    )

    t_dir, p_dir = _ensure_corpus()

    # warm the page cache so both scaling runs measure compute+shuffle
    _consume(rd.read_parquet(t_dir, columns=["conv_id"]))

    timings: dict[str, float] = {}
    counts: dict[str, int] = {}

    def timed(name: str, fn) -> None:
        t0 = time.perf_counter()
        counts[name] = _consume(fn())
        timings[name] = round(time.perf_counter() - t0, 3)

    # --- headline: flagship per-turn extraction over the corpus -------
    # consumed via parallel parquet write (a realistic sink; a driver
    # iter_batches pull would serialize the tail on one core)
    import shutil

    out_dir = f"/tmp/bench_out_{NUM_CPUS}"
    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.perf_counter()
    extract_turns(rd.read_parquet(t_dir), payloads_path=p_dir).write_parquet(out_dir)
    headline_sec = round(time.perf_counter() - t0, 3)
    n_turns = rd.read_parquet(out_dir).count()
    turns_per_sec = round(n_turns / headline_sec, 1)
    shutil.rmtree(out_dir, ignore_errors=True)

    if not HEADLINE_ONLY:
        _run_library_queries(timed, t_dir, p_dir)

    result = {
        "metric": "headline extract_turns wall sec (synthetic transcript corpus)",
        "value": headline_sec,
        "unit": "sec",
        "queries": {"extract_turns": headline_sec, **timings},
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "corpus_turns": n_turns,
        "turns_per_sec": turns_per_sec,
    }
    ray.shutdown()
    result["effective_cores_before"] = cores_before
    result["effective_cores_after"] = _effective_cores()
    return result


def _run_library_queries(timed, t_dir: str, p_dir: str) -> None:
    import ray.data as rd

    from mistralocr_pdf2md_translator_ray.pipelines import library as lib
    from mistralocr_pdf2md_translator_ray.pipelines.extract_pipeline import (
        extract_documents,
    )
    from mistralocr_pdf2md_translator_ray.stages import dedup as dd
    from mistralocr_pdf2md_translator_ray.stages.textstats import text_quality

    # document assembly (adds the salted conv_id shuffle) — timed on an
    # 8-shard subset so this secondary metric doesn't dominate bench
    # wall time (it re-runs extraction plus two full-volume shuffles)
    sub_t = sorted(
        os.path.join(t_dir, f) for f in os.listdir(t_dir) if f.endswith(".parquet")
    )[:8]
    # matching payload shards: a user extracting 8 transcript shards
    # passes those shards' payloads, not the whole corpus's (the shard
    # prefix makes conv ids disjoint across shards)
    sub_p = sorted(
        os.path.join(p_dir, f) for f in os.listdir(p_dir) if f.endswith(".parquet")
    )[:8]
    timed("extract_documents_8shards", lambda: extract_documents(
        rd.read_parquet(sub_t), payloads_path=sub_p,
        transcripts_path=sub_t))

    # pathological skew: one conversation = 50% of 200k turns. At this
    # size the footer gate routes through the BARRIER regime (file-based
    # hot count + materialize + hot-aware two-phase salted assembly);
    # the STREAMING regime is measured by `bench.py --skew` (both
    # variants) and equality-tested in TestHotSplitDocuments.
    skew_t, skew_p = _ensure_skew_corpus()
    timed("extract_documents_skew", lambda: extract_documents(
        rd.read_parquet(skew_t), payloads_path=skew_p,
        transcripts_path=skew_t))

    # --- library queries over the sf dir ------------------------------
    timed("q1_pricing_summary", lambda: lib.q1_pricing_summary(SF_DIR))
    timed("filtered_revenue", lambda: lib.filtered_revenue(SF_DIR))
    timed("revenue_by_nation", lambda: lib.revenue_by_nation(SF_DIR))
    timed("shipping_priority", lambda: lib.shipping_priority(SF_DIR))
    timed("top_orders", lambda: lib.top_orders(SF_DIR))
    timed("events_by_type", lambda: lib.events_by_type(SF_DIR))
    timed("sessionize_events", lambda: lib.sessionize_events(SF_DIR))
    timed("hourly_counts", lambda: lib.hourly_counts(SF_DIR))
    timed("hopping_counts", lambda: lib.hopping_counts(SF_DIR))
    timed("asof_purchase_click", lambda: lib.asof_purchase_click(SF_DIR))
    timed("clicks_before_purchase", lambda: lib.clicks_before_purchase(SF_DIR))
    timed("token_counts", lambda: lib.token_counts(SF_DIR))
    timed("dedup_exact", lambda: lib.dedup_exact(SF_DIR))
    timed("corpus_prep", lambda: lib.corpus_prep(SF_DIR))
    timed("dedup_minhash", lambda: dd.dedup_minhash(SF_DIR))
    timed("knn_cosine", lambda: lib.knn_cosine(SF_DIR))
    timed("doc_stats", lambda: lib.doc_stats(SF_DIR))
    timed("text_quality", lambda: text_quality(SF_DIR))
    timed("supplier_nation", lambda: lib.supplier_nation(SF_DIR))
    timed("distinct_segments", lambda: lib.distinct_segments(SF_DIR))
    timed("events_json_k", lambda: lib.events_json_k(SF_DIR))
    timed("lang_counts", lambda: lib.lang_counts(SF_DIR))
    timed("part_brand_stats", lambda: lib.part_brand_stats(SF_DIR))
    timed("orders_by_month", lambda: lib.orders_by_month(SF_DIR))
    timed("rolling_avg_value", lambda: lib.rolling_avg_value(SF_DIR))
    timed("rolling_max_value", lambda: lib.rolling_max_value(SF_DIR))
    timed("running_user_value", lambda: lib.running_user_value(SF_DIR))
    timed("user_value_delta", lambda: lib.user_value_delta(SF_DIR))
    timed("first_last_event", lambda: lib.first_last_event(SF_DIR))
    timed("user_event_paths", lambda: lib.user_event_paths(SF_DIR))
    timed("qty_discount_corr", lambda: lib.qty_discount_corr(SF_DIR))
    timed("approx_distinct_users", lambda: lib.approx_distinct_users(SF_DIR))
    timed("approx_top_users", lambda: lib.approx_top_users(SF_DIR))
    timed("chunk_documents", lambda: lib.chunk_documents(SF_DIR))
    timed("pack_documents", lambda: lib.pack_documents(SF_DIR))
    timed("approx_value_quantiles", lambda: lib.approx_value_quantiles(SF_DIR))
    timed("median_value_by_type", lambda: lib.median_value_by_type(SF_DIR))
    timed("median_histogram_path",
          lambda: lib.median_value_by_type(SF_DIR, one_task_max_rows=0))
    timed("text_char_metrics", lambda: lib.text_char_metrics(SF_DIR))
    timed("value_percentiles_by_type",
          lambda: lib.value_percentiles_by_type(SF_DIR))
    timed("value_quantiles_cont", lambda: lib.value_quantiles_cont(SF_DIR))
    timed("embedding_norms", lambda: lib.embedding_norms(SF_DIR))
    timed("stratified_sample", lambda: lib.stratified_sample(SF_DIR))
    timed("top_tokens", lambda: lib.top_tokens(SF_DIR))
    timed("line_stats", lambda: lib.line_stats(SF_DIR))
    timed("knn_cosine_multi", lambda: lib.knn_cosine_multi(SF_DIR))
    timed("top_users_by_events", lambda: lib.top_users_by_events(SF_DIR))
    timed("customer_count_by_region", lambda: lib.customer_count_by_region(SF_DIR))
    timed("top_orders_per_customer", lambda: lib.top_orders_per_customer(SF_DIR))
    timed("customers_without_orders", lambda: lib.customers_without_orders(SF_DIR))
    timed("customer_order_counts", lambda: lib.customer_order_counts(SF_DIR))
    timed("order_rank_in_customer", lambda: lib.order_rank_in_customer(SF_DIR))
    timed("event_type_pivot", lambda: lib.event_type_pivot(SF_DIR))
    timed("revenue_rollup", lambda: lib.revenue_rollup(SF_DIR))
    timed("distinct_users_by_type", lambda: lib.distinct_users_by_type(SF_DIR))
    timed("segment_revenue_bloom", lambda: lib.segment_revenue_bloom(SF_DIR))
    timed("parties_union", lambda: lib.parties_union(SF_DIR))
    timed("approx_user_counts_cms", lambda: lib.approx_user_counts_cms(SF_DIR))
    timed("shuffle_documents", lambda: lib.shuffle_documents(SF_DIR))
    timed("sample_weighted", lambda: lib.sample_weighted(SF_DIR))
    timed("user_order_activity", lambda: lib.user_order_activity(SF_DIR))
    timed("tfidf_top_terms", lambda: lib.tfidf_top_terms(SF_DIR))
    timed("customer_balance_ntile",
          lambda: lib.customer_balance_ntile(SF_DIR))
    timed("funnel_counts", lambda: lib.funnel_counts(SF_DIR))

    from mistralocr_pdf2md_translator_ray.stages.textstats import (
        redact_documents,
        repetition_stats,
    )

    timed("redact_pii", lambda: redact_documents(SF_DIR))
    timed("repetition_stats", lambda: repetition_stats(SF_DIR))
    timed("dedup_spans", lambda: dd.dedup_spans(SF_DIR))
    timed("neardup_clusters", lambda: dd.neardup_clusters(SF_DIR))
    timed("dedup_ngram", lambda: dd.dedup_ngram(SF_DIR))
    timed("dedup_simhash", lambda: dd.dedup_simhash(SF_DIR))
    timed("neardup_embedding", lambda: dd.neardup_embedding(SF_DIR))

    from mistralocr_pdf2md_translator_ray.stages.similarity import knn_cosine_ivf

    timed("knn_cosine_ivf", lambda: knn_cosine_ivf(SF_DIR))

    import __ray_entry__ as _entry

    timed("knn_cosine_ivf_indexed",
          lambda: _entry.queries()["knn_cosine_ivf_indexed"](SF_DIR))
    timed("neardup_images",
          lambda: _entry.queries()["neardup_images"](SF_DIR))
    timed("embed_documents",
          lambda: _entry.queries()["embed_documents"](SF_DIR))
    timed("dedup_minhash_incremental",
          lambda: _entry.queries()["dedup_minhash_incremental"](SF_DIR))
    timed("dedup_exact_incremental",
          lambda: _entry.queries()["dedup_exact_incremental"](SF_DIR))
    timed("neardup_embedding_incremental",
          lambda: _entry.queries()["neardup_embedding_incremental"](SF_DIR))


def summarize(record: dict, path: str) -> dict:
    """The last stdout line of a bench run: the headline, the
    effective-core probe and the slowest query walls from ``record``
    (written whole to ``path``). Fewer queries are listed if the line
    would pass ``SUMMARY_MAX_CHARS``."""
    walls = {k: v for k, v in record.get("queries", {}).items()
             if k != "extract_turns"}
    head = {k: v for k, v in record.items() if k != "queries"}
    head.update(n_queries=len(walls), record=path)
    slowest = sorted(walls, key=lambda k: (-walls[k], k))
    for n in range(N_SLOWEST, -1, -1):
        out = dict(head, slowest_queries={k: walls[k]
                                          for k in slowest[:n]})
        if len(json.dumps(out)) < SUMMARY_MAX_CHARS:
            return out
    return head


def _emit(record: dict) -> None:
    with open(RECORD_PATH, "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(summarize(record, RECORD_PATH)))


def _burn(_):
    t0 = time.perf_counter()
    x = 0
    for i in range(20_000_000):
        x += i
    return time.perf_counter() - t0


def _effective_cores(n: int = 32) -> float:
    """Measured parallel capacity: n concurrent single-core burners;
    effective cores = total CPU-seconds / wall. This host is a stolen
    hypervisor guest — nominal 32 vCPUs sometimes deliver ~14-27
    effective cores, which caps any 8->32 scaling measurement taken in
    that window (the 32-CPU leg physically cannot use 32 cores while
    the 8-CPU leg is unaffected). Reported alongside the efficiency so
    the artifact carries its own context."""
    from concurrent.futures import ProcessPoolExecutor

    seq = _burn(0)
    t0 = time.perf_counter()
    with ProcessPoolExecutor(n) as ex:
        list(ex.map(_burn, range(n)))
    wall = time.perf_counter() - t0
    return round(n * seq / wall, 1)


def run_scaling() -> dict:
    """Same job, fresh processes at 8 and 32 CPUs (N vs 4N proxy).
    Headline-only; best-of-2 per level (this host shows 10-30%% CPU
    steal-time variance between runs)."""
    def run_once(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), GRAFT_HEADLINE_ONLY="1")
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env, capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    def run(ncpu: int) -> dict:
        a, b = run_once(ncpu), run_once(ncpu)
        return a if a["value"] <= b["value"] else b

    cores_before = _effective_cores()
    lo, hi = run(8), run(32)
    cores_after = _effective_cores()
    tput_lo = lo["turns_per_sec"]
    tput_hi = hi["turns_per_sec"]
    eff = (tput_hi / tput_lo) / (32 / 8)
    return {
        "metric": "scaling efficiency (8 -> 32 CPUs, fresh processes)",
        "sec_8": lo["value"],
        "sec_32": hi["value"],
        "turns_per_sec_8": tput_lo,
        "turns_per_sec_32": tput_hi,
        "scaling_efficiency": round(eff, 3),
        "corpus_turns": hi["corpus_turns"],
        # hypervisor capacity context: of the 32 nominal vCPUs, how
        # many the host actually delivered around this measurement
        "effective_cores_before": cores_before,
        "effective_cores_after": cores_after,
    }


def run_skew() -> dict:
    """Skew scenario only (for iterating on assembly strategies)."""
    import ray
    import ray.data as rd
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from mistralocr_pdf2md_translator_ray.pipelines import extract_pipeline as ep
    from mistralocr_pdf2md_translator_ray.pipelines.extract_pipeline import (
        extract_documents,
    )

    skew_t, skew_p = _ensure_skew_corpus()
    t0 = time.perf_counter()
    n = _consume(extract_documents(rd.read_parquet(skew_t),
                                   payloads_path=skew_p,
                                   transcripts_path=skew_t))
    sec = round(time.perf_counter() - t0, 3)
    # forced STREAMING regime (BARRIER_ASSEMBLY_MAX_ROWS=0): the >2M-row
    # shape, measured here so the no-barrier path has a perf artifact too
    barrier_rows = ep.BARRIER_ASSEMBLY_MAX_ROWS
    ep.BARRIER_ASSEMBLY_MAX_ROWS = 0
    try:
        t0 = time.perf_counter()
        n2 = _consume(extract_documents(rd.read_parquet(skew_t),
                                        payloads_path=skew_p,
                                        transcripts_path=skew_t))
        sec_stream = round(time.perf_counter() - t0, 3)
    finally:
        ep.BARRIER_ASSEMBLY_MAX_ROWS = barrier_rows
    ray.shutdown()
    return {"metric": "extract_documents over 50%-hot skew corpus",
            "value": sec, "unit": "sec", "rows": n,
            "streaming_sec": sec_stream, "streaming_rows": n2,
            "num_cpus": NUM_CPUS}


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--skew" in sys.argv:
        print(json.dumps(run_skew()))
    else:
        _emit(run_bench())
