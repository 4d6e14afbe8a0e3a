"""Schema pin for EVERY queries() entry (round-4 judge item 8):
the driver's correctness window SQL-checks 50 queries; the rows-only
tail is bench-executed but nothing guarded its output schema — a
silently dropped or retyped column would pass rows-only checks.
This table-driven test runs each query at sf0.001 and asserts the
exact (column -> type) mapping. If you intentionally change a
query's schema, update its entry here (and oracle_sql if SQL-backed).

object == pandas-block object dtype (strings through pandas stages);
a flip between object and string means the query's final block
format changed — usually fine, but make it deliberately."""

import pandas as pd
import pytest
import ray.data as rd

import __ray_entry__ as entry_mod

SF_DIR = "/root/testdata/sf0.001"

EXPECTED = {
    "q1_pricing_summary": {
        "l_returnflag": "object",
        "l_linestatus": "object",
        "sum_qty": "double",
        "sum_base_price": "double",
        "sum_disc_price": "double",
        "avg_qty": "double",
        "avg_price": "double",
        "count_order": "int64",
    },
    "filtered_revenue": {
        "l_orderkey": "int64",
        "l_linenumber": "int32",
        "revenue": "double",
    },
    "revenue_by_nation": {
        "n_name": "object",
        "revenue": "double",
    },
    "supplier_nation": {
        "s_suppkey": "int64",
        "s_name": "object",
        "n_name": "object",
    },
    "shipping_priority": {
        "l_orderkey": "int64",
        "revenue": "double",
        "o_orderdate": "timestamp[us]",
        "o_orderpriority": "object",
    },
    "top_orders": {
        "o_orderkey": "int64",
        "o_totalprice": "double",
    },
    "top_orders_per_customer": {
        "o_custkey": "int64",
        "o_orderkey": "int64",
        "o_totalprice": "double",
    },
    "distinct_segments": {
        "c_mktsegment": "string",
    },
    "customers_with_orders": {
        "c_custkey": "int64",
        "c_name": "string",
    },
    "customers_without_orders": {
        "c_custkey": "int64",
        "c_name": "string",
    },
    "customer_order_counts": {
        "c_custkey": "int64",
        "n_orders": "int64",
        "total_spent": "double",
    },
    "order_rank_in_customer": {
        "o_custkey": "int64",
        "o_orderkey": "int64",
        "rnk": "int64",
    },
    "event_type_pivot": {
        "user_id": "int64",
        "n_click": "int64",
        "n_error": "int64",
        "n_purchase": "int64",
        "n_signup": "int64",
        "n_view": "int64",
        "n_total": "int64",
    },
    "revenue_rollup": {
        "o_orderstatus": "object",
        "o_orderpriority": "object",
        "n_orders": "int64",
        "total_price": "double",
    },
    "distinct_users_by_type": {
        "event_type": "object",
        "n_users": "int64",
    },
    "segment_revenue_bloom": {
        "c_mktsegment": "object",
        "n_orders": "int64",
        "total_spent": "double",
    },
    "parties_union": {
        "party_id": "int64",
        "name": "object",
        "kind": "object",
    },
    "events_by_type": {
        "event_type": "object",
        "n_events": "int64",
        "total_value": "double",
        "avg_value": "double",
    },
    "events_json_k": {
        "event_id": "int64",
        "event_type": "object",
        "k": "int64",
    },
    "sessionize_events": {
        "user_id": "int64",
        "session_id": "int64",
        "n_events": "int64",
        "session_start": "timestamp[us]",
        "total_value": "double",
    },
    "hourly_counts": {
        "window_start": "timestamp[us]",
        "event_type": "object",
        "n_events": "int64",
        "total_value": "double",
    },
    "hopping_counts": {
        "window_start": "timestamp[ns]",
        "event_type": "object",
        "n_events": "int64",
    },
    "rolling_avg_value": {
        "event_id": "int64",
        "user_id": "int64",
        "ts": "timestamp[us]",
        "rolling_avg": "double",
    },
    "rolling_max_value": {
        "event_id": "int64",
        "user_id": "int64",
        "ts": "timestamp[us]",
        "rolling_max": "double",
    },
    "running_user_value": {
        "event_id": "int64",
        "user_id": "int64",
        "ts": "timestamp[us]",
        "running_total": "double",
    },
    "user_value_delta": {
        "event_id": "int64",
        "user_id": "int64",
        "ts": "timestamp[us]",
        "delta": "double",
    },
    "first_last_event": {
        "user_id": "int64",
        "first_type": "object",
        "last_type": "object",
        "n": "int64",
    },
    "user_event_paths": {
        "user_id": "int64",
        "path": "object",
    },
    "qty_discount_corr": {
        "l_returnflag": "object",
        "corr_qty_disc": "double",
        "n": "int64",
    },
    "asof_purchase_click": {
        "event_id": "int64",
        "user_id": "int64",
        "ts": "timestamp[us]",
        "last_click_ts": "timestamp[us]",
    },
    "clicks_before_purchase": {
        "event_id": "int64",
        "user_id": "int64",
        "ts": "timestamp[us]",
        "n_clicks": "int64",
    },
    "median_value_by_type": {
        "event_type": "string",
        "median_value": "double",
        "n_events": "int64",
    },
    "top_users_by_events": {
        "user_id": "int64",
        "n_events": "int64",
    },
    "customer_count_by_region": {
        "r_name": "object",
        "n_customers": "int64",
    },
    "lang_counts": {
        "lang": "object",
        "n_docs": "int64",
        "total_chars": "int64",
    },
    "part_brand_stats": {
        "p_brand": "object",
        "n_parts": "int64",
        "avg_price": "double",
    },
    "orders_by_month": {
        "month": "timestamp[s]",
        "n_orders": "int64",
        "total_price": "double",
    },
    "token_counts": {
        "doc_id": "int64",
        "n_tokens": "int64",
    },
    "dedup_exact": {
        "doc_id": "int64",
        "n_dups": "int64",
    },
    "corpus_prep": {
        "doc_id": "int64",
        "n_chars": "int64",
        "n_dups": "int64",
    },
    "doc_stats": {
        "doc_id": "int64",
        "n_chars": "int64",
        "n_tokens": "int64",
        "n_lines": "int64",
    },
    "text_char_metrics": {
        "doc_id": "int64",
        "n_chars": "int64",
        "n_punct": "int64",
        "n_digits": "int64",
        "n_upper": "int64",
        "punct_ratio": "double",
        "digit_ratio": "double",
        "upper_ratio": "double",
    },
    "top_tokens": {
        "token": "object",
        "n": "int64",
    },
    "line_stats": {
        "doc_id": "int64",
        "n_lines": "int64",
        "n_distinct_lines": "int64",
        "dup_line_ratio": "double",
    },
    "knn_cosine_multi": {
        "query_id": "int64",
        "vec_id": "int64",
        "score": "double",
    },
    "value_percentiles_by_type": {
        "event_type": "string",
        "p25": "double",
        "p50": "double",
        "p90": "double",
        "n_events": "int64",
    },
    "value_quantiles_cont": {
        "event_type": "string",
        "p25": "double",
        "p50": "double",
        "p90": "double",
        "n_events": "int64",
    },
    "embedding_norms": {
        "vec_id": "int64",
        "n_dims": "int64",
        "l2_norm": "double",
    },
    "stratified_sample": {
        "doc_id": "int64",
        "lang": "object",
        "source": "object",
    },
    "knn_cosine": {
        "vec_id": "int64",
        "score": "double",
    },
    "extract_turns": {
        "conv_id": "string",
        "turn_idx": "int32",
        "role": "string",
        "tool": "string",
        "ts": "timestamp[us]",
        "md": "string",
        "spans": "list<item: struct<start: int64, end: int64, kind: string>>",
        "n_tokens": "int64",
        "status": "string",
        "error": "string",
    },
    "extract_turns_dual": {
        "conv_id": "string",
        "turn_idx": "int32",
        "role": "string",
        "tool": "string",
        "ts": "timestamp[us]",
        "md": "string",
        "spans": "list<item: struct<start: int64, end: int64, kind: string>>",
        "n_tokens": "int64",
        "status": "string",
        "error": "string",
        "md_original": "string",
    },
    "extract_documents": {
        "conv_id": "object",
        "n_turns": "int64",
        "doc_md": "object",
    },
    "dedup_minhash": {
        "doc_id": "int64",
    },
    "dedup_ngram": {
        "doc_id": "int64",
    },
    "dedup_simhash": {
        "doc_id": "int64",
    },
    "neardup_embedding": {
        "doc_id": "int64",
    },
    "text_quality": {
        "doc_id": "int64",
        "lang_pred": "string",
        "quality": "double",
        "n_tokens": "int64",
        "fingerprint": "int64",
    },
    "user_order_activity": {
        "id": "int64",
        "n_events": "int64",
        "n_orders": "int64",
    },
    "customer_balance_ntile": {
        "c_custkey": "int64",
        "tier": "int64",
    },
    "funnel_counts": {
        "step": "int64",
        "n_users": "int64",
    },
    "approx_distinct_users": {
        "approx_distinct_users": "int64",
    },
    "approx_value_quantiles": {
        "event_type": "object",
        "p50": "double",
        "p90": "double",
        "p99": "double",
    },
    "approx_top_users": {
        "user_id": "int64",
        "est_count": "int64",
        "max_err": "int64",
    },
    "approx_user_counts_cms": {
        "user_id": "int64",
        "est_count": "int64",
        "lower_count": "int64",
    },
    "chunk_documents": {
        "doc_id": "int64",
        "chunk_idx": "int64",
        "chunk_text": "object",
        "n_tokens": "int64",
    },
    "pack_documents": {
        "doc_id": "int64",
        "seq_id": "int64",
        "n_tokens": "int64",
    },
    "shuffle_documents": {
        "doc_id": "int64",
        "text": "string",
        "shuffle_key": "int64",
    },
    "sample_weighted": {
        "doc_id": "int64",
        "n_chars": "int64",
        "log_priority": "double",
    },
    "tfidf_top_terms": {
        "doc_id": "int64",
        "rank": "int64",
        "token": "object",
        "tfidf": "double",
    },
    "redact_pii": {
        "doc_id": "int64",
        "text_redacted": "string",
        "n_emails": "int64",
        "n_ips": "int64",
        "n_phones": "int64",
    },
    "repetition_stats": {
        "doc_id": "int64",
        "dup_2gram_frac": "double",
        "dup_3gram_frac": "double",
        "top_2gram_frac": "double",
    },
    "dedup_spans": {
        "doc_id": "int64",
        "text_deduped": "object",
        "n_spans_kept": "int64",
        "n_spans_dropped": "int64",
    },
    "neardup_clusters": {
        "doc_id": "int64",
        "cluster_id": "int64",
    },
    "dedup_minhash_incremental": {
        "doc_id": "int64",
    },
    "dedup_exact_incremental": {
        "doc_id": "int64",
        "n_dups": "int64",
        "evicted_doc_id": "int64",
    },
    "neardup_embedding_incremental": {
        "doc_id": "int64",
    },
    "embed_documents": {
        "vec_id": "int64",
        "embedding": "fixed_size_list<item: float>[64]",
    },
    "knn_cosine_ivf": {
        "vec_id": "int64",
        "score": "double",
    },
    "knn_cosine_ivf_indexed": {
        "vec_id": "int64",
        "score": "double",
    },
    "knn_cosine_ivf_appended": {
        "vec_id": "int64",
        "score": "double",
    },
    "payload_features": {
        "conv_id": "string",
        "turn_idx": "int32",
        "payload_id": "string",
        "kind": "string",
        "n_bytes": "int64",
        "feature": "fixed_size_list<item: double>[16]",
        "decode_status": "string",
    },
    "payload_resize": {
        "conv_id": "string",
        "turn_idx": "int32",
        "payload_id": "string",
        "payload_resized": "binary",
        "width": "int32",
        "height": "int32",
        "resize_status": "string",
    },
    "frame_sample": {
        "conv_id": "string",
        "turn_idx": "int32",
        "payload_id": "string",
        "frame_idx": "int32",
        "frame": "binary",
        "sample_status": "string",
    },
    "neardup_images": {
        "conv_id": "object",
        "turn_idx": "int32",
        "payload_id": "object",
        "dhash": "int64",
        "decode_status": "object",
    },
    "curate_corpus": {
        "scrub": "int64",
        "dedup": "int64",
        "spans": "int64",
        "order": "int64",
        "sequences": "int64",
    },
    "curate_increment": {
        "increment": "int64",
        "scrub": "int64",
        "kept": "int64",
        "spans": "int64",
        "order": "int64",
        "sequences": "int64",
        "evicted": "int64",
    },
}


def _norm(t) -> str:
    s = str(t)
    return "object" if s == "<class 'object'>" else s


def test_every_query_has_a_pinned_schema():
    assert set(entry_mod.queries()) == set(EXPECTED)


@pytest.mark.parametrize("name", list(EXPECTED))
def test_query_schema_pinned(name, run_query):
    res = run_query(name, SF_DIR)
    if isinstance(res, rd.Dataset):
        s = res.schema()
        got = {c: _norm(t) for c, t in zip(s.names, s.types)}
    elif isinstance(res, pd.DataFrame):
        got = {c: f"pandas:{res[c].dtype}" for c in res.columns}
    else:  # pyarrow.Table
        got = {f.name: str(f.type) for f in res.schema}
    assert got == EXPECTED[name]
