"""Driver-contract conformance: every queries() entry with an
oracle_sql() runs against DuckDB on sf0.001 (fast local mirror of the
driver's sf0.01 check — same comparison semantics: sorted columns,
order-insensitive rows)."""

import duckdb
import numpy as np
import pandas as pd
import pytest

import __ray_entry__ as entry_mod

SF_DIR = "/root/testdata/sf0.001"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


@pytest.fixture(scope="session")
def ddb():
    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{SF_DIR}/{t}.parquet'")
    return con


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


def _to_pandas(res) -> pd.DataFrame:
    if hasattr(res, "to_pandas"):
        return res.to_pandas()
    return pd.DataFrame(res)


SQL_QUERIES = sorted(entry_mod.oracle_sql().keys())


def test_oracle_queries_inside_driver_window():
    """The driver SQL-checks only a bounded prefix (50 in round 3) of
    queries(); every oracle-backed entry must precede the rows-only
    tail or its green correctness row silently disappears (lost
    knn_cosine in round 3). The oracle set is capped at the window size
    (adding a 51st SQL query needs a deliberate trade), and the
    flagship extraction leads the rows-only tail (its correctness gate
    is entry() + the pytest golden suite, not the driver's rows-only
    count)."""
    names = list(entry_mod.queries())
    sql = set(entry_mod.oracle_sql())
    assert len(sql) <= 50, "oracle set exceeds the driver's check window"
    assert sql <= set(names[:50]), sorted(sql - set(names[:50]))
    n_sql = len(sql)
    assert names[:n_sql] == [n for n in names[:n_sql] if n in sql], \
        "rows-only query interleaved before an oracle-backed one"
    assert names[n_sql] == "extract_turns"


@pytest.mark.parametrize("name", SQL_QUERIES)
def test_query_matches_oracle(name, ddb, ray_session):
    q = entry_mod.queries()[name]
    sql = entry_mod.oracle_sql()[name]
    got = _normalize(_to_pandas(q(SF_DIR)))
    exp = _normalize(ddb.sql(sql).df())
    assert list(got.columns) == list(exp.columns), (
        f"{name}: column mismatch {list(got.columns)} vs {list(exp.columns)}")
    assert len(got) == len(exp), f"{name}: row count {len(got)} vs {len(exp)}"
    pd.testing.assert_frame_equal(got, exp, check_dtype=False, check_exact=False,
                                  rtol=0, atol=1e-9)


ROWS_ONLY = sorted(set(entry_mod.queries()) - set(SQL_QUERIES))


@pytest.mark.parametrize("name", ROWS_ONLY)
def test_rows_only_queries_run(name, run_query):
    res = run_query(name, SF_DIR)
    df = _to_pandas(res)
    assert len(df) >= 0
    assert len(df.columns) >= 1


class TestMedianHistogramNarrowing:
    """The distributed histogram-narrowing median must equal the
    one-task-per-group path (and the DuckDB oracle) exactly."""

    def test_forced_histogram_path_matches_default(self, ddb, ray_session):
        from mistralocr_pdf2md_translator_ray.pipelines.library import (
            MEDIAN_VALUE_BY_TYPE_SQL,
            median_value_by_type,
        )

        # threshold 0 forces EVERY group through histogram narrowing
        got = _normalize(_to_pandas(
            median_value_by_type(SF_DIR, one_task_max_rows=0)))
        default = _normalize(_to_pandas(median_value_by_type(SF_DIR)))
        pd.testing.assert_frame_equal(got, default, check_dtype=False)
        exp = _normalize(ddb.sql(MEDIAN_VALUE_BY_TYPE_SQL).df())
        pd.testing.assert_frame_equal(got, exp, check_dtype=False,
                                      check_exact=True)

    def test_mixed_routing_matches(self, ddb, ray_session):
        """A threshold between the smallest and largest group size
        exercises BOTH paths in one query (union of the two parts)."""
        import duckdb

        from mistralocr_pdf2md_translator_ray.pipelines.library import (
            MEDIAN_VALUE_BY_TYPE_SQL,
            median_value_by_type,
        )

        sizes = duckdb.sql(
            f"SELECT count(*) AS n FROM '{SF_DIR}/events.parquet' "
            "GROUP BY event_type ORDER BY n"
        ).df()["n"]
        if len(sizes) < 2 or sizes.iloc[0] == sizes.iloc[-1]:
            pytest.skip("need heterogeneous group sizes")
        thresh = int(sizes.iloc[len(sizes) // 2])
        got = _normalize(_to_pandas(
            median_value_by_type(SF_DIR, one_task_max_rows=thresh)))
        exp = _normalize(ddb.sql(MEDIAN_VALUE_BY_TYPE_SQL).df())
        pd.testing.assert_frame_equal(got, exp, check_dtype=False,
                                      check_exact=True)

    def test_float_ord_key_roundtrip_and_order(self):
        import numpy as np

        from mistralocr_pdf2md_translator_ray.pipelines.library import (
            _float_from_ord_key,
            _float_ord_keys,
        )

        vals = np.array([-1e300, -3.5, -0.0, 0.0, 1e-12, 2.0, 7.25, 1e300])
        keys = _float_ord_keys(vals)
        assert (np.diff(keys.astype(np.uint64)) >= 0).all()
        back = np.array([_float_from_ord_key(int(k)) for k in keys])
        assert (back == vals).all()


class TestRevenueByNationPaths:
    def test_cogroup_path_matches_broadcast_path(self, ddb, ray_session):
        """Force the distributed customer co-group (threshold 0) and
        compare with the broadcast path and the SQL oracle."""
        from mistralocr_pdf2md_translator_ray.pipelines.library import (
            REVENUE_BY_NATION_SQL,
            revenue_by_nation,
        )

        bc = _normalize(_to_pandas(revenue_by_nation(SF_DIR)))
        cg = _normalize(_to_pandas(
            revenue_by_nation(SF_DIR, broadcast_customer_max_rows=0)))
        pd.testing.assert_frame_equal(bc, cg, check_dtype=False)
        exp = _normalize(ddb.sql(REVENUE_BY_NATION_SQL).df())
        pd.testing.assert_frame_equal(bc, exp, check_dtype=False,
                                      check_exact=True)


class TestMedianNarrowingAdversarial:
    def test_adversarial_distributions(self, tmp_path, ray_session):
        """Histogram narrowing must stay exact on duplicate-heavy,
        negative, denormal-adjacent, and huge-magnitude values — the
        regimes where float->key windowing or rank arithmetic could
        slip (duplicates concentrate a whole window in one bucket;
        negatives exercise the sign-flip key transform)."""
        import numpy as np
        import pyarrow as pa
        import pyarrow.parquet as pq2

        from mistralocr_pdf2md_translator_ray.pipelines.library import (
            median_value_by_type,
        )

        rng = np.random.default_rng(23)
        groups = {
            "all_equal": np.full(5000, 3.25),
            "two_point": np.where(rng.random(5000) < 0.7, -1.5, 42.0),
            "negatives": -rng.lognormal(2, 3, 5000),
            "huge": rng.uniform(-1e300, 1e300, 5000),
            "tiny": rng.uniform(-1e-300, 1e-300, 5001),
        }
        types, values = [], []
        for et, vals in groups.items():
            types.extend([et] * len(vals))
            values.extend(vals.tolist())
        d = tmp_path / "adv"
        d.mkdir()
        pq2.write_table(pa.table({
            "event_type": pa.array(types, pa.string()),
            "value": pa.array(values, pa.float64()),
        }), str(d / "events.parquet"))

        got = (median_value_by_type(str(d), one_task_max_rows=0)
               .to_pandas().set_index("event_type"))
        for et, vals in groups.items():
            v = np.sort(vals)
            expect = float(v[(len(v) - 1) // 2])
            assert got.loc[et, "median_value"] == expect, et
            assert int(got.loc[et, "n_events"]) == len(vals)


class TestPercentileNarrowing:
    def test_forced_narrowing_matches_default_and_oracle(self, ddb,
                                                         ray_session):
        from mistralocr_pdf2md_translator_ray.pipelines.library import (
            VALUE_PERCENTILES_SQL,
            value_percentiles_by_type,
        )

        got = _normalize(_to_pandas(
            value_percentiles_by_type(SF_DIR, one_task_max_rows=0)))
        default = _normalize(_to_pandas(value_percentiles_by_type(SF_DIR)))
        pd.testing.assert_frame_equal(got, default, check_dtype=False)
        exp = _normalize(ddb.sql(VALUE_PERCENTILES_SQL).df())
        pd.testing.assert_frame_equal(got, exp, check_dtype=False,
                                      check_exact=True)


class TestQuantileContNarrowing:
    def test_forced_narrowing_matches_default_and_oracle(self, ddb,
                                                         ray_session):
        """The interpolated (quantile_cont) grouped quantiles must agree
        between the one-task-sort path and the histogram-narrowing path
        that selects BOTH bracketing order statistics distributed, and
        both must match DuckDB bitwise (the lerp formula is pinned —
        see value_quantiles_cont's docstring)."""
        from mistralocr_pdf2md_translator_ray.pipelines.library import (
            VALUE_QUANTILES_CONT_SQL,
            value_quantiles_cont,
        )

        got = _normalize(_to_pandas(
            value_quantiles_cont(SF_DIR, one_task_max_rows=0)))
        default = _normalize(_to_pandas(value_quantiles_cont(SF_DIR)))
        pd.testing.assert_frame_equal(got, default, check_dtype=False)
        exp = _normalize(ddb.sql(VALUE_QUANTILES_CONT_SQL).df())
        pd.testing.assert_frame_equal(got, exp, check_dtype=False,
                                      check_exact=True)


class TestShippingPriorityPaths:
    def test_cogroup_path_matches_broadcast_path(self, ddb, ray_session):
        """Force the distributed customer-key co-group (gate 0) and
        compare with the broadcast semi-join path and the SQL oracle."""
        from mistralocr_pdf2md_translator_ray.pipelines.library import (
            SHIPPING_PRIORITY_SQL,
            shipping_priority,
        )

        bc = _normalize(_to_pandas(shipping_priority(SF_DIR)))
        cg = _normalize(_to_pandas(
            shipping_priority(SF_DIR, broadcast_customer_max_rows=0)))
        pd.testing.assert_frame_equal(bc, cg, check_dtype=False)
        exp = _normalize(ddb.sql(SHIPPING_PRIORITY_SQL).df())
        pd.testing.assert_frame_equal(bc, exp, check_dtype=False,
                                      check_exact=True)


class TestShippingPriorityTiebreak:
    def test_planted_revenue_tie(self, tmp_path, ray_session):
        """Two orders with IDENTICAL revenue must order by
        (o_orderdate, l_orderkey) — the full SQL tiebreak, applied both
        in the per-bucket prune and the final global sort."""
        import duckdb
        import numpy as np
        import pyarrow as pa
        import pyarrow.parquet as pq2

        from mistralocr_pdf2md_translator_ray.pipelines.library import (
            SHIPPING_PRIORITY_SQL,
            shipping_priority,
        )

        d = tmp_path / "tie"
        d.mkdir()
        n_ord = 30
        cust = pa.table({
            "c_custkey": pa.array(range(10), pa.int64()),
            "c_mktsegment": pa.array(["BUILDING"] * 10, pa.string()),
        })
        ts = np.datetime64("1996-01-01", "us")
        orders = pa.table({
            "o_orderkey": pa.array(range(n_ord), pa.int64()),
            "o_custkey": pa.array([i % 10 for i in range(n_ord)], pa.int64()),
            # half the orders share one date -> date ties fall to orderkey
            "o_orderdate": pa.array(
                [ts + np.timedelta64(i % 2, "D") for i in range(n_ord)],
                pa.timestamp("us")),
            "o_orderpriority": pa.array(["1-URGENT"] * n_ord, pa.string()),
        })
        # every order: one line item with the SAME revenue -> all tie
        li = pa.table({
            "l_orderkey": pa.array(range(n_ord), pa.int64()),
            "l_extendedprice": pa.array([1000.0] * n_ord, pa.float64()),
            "l_discount": pa.array([0.0] * n_ord, pa.float64()),
            "l_shipdate": pa.array(
                [np.datetime64("1999-01-01", "us")] * n_ord,
                pa.timestamp("us")),
        })
        pq2.write_table(cust, str(d / "customer.parquet"))
        pq2.write_table(orders, str(d / "orders.parquet"))
        pq2.write_table(li, str(d / "lineitem.parquet"))

        got = _normalize(_to_pandas(shipping_priority(str(d))))
        con = duckdb.connect()
        for t in ["customer", "orders", "lineitem"]:
            con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{d}/{t}.parquet'")
        exp = _normalize(con.sql(SHIPPING_PRIORITY_SQL).df())
        con.close()
        assert len(got) == 10
        pd.testing.assert_frame_equal(got, exp, check_dtype=False,
                                      check_exact=True)


class TestChunkPack:
    """Training-sequence prep: sliding-window chunking + greedy packing
    (functions/chunking.py kernels; the Ray queries are rows-only)."""

    def test_window_invariants(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from mistralocr_pdf2md_translator_ray.functions.chunking import chunk_windows

        @settings(max_examples=200, deadline=None)
        @given(n=st.integers(0, 5000), mt=st.integers(1, 200),
               data=st.data())
        def prop(n, mt, data):
            ov = data.draw(st.integers(0, mt - 1))
            wins = chunk_windows(n, mt, ov)
            if n == 0:
                assert wins == []
                return
            assert wins[0][0] == 0 and wins[-1][1] == n
            for (s1, e1), (s2, e2) in zip(wins, wins[1:]):
                assert e1 - s1 == mt          # only the last may be short
                assert e1 - s2 == ov          # exact overlap
                assert s2 > s1
            for s, e in wins:
                assert 0 < e - s <= mt

        prop()

    def test_chunk_query_matches_reference(self, ray_session):
        """The Ray fan-out must byte-equal a straightforward
        per-document reference over the real corpus slice."""
        import pyarrow.parquet as pq2

        from mistralocr_pdf2md_translator_ray.functions.chunking import chunk_doc
        from mistralocr_pdf2md_translator_ray.pipelines.library import chunk_documents

        got = (chunk_documents(SF_DIR, max_tokens=32, overlap=4)
               .to_pandas().sort_values(["doc_id", "chunk_idx"])
               .reset_index(drop=True))
        t = pq2.read_table(f"{SF_DIR}/documents.parquet",
                           columns=["doc_id", "text"])
        rows = []
        for doc_id, text in zip(t["doc_id"].to_pylist(),
                                t["text"].to_pylist()):
            for i, c in enumerate(chunk_doc(text, 32, 4)):
                rows.append((doc_id, i, c, len(c.split())))
        exp = pd.DataFrame(rows, columns=["doc_id", "chunk_idx",
                                          "chunk_text", "n_tokens"])
        exp = exp.sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        assert (got["n_tokens"] <= 32).all()

    def test_pack_invariants_and_determinism(self, ray_session):
        import pyarrow.parquet as pq2

        from mistralocr_pdf2md_translator_ray.pipelines.library import pack_documents

        budget = 96
        got = (pack_documents(SF_DIR, seq_tokens=budget)
               .to_pandas().sort_values("doc_id").reset_index(drop=True))
        n_docs = pq2.ParquetFile(
            f"{SF_DIR}/documents.parquet").metadata.num_rows
        # every document exactly once
        assert len(got) == n_docs
        assert got["doc_id"].is_unique
        # budget respected unless a sequence is a single oversized doc
        fills = got.groupby("seq_id").agg(total=("n_tokens", "sum"),
                                          n=("doc_id", "size"))
        bad = fills[(fills["total"] > budget) & (fills["n"] > 1)]
        assert bad.empty, bad
        # deterministic across runs
        again = (pack_documents(SF_DIR, seq_tokens=budget)
                 .to_pandas().sort_values("doc_id").reset_index(drop=True))
        pd.testing.assert_frame_equal(got, again)

    def test_pack_greedy_kernel(self):
        import numpy as np

        from mistralocr_pdf2md_translator_ray.functions.chunking import pack_greedy

        seq = pack_greedy(np.array([50, 50, 50, 200, 10, 10]), 100)
        assert seq.tolist() == [0, 0, 1, 2, 3, 3]
        # oversized doc gets its own sequence, then packing resumes
        seq = pack_greedy(np.array([300, 10]), 100)
        assert seq.tolist() == [0, 1]
        assert pack_greedy(np.array([], dtype=np.int64), 100).tolist() == []


class TestFullOuterJoin:
    """user_order_activity: exact FULL OUTER JOIN parity vs DuckDB
    (rows-only in the driver window — the oracle set is capped at 50 —
    so the SQL check lives here), plus the one-sided-key contract."""

    def test_matches_duckdb_full_outer(self, ddb, ray_session):
        from mistralocr_pdf2md_translator_ray.pipelines.library import (
            USER_ORDER_ACTIVITY_SQL,
            user_order_activity,
        )

        got = _normalize(_to_pandas(user_order_activity(SF_DIR)))
        exp = _normalize(ddb.sql(USER_ORDER_ACTIVITY_SQL).df())
        pd.testing.assert_frame_equal(got, exp, check_dtype=False,
                                      check_exact=True)
        # the data genuinely exercises the outer fill on one side
        assert (got["n_events"] == 0).any(), "no order-only keys at this SF"

    def test_planted_one_sided_both_directions(self, tmp_path, ray_session):
        import pyarrow as pa
        import pyarrow.parquet as pq2

        from mistralocr_pdf2md_translator_ray.pipelines.library import (
            user_order_activity,
        )

        d = tmp_path / "fo"
        d.mkdir()
        pq2.write_table(pa.table({
            "user_id": pa.array([1, 1, 2], pa.int64())}),
            str(d / "events.parquet"))
        pq2.write_table(pa.table({
            "o_custkey": pa.array([2, 3, 3, 3], pa.int64())}),
            str(d / "orders.parquet"))
        got = {r["id"]: r for r in user_order_activity(str(d)).take_all()}
        assert got[1]["n_events"] == 2 and got[1]["n_orders"] == 0
        assert got[2]["n_events"] == 1 and got[2]["n_orders"] == 1
        assert got[3]["n_events"] == 0 and got[3]["n_orders"] == 3


class TestShuffleDocuments:
    """Deterministic seeded global shuffle: permutation, reproducibility,
    seed sensitivity, dispersion, and key-mixer injectivity."""

    def test_permutation_and_determinism(self, ray_session):
        from mistralocr_pdf2md_translator_ray.pipelines.library import (
            shuffle_documents,
        )

        got = shuffle_documents(SF_DIR, seed=7).to_pandas()
        src = pd.read_parquet(f"{SF_DIR}/documents.parquet",
                              columns=["doc_id", "text"])
        # exact permutation: same multiset of (doc_id, text)
        assert sorted(got["doc_id"]) == sorted(src["doc_id"])
        merged = got.merge(src, on="doc_id", suffixes=("", "_src"))
        assert (merged["text"] == merged["text_src"]).all()
        # output arrives sorted by the key (range shuffle contract)
        keys = got["shuffle_key"].to_numpy()
        assert (keys[:-1] <= keys[1:]).all()
        # bit-stable across runs: identical order
        again = shuffle_documents(SF_DIR, seed=7).to_pandas()
        pd.testing.assert_frame_equal(got, again)

    def test_seed_changes_order_and_disperses(self, ray_session):
        from mistralocr_pdf2md_translator_ray.pipelines.library import (
            shuffle_documents,
        )

        a = shuffle_documents(SF_DIR, seed=0).to_pandas()["doc_id"].to_numpy()
        b = shuffle_documents(SF_DIR, seed=1).to_pandas()["doc_id"].to_numpy()
        assert not (a == b).all()
        # dispersion: sequential doc_ids must not stay adjacent (a sorted
        # or near-identity order would leave most successors at +1)
        adjacent = (np.diff(a) == 1).mean()
        assert adjacent < 0.05, adjacent

    def test_splitmix64_injective_on_range(self):
        from mistralocr_pdf2md_translator_ray.functions.sketch import hash64

        ids = np.arange(200_000, dtype=np.uint64)
        keys = hash64(ids)
        assert len(np.unique(keys)) == len(ids)
        # and deterministic (pinned constant so upgrades can't drift):
        assert int(hash64(np.array([42], dtype=np.uint64))[0]) == \
            int(np.uint64(13679457532755275413))


class TestFunnel:
    """funnel_counts: exact DuckDB parity (rows-only in the driver
    window) and ordered-semantics pinning on a planted table."""

    def test_matches_duckdb(self, ddb, ray_session):
        from mistralocr_pdf2md_translator_ray.pipelines.library import (
            FUNNEL_COUNTS_SQL,
            funnel_counts,
        )

        got = funnel_counts(SF_DIR).to_pandas().reset_index(drop=True)
        exp = ddb.sql(FUNNEL_COUNTS_SQL).df()
        pd.testing.assert_frame_equal(got, exp, check_dtype=False,
                                      check_exact=True)
        assert got.loc[0, "n_users"] >= got.loc[1, "n_users"] >= \
            got.loc[2, "n_users"]  # funnels only narrow

    def test_no_matching_events_zero_fills(self, tmp_path, ray_session):
        """Zero funnel-step events: the SQL oracle returns one row per
        step with n_users = 0; the grouped reduce would emit no blocks
        at all without the zero-seed union."""
        import pyarrow as pa
        import pyarrow.parquet as pq2

        from mistralocr_pdf2md_translator_ray.pipelines.library import (
            funnel_counts,
        )

        d = tmp_path / "nofunnel"
        d.mkdir()
        pq2.write_table(pa.table({
            "user_id": pa.array([1], pa.int64()),
            "ts": pa.array([np.datetime64("2024-01-01", "us")],
                           pa.timestamp("us")),
            "event_type": pa.array(["signup"], pa.string()),
        }), str(d / "events.parquet"))
        got = funnel_counts(str(d)).to_pandas()
        assert got["step"].tolist() == [1, 2, 3]
        assert got["n_users"].tolist() == [0, 0, 0]

    def test_order_matters(self, tmp_path, ray_session):
        import pyarrow as pa
        import pyarrow.parquet as pq2

        from mistralocr_pdf2md_translator_ray.pipelines.library import (
            funnel_counts,
        )

        def ts(s):
            return np.datetime64(f"2024-01-01T00:00:0{s}", "us")

        rows = [
            # user 1: full ordered funnel
            (1, ts(1), "view"), (1, ts(2), "click"), (1, ts(3), "purchase"),
            # user 2: purchase BEFORE the view -> stops at depth 2
            (2, ts(1), "purchase"), (2, ts(2), "view"), (2, ts(3), "click"),
            # user 3: click only -> never enters the funnel
            (3, ts(1), "click"),
            # user 4: click at the SAME instant as view -> strict '>'
            (4, ts(1), "view"), (4, ts(1), "click"),
        ]
        d = tmp_path / "funnel"
        d.mkdir()
        pq2.write_table(pa.table({
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[1] for r in rows],
                           pa.timestamp("us")),
            "event_type": pa.array([r[2] for r in rows], pa.string()),
        }), str(d / "events.parquet"))
        got = funnel_counts(str(d)).to_pandas().set_index("step")["n_users"]
        assert got[1] == 3   # users 1, 2, 4 viewed
        assert got[2] == 2   # users 1, 2 clicked after their view
        assert got[3] == 1   # only user 1 purchased after the click
        # forced iterative-frontier fallback: identical on the same table
        forced = funnel_counts(str(d), residency_max_rows=0) \
            .to_pandas().set_index("step")["n_users"]
        assert forced.tolist() == got.tolist()

    def test_forced_frontier_path_matches(self, ddb, ray_session):
        """The gate=0 route (iterative per-batch-minima + salted
        frontier join — no task holds one user's full event set) must
        equal both the bucket-residency path and the DuckDB oracle."""
        from mistralocr_pdf2md_translator_ray.pipelines.library import (
            FUNNEL_COUNTS_SQL,
            funnel_counts,
        )

        primary = funnel_counts(SF_DIR).to_pandas().reset_index(drop=True)
        forced = funnel_counts(SF_DIR, residency_max_rows=0) \
            .to_pandas().reset_index(drop=True)
        pd.testing.assert_frame_equal(forced, primary)
        exp = ddb.sql(FUNNEL_COUNTS_SQL).df()
        pd.testing.assert_frame_equal(forced, exp, check_dtype=False,
                                      check_exact=True)


class TestSessionizeWindowed:
    """The footer-gated window-compaction fallback for
    sessionize_events: per-(user, 30-min-window) summaries fully
    determine session structure (a break can never fall strictly
    inside a window), so residency drops from events to nonempty
    windows. Forced-gate equality vs the residency path + oracle,
    plus boundary-exact planted cases."""

    def test_forced_windowed_path_matches(self, ddb, ray_session):
        from mistralocr_pdf2md_translator_ray.pipelines.library import (
            SESSIONIZE_SQL,
            sessionize_events,
        )

        def norm(df):
            return df.sort_values(["user_id", "session_id"]) \
                .reset_index(drop=True)

        primary = norm(sessionize_events(SF_DIR).to_pandas())
        forced = norm(sessionize_events(
            SF_DIR, residency_max_rows=0).to_pandas())
        pd.testing.assert_frame_equal(forced, primary)
        exp = norm(ddb.sql(SESSIONIZE_SQL).df())
        pd.testing.assert_frame_equal(forced, exp, check_dtype=False,
                                      check_exact=True)

    def test_gap_boundaries_exact(self, tmp_path, ray_session):
        """Adjacent-window gap of exactly 30 min does NOT break
        (> semantics); 2-windows-apart always breaks; a burst inside
        one window never breaks."""
        import pyarrow as pa
        import pyarrow.parquet as pq2

        from mistralocr_pdf2md_translator_ray.pipelines.library import (
            sessionize_events,
        )

        base = np.datetime64("2024-01-01T00:00:00", "us")
        m = np.timedelta64(60, "s")
        rows = [
            # user 1: events at 0 and exactly +30min -> ONE session
            (1, base), (1, base + 30 * m),
            # user 2: events at 0 and +30min+1s -> TWO sessions
            (2, base), (2, base + 30 * m + np.timedelta64(1, "s")),
            # user 3: burst of 5 events inside one window -> ONE session
            *[(3, base + i * np.timedelta64(10, "s")) for i in range(5)],
            # user 4: 0, +29min, +58min: chained adjacent windows,
            # each gap 29min -> ONE session spanning 3 windows
            (4, base), (4, base + 29 * m), (4, base + 58 * m),
        ]
        d = tmp_path / "sessw"
        d.mkdir()
        pq2.write_table(pa.table({
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            "value": pa.array([1.0] * len(rows), pa.float64()),
        }), str(d / "events.parquet"))
        for gate in (500_000_000, 0):
            got = sessionize_events(str(d), residency_max_rows=gate) \
                .to_pandas().sort_values(["user_id", "session_id"])
            per_user = got.groupby("user_id")["session_id"].max()
            assert per_user[1] == 1, gate
            assert per_user[2] == 2, gate
            assert per_user[3] == 1, gate
            assert per_user[4] == 1, gate
            u3 = got[got["user_id"] == 3]
            assert u3["n_events"].tolist() == [5]


class TestNtile:
    """customer_balance_ntile: exact global NTILE without a global sort
    (boundary selection via histogram narrowing + custkey tie
    resolution). DuckDB parity incl. the pathological all-equal column
    where EVERY boundary resolves purely by custkey."""

    @staticmethod
    def _oracle(path, tiles):
        import duckdb

        return duckdb.sql(f"""
            SELECT c_custkey,
                   CAST(NTILE({tiles}) OVER (ORDER BY c_acctbal, c_custkey)
                        AS BIGINT) AS tier
            FROM '{path}' ORDER BY c_custkey""").df()

    def test_matches_duckdb(self, ray_session):
        from mistralocr_pdf2md_translator_ray.pipelines.library import (
            customer_balance_ntile,
        )

        got = customer_balance_ntile(SF_DIR).to_pandas() \
            .sort_values("c_custkey").reset_index(drop=True)
        exp = self._oracle(f"{SF_DIR}/customer.parquet", 4)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False,
                                      check_exact=True)

    def test_negative_balances_and_mixed_sign_parity(self, tmp_path,
                                                     ray_session):
        """Negative acctbals flip the ordered-key transform's sign path;
        mixed-sign input is also the regime where un-pinned kmin/kmax
        dtypes produced conflicting int64/uint64 Arrow blocks."""
        import pyarrow as pa
        import pyarrow.parquet as pq2

        from mistralocr_pdf2md_translator_ray.pipelines.library import (
            customer_balance_ntile,
        )

        rng = np.random.default_rng(5)
        n = 400
        d = tmp_path / "neg"
        d.mkdir()
        pq2.write_table(pa.table({
            "c_custkey": pa.array(np.arange(n), pa.int64()),
            "c_acctbal": pa.array(
                np.round(rng.uniform(-999.99, 9999.99, n), 2), pa.float64()),
        }), str(d / "customer.parquet"))
        got = customer_balance_ntile(str(d)).to_pandas() \
            .sort_values("c_custkey").reset_index(drop=True)
        exp = self._oracle(str(d / "customer.parquet"), 4)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False,
                                      check_exact=True)

    def test_key_stats_blocks_concat_across_signs(self):
        """The kmin/kmax dtype pin: an all-non-negative batch (keys >=
        2^63) and a negative-bearing batch must emit Arrow-compatible
        blocks — un-pinned, pandas infers uint64 vs int64 and the block
        concat fails only on multi-batch tables (masked at test SF)."""
        import pyarrow as pa

        from mistralocr_pdf2md_translator_ray.pipelines.library import (
            _float_ord_keys,
        )

        def key_stats_like(vals):
            k = _float_ord_keys(np.asarray(vals, dtype=np.float64))
            return pd.DataFrame({"kmin": [int(k.min())],
                                 "kmax": [int(k.max())]}).astype(
                {"kmin": "uint64", "kmax": "uint64"})

        pos = key_stats_like([1.5, 2.5])      # keys land above 2^63
        neg = key_stats_like([-3.0, 4.0])
        t = pa.concat_tables([pa.Table.from_pandas(pos),
                              pa.Table.from_pandas(neg)])
        assert t.num_rows == 2
        assert str(t.schema.field("kmin").type) == "uint64"

    def test_empty_table(self, tmp_path, ray_session):
        import pyarrow as pa
        import pyarrow.parquet as pq2

        from mistralocr_pdf2md_translator_ray.pipelines.library import (
            customer_balance_ntile,
        )

        d = tmp_path / "empty"
        d.mkdir()
        pq2.write_table(pa.table({
            "c_custkey": pa.array([], pa.int64()),
            "c_acctbal": pa.array([], pa.float64()),
        }), str(d / "customer.parquet"))
        ds = customer_balance_ntile(str(d))
        assert ds.schema().names == ["c_custkey", "tier"]
        assert ds.count() == 0

    @pytest.mark.parametrize("tiles", [1, 3, 4, 7])
    def test_all_equal_and_non_divisible(self, tmp_path, ray_session,
                                         tiles):
        import pyarrow as pa
        import pyarrow.parquet as pq2

        from mistralocr_pdf2md_translator_ray.pipelines.library import (
            customer_balance_ntile,
        )

        d = tmp_path / f"nt{tiles}"
        d.mkdir()
        n = 10  # non-divisible by 3, 4, 7
        pq2.write_table(pa.table({
            "c_custkey": pa.array(np.arange(100, 100 + n)[::-1].copy(),
                                  pa.int64()),
            "c_acctbal": pa.array(np.full(n, 5.25), pa.float64()),
        }), str(d / "customer.parquet"))
        got = customer_balance_ntile(str(d), tiles=tiles).to_pandas() \
            .sort_values("c_custkey").reset_index(drop=True)
        exp = self._oracle(str(d / "customer.parquet"), tiles)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False,
                                      check_exact=True)


class TestTfidfTopTerms:
    """tfidf_top_terms vs a straightforward Counter/math.log reference
    (identical float op order -> exact equality), plus min_df and
    tie-break pinning on a planted table."""

    @staticmethod
    def _reference(docs, k, min_df):
        import collections
        import math

        df = collections.Counter()
        tfs = {}
        for doc_id, text in docs:
            c = collections.Counter(text.split() if text else [])
            tfs[doc_id] = c
            df.update(c.keys())
        n = len(docs)
        out = {}
        for doc_id, c in tfs.items():
            scored = [(t, cnt * math.log(n / df[t]))
                      for t, cnt in c.items() if df[t] >= min_df]
            scored.sort(key=lambda ts: (-ts[1], ts[0]))
            if scored:
                out[doc_id] = scored[:k]
        return out

    @pytest.mark.parametrize("salted_min_rows", [1_000_000, 0],
                             ids=["small-path", "salted-path"])
    def test_matches_reference(self, ray_session, salted_min_rows):
        from mistralocr_pdf2md_translator_ray.pipelines.library import (
            tfidf_top_terms,
        )

        src = pd.read_parquet(f"{SF_DIR}/documents.parquet",
                              columns=["doc_id", "text"])
        ref = self._reference(
            list(zip(src["doc_id"], src["text"])), k=3, min_df=2)
        got = tfidf_top_terms(SF_DIR, k=3, min_df=2,
                              salted_min_rows=salted_min_rows).to_pandas()
        grouped = {d: [(r["token"], r["tfidf"])
                       for _, r in g.sort_values("rank").iterrows()]
                   for d, g in got.groupby("doc_id")}
        assert set(grouped) == set(ref)
        for d in ref:
            # np.log (SIMD) vs math.log (libm) differ by <= 1 ulp, so
            # scores compare at rel 1e-12; the RANKING must be exact
            # (ties share (tf, df) and break on token in both impls)
            assert [t for t, _ in grouped[d]] == [t for t, _ in ref[d]], d
            for (_, a), (_, b) in zip(grouped[d], ref[d]):
                assert a == pytest.approx(b, rel=1e-12), d

    def test_hot_stopword_corpus(self, tmp_path, ray_session):
        """Every document contains 'the' many times (the stopword-skew
        regime the salted round-B exists for): exact reference parity
        must hold, and the stopword's near-zero idf keeps it out of
        the top terms of docs with any distinctive shared vocabulary."""
        import pyarrow as pa
        import pyarrow.parquet as pq2

        from mistralocr_pdf2md_translator_ray.pipelines.library import (
            tfidf_top_terms,
        )

        d = tmp_path / "hotword"
        d.mkdir()
        n = 60
        texts = [f"the the the the shared{i % 3} shared{i % 3} only{i}"
                 for i in range(n)]
        pq2.write_table(pa.table({
            "doc_id": pa.array(np.arange(n), pa.int64()),
            "text": texts,
        }), str(d / "documents.parquet"))
        # force the salted regime — the one the hot token exists for
        got = tfidf_top_terms(str(d), k=2, min_df=2,
                              salted_min_rows=0).to_pandas()
        ref = self._reference(list(zip(range(n), texts)), k=2, min_df=2)
        grouped = {doc: [(r["token"], r["tfidf"])
                         for _, r in g.sort_values("rank").iterrows()]
                   for doc, g in got.groupby("doc_id")}
        assert set(grouped) == set(ref)
        for doc in ref:
            assert [t for t, _ in grouped[doc]] == \
                [t for t, _ in ref[doc]], doc
        # 'the' appears in every doc -> idf ln(1) = 0 -> never rank 1
        assert all(v[0][0] != "the" for v in grouped.values())

    def test_salted_path_preserves_large_doc_ids(self, tmp_path,
                                                 ray_session):
        """doc_ids above 2^53 are not float64-representable; the salted
        co-group must never null-fill (and so never float-coerce) the
        id column — the regression that motivated the full shared
        schema with explicit dummies."""
        import pyarrow as pa
        import pyarrow.parquet as pq2

        from mistralocr_pdf2md_translator_ray.pipelines.library import (
            tfidf_top_terms,
        )

        big = 2**53 + 1  # rounds to 2^53 through float64
        d = tmp_path / "bigid"
        d.mkdir()
        pq2.write_table(pa.table({
            "doc_id": pa.array([big, 7], pa.int64()),
            "text": ["alpha beta shared", "gamma delta shared"],
        }), str(d / "documents.parquet"))
        got = tfidf_top_terms(str(d), k=3, min_df=2,
                              salted_min_rows=0).to_pandas()
        assert big in set(got["doc_id"]), got["doc_id"].tolist()
        small = tfidf_top_terms(str(d), k=3, min_df=2).to_pandas()
        pd.testing.assert_frame_equal(
            got.sort_values(["doc_id", "rank"]).reset_index(drop=True),
            small.sort_values(["doc_id", "rank"]).reset_index(drop=True))

    def test_min_df_and_ties(self, tmp_path, ray_session):
        import pyarrow as pa
        import pyarrow.parquet as pq2

        from mistralocr_pdf2md_translator_ray.pipelines.library import (
            tfidf_top_terms,
        )

        d = tmp_path / "tfidf"
        d.mkdir()
        pq2.write_table(pa.table({
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            # "zz" and "aa" tie on (tf=1, df=2) in doc 1 -> token asc
            "text": ["zz aa unique1", "aa zz", "solo"],
        }), str(d / "documents.parquet"))
        got = tfidf_top_terms(str(d), k=2, min_df=2).to_pandas()
        one = got[got["doc_id"] == 1].sort_values("rank")
        assert one["token"].tolist() == ["aa", "zz"]  # tie -> lexicographic
        # hapax tokens (df=1) never appear; doc 3 has only a hapax
        assert "unique1" not in set(got["token"])
        assert 3 not in set(got["doc_id"])


class TestExplodeTfKernel:
    """The vectorized polars tokenize/explode kernel vs a
    straightforward Python-loop reference (the round-4 per-document
    loop it replaced), plus a full-BMP differential proving the
    tokenizer equals Python str.split() on every codepoint."""

    @staticmethod
    def _reference(df):
        rows = []
        for doc_id, text in zip(df["doc_id"], df["text"]):
            if not text:
                continue
            vc = pd.Series(text.split()).value_counts()
            for tok, tf in vc.items():
                rows.append((doc_id, tok, tf))
        return pd.DataFrame(rows, columns=["doc_id", "token", "tf"])

    def _check(self, df):
        from mistralocr_pdf2md_translator_ray.pipelines.library import (
            _explode_tf,
        )

        got = _explode_tf(df).sort_values(
            ["doc_id", "token"]).reset_index(drop=True)
        exp = self._reference(df).sort_values(
            ["doc_id", "token"]).reset_index(drop=True)
        if exp.empty:
            assert got.empty
            return
        pd.testing.assert_frame_equal(
            got.astype({"doc_id": "int64", "tf": "int64"}),
            exp.astype({"doc_id": "int64", "tf": "int64"}))

    def test_corpus_parity(self):
        src = pd.read_parquet(f"{SF_DIR}/documents.parquet",
                              columns=["doc_id", "text"])
        self._check(src)

    def test_edge_cases(self):
        self._check(pd.DataFrame({
            "doc_id": pd.Series([1, 2, 3, 4, 5], dtype="int64"),
            "text": ["", "   ", "a  b\t\nc a", "\x1cx\x1dy\x1ez\x1f",
                     "café café 　 full width"],
        }))

    def test_every_bmp_codepoint_matches_str_split(self):
        # one doc per codepoint, token boundaries decided by that char:
        # polars \S+ (plus the \x1c-\x1f translation) must agree with
        # Python str.split() on all of them
        chars = [chr(c) for c in range(1, 0x10000)
                 if not (0xD800 <= c <= 0xDFFF)]
        df = pd.DataFrame({
            "doc_id": pd.Series(range(len(chars)), dtype="int64"),
            "text": [f"a{c}b" for c in chars],
        })
        self._check(df)


class TestSampleWeighted:
    """Deterministic A-ES weighted sampling: exact reference parity
    (the priority function is the spec; this pins the distributed
    prune+sort machinery), determinism, and weight-proportional
    inclusion bias on a planted table."""

    @staticmethod
    def _reference(doc_ids, n_chars, k, seed):
        from mistralocr_pdf2md_translator_ray.functions.sketch import hash64

        seed_mix = hash64(np.array([seed], dtype=np.uint64))[0]
        u = (hash64(doc_ids.astype(np.uint64) ^ seed_mix)
             .astype(np.float64) + 1.0) / 2.0**64
        w = np.maximum(n_chars.astype(np.float64), 1.0)
        lp = np.log(u) / w
        order = np.lexsort((doc_ids, -lp))[:k]
        return doc_ids[order].tolist()

    def test_matches_reference(self, ray_session):
        from mistralocr_pdf2md_translator_ray.pipelines.library import (
            sample_weighted,
        )

        src = pd.read_parquet(f"{SF_DIR}/documents.parquet",
                              columns=["doc_id", "n_chars"])
        exp = self._reference(src["doc_id"].to_numpy(),
                              src["n_chars"].to_numpy(), 50, seed=3)
        got = sample_weighted(SF_DIR, k=50, seed=3).to_pandas()
        assert got["doc_id"].tolist() == exp
        again = sample_weighted(SF_DIR, k=50, seed=3).to_pandas()
        pd.testing.assert_frame_equal(got, again)

    def test_k_exceeds_n_returns_all(self, ray_session):
        from mistralocr_pdf2md_translator_ray.pipelines.library import (
            sample_weighted,
        )

        got = sample_weighted(SF_DIR, k=10_000).to_pandas()
        src = pd.read_parquet(f"{SF_DIR}/documents.parquet",
                              columns=["doc_id"])
        assert sorted(got["doc_id"]) == sorted(src["doc_id"])

    def test_inclusion_bias_follows_weights(self, tmp_path, ray_session):
        import pyarrow as pa
        import pyarrow.parquet as pq2

        from mistralocr_pdf2md_translator_ray.pipelines.library import (
            sample_weighted,
        )

        # 10 heavy docs (w=10000) among 90 light (w=50); k=20 of 100
        d = tmp_path / "ws"
        d.mkdir()
        n = 100
        w = np.where(np.arange(n) < 10, 10_000, 50).astype(np.int64)
        pq2.write_table(pa.table({
            "doc_id": pa.array(np.arange(n), pa.int64()),
            "n_chars": pa.array(w, pa.int64()),
        }), str(d / "documents.parquet"))
        heavy_hits = light_hits = 0
        for seed in range(20):
            ids = sample_weighted(str(d), k=20, seed=seed) \
                .to_pandas()["doc_id"].to_numpy()
            heavy_hits += (ids < 10).sum()
            light_hits += (ids >= 10).sum()
        # heavy docs are ~200x the weight: essentially always sampled
        assert heavy_hits >= 0.95 * 10 * 20, heavy_hits
        # per-doc inclusion rate: heavy >> light
        assert heavy_hits / 10 > 3 * light_hits / 90


class TestJoinSkew:
    def test_revenue_by_nation_under_extreme_key_skew(self, tmp_path,
                                                      ray_session):
        """One customer holding 60% of all orders (and one order holding
        25% of all line items) must not change results — hot KEYS stay
        one bucket's vectorized pandas merge by design
        (stages/joins.py); this pins that contract with data."""
        import duckdb
        import numpy as np
        import pyarrow as pa
        import pyarrow.parquet as pq2

        from mistralocr_pdf2md_translator_ray.pipelines.library import (
            revenue_by_nation,
        )

        rng = np.random.default_rng(31)
        d = tmp_path / "skew"
        d.mkdir()
        n_orders, n_li = 4000, 20000
        hot_order, hot_cust = 7, 3
        o_custkey = np.where(rng.random(n_orders) < 0.6, hot_cust,
                             rng.integers(1, 200, n_orders))
        pq2.write_table(pa.table({
            "o_orderkey": pa.array(np.arange(n_orders), pa.int64()),
            "o_custkey": pa.array(o_custkey.astype("int64")),
        }), str(d / "orders.parquet"))
        l_orderkey = np.where(rng.random(n_li) < 0.25, hot_order,
                              rng.integers(0, n_orders, n_li))
        pq2.write_table(pa.table({
            "l_orderkey": pa.array(l_orderkey.astype("int64")),
            "l_extendedprice": pa.array(rng.uniform(1, 1000, n_li)),
            "l_discount": pa.array(rng.uniform(0, 0.1, n_li).round(2)),
        }), str(d / "lineitem.parquet"))
        custkeys = np.unique(o_custkey)
        pq2.write_table(pa.table({
            "c_custkey": pa.array(custkeys.astype("int64")),
            "c_nationkey": pa.array((custkeys % 5).astype("int64")),
        }), str(d / "customer.parquet"))
        pq2.write_table(pa.table({
            "n_nationkey": pa.array(np.arange(5, dtype="int64")),
            "n_name": pa.array([f"NATION_{i}" for i in range(5)]),
        }), str(d / "nation.parquet"))

        sql = """
        SELECT n.n_name AS n_name,
               CAST(sum(CAST(floor(l.l_extendedprice * (1 - l.l_discount)
                    * 10000 + 0.5) AS BIGINT)) AS BIGINT) / 10000.0 AS revenue
        FROM 'LI' l JOIN 'OR' o ON l.l_orderkey = o.o_orderkey
        JOIN 'CU' c ON o.o_custkey = c.c_custkey
        JOIN 'NA' n ON c.c_nationkey = n.n_nationkey
        GROUP BY n.n_name
        """.replace("LI", str(d / "lineitem.parquet")) \
           .replace("OR", str(d / "orders.parquet")) \
           .replace("CU", str(d / "customer.parquet")) \
           .replace("NA", str(d / "nation.parquet"))
        exp = _normalize(duckdb.sql(sql).df())
        for threshold in (None, 0):  # broadcast path AND cogroup path
            kwargs = {} if threshold is None else {
                "broadcast_customer_max_rows": 0}
            got = _normalize(_to_pandas(revenue_by_nation(str(d), **kwargs)))
            pd.testing.assert_frame_equal(got, exp, check_dtype=False,
                                          check_exact=True)


class TestSemiAntiEmptyMerge:
    """A co-group block whose semi/anti merge keeps no customer is a
    typed empty Arrow table, which Ray sizes without a warning; the
    empty pandas frame it replaced logged "Error calculating size for
    column 'c_name'" on the ``ray.data`` logger."""

    @staticmethod
    def _size_warnings(caplog, block) -> list[str]:
        import logging

        from ray.data.block import BlockAccessor

        logger = logging.getLogger("ray.data")
        logger.addHandler(caplog.handler)
        try:
            caplog.clear()
            BlockAccessor.for_block(block).size_bytes()
        finally:
            logger.removeHandler(caplog.handler)
        return [r.getMessage() for r in caplog.records
                if "Error calculating size" in r.getMessage()]

    def test_empty_merge_is_typed_and_sized_silently(self, caplog):
        import pyarrow as pa

        from mistralocr_pdf2md_translator_ray.pipelines import library as lib

        ldf = pd.DataFrame({"c_custkey": [1, 2], "c_name": ["a", "b"]})
        rdf = pd.DataFrame({"c_custkey": [1, 2]})
        for anti, keep in ((True, rdf), (False, rdf.iloc[:0])):
            out = lib._semi_anti_merge(ldf, keep, anti=anti)
            assert out.num_rows == 0
            assert out.schema == pa.schema([("c_custkey", pa.int64()),
                                            ("c_name", pa.string())])
            assert self._size_warnings(caplog, out) == []
        # the check sees the warning the old empty pandas frame gave
        assert self._size_warnings(caplog, ldf.iloc[:0])

    def test_kept_rows_unchanged(self):
        from mistralocr_pdf2md_translator_ray.pipelines import library as lib

        ldf = pd.DataFrame({"c_custkey": [1, 2, 3], "c_name": ["a", "b", "c"]})
        rdf = pd.DataFrame({"c_custkey": [2]})
        assert lib._semi_anti_merge(ldf, rdf, anti=True).to_pylist() == [
            {"c_custkey": 1, "c_name": "a"}, {"c_custkey": 3, "c_name": "c"}]
        assert lib._semi_anti_merge(ldf, rdf, anti=False).to_pylist() == [
            {"c_custkey": 2, "c_name": "b"}]
