"""The keyed bucket shuffle (stages/joins.py:bucket_groups): every row
of a key reaches exactly one ``fn`` call, the result equals a pandas
groupby, and the bucket id a group sees is ``bucket_ids(key, n)`` — the
contract the persisted-index probes rely on to find their partition."""

import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data as rd

N_BUCKETS = 7


def _table(kind: str) -> tuple[pa.Table, list[str]]:
    rng = np.random.default_rng(3)
    n = 400
    ids = rng.integers(0, 60, n)
    v = rng.integers(0, 1000, n).astype(np.int64)
    if kind == "string":
        return pa.table({"k": pa.array([f"conv-{i}" for i in ids]),
                         "v": v}), ["k"]
    if kind == "int64":
        return pa.table({"k": pa.array(ids * 7_919 - 100, pa.int64()),
                         "v": v}), ["k"]
    if kind == "timestamp":
        ts = (np.datetime64("2024-01-01T00:00:00", "us")
              + ids.astype("timedelta64[h]"))
        return pa.table({"k": pa.array(ts, pa.timestamp("us")),
                         "v": v}), ["k"]
    # composite: (string, int64) — the assembler's salted key shape
    return pa.table({"k": pa.array([f"c{i % 9}" for i in ids]),
                     "s": pa.array(ids // 9, pa.int64()),
                     "v": v}), ["k", "s"]


def _expected_bucket(t: pa.Table, keys: list[str]) -> np.ndarray:
    from mistralocr_pdf2md_translator_ray.functions.hashing import bucket_ids

    col = (t[keys[0]] if len(keys) == 1 else pc.binary_join_element_wise(
        *[pc.cast(t[k], pa.string()) for k in keys], "\x1f"))
    return bucket_ids(col, N_BUCKETS).to_numpy()


def _blocks(t: pa.Table, fmt: str) -> "rd.Dataset":
    parts = [t.slice(i, 100) for i in range(0, t.num_rows, 100)]
    if fmt == "pandas":
        return rd.from_pandas([p.to_pandas() for p in parts])
    return rd.from_arrow(parts)


def _per_key(keys):
    from mistralocr_pdf2md_translator_ray.stages.joins import BUCKET_COL

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        call = uuid.uuid4().hex
        out = g.groupby(keys, as_index=False).agg(
            n=("v", "size"), total=("v", "sum"),
            bucket=(BUCKET_COL, "first"),
            buckets=(BUCKET_COL, "nunique"))
        out["call"] = call
        return out

    return fn


@pytest.mark.parametrize("fmt", ["arrow", "pandas"])
@pytest.mark.parametrize("kind", ["string", "int64", "timestamp",
                                  "composite"])
def test_bucket_groups_one_call_per_key_and_pandas_reference(
        kind, fmt, ray_session):
    from mistralocr_pdf2md_translator_ray.stages.joins import bucket_groups

    t, keys = _table(kind)
    got = bucket_groups(_blocks(t, fmt), keys if len(keys) > 1 else keys[0],
                        _per_key(keys), N_BUCKETS).to_pandas()

    # each key's rows reached exactly one fn call: the key shows up in
    # one output row only, and that row counts all of its rows
    assert not got.duplicated(keys).any()
    assert (got["buckets"] == 1).all()
    # a call sees whole buckets: no bucket id spans two calls
    assert got.groupby("bucket")["call"].nunique().max() == 1

    ref = t.to_pandas().groupby(keys, as_index=False).agg(
        n=("v", "size"), total=("v", "sum"))
    cmp = got[keys + ["n", "total"]].sort_values(keys) \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(
        cmp, ref.sort_values(keys).reset_index(drop=True),
        check_dtype=False)


@pytest.mark.parametrize("kind", ["string", "int64", "timestamp",
                                  "composite"])
def test_bucket_id_is_bucket_ids_of_key(kind, ray_session):
    from mistralocr_pdf2md_translator_ray.stages.joins import bucket_groups

    t, keys = _table(kind)
    exp = t.to_pandas()[keys].assign(bucket=_expected_bucket(t, keys)) \
        .drop_duplicates(keys)
    got = bucket_groups(_blocks(t, "arrow"), keys if len(keys) > 1
                        else keys[0], _per_key(keys), N_BUCKETS).to_pandas()
    m = got.merge(exp, on=keys, suffixes=("", "_exp"))
    assert len(m) == len(exp)
    assert (m["bucket"].astype("int64") == m["bucket_exp"]).all()


def test_with_bucket_matches_bucket_ids(ray_session):
    """The partition column the band index writes (``bb``) is the same
    hash the probes group on."""
    from mistralocr_pdf2md_translator_ray.stages.joins import with_bucket

    t, keys = _table("int64")
    got = with_bucket(_blocks(t, "arrow"), "k", N_BUCKETS, "bb") \
        .to_pandas()
    exp = pd.DataFrame({"k": t["k"].to_numpy(),
                        "bb_exp": _expected_bucket(t, keys)}) \
        .drop_duplicates("k")
    m = got.merge(exp, on="k")
    assert (m["bb"] == m["bb_exp"]).all()


def test_one_call_per_shuffle_block_not_per_bucket(ray_session):
    """``fn`` runs once per sort output block, and the sort makes one
    output block per input block: 4 input blocks with 64 buckets give
    at most 4 calls, so most calls see several bucket ids in one
    frame. A return to one call per bucket fails here."""
    from mistralocr_pdf2md_translator_ray.stages.joins import bucket_groups

    t, keys = _table("string")
    ds = _blocks(t, "arrow")
    assert ds.num_blocks() == 4
    got = bucket_groups(ds, "k", _per_key(keys), 64).to_pandas()
    buckets_per_call = got.groupby("call")["bucket"].nunique()
    assert len(buckets_per_call) <= 4
    assert buckets_per_call.max() > 1
    assert got.groupby("bucket")["call"].nunique().max() == 1


def _strategy_case() -> pd.DataFrame:
    """One ``bucket_groups`` sum and one ``cogroup`` join of a tiny
    input, as one sorted frame."""
    from mistralocr_pdf2md_translator_ray.stages.joins import (
        bucket_groups, cogroup)

    rng = np.random.default_rng(5)
    t = pa.table({"k": pa.array(rng.integers(0, 50, 300), pa.int64()),
                  "v": pa.array(rng.integers(0, 100, 300), pa.int64())})
    u = pa.table({"k": pa.array(np.arange(50), pa.int64()),
                  "w": pa.array(np.arange(50) * 3, pa.int64())})

    def ds():
        return rd.from_arrow([t.slice(i, 100) for i in range(0, 300, 100)])

    sums = bucket_groups(
        ds(), "k", lambda g: g.groupby("k", as_index=False)["v"].sum(), 16)
    joined = cogroup(
        ds(), rd.from_arrow(u), on=["k"],
        merge_fn=lambda l, r: l.merge(r, on="k")[["k", "v", "w"]],
        left_schema=t.schema, right_schema=u.schema, num_buckets=16)
    a = sums.to_pandas().assign(part="sums")
    b = joined.to_pandas().assign(part="joined")
    return pd.concat([a, b], ignore_index=True)[["part", "k", "v", "w"]] \
        .sort_values(["part", "k", "v", "w"]).reset_index(drop=True)


_HASH_SHUFFLE_SCRIPT = r"""
import os
import sys

import ray
from ray.data import DataContext
from ray.data.context import ShuffleStrategy

ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
ctx = DataContext.get_current()
ctx.enable_progress_bars = False
ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
sys.path.insert(0, os.path.join(os.getcwd(), "tests"))
from test_joins import _strategy_case

_strategy_case().to_parquet(sys.argv[1])
ray.shutdown()
"""


class TestHashShuffleStrategy:
    """A session whose ``DataContext.shuffle_strategy`` is HASH_SHUFFLE
    must get the same groups: the helper sorts, and ``Dataset.sort``
    plans Ray's sort shuffle whatever the strategy (``map_groups``
    took the hash-aggregator route there). Runs in its own Ray session
    in a subprocess; on timeout the whole process group (script,
    raylet, GCS, workers) is killed so nothing outlives the test."""

    TIMEOUT_S = 120

    def test_hash_shuffle_matches_default(self, tmp_path, ray_session):
        import os
        import signal
        import subprocess
        import sys

        out = str(tmp_path / "hash.parquet")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = subprocess.Popen(
            [sys.executable, "-c", _HASH_SHUFFLE_SCRIPT, out],
            cwd=root, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            start_new_session=True)
        try:
            log, _ = proc.communicate(timeout=self.TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("bucket_groups/cogroup under HASH_SHUFFLE did not "
                        f"finish in {self.TIMEOUT_S} s")
        assert proc.returncode == 0, log.decode(errors="replace")[-4000:]
        exp = _strategy_case()
        assert (exp["part"] == "joined").sum() == 300
        pd.testing.assert_frame_equal(pd.read_parquet(out), exp)
