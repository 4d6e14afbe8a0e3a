"""bench.py's last stdout line: a summary short enough that a capture
of the output's tail still parses, with the full record in a file."""

import json

import bench


def _record(n_queries: int = 80) -> dict:
    queries = {"extract_turns": 14.2}
    for i in range(n_queries):
        queries[f"some_fairly_long_library_query_name_{i:02d}"] = \
            round(0.1 + (i * 37 % 80) / 10, 3)
    return {"metric": "headline extract_turns wall sec", "value": 14.2,
            "unit": "sec", "queries": queries, "sf": "/data/sf0.1",
            "num_cpus": 32, "corpus_turns": 1_440_000,
            "turns_per_sec": 101_408.5, "effective_cores_before": 27.3,
            "effective_cores_after": 25.9}


def test_summary_fits_and_names_the_slowest_queries(tmp_path):
    rec = _record()
    line = json.dumps(bench.summarize(rec, str(tmp_path / "r.json")))
    assert len(line) < bench.SUMMARY_MAX_CHARS
    got = json.loads(line)
    assert got["value"] == 14.2 and got["turns_per_sec"] == 101_408.5
    assert got["effective_cores_before"] == 27.3
    assert got["effective_cores_after"] == 25.9
    assert got["n_queries"] == 80
    assert got["record"] == str(tmp_path / "r.json")
    walls = {k: v for k, v in rec["queries"].items()
             if k != "extract_turns"}
    exp = sorted(walls.values(), reverse=True)[:bench.N_SLOWEST]
    assert list(got["slowest_queries"].values()) == exp
    assert all(walls[k] == v for k, v in got["slowest_queries"].items())
    # the keys the --scaling parent reads from each child's last line
    for k in ("value", "turns_per_sec", "corpus_turns"):
        assert k in got


def test_summary_drops_queries_before_passing_the_limit(tmp_path):
    rec = _record()
    rec["queries"] = {("q" * 200) + str(i): float(i) for i in range(80)}
    line = json.dumps(bench.summarize(rec, str(tmp_path / "r.json")))
    assert len(line) < bench.SUMMARY_MAX_CHARS
    assert 0 < len(json.loads(line)["slowest_queries"]) < bench.N_SLOWEST


def test_emit_writes_the_whole_record(tmp_path, monkeypatch, capsys):
    path = str(tmp_path / "rec.json")
    monkeypatch.setattr(bench, "RECORD_PATH", path)
    rec = _record()
    bench._emit(rec)
    with open(path) as f:
        assert json.load(f) == rec
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last)["record"] == path
