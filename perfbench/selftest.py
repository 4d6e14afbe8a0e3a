#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks (no Ray).

    python3 perfbench/selftest.py

Builds a correct output for each check (the engine's single-process
pure-function oracle for the transcript checks, DuckDB for the table
checks, hand-made lineage for the resume check), asserts the check
accepts it, then feeds it corrupted copies (a dropped row, two turns
swapped, a changed aggregate, a kept duplicate, a recomputed untouched
partition, and more) and asserts the check refuses each one. Also
asserts that BENCHMARK.json names exactly the metrics run.py prints.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

import pyarrow.parquet as pq  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402

results: list[tuple[str, bool]] = []


def expect(name: str, problems: list[str], refused: bool) -> None:
    ok = bool(problems) == refused
    results.append((name, ok))
    verdict = "refused" if problems else "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}"
          + (f" ({problems[0]})" if problems else ""))


def transcript_checks() -> None:
    from mistralocr_pdf2md_translator_ray.pipelines.oracle import (
        oracle_assemble,
        oracle_extract_turns,
    )

    t, p, truth = gen.transcripts(3, 2_500, 30, hot_share=0.5)
    turns = oracle_extract_turns(t, p)
    df = turns.to_pandas()
    expect("turns: correct output", checks.check_turns(df, truth), False)

    expect("turns: dropped row",
           checks.check_turns(df.drop(index=17), truth), True)

    def edit(pred, fn):
        bad = df.copy()
        i = next(i for i, (c, k) in enumerate(zip(bad.conv_id, bad.turn_idx))
                 if pred(truth[(c, int(k))]))
        bad.at[i, "md"] = fn(bad.at[i, "md"], bad.conv_id[i], int(bad.turn_idx[i]))
        return bad

    def boiler(md, conv, turn):
        return md + f" bp{int(conv[1:])}x{turn}q"

    expect("turns: HTML boilerplate kept",
           checks.check_turns(edit(lambda x: x["tool"] == "html", boiler), truth), True)

    def swap_spans(md, conv, turn):
        a, b = f"ly{int(conv[1:])}x{turn}n0q", f"ly{int(conv[1:])}x{turn}n1q"
        return md.replace(a, "\0").replace(b, a).replace("\0", b)

    expect("turns: layout spans swapped",
           checks.check_turns(edit(lambda x: x["n_layout"] >= 2, swap_spans), truth), True)

    def unsplice(md, conv, turn):
        pid = truth[(conv, turn)]["pids"][0]
        return md.replace(checks.payload_marker(pid), "")

    expect("turns: payload not spliced",
           checks.check_turns(edit(lambda x: bool(x["pids"]), unsplice), truth), True)

    def unerror(md, conv, turn):
        return md.replace("invalid payload", "valid payload")

    expect("turns: broken payload spliced as data",
           checks.check_turns(edit(lambda x: bool(x["bad_pids"]), unerror), truth), True)

    bad = df.copy()
    i = next(i for i, s in enumerate(bad.status) if s == "error")
    bad.at[i, "status"] = "ok"
    expect("turns: error status lost", checks.check_turns(bad, truth), True)

    docs = oracle_assemble(turns).to_pandas()
    files = {c: checks.rewrite_links(m, c) for c, m in zip(docs.conv_id, docs.doc_md)}
    expect("documents: correct output",
           checks.check_documents(docs, files, truth), False)

    swapped = docs.copy()
    c = swapped.conv_id[0]
    a, b = checks.marker(c, 3), checks.marker(c, 4)
    swapped.at[0, "doc_md"] = (swapped.doc_md[0].replace(a, "\0")
                               .replace(b, a).replace("\0", b))
    files_sw = {**files, c: checks.rewrite_links(swapped.doc_md[0], c)}
    expect("documents: two turns swapped",
           checks.check_documents(swapped, files_sw, truth), True)

    counted = docs.copy()
    counted.at[1, "n_turns"] = counted.n_turns[1] + 1
    expect("documents: changed n_turns",
           checks.check_documents(counted, files, truth), True)

    expect("documents: dropped document",
           checks.check_documents(docs.drop(index=2), files, truth), True)

    c = next(c for c, m in zip(docs.conv_id, docs.doc_md) if "![img-" in m)
    raw = dict(files, **{c: docs.set_index("conv_id").doc_md[c]})
    expect("documents: .md links not rewritten",
           checks.check_documents(docs, raw, truth), True)


def table_checks() -> None:
    import workloads

    with tempfile.TemporaryDirectory() as sf:
        gen.tables(5, 2_000, 3_000, 400, sf)
        want, _walls = workloads.duckdb_answers(
            sf, {"q1_pricing_summary": workloads.QUERIES["q1_pricing_summary"],
                 "exact": workloads.EXACT_SQL})
        docs = pq.read_table(os.path.join(sf, "documents.parquet"))
    q1 = want["q1_pricing_summary"]
    expect("tables: correct query", checks.check_table("q1", q1.copy(), q1), False)
    bad = q1.copy()
    bad.at[0, "count_order"] += 1
    expect("tables: changed aggregate", checks.check_table("q1", bad, q1), True)
    expect("tables: dropped row", checks.check_table("q1", q1.drop(index=0), q1), True)

    exact = want["exact"]
    bad = exact.copy()
    bad.at[3, "n_dups"] += 1
    expect("tables: exact index changed", checks.check_table("exact", bad, exact), True)

    kept = [int(d) for d in exact["doc_id"]]
    expect("tables: minhash kept correct",
           checks.check_minhash_kept(kept, kept, docs), False)
    text = dict(zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()))
    kept_set = set(kept)
    dup = next(d for d in text if d not in kept_set and text[d] in
               {text[k] for k in kept})
    expect("tables: minhash kept a duplicate",
           checks.check_minhash_kept(kept + [dup], kept + [dup], docs), True)
    expect("tables: minhash kept set differs",
           checks.check_minhash_kept(kept[1:], kept, docs), True)


def resume_checks() -> None:
    lineage = {p: (100 + p, f"{p:016x}") for p in range(16)}
    removed = {1, 6, 11, 14}
    before = {p: {"a.parquet": (p, 1, 10)} for p in range(16) if p not in removed}
    after = {p: {"a.parquet": (p, 1, 10)} for p in range(16)}
    for p in removed:
        after[p] = {"b.parquet": (100 + p, 2, 10)}
    n = sum(v[0] for v in lineage.values())
    expect("resume: correct", checks.check_resume(
        lineage, dict(lineage), "d", "d", before, after, removed, n), False)
    touched = {**after, 0: {"a.parquet": (0, 3, 10)}}
    expect("resume: recomputed untouched partition", checks.check_resume(
        lineage, dict(lineage), "d", "d", before, touched, removed, n), True)
    expect("resume: lineage hash differs", checks.check_resume(
        lineage, {**lineage, 6: (106, "x")}, "d", "d", before, after, removed, n), True)
    expect("resume: docs differ", checks.check_resume(
        lineage, dict(lineage), "d", "e", before, after, removed, n), True)
    expect("resume: a removed partition not rewritten", checks.check_resume(
        lineage, dict(lineage), "d", "d", {**before, 1: after[1]}, after, removed, n),
        True)


def benchmark_json() -> None:
    import run

    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    ok = e2e == run.END_TO_END and layers == run.PER_LAYER
    results.append(("BENCHMARK.json matches run.py", ok))
    print(f"{'ok  ' if ok else 'FAIL'} BENCHMARK.json names the metrics run.py prints")
    from workloads import WORKLOADS

    ok = {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    results.append(("BENCHMARK.json workloads", ok))
    print(f"{'ok  ' if ok else 'FAIL'} BENCHMARK.json names the workloads")


if __name__ == "__main__":
    transcript_checks()
    table_checks()
    resume_checks()
    benchmark_json()
    bad = [n for n, ok in results if not ok]
    print(f"{len(results) - len(bad)}/{len(results)} expectations held")
    sys.exit(1 if bad else 0)
