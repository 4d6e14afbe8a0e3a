"""Correctness checks, computed apart from the engine.

Each check takes plain Python / pandas / pyarrow values and returns a list
of problems (empty means the output is correct). They import nothing from
the engine, so ``selftest.py`` can feed them corrupted outputs directly.
"""

from __future__ import annotations

import re

import pandas as pd
import pyarrow as pa

_PLACEHOLDER = re.compile(r"!\[([A-Za-z0-9._-]+)\]\(\1\)")
MAX_REPORT = 5  # problems listed per check before "and N more"


def _cap(problems: list[str]) -> list[str]:
    if len(problems) > MAX_REPORT:
        return problems[:MAX_REPORT] + [f"... and {len(problems) - MAX_REPORT} more"]
    return problems


def _conv_num(conv: str) -> int:
    return int(conv[1:])


def marker(conv: str, turn: int) -> str:
    return f"mk{_conv_num(conv)}x{turn}q"


def payload_marker(pid: str) -> str:
    return f"pl{pid.split('-', 1)[1]}q"


def check_turns(out: pd.DataFrame, truth: dict) -> list[str]:
    """Per-turn output (conv_id, turn_idx, md, status) against the
    generator's truth table."""
    problems: list[str] = []
    keys = list(zip(out["conv_id"], out["turn_idx"].astype(int)))
    if len(keys) != len(set(keys)):
        problems.append(f"{len(keys) - len(set(keys))} duplicated (conv_id, turn_idx)")
    got, want = set(keys), set(truth)
    if got != want:
        problems.append(f"pairs differ: {len(want - got)} missing, "
                        f"{len(got - want)} unexpected")
    errors = set()
    for (conv, turn), md, status in zip(keys, out["md"], out["status"]):
        t = truth.get((conv, turn))
        if t is None:
            continue
        if status == "error":
            errors.add((conv, turn))
        ci = _conv_num(conv)
        if t["marked"] and marker(conv, turn) not in md:
            problems.append(f"{conv}/{turn}: content marker lost")
        if t["tool"] == "html" and f"bp{ci}x{turn}q" in md:
            problems.append(f"{conv}/{turn}: HTML boilerplate kept")
        pos = [md.find(f"ly{ci}x{turn}n{k}q") for k in range(t["n_layout"])]
        if any(p < 0 for p in pos) or pos != sorted(pos):
            problems.append(f"{conv}/{turn}: layout spans out of reading order")
        for pid in t["pids"]:
            at = md.find(f"![{pid}]({pid})")
            body = md.find(payload_marker(pid), max(at, 0))
            if at < 0 or body < 0:
                problems.append(f"{conv}/{turn}: payload {pid} not spliced")
            elif pid in t["bad_pids"] and md.find("invalid payload", at) < 0:
                problems.append(f"{conv}/{turn}: broken payload {pid} "
                                "not spliced as an error value")
    want_err = {k for k, t in truth.items() if t["malformed"]}
    if errors != want_err:
        problems.append(f"status=error on {len(errors)} rows, "
                        f"{len(want_err)} malformed rows written, "
                        f"{len(errors ^ want_err)} differ")
    return _cap(problems)


def rewrite_links(md: str, conv: str) -> str:
    return _PLACEHOLDER.sub(lambda m: f"![{m.group(1)}](assets/{conv}/{m.group(1)}.bin)", md)


def check_documents(docs: pd.DataFrame, md_files: dict[str, str],
                    truth: dict) -> list[str]:
    """Whole documents (conv_id, n_turns, doc_md) plus the exported
    ``<conv>.md`` files against the generator's truth table."""
    problems: list[str] = []
    turns_per_conv: dict[str, int] = {}
    marked: dict[str, list[int]] = {}
    for (conv, turn), t in sorted(truth.items()):
        turns_per_conv[conv] = turns_per_conv.get(conv, 0) + 1
        if t["marked"]:
            marked.setdefault(conv, []).append(turn)
    convs = list(docs["conv_id"])
    if len(convs) != len(set(convs)) or set(convs) != set(turns_per_conv):
        problems.append(f"{len(convs)} documents for {len(turns_per_conv)} "
                        f"conversations ({len(set(convs))} distinct)")
    for conv, n, md in zip(convs, docs["n_turns"], docs["doc_md"]):
        want = turns_per_conv.get(conv)
        if want is None:
            continue
        if int(n) != want:
            problems.append(f"{conv}: n_turns {n} != {want}")
        pos = [md.find(marker(conv, t)) for t in marked.get(conv, [])]
        if any(p < 0 for p in pos) or pos != sorted(pos):
            problems.append(f"{conv}: turn markers missing or out of turn order")
        if md_files.get(conv) != rewrite_links(md, conv):
            problems.append(f"{conv}: .md file differs from its document "
                            "with links rewritten")
    if set(md_files) != set(turns_per_conv):
        problems.append(f"{len(md_files)} .md files for "
                        f"{len(turns_per_conv)} conversations")
    return _cap(problems)


def check_resume(full_lineage: dict, resumed_lineage: dict,
                 full_docs: str, resumed_docs: str,
                 files_before: dict, files_after: dict,
                 removed: set[int], n_turns: int) -> list[str]:
    """Resumed job against the full run. ``*_lineage`` map partition ->
    (row_count, content_hash); ``*_docs`` are digests of ``docs/``;
    ``files_*`` map partition -> {file: (inode, mtime_ns, size)}."""
    problems: list[str] = []
    if sum(v[0] for v in full_lineage.values()) != n_turns:
        problems.append("full run lineage row counts do not add up to the input")
    for p in sorted(set(full_lineage) | set(resumed_lineage)):
        if full_lineage.get(p) != resumed_lineage.get(p):
            problems.append(f"partition {p}: lineage {resumed_lineage.get(p)} "
                            f"!= full run {full_lineage.get(p)}")
    if full_docs != resumed_docs:
        problems.append("docs/ differs from the full run")
    recomputed = {p for p in files_after
                  if files_after[p] != files_before.get(p)}
    if recomputed != removed:
        problems.append(f"recomputed partitions {sorted(recomputed)} != "
                        f"removed {sorted(removed)}")
    return _cap(problems)


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    cols = sorted(df.columns)
    return df[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)


def check_table(name: str, got: pd.DataFrame, want: pd.DataFrame) -> list[str]:
    """Exact equality up to row order and column order."""
    if sorted(got.columns) != sorted(want.columns):
        return [f"{name}: columns {sorted(got.columns)} != {sorted(want.columns)}"]
    if len(got) != len(want):
        return [f"{name}: {len(got)} rows != {len(want)}"]
    g, w = _canon(got), _canon(want)
    for c in g.columns:
        gv, wv = g[c].tolist(), w[c].tolist()
        bad = [i for i, (a, b) in enumerate(zip(gv, wv))
               if not (a == b or (pd.isna(a) and pd.isna(b)))]
        if bad:
            i = bad[0]
            return [f"{name}: column {c} differs on {len(bad)} rows "
                    f"(first: {gv[i]!r} != {wv[i]!r})"]
    return []


def check_minhash_kept(kept: list[int], scratch: list[int],
                       docs: pa.Table) -> list[str]:
    """Kept set after the fold equals a from-scratch run, and no two kept
    documents share identical text."""
    problems: list[str] = []
    if len(kept) != len(set(kept)):
        problems.append(f"{len(kept) - len(set(kept))} doc_ids kept twice")
    if set(kept) != set(scratch):
        problems.append(f"kept set differs from scratch: "
                        f"{len(set(scratch) - set(kept))} missing, "
                        f"{len(set(kept) - set(scratch))} extra")
    text = dict(zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()))
    texts = [text.get(d) for d in set(kept)]
    if len(texts) != len(set(texts)):
        problems.append(f"{len(texts) - len(set(texts))} kept documents "
                        "duplicate another kept document's text")
    return _cap(problems)
