"""Seeded input generators for the benchmark.

Everything here derives from ``random.Random(seed)`` / ``numpy``'s
``default_rng(seed)`` and nothing else, and none of it imports the engine,
so a change to the engine cannot change the load.

Transcripts follow the ``input_hint`` schema and the FIXTURES.md F1/F2
shapes (markdown, HTML page with boilerplate, positioned-span layout JSON,
``![id](id)`` placeholders with a child payload row). Every turn carries a
marker token the checks look for afterwards:

- ``mk<c>x<t>q``       the turn's content marker (must survive extraction)
- ``bp<c>x<t>q``       HTML boilerplate marker (must be stripped)
- ``ly<c>x<t>n<k>q``   k-th layout span in reading order (order must hold)
- ``pl<n>q``           inside payload ``img-<n>`` (must be spliced in)

The turn mix is copied as constants from the repo's own fixture generator
(``sources/transcripts.py``, not called here): 40% markdown, 35% HTML, 25%
layout; 12% of turns carry one or two child payloads, 5% of which are
broken JSON (the engine splices an error value in their place); and one
conversation of fixed edge rows (empty text with ``tool=""``, whitespace
only, CJK, unclosed HTML, truncated layout JSON). Malformed layout JSON
rows (the edge row plus seeded ones) are the only rows that must come back
with ``status="error"``.

Tables mirror the driver test tables' schemas (TPC-H-ish star schema plus
``events`` and ``documents``). ``documents`` carries exact and near
duplicates so both dedup families have clusters to find.
"""

from __future__ import annotations

import datetime as dt
import json
import os
import random

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

TRANSCRIPT_SCHEMA = pa.schema([
    ("conv_id", pa.string()),
    ("turn_idx", pa.int32()),
    ("role", pa.string()),
    ("text", pa.string()),
    ("tool", pa.string()),
    ("ts", pa.timestamp("us")),
])

PAYLOAD_SCHEMA = pa.schema([
    ("conv_id", pa.string()),
    ("turn_idx", pa.int32()),
    ("payload_id", pa.string()),
    ("kind", pa.string()),
    ("payload", pa.binary()),
])

WORDS = (
    "alpha bravo cedar delta ember fjord grove harbor island jasper kettle "
    "lumen meadow nectar orbit pebble quartz river summit timber umber "
    "valley willow yonder zephyr anchor beacon canyon dune estuary falcon "
    "glacier heron inlet juniper kelp lagoon marsh north ocean prairie"
).split()
CJK = "数据流批处理合并排序洗牌表行列键值联接过滤分组窗口聚合查询计划阶段"
ROLES = ("user", "assistant", "tool")
EPOCH_US = int(dt.datetime(2024, 1, 1).timestamp() * 1_000_000)
MALFORMED_EVERY = 500  # about one malformed layout row per 500 turns
#: Shares of the turn mix and payload rates, as in sources/transcripts.py;
#: the rest of the turns (25%) are pdf_layout.
MARKDOWN_SHARE, HTML_SHARE = 0.40, 0.35
PAYLOAD_RATE = 0.12
MALFORMED_PAYLOAD_SHARE = 0.05


def _sentence(rng: random.Random, lo: int = 6, hi: int = 12) -> str:
    ws = [rng.choice(WORDS) for _ in range(rng.randint(lo, hi))]
    return " ".join(ws).capitalize() + "."


def _paragraph(rng: random.Random, lo: int = 2, hi: int = 4) -> str:
    return " ".join(_sentence(rng) for _ in range(rng.randint(lo, hi)))


def _markdown_turn(rng, marker: str, pids: list[str]) -> str:
    parts = [f"# {_sentence(rng, 3, 5)[:-1]}",
             f"{marker} {_paragraph(rng)}"]
    if rng.random() < 0.5:
        parts.append("\n".join(f"- {_sentence(rng, 3, 6)}"
                               for _ in range(rng.randint(2, 4))))
    if rng.random() < 0.3:
        parts.append(f"```\n{_sentence(rng)}\n```")
    if rng.random() < 0.1:
        parts.append(CJK[: rng.randint(8, len(CJK))] + "。")
    for pid in pids:
        parts.append(f"![{pid}]({pid})")
        parts.append(_paragraph(rng, 1, 2))
    return "\n\n".join(parts)


def _html_turn(rng, marker: str, boiler: str, pids: list[str]) -> str:
    nav = "".join(f'<a href="/{w}">{w}</a> ' for w in rng.sample(WORDS, 5))
    body = [f"<h1>{_sentence(rng, 3, 5)[:-1]}</h1>",
            f"<p>{marker} {_paragraph(rng)}</p>"]
    for _ in range(rng.randint(1, 2)):
        body.append(f"<p>{_paragraph(rng)}</p>")
    if rng.random() < 0.4:
        body.append("<ul>" + "".join(f"<li>{_sentence(rng, 5, 9)}</li>"
                                     for _ in range(3)) + "</ul>")
    for pid in pids:
        body.append(f"<p>{_paragraph(rng, 1, 2)} ![{pid}]({pid})</p>")
    return ("<html><head><title>t</title></head><body>"
            f"<nav>{boiler} {nav}</nav>"
            f"<header><p>{_sentence(rng, 2, 4)}</p></header>"
            '<div class="ads"><p><a href="/x">click</a> <a href="/y">now</a></p></div>'
            f"<article>{''.join(body)}</article>"
            f"<footer><p>{boiler} {nav}</p></footer></body></html>")


def _layout_turn(rng, marker: str, tag: str) -> tuple[str, int]:
    """Positioned spans in 1-2 columns, written to the JSON in shuffled
    order; span k (reading order) carries ``<tag>n<k>q``. Returns
    (json text, number of spans)."""
    two_col = rng.random() < 0.4
    cols = [(50.0, 250.0), (330.0, 250.0)] if two_col else [(50.0, 500.0)]
    pages, k = [], 0
    for _ in range(rng.randint(1, 2)):
        spans = []
        for cx, cw in cols:
            y = 60.0
            for _p in range(rng.randint(1, 2)):
                for _l in range(rng.randint(2, 4)):
                    text = f"{tag}n{k}q {_sentence(rng, 3, 6)}"
                    if k == 0:
                        text = f"{marker} {text}"
                    spans.append({"x": cx, "y": y, "w": cw, "h": 12.0,
                                  "text": text})
                    k += 1
                    y += 14.0
                y += 30.0
        rng.shuffle(spans)
        pages.append({"w": 612, "h": 792, "spans": spans})
    return json.dumps({"pages": pages}), k


def _payload(rng, kind: str, seq: int) -> bytes:
    note = f"pl{seq}q"
    if rng.random() < MALFORMED_PAYLOAD_SHARE:
        # truncated JSON; the engine's error value quotes the raw bytes,
        # marker included
        return ('{"note": "' + note + '", "broken": ').encode()
    if kind == "table_image":
        body = {"rows": [[rng.randint(0, 99) for _ in range(3)] for _ in range(3)]}
    elif kind == "figure":
        body = {"caption": _sentence(rng), "axes": ["x", "y"]}
    else:
        body = {"total": round(rng.uniform(1, 500), 2),
                "items": rng.sample(WORDS, 3)}
    return json.dumps({"kind": kind, "note": note, **body}).encode()


def _edge_rows(marker) -> list[tuple[str, str, bool]]:
    """(text, tool, malformed) of the edge conversation, turn by turn;
    ``marker(t)`` is turn t's content marker. The first two rows carry
    none: nothing of them survives."""
    return [
        ("", "", False),
        ("   \n\t  ", "markdown", False),
        (f"# 標題\n\n{marker(2)} {CJK}。", "markdown", False),
        (f"<p>Unclosed <b>bold <p>{marker(3)} another para that is long "
         "enough to keep", "html", False),
        ('{"pages": [{"spans": [{"text": "' + marker(4) + '"', "pdf_layout", True),
    ]


def conv_sizes(n_turns: int, n_convs: int, hot_share: float) -> list[int]:
    """Turn count per conversation: an optional hot conversation holding
    ``hot_share`` of all turns, the rest split evenly."""
    hot = int(n_turns * hot_share)
    rest = n_turns - hot
    n_cold = n_convs - (1 if hot else 0)
    sizes = [rest // n_cold + (1 if i < rest % n_cold else 0)
             for i in range(n_cold)]
    return ([hot] if hot else []) + sizes


def transcripts(seed: int, n_turns: int, n_convs: int, hot_share: float = 0.0):
    """Return (transcripts, payloads, truth): ``n_turns`` turns in
    ``n_convs`` conversations plus the edge conversation. ``truth`` holds
    per-turn facts the checks compare against, keyed by (conv_id,
    turn_idx): ``tool``, ``marked`` (the turn carries its content
    marker), ``n_layout``, ``pids`` (placeholders in the text),
    ``bad_pids`` (those whose payload is broken) and ``malformed``."""
    rng = random.Random(seed)
    t_rows = {k: [] for k in TRANSCRIPT_SCHEMA.names}
    p_rows = {k: [] for k in PAYLOAD_SCHEMA.names}
    truth: dict = {}
    seq = 0

    def add(conv: str, ti: int, ts: int, text: str, tool: str, **facts) -> None:
        t_rows["conv_id"].append(conv)
        t_rows["turn_idx"].append(ti)
        t_rows["role"].append(ROLES[ti % 3])
        t_rows["text"].append(text)
        t_rows["tool"].append(tool)
        t_rows["ts"].append(ts)
        truth[(conv, ti)] = {"tool": tool, "marked": True, "n_layout": 0,
                             "pids": [], "bad_pids": set(), "malformed": False,
                             **facts}

    sizes = conv_sizes(n_turns, n_convs, hot_share)
    for ci, size in enumerate(sizes):
        conv = f"c{ci:05d}"
        ts = EPOCH_US + ci * 3_600_000_000
        for ti in range(size):
            ts += rng.randint(1_000_000, 30_000_000)
            marker, tag = f"mk{ci}x{ti}q", f"ly{ci}x{ti}"
            r = rng.random()
            # as in sources/transcripts.py, payload rows are drawn for every
            # kind of turn; a layout turn has no placeholder to splice into
            pids: list[str] = []
            bad: set[str] = set()
            if rng.random() < PAYLOAD_RATE:
                for _ in range(rng.randint(1, 2)):
                    pid = f"img-{seq}"
                    kind = rng.choice(("table_image", "figure", "receipt"))
                    blob = _payload(rng, kind, seq)
                    p_rows["conv_id"].append(conv)
                    p_rows["turn_idx"].append(ti)
                    p_rows["payload_id"].append(pid)
                    p_rows["kind"].append(kind)
                    p_rows["payload"].append(blob)
                    pids.append(pid)
                    if not blob.endswith(b"}"):
                        bad.add(pid)
                    seq += 1
            if r < MARKDOWN_SHARE:
                add(conv, ti, ts, _markdown_turn(rng, marker, pids), "markdown",
                    pids=pids, bad_pids=bad)
            elif r < MARKDOWN_SHARE + HTML_SHARE:
                add(conv, ti, ts, _html_turn(rng, marker, f"bp{ci}x{ti}q", pids),
                    "html", pids=pids, bad_pids=bad)
            elif rng.randrange(MALFORMED_EVERY // 4) == 0:
                add(conv, ti, ts, '{"pages": [{"spans": [{"text": "' + marker + '"',
                    "pdf_layout", malformed=True)
            else:
                text, n_layout = _layout_turn(rng, marker, tag)
                add(conv, ti, ts, text, "pdf_layout", n_layout=n_layout)
    ci = len(sizes)
    ts = EPOCH_US + ci * 3_600_000_000
    for ti, (text, tool, malformed) in enumerate(
            _edge_rows(lambda t: f"mk{ci}x{t}q")):
        add(f"c{ci:05d}", ti, ts + ti * 1_000_000, text, tool,
            marked=ti >= 2, malformed=malformed)
    t_rows["ts"] = pa.array(t_rows["ts"], pa.timestamp("us"))
    return (pa.table(t_rows, schema=TRANSCRIPT_SCHEMA),
            pa.table(p_rows, schema=PAYLOAD_SCHEMA), truth)


def write_shards(tbl: pa.Table, out_dir: str, n_files: int, seed: int) -> None:
    """Shuffle rows (seeded) and write ``n_files`` parquet shards, so a
    conversation's turns arrive out of order and from many files."""
    os.makedirs(out_dir, exist_ok=True)
    perm = np.random.default_rng(seed).permutation(tbl.num_rows)
    tbl = tbl.take(pa.array(perm))
    step = -(-tbl.num_rows // n_files)
    for i in range(n_files):
        pq.write_table(tbl.slice(i * step, step),
                       os.path.join(out_dir, f"part-{i:03d}.parquet"))


# ---------------------------------------------------------------------------
# Tables (driver test-table schemas)
# ---------------------------------------------------------------------------

SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


def _ts(rng: np.random.Generator, n: int, lo: str, hi: str) -> pa.Array:
    a = np.datetime64(lo, "D").astype(np.int64)
    b = np.datetime64(hi, "D").astype(np.int64)
    days = rng.integers(a, b, n).astype("datetime64[D]").astype("datetime64[us]")
    return pa.array(days)


def tables(seed: int, n_orders: int, n_events: int, n_docs: int,
           out_dir: str) -> dict[str, int]:
    """Write region/nation/customer/orders/lineitem/events/documents
    parquet files into ``out_dir``; returns rows per table."""
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)
    n_cust = max(10, n_orders // 10)
    out: dict[str, pa.Table] = {}
    out["region"] = pa.table({
        "r_regionkey": pa.array(range(5), pa.int32()),
        "r_name": ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]})
    out["nation"] = pa.table({
        "n_nationkey": pa.array(range(25), pa.int32()),
        "n_name": [f"NATION_{i}" for i in range(25)],
        "n_regionkey": pa.array([i % 5 for i in range(25)], pa.int32())})
    out["customer"] = pa.table({
        "c_custkey": pa.array(np.arange(n_cust), pa.int64()),
        "c_name": [f"Customer#{i:09d}" for i in range(n_cust)],
        "c_nationkey": pa.array(rng.integers(0, 25, n_cust), pa.int32()),
        "c_acctbal": np.round(rng.uniform(-999, 9999, n_cust), 2),
        "c_mktsegment": pa.array(np.array(SEGMENTS)[rng.integers(0, 5, n_cust)])})
    # a tenth of customers never order (the left/full outer joins' nulls)
    custkeys = rng.integers(0, n_cust - n_cust // 10, n_orders)
    out["orders"] = pa.table({
        "o_orderkey": pa.array(np.arange(n_orders), pa.int64()),
        "o_custkey": pa.array(custkeys, pa.int64()),
        "o_orderstatus": pa.array(np.array(["F", "O", "P"])[rng.integers(0, 3, n_orders)]),
        "o_totalprice": np.round(rng.uniform(900, 450_000, n_orders), 2),
        "o_orderdate": _ts(rng, n_orders, "1992-01-01", "1998-12-31"),
        "o_orderpriority": pa.array(np.array(PRIORITIES)[rng.integers(0, 5, n_orders)])})
    lines = rng.integers(1, 8, n_orders)
    n_li = int(lines.sum())
    okeys = np.repeat(np.arange(n_orders), lines)
    linenum = np.concatenate([np.arange(1, k + 1) for k in lines])
    qty = rng.integers(1, 51, n_li).astype(np.float64)
    out["lineitem"] = pa.table({
        "l_orderkey": pa.array(okeys, pa.int64()),
        "l_partkey": pa.array(rng.integers(0, 20_000, n_li), pa.int64()),
        "l_suppkey": pa.array(rng.integers(0, 1_000, n_li), pa.int64()),
        "l_linenumber": pa.array(linenum, pa.int32()),
        "l_quantity": qty,
        "l_extendedprice": np.round(qty * rng.uniform(900, 2000, n_li), 2),
        "l_discount": rng.integers(0, 11, n_li) / 100.0,
        "l_tax": rng.integers(0, 9, n_li) / 100.0,
        "l_returnflag": pa.array(np.array(["A", "N", "R"])[rng.integers(0, 3, n_li)]),
        "l_linestatus": pa.array(np.array(["F", "O"])[rng.integers(0, 2, n_li)]),
        "l_shipdate": _ts(rng, n_li, "1992-01-02", "1998-12-01")})
    n_users = max(10, n_events // 50)
    users = rng.zipf(1.3, n_events) % n_users
    ev_ts = EPOCH_US + np.sort(rng.integers(0, 30 * 86_400_000_000, n_events))
    out["events"] = pa.table({
        "event_id": pa.array(np.arange(n_events), pa.int64()),
        "ts": pa.array(ev_ts.astype("datetime64[us]")),
        "user_id": pa.array(users, pa.int64()),
        "event_type": pa.array(np.array(EVENT_TYPES)[
            rng.choice(5, n_events, p=[0.35, 0.05, 0.1, 0.05, 0.45])]),
        "value": np.round(rng.uniform(0, 500, n_events), 2),
        "props": [f'{{"k": {int(k)}}}' for k in rng.integers(0, 100, n_events)]})
    out["documents"] = documents(rng, n_docs)
    for name, tbl in out.items():
        pq.write_table(tbl, os.path.join(out_dir, f"{name}.parquet"))
    return {name: tbl.num_rows for name, tbl in out.items()}


def documents(rng: np.random.Generator, n: int) -> pa.Table:
    """Random word documents; ~6% exact copies and ~6% near copies (one
    word changed) of earlier documents."""
    words = np.array(WORDS)
    texts: list[str] = []
    for i in range(n):
        r = rng.random()
        if i > 10 and r < 0.06:
            texts.append(texts[int(rng.integers(0, i))])
        elif i > 10 and r < 0.12:
            ws = texts[int(rng.integers(0, i))].split()
            ws[int(rng.integers(0, len(ws)))] = str(words[rng.integers(0, len(words))])
            texts.append(" ".join(ws))
        else:
            texts.append(" ".join(words[rng.integers(0, len(words),
                                                     int(rng.integers(20, 60)))]))
    return pa.table({
        "doc_id": pa.array(np.arange(n), pa.int64()),
        "text": texts,
        "lang": pa.array(np.array(["en", "de", "zh"])[rng.integers(0, 3, n)]),
        "source": [f"src{int(k)}" for k in rng.integers(0, 5, n)],
        "n_chars": pa.array([len(t) for t in texts], pa.int64())})


def split_documents(src_dir: str, old_dir: str, new_dir: str) -> None:
    """90/10 split of ``documents`` by ``doc_id % 10 == 0`` (new shard)."""
    t = pq.read_table(os.path.join(src_dir, "documents.parquet"),
                      columns=["doc_id", "text"])
    is_new = pa.array(t["doc_id"].to_numpy() % 10 == 0)
    for d, mask in ((old_dir, pc.invert(is_new)), (new_dir, is_new)):
        os.makedirs(d, exist_ok=True)
        pq.write_table(t.filter(mask), os.path.join(d, "documents.parquet"))
