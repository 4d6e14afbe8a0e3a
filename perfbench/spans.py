"""Spans, memory sampling and single-core kernel timings.

``Tracer`` records one span per call into a layer (name, start, end,
parent) plus counts taken at the same boundary. Spans are opened only
by the benchmark's own code around calls into the engine's public
functions; the engine is not instrumented.
"""

from __future__ import annotations

import statistics
import threading
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: list[dict] = []
        self._stack: list[int] = []

    def count(self, layer: str, **values) -> None:
        """Counts taken at a layer boundary outside any one span."""
        self.counts.append({"name": layer, "counts": values})

    @contextmanager
    def span(self, name: str):
        """Time the block; yields a dict the caller fills with counts."""
        counts: dict = {}
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "counts": counts}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield counts
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def layer_medians(self) -> dict[str, float]:
        """Median wall per span name and median of each count, as
        ``<name>.s`` / ``<name>.<count>``."""
        walls: dict[str, list[float]] = {}
        counts: dict[str, list[float]] = {}
        for s in self.spans:
            walls.setdefault(f"{s['name']}.s", []).append(s["end"] - s["start"])
        for s in self.spans + self.counts:
            for k, v in s["counts"].items():
                counts.setdefault(f"{s['name']}.{k}", []).append(v)
        return {k: statistics.median(v) for k, v in {**walls, **counts}.items()}


class PeakRss:
    """Samples the summed private resident memory (RSS minus shared
    pages, so pages shared between processes, such as the object store's
    mappings, are left out) of this process and all its descendants: the
    driver, the Ray daemons and every worker."""

    def __init__(self, interval: float = 0.2) -> None:
        import psutil

        self._psutil = psutil
        self._me = psutil.Process()
        self._interval = interval
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def sample(self) -> int:
        total = 0
        procs = [self._me]
        try:
            procs += self._me.children(recursive=True)
        except self._psutil.Error:
            pass
        for p in procs:
            try:
                m = p.memory_info()
                total += m.rss - getattr(m, "shared", 0)
            except self._psutil.Error:
                pass
        self.peak = max(self.peak, total)
        return total

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self.sample()

    def start(self) -> "PeakRss":
        self.sample()
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()


# ---------------------------------------------------------------------------
# Single-core kernel timings (no Ray)
# ---------------------------------------------------------------------------

def _time_us(fn, items) -> float:
    """Mean microseconds per item of ``fn(item)`` after one untimed call
    (lazy imports, caches); 0 for no items."""
    if not items:
        return 0.0
    fn(items[0])
    t = time.perf_counter()
    for it in items:
        fn(it)
    return (time.perf_counter() - t) * 1e6 / len(items)


def kernel_timings(transcripts, payloads, documents=None) -> dict[str, float]:
    """``functions.*`` per-layer metrics over the given inputs, timed in
    this process on one core. ``transcripts``/``payloads`` are Arrow
    tables in the input_hint / F2 shapes (either may be None);
    ``documents`` is an Arrow table with a ``text`` column."""
    import pyarrow as pa

    from mistralocr_pdf2md_translator_ray.functions.dedup import (
        char_shingles,
        minhash_signature,
    )
    from mistralocr_pdf2md_translator_ray.functions.extract import (
        extract_child_payload,
        extract_turn,
        process_turn,
    )
    from mistralocr_pdf2md_translator_ray.functions.hashing import content_hash_sum
    from mistralocr_pdf2md_translator_ray.functions.html_extract import html_to_markdown
    from mistralocr_pdf2md_translator_ray.functions.layout import layout_to_markdown
    from mistralocr_pdf2md_translator_ray.functions.markdown import (
        md_spans,
        normalize_markdown,
    )

    out: dict[str, float] = {}
    if transcripts is not None:
        rows = list(zip(transcripts["text"].to_pylist(),
                        transcripts["tool"].to_pylist()))
        by_kind: dict[str, list[str]] = {"html": [], "pdf_layout": [], "markdown": []}
        for text, tool in rows:
            # the engine passes "" and unknown tools through as markdown
            by_kind[tool if tool in by_kind else "markdown"].append(text)
        for kind, texts in by_kind.items():
            out[f"functions.turns.{kind}"] = len(texts)
            out[f"functions.mb.{kind}"] = sum(len(t.encode()) for t in texts) / 1e6
        layouts = [t for t in by_kind["pdf_layout"] if t.endswith("}")]
        out["functions.html_extract.html_to_markdown.us_per_turn"] = _time_us(
            html_to_markdown, by_kind["html"])
        out["functions.layout.layout_to_markdown.us_per_turn"] = _time_us(
            layout_to_markdown, layouts)
        raws = [extract_turn(text, tool)[0] for text, tool in rows]
        out["functions.markdown.normalize_markdown.us_per_turn"] = _time_us(
            normalize_markdown, raws)
        mds = [normalize_markdown(r) for r in raws]
        out["functions.markdown.md_spans.us_per_turn"] = _time_us(md_spans, mds)
        out["functions.extract.process_turn.us_per_turn"] = _time_us(
            lambda r: process_turn(r[0], r[1]), rows)
        tbl = pa.table({"conv_id": transcripts["conv_id"],
                        "turn_idx": transcripts["turn_idx"],
                        "md": pa.array(mds, pa.string()),
                        "status": pa.array(["ok"] * len(mds), pa.string())})
        cols = ["conv_id", "turn_idx", "md", "status"]
        content_hash_sum(tbl.slice(0, 1), cols)  # untimed: lazy polars import
        t = time.perf_counter()
        content_hash_sum(tbl, cols)
        out["functions.hashing.content_hash_sum.ns_per_row"] = (
            (time.perf_counter() - t) * 1e9 / max(1, tbl.num_rows))
    if payloads is not None:
        prow = list(zip(payloads["payload"].to_pylist(),
                        payloads["payload_id"].to_pylist(),
                        payloads["kind"].to_pylist()))
        out["functions.extract.extract_child_payload.us_per_payload"] = _time_us(
            lambda r: extract_child_payload(*r), prow)
    if documents is not None:
        texts = documents["text"].to_pylist()
        out["functions.dedup.minhash_signature.us_per_doc"] = _time_us(
            lambda s: minhash_signature(char_shingles(s)), texts)
    return out
