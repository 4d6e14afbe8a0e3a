#!/usr/bin/env python3
"""Benchmark of the extraction engine, driven from one process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --kernels [--seed <n>]

A closed loop with one client: the driver runs one round of the
workload's operations at a time and waits for each, until the rounds add
up to ``--seconds``. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics, or with ``--trace 1`` the per-layer ones). A traced run also
writes its spans and counts to ``perfbench/results/``. ``--kernels``
prints single-core kernel timings per 20k turns without starting Ray.
See perfbench/README.md.
"""

import time

T0 = time.perf_counter()  # set-up time counts from process start

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

from workloads import QUERIES  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ENGINE = "mistralocr_pdf2md_translator_ray"
RESULTS = os.path.join(HERE, "results")

#: Logical CPUs of the Ray session: a constant, never read from the host.
#: At 1 the broadcast child join never finishes (see README). At 4, as many
#: as the host's CPU affinity, runs of the same code spread 2-6x wider than
#: at 2 (the pools then race the host's other work for every core).
RAY_CPUS = 2
OBJECT_STORE_BYTES = 512 * 2**20
#: Ray kills a worker left idle for 1 s by default, which races the gap
#: between two jobs of a round: rounds then alternated between warm and
#: cold worker processes (3.3 s vs 5.8 s on documents_skew). Idle workers
#: live 10 s here, so every round finds them warm.
IDLE_WORKER_MS = 10_000
#: Ray's unix socket paths sit ~64 characters below its temp dir and
#: must stay under 107, so a longer checkout path uses a short temp dir.
MAX_RAY_TMP_LEN = 40
#: No round starts if the elapsed time plus the last round's wall would
#: pass this, so a run ends by about this plus one round.
ROUND_DEADLINE_S = 120.0

END_TO_END = {"setup_s": "s", "rows_per_s": "1/s",
              "output_mb": "MB", "peak_rss_mb": "MB"}

_KINDS = ("html", "pdf_layout", "markdown")
PER_LAYER = {
    **{f"sources.read.{k}": u for k, u in (("s", "s"), ("rows", "count"), ("mb", "MB"))},
    "functions.html_extract.html_to_markdown.us_per_turn": "us",
    "functions.layout.layout_to_markdown.us_per_turn": "us",
    "functions.markdown.normalize_markdown.us_per_turn": "us",
    "functions.markdown.md_spans.us_per_turn": "us",
    "functions.extract.extract_child_payload.us_per_payload": "us",
    "functions.extract.process_turn.us_per_turn": "us",
    "functions.hashing.content_hash_sum.ns_per_row": "ns",
    "functions.dedup.minhash_signature.us_per_doc": "us",
    **{f"functions.turns.{k}": "count" for k in _KINDS},
    **{f"functions.mb.{k}": "MB" for k in _KINDS},
    "stages.extract.s": "s", "stages.extract.rows": "count",
    "stages.extract.child_rows": "count",
    "sinks.write_parquet.s": "s", "sinks.write_parquet.mb": "MB",
    "stages.assemble.hotaware.s": "s", "stages.assemble.hotaware.hot_convs": "count",
    "stages.assemble.hotaware.rows_in": "count",
    "stages.assemble.hotaware.docs_out": "count",
    "stages.assemble.adaptive.s": "s",
    "stages.sinks.export_markdown.s": "s", "stages.sinks.export_markdown.files": "count",
    "stages.sinks.export_markdown.mb": "MB",
    "state.checkpoint.turns_phase.s": "s", "state.checkpoint.docs_phase.s": "s",
    "state.checkpoint.resume_turns_phase.s": "s",
    "state.checkpoint.partitions_written": "count",
    "state.checkpoint.partitions_recomputed": "count",
    "state.checkpoint.mb": "MB",
    **{f"pipelines.library.{q}.{k}": u for q in QUERIES
       for k, u in (("s", "s"), ("rows", "count"))},
    **{f"stages.dedup_incremental.{f}.s": "s" for f in (
        "build_dedup_index", "build_exact_index",
        "dedup_minhash_incremental", "dedup_exact_incremental")},
    "stages.dedup_incremental.index_mb": "MB",
    "stages.dedup_incremental.index_files": "count",
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _import_path() -> None:
    """Make the checkout's engine importable here and in Ray workers."""
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)


def start_ray(ray_tmp: str):
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    import logging

    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=RAY_CPUS,
             object_store_memory=OBJECT_STORE_BYTES,
             include_dashboard=False, logging_level="ERROR",
             log_to_driver=False, _temp_dir=ray_tmp,
             _system_config={"idle_worker_killing_time_threshold_ms": IDLE_WORKER_MS})
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    return ray


def stop_ray(ray) -> None:
    """Shut Ray down and wait until every process it started has ended."""
    import psutil

    descendants = psutil.Process().children(recursive=True)
    try:
        ray.shutdown()
    finally:
        _gone, alive = psutil.wait_procs(descendants, timeout=20)
        for p in alive:
            try:
                p.kill()
            except psutil.Error:
                pass
        psutil.wait_procs(alive, timeout=10)


def run_round(wl, ops: list) -> dict:
    """One round: every operation in order, each waited for. A failed
    operation is counted and the round carries on."""
    state: dict = {}
    failed, wall = 0, 0.0
    for name, fn in ops:
        t = time.perf_counter()
        try:
            fn(state)
        except Exception:  # noqa: BLE001 — counted, the run carries on
            failed += 1
            log(f"operation {name} failed:\n{traceback.format_exc()}")
        wall += time.perf_counter() - t
    try:
        problems = wl.check(state)
    except Exception:  # noqa: BLE001
        # outputs of failed operations are missing; that is not a wrong answer
        problems = [] if failed else [f"check raised:\n{traceback.format_exc()}"]
    return {"wall": wall, "failed": failed, "ops": len(ops),
            "bytes": state.get("bytes", 0), "problems": problems}


def measure(args) -> dict:
    from workloads import WORKLOADS

    tmp = os.path.join(ROOT, ".perfbench-tmp", f"{args.workload}-{os.getpid()}")
    ray_tmp = os.path.join(ROOT, f".pbray{os.getpid()}")
    if len(ray_tmp) > MAX_RAY_TMP_LEN:
        ray_tmp = tempfile.mkdtemp(prefix="pb-")
    os.makedirs(tmp)
    ray = rss = None
    try:
        ray = start_ray(ray_tmp)
        from spans import PeakRss, Tracer

        rss = PeakRss().start()
        tracer = Tracer()
        wl = WORKLOADS[args.workload](tmp, args.seed, tracer, bool(args.trace))
        wl.setup()
        # warm-up, untimed and unchecked: starts worker processes and fills
        # their imports and caches
        for name, fn in wl.warmup_ops():
            try:
                fn({})
            except Exception:  # noqa: BLE001 — the timed rounds count it
                log(f"warm-up {name} failed:\n{traceback.format_exc()}")
        setup_s = time.perf_counter() - T0
        tracer.spans.clear()
        tracer.counts.clear()
        rounds: list[dict] = []
        while True:
            rounds.append(run_round(wl, wl.ops()))
            if len(rounds) == 1:
                # a peak over more rounds keeps rising with their number
                # (idle workers and Ray's own actors hold more each round),
                # so the figure covers one pass: set-up and the first round
                rss.sample()
                peak_rss = rss.peak
            measured = sum(r["wall"] for r in rounds)
            elapsed = time.perf_counter() - T0
            if measured >= args.seconds or elapsed + rounds[-1]["wall"] > ROUND_DEADLINE_S:
                break
        kernels = wl.kernels() if args.trace else {}
    finally:
        if rss is not None:
            rss.stop()
        if ray is not None:
            stop_ray(ray)
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass

    problems = [p for r in rounds for p in r["problems"]]
    for p in problems:
        log(f"check failed: {p}")
    walls = [r["wall"] for r in rounds]
    result = {
        "correct": not problems,
        "attempted": sum(r["ops"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "rounds": len(rounds), "round_walls": walls,
        # rows over the whole measured window, not a median round: some
        # workloads' rounds alternate slow and fast, and a median then
        # flips with the parity of the round count
        "setup_s": setup_s, "rows_per_s": wl.rows * len(rounds) / sum(walls),
        "output_mb": statistics.median(r["bytes"] for r in rounds) / 1e6,
        "peak_rss_mb": peak_rss / 2**20,
    }
    if args.trace:
        layers = {**tracer.layer_medians(), **kernels}
        result["layers"] = layers
        os.makedirs(RESULTS, exist_ok=True)
        path = os.path.join(RESULTS, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "ray_cpus": RAY_CPUS, **{k: v for k, v in result.items()
                                                if k != "layers"},
                       "layers": layers, "spans": tracer.spans,
                       "counts": tracer.counts, "t0": T0,
                       "duckdb_s": getattr(wl, "duckdb_s", {})}, f, indent=1)
        log(f"trace written to {path}")
    return result


def kernels_per_20k(seed: int) -> dict:
    """``functions.*`` timings scaled to seconds per 20k turns (or 20k
    payloads / documents), over a 20k-turn uniform corpus; no Ray."""
    import numpy as np

    import gen
    from spans import kernel_timings

    t, p, _truth = gen.transcripts(seed, 20_000, 400)
    docs = gen.documents(np.random.default_rng(seed), 2_000)
    raw = kernel_timings(t, p, docs)
    out = {}
    for k, v in raw.items():
        if k.endswith(".us_per_turn") or k.endswith(".us_per_payload") or k.endswith(".us_per_doc"):
            out[k.rsplit(".", 1)[0] + ".s_per_20k"] = v * 20_000 / 1e6
        elif k.endswith(".ns_per_row"):
            out[k.rsplit(".", 1)[0] + ".s_per_20k"] = v * 20_000 / 1e9
        else:
            out[k] = v
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--kernels", action="store_true")
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(ROOT, ENGINE)):
        log(f"{ENGINE}/ not found next to perfbench/: run from a full checkout")
        return 2
    _import_path()
    if args.kernels:
        print(json.dumps(kernels_per_20k(args.seed)))
        return 0
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2
    r = measure(args)
    log(json.dumps({k: r[k] for k in ("rounds", "round_walls", "setup_s")}))
    if args.trace:
        metrics = {k: {"value": float(r["layers"].get(k, 0.0)), "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": float(r[k]), "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
