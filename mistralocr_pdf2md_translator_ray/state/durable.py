"""The engine's one commit protocol for persisted state (SURVEY §4):
every checkpoint manifest, stage marker, fold guard and index reaches
disk through here, and nothing else in the package renames or fsyncs
(``tests/test_structure.py``). One crash contract:

- JSON state is replaced whole (``write_json``: fsync'd tmp, rename,
  directory fsync), so a reader sees the old document or the new one;
- a directory (a whole index, or its labels/kept/data generation) is
  replaced by a generation swap (``swap_in``), which a crash at any
  point leaves with a complete generation, old or new, that
  ``healed_dir`` promotes on the next access;
- appends land via a tag-staged move (``staged_partition_append``:
  deterministic ``inc<ordinal>_`` names, purge-then-move), so a
  crash-retry can never double-append. The caller writes its meta LAST:
  the tag's ordinal derives from it, so it is stable across retries.

Power loss is covered for the JSON state and the renames only: Ray's
``write_parquet`` does not fsync the data files it writes.
"""

from __future__ import annotations

import json
import os
import shutil


def _fsync_dir(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_json(path: str, obj) -> None:
    """Atomically replace ``path`` with ``obj`` as JSON. ``indent=1`` is
    the checkpoint manifests' layout: curate fingerprints digest the
    ``_lineage.json`` bytes, so existing checkpoints resume as they are."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=1)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    _fsync_dir(os.path.dirname(os.path.abspath(path)))


def read_json(path: str):
    """The document at ``path``, or None when the file is absent."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        return None


def read_marker(path: str):
    """A completion record: the document at ``path``, or None while it
    is absent. A record that does not parse (a crash mid-write left it
    empty or cut, or an older build wrote an empty marker) counts as
    absent, so the caller redoes the work it marks."""
    try:
        return read_json(path)
    except ValueError:
        return None


def fresh_dir(path: str) -> str:
    """An empty directory at ``path`` (a crashed attempt's leftovers
    are dropped); returns ``path``."""
    if os.path.isdir(path):
        shutil.rmtree(path)
    os.makedirs(path)
    return path


def healed_dir(final: str, staged: str = ".next") -> str:
    """Resolve (and heal) a swap-replaced directory: if ``final`` is
    absent, the staged (newer) or ``.retired`` dir on disk is a complete
    generation (``swap_in`` publishes before it retires), so promote it.
    Returns ``final``."""
    if not os.path.isdir(final):
        for cand in (final + staged, final + ".retired"):
            if os.path.isdir(cand):
                os.rename(cand, final)
                break
    retired = final + ".retired"
    if os.path.isdir(final) and os.path.isdir(retired):
        shutil.rmtree(retired)  # swap completed, old generation is junk
    return final


def swap_in(final: str, staged: str = ".next",
            src: str | None = None) -> None:
    """Promote the fully-written ``<final><staged>`` (or ``src``, renamed
    there first) to ``final``: retire the old dir if any, rename, drop
    the retired copy. A builder writes into ``src``, so a crash while
    it writes leaves nothing that ``healed_dir`` would promote."""
    nxt, retired = final + staged, final + ".retired"
    if src is not None:
        healed_dir(final, staged)
        if os.path.isdir(nxt):
            shutil.rmtree(nxt)  # unpromoted, and older than src
        os.rename(src, nxt)
    if os.path.isdir(retired):
        shutil.rmtree(retired)
    if os.path.isdir(final):
        os.rename(final, retired)
    os.rename(nxt, final)
    _fsync_dir(os.path.dirname(os.path.abspath(final)))
    if os.path.isdir(retired):
        shutil.rmtree(retired)


def purge_tagged(live_dir: str, tag: str) -> None:
    """Remove every ``<tag>_``-prefixed file under a partitioned dir —
    the leftovers of a crashed previous append attempt of this tag."""
    if not os.path.isdir(live_dir):
        return
    for root, _dirs, files in os.walk(live_dir):
        for f in files:
            if f.startswith(f"{tag}_"):
                os.remove(os.path.join(root, f))


def staged_partition_append(write_fn, live_dir: str, tag: str) -> None:
    """Crash-idempotent append into a hive-partitioned parquet dir.

    ``write_fn(staging_dir)`` produces the increment's partitioned
    files in a tag-scoped staging dir; any ``<tag>_``-prefixed files a
    crashed previous attempt left in the live partitions are purged;
    then the staged files move in under deterministic ``<tag>_<i>``
    names. A retry after a crash at ANY point (staging, purge,
    mid-move) reproduces the same final state — the double-append a
    bare ``write_parquet(live_dir)`` retry would cause cannot happen.
    The caller must derive ``tag`` deterministically from the index
    state (increment ordinal), which is stable across retries because
    the meta update is always LAST."""
    staging = f"{live_dir}.staging-{tag}"
    if os.path.isdir(staging):
        shutil.rmtree(staging)
    write_fn(staging)
    os.makedirs(live_dir, exist_ok=True)
    purge_tagged(live_dir, tag)
    for part in sorted(os.listdir(staging)):
        src_part = os.path.join(staging, part)
        if not os.path.isdir(src_part):
            continue
        dst_part = os.path.join(live_dir, part)
        os.makedirs(dst_part, exist_ok=True)
        for i, f in enumerate(sorted(os.listdir(src_part))):
            if f.endswith(".parquet"):
                os.replace(os.path.join(src_part, f),
                           os.path.join(dst_part,
                                        f"{tag}_{i:05d}.parquet"))
    shutil.rmtree(staging)
