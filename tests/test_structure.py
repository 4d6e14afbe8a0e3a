"""Structural guard: every keyed shuffle goes through
``stages/joins.bucket_groups``, and every groupby on a stored column
through ``stages/joins.sorted_blocks``. A ``.map_groups(`` anywhere in
the package (one pandas call per group), or the pandas-side hash
``bucket_ids_np``, fails here. Persisted state commits through
``state/durable.py`` only: an ``os.replace``/``os.rename``/``os.fsync``
anywhere else (bar the rewritable sink outputs) fails here. The
checkpointed job's docs phase reduces each turns partition where it
lies, so ``pipelines/job.py`` names no shuffle and no hot count."""

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent \
    / "mistralocr_pdf2md_translator_ray"


def _map_groups_sites():
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "map_groups"):
                yield rel, node.lineno


def test_no_map_groups_in_the_package():
    found = sorted(_map_groups_sites())
    assert not found, (
        "map_groups calls the UDF once per group; group through "
        f"stages/joins.bucket_groups or sorted_blocks instead: {found}")


def test_no_pandas_side_bucket_hash():
    hits = [p.relative_to(PKG).as_posix() for p in PKG.rglob("*.py")
            if "bucket_ids_np" in p.read_text(encoding="utf-8")]
    assert not hits, f"bucket_ids_np reappeared in {hits}"


# The sinks' .md and asset files are rewritable outputs, not state:
# their tmp + replace stays local and unsynced.
_COMMIT_MODULES = {"state/durable.py", "stages/sinks.py"}


def _commit_call_sites():
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("replace", "rename", "fsync")
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "os"):
                yield rel, node.lineno, node.attr


def test_state_commits_only_through_durable():
    found = sorted(s for s in _commit_call_sites()
                   if s[0] not in _COMMIT_MODULES)
    assert not found, (
        "persisted state commits through state/durable.py (write_json, "
        f"swap_in, staged_partition_append): {found}")


# The turns checkpoint already co-locates each conversation under one
# part_id: assembling there needs no shuffle, and salting has nothing
# left to balance.
_JOB_FORBIDDEN = {"bucket_groups", "cogroup",
                  "assemble_conversations_hotaware", "_hot_conversations"}


def _names_in(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno


def test_job_docs_phase_is_shuffle_free():
    tree = ast.parse((PKG / "pipelines" / "job.py").read_text(encoding="utf-8"))
    found = sorted((n, line) for n, line in _names_in(tree)
                   if n in _JOB_FORBIDDEN)
    assert not found, (
        "pipelines/job.py assembles each part_id where the turns "
        f"checkpoint holds it; no shuffle or hot count: {found}")
