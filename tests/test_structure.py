"""Structural guard: every keyed shuffle goes through
``stages/joins.bucket_groups``. A hand-written ``.map_groups(`` outside
stages/joins.py, or the pandas-side hash ``bucket_ids_np``, fails here."""

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent \
    / "mistralocr_pdf2md_translator_ray"

#: (module, function) -> why a direct groupby on a STORED column is not
#: a bucket shuffle and stays as it is.
ALLOWED_MAP_GROUPS = {
    ("stages/joins.py", "bucket_groups"):
        "the one keyed bucket shuffle",
    ("stages/dedup_incremental.py", "exact_index_kept"):
        "groups on the hive partition column hb read back from disk",
    ("stages/dedup_incremental.py", "exact_index_compact"):
        "groups on the hive partition column hb read back from disk",
    ("pipelines/library.py", "knn_cosine_multi"):
        "groups on the stored query_id column (n_queries tiny groups)",
}


def _map_groups_sites():
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "map_groups"):
                    yield rel, fn.name, node.lineno


def test_map_groups_only_in_the_helper_and_named_stored_column_groupbys():
    outer = {}
    for rel, name, line in _map_groups_sites():
        # nested functions are walked twice (once per enclosing def);
        # keep the outermost name, which the allow-list uses
        outer.setdefault((rel, line), (rel, name))
    found = set(outer.values())
    unexpected = sorted(found - set(ALLOWED_MAP_GROUPS))
    assert not unexpected, (
        "hand-written map_groups outside stages/joins.bucket_groups: "
        f"{unexpected}")
    # the allow-list names live code, not stale entries
    assert found == set(ALLOWED_MAP_GROUPS)


def test_no_pandas_side_bucket_hash():
    hits = [p.relative_to(PKG).as_posix() for p in PKG.rglob("*.py")
            if "bucket_ids_np" in p.read_text(encoding="utf-8")]
    assert not hits, f"bucket_ids_np reappeared in {hits}"
