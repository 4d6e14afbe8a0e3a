"""Extractor registry — the user-extension surface (SURVEY §2.10).

The reference exposes pluggable OCR / structuring / translation models
via UI dropdowns (``mistralocr_app.py:1006-1050``); here the same hook
is a registry keyed by the ``tool`` column value. The extraction
functions in ``stages/extract.py`` consult it, so registering a kernel
routes matching turns through it with no pipeline change:

    from mistralocr_pdf2md_translator_ray.stages.registry import register_extractor
    register_extractor("csv", my_csv_to_markdown)   # fn: text -> markdown

Kernels must be pure ``str -> str`` functions (raising -> the row
becomes a ``status='error'`` value, never an exception). Registration
must happen before ``extract_turns`` builds its pipeline (the
registry is snapshotted into the map functions' arguments then).
"""

from __future__ import annotations

from typing import Callable

_REGISTRY: dict[str, Callable[[str], str]] = {}


def register_extractor(tool: str, fn: Callable[[str], str]) -> None:
    _REGISTRY[tool] = fn


def unregister_extractor(tool: str) -> None:
    _REGISTRY.pop(tool, None)


def get_registry() -> dict[str, Callable[[str], str]]:
    return dict(_REGISTRY)
