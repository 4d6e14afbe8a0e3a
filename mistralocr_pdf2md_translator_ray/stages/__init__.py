from .extract import (
    extract_raw_md,
    extract_children,
    extract_finalize,
    finalize_with_children,
)
from .assemble import assemble_conversations_hotaware

__all__ = [
    "extract_raw_md",
    "extract_children",
    "extract_finalize",
    "finalize_with_children",
    "assemble_conversations_hotaware",
]
