from .extract import (
    TurnExtractor,
    ChildExtractor,
    finalize_with_children,
    finalize_plain,
)
from .assemble import assemble_conversations_hotaware

__all__ = [
    "TurnExtractor",
    "ChildExtractor",
    "finalize_with_children",
    "finalize_plain",
    "assemble_conversations_hotaware",
]
