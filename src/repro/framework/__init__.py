"""Message-passing mini-framework and baseline system personalities."""

from . import messages as fn
from .module import GNNModule
from .mp import MPGraph
from .systems import SYSTEM_NAMES, SYSTEMS, System, get_system

__all__ = [
    "GNNModule",
    "MPGraph",
    "SYSTEMS",
    "SYSTEM_NAMES",
    "System",
    "fn",
    "get_system",
]
