"""Pattern-described subgroup summaries of local black-box explanations."""
from __future__ import annotations

from .splitter import Partition, Subgroup, run

__all__ = ["Partition", "Subgroup", "run"]
__version__ = "0.1.0"
