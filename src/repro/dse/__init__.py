"""Design-space exploration: design points and allocation search.

The technology-scaling case studies built on them (paper Figs. 6 and 9) are
registered studies in :mod:`repro.studies.paper`.
"""

from .search import GradientDescentSearch, SearchResult, optimize_allocation
from .space import DesignPoint, DesignSpace

__all__ = [
    "DesignPoint",
    "DesignSpace",
    "GradientDescentSearch",
    "SearchResult",
    "optimize_allocation",
]
