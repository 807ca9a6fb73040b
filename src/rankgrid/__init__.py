"""Vertex-ranking toolkit for grid graphs.

Exact solving with certificates, closed forms for up to four rows,
constructive upper-bound certificates, and lower-bound evaluators, all
behind one small API.  The usual entry points:

    >>> from rankgrid import GraphShape, build, rank_exact
    >>> rank_exact(build(GraphShape.grid(3, 3))).value
    5
"""

from .graphs import (
    Custom,
    Graph,
    GraphShape,
    ShapeError,
    StickyEnd,
    build,
)
from .verify import Ranking, Violation, validate
from .solve import (
    Budget,
    DecisionOutcome,
    RankResult,
    rank_decision,
    rank_exact,
)
from .formulas import (
    bucket_4xn,
    rank_2xn,
    rank_3xn,
    rank_4xn,
    rank_4xn_recursive,
    rank_path,
)
from .construct import (
    CertificateChain,
    four_row_certificate,
    run_endpoint_certificates,
    triangle_ranking,
)
from .bounds import (
    alpert_upper,
    compare_upper,
    corollary_lower_square,
    corollary_lower_tri,
    diagonal_upper,
    square_lower,
)
from .cache import SolutionCache, resolve_cache_path
from .render import render_ascii, render_svg

__version__ = "0.1.0"

__all__ = [
    "Budget",
    "CertificateChain",
    "Custom",
    "DecisionOutcome",
    "Graph",
    "GraphShape",
    "RankResult",
    "Ranking",
    "ShapeError",
    "SolutionCache",
    "StickyEnd",
    "Violation",
    "alpert_upper",
    "bucket_4xn",
    "build",
    "compare_upper",
    "corollary_lower_square",
    "corollary_lower_tri",
    "diagonal_upper",
    "four_row_certificate",
    "rank_2xn",
    "rank_3xn",
    "rank_4xn",
    "rank_4xn_recursive",
    "rank_decision",
    "rank_exact",
    "rank_path",
    "render_ascii",
    "render_svg",
    "resolve_cache_path",
    "run_endpoint_certificates",
    "square_lower",
    "triangle_ranking",
    "validate",
]
