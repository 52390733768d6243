"""Exact linear-region analysis of feed-forward ReLU networks.

Decomposes a trained network into the polytope partition on which it is
affine, rebuilds it as a functionally identical three-hidden-layer network
with extended-real weights, verifies the equivalence, and derives exact
explanations (SHAP values, region hypercubes, 2-D plots) from the
decomposition.

Each module's ``__all__`` is its public surface: the public names it
defines.  The package re-exports them, and its ``__all__`` is their sorted
union.
"""

from . import decomposition, errors, explain, lp, network, shallow
from .decomposition import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .explain import *  # noqa: F401,F403
from .lp import *  # noqa: F401,F403
from .network import *  # noqa: F401,F403
from .shallow import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(
    name for module in (decomposition, errors, explain, lp, network, shallow) for name in module.__all__
)
