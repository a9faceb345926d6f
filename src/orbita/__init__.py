"""Exact certification of finite orbits of rational self-maps of the projective line.

The package works over Q with exact arithmetic throughout: orbits either
close and produce a replayable certificate, or the run reports which budget
was exhausted. Structural properties (ultrametric triangle inequality,
non-expansion at good-reduction primes, tail-valuation monotonicity) are
re-checked on real data, and explicit finiteness bounds are evaluated in
log-space with outward rounding so comparisons are sound.

Each layer's ``__all__`` declares its public names; the package re-exports
them all.
"""

from .numtheory import *
from .projective import *
from .maps import *
from .orbits import *
from .bounds import *
from .sunit import *
from .suites import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *numtheory.__all__,
    *projective.__all__,
    *maps.__all__,
    *orbits.__all__,
    *bounds.__all__,
    *sunit.__all__,
    *suites.__all__,
]
