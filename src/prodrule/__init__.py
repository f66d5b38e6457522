"""Exact machine verification of every real sequence satisfying
T(mn) = T(m)T(n) + T(m-1)T(n-1).

The classification lands on exactly five families: the zero sequence,
the constant 1/2, ceil(n/2), the period-3 indicator of n = 1 (mod 3),
and the triangular numbers n(n+1)/2.  All arithmetic is exact.

Each module's `__all__` is its share of the public API, and the
package's `__all__` is their union; a helper outside it is imported
by its module path.
"""

from .classifier import *
from .exactalg import *
from .seqengine import *
from .veritool import *

__version__ = "0.1.0"

__all__ = classifier.__all__ + exactalg.__all__ + seqengine.__all__ + veritool.__all__
