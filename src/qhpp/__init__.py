"""Exact arithmetic for Hirzebruch-Jung continued fractions, blow-ups of the
plane at the divisor-class level, chain contractions, and the canonical-class
trichotomy of the resulting rank-one rational surfaces."""

from . import hjcf, kollar, lattice, contraction, families
from .hjcf import *
from .kollar import *
from .lattice import *
from .contraction import *
from .families import *

__version__ = "0.1.0"

__all__ = [
    *hjcf.__all__,
    *kollar.__all__,
    *lattice.__all__,
    *contraction.__all__,
    *families.__all__,
]
