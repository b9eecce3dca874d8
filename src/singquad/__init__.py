"""Clenshaw-Curtis quadrature for endpoint-singular integrands.

Fast rule construction, exact aliasing error identities, coefficient
decay classification for profiles (1-x)^alpha (1+x)^beta g(x) with an
optional log(1-x) factor, and Richardson extrapolation driven by the
resulting error-exponent ladders.
"""

from . import accel, bench, engine, errors, rules, singular, transform
from .accel import *
from .bench import *
from .engine import *
from .errors import *
from .rules import *
from .singular import *
from .transform import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (accel, bench, engine, errors, rules, singular, transform)
    for name in module.__all__
]
