"""Linear complexity and k-error linear complexity of 2^n-periodic binary sequences.

Each public name is declared once, in the __all__ of the module that
defines it (core, counting, census or kerror); the package republishes
those four lists.
"""

from . import census, core, counting, kerror
from .core import *
from .counting import *
from .census import *
from .kerror import *

__version__ = "0.1.0"

__all__ = [*core.__all__, *counting.__all__, *census.__all__, *kerror.__all__]
