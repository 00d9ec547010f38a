"""Accordion graphs and quartic circulant graphs.

Constructors for the families, arithmetic isomorphism deciders, explicit
witness maps from the constructive characterizations, a brute-force
isomorphism oracle, and a CLI that cross-validates everything.

The package's public names are each module's ``__all__``, re-exported here.
"""

from .deciders import *
from .errors import *
from .graphs import *
from .modarith import *
from .oracle import *
from .serialize import *
from .witnesses import *

__version__ = "0.1.0"
