"""Diagnostics for ill-posed textbook problems.

Four classroom problems that look routine but are not, and the
numerics that expose them: an ODE whose solution blows up inside the
requested interval, a Newton's-cooling fit whose exact answer is
physically impossible, a two-variable limit that depends on the
approach path, and an averaging recurrence whose limit is not the
midpoint.  See the README for a tour; the `illposed` command exposes
everything from the shell.

Each module's `__all__` is the one declaration of its public names:
the package re-exports every one of them, so a name added there is
importable from `illposed` with nothing to edit here.
"""

from . import blowup, cooling, expr, limits, ode, recurrence
from .blowup import *
from .cooling import *
from .expr import *
from .limits import *
from .ode import *
from .recurrence import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *expr.__all__,
    *ode.__all__,
    *blowup.__all__,
    *cooling.__all__,
    *recurrence.__all__,
    *limits.__all__,
]
