"""Few-photon scattering on a two-level emitter in a 1-D waveguide.

Time-domain amplitudes from the emitter memory kernel, closed-form and
numeric reversal probabilities, excitation dynamics, output-channel
grids, and a frequency-domain bridge for cross-validation.

Each module declares its public names in its own ``__all__``; the
package re-exports exactly those.
"""

from . import amplitudes, kernel, model, observables, quadrature, spectral
from .amplitudes import *  # noqa: F401,F403
from .kernel import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .observables import *  # noqa: F401,F403
from .quadrature import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(name for module in (model, quadrature, kernel, amplitudes, observables, spectral)
                 for name in module.__all__)
