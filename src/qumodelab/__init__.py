"""qumodelab: desk-scale simulation of bosonic qumode quantum devices.

Dense truncated-Fock-space building blocks (ladder operators, Gaussian
gates, unitary propagation) plus the application layers built on them:
vibronic Franck-Condon spectra, single-bosonic-mode embeddings of k-level
Hamiltonians, Kerr-oscillator ESQPT spectroscopy, chemical double wells,
graph hafnians, and qudit phase estimation.

The package exports exactly the ``__all__`` of each library module.
"""

from .errors import *
from .fock import *
from .gates import *
from .graphs import *
from .kerrcat import *
from .qpe import *
from .sbm import *
from .spectrum import *
from .vibronic import *

__version__ = "0.1.0"
