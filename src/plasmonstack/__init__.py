"""Plasmon resonance modes of multi-layer confocal-ellipse structures.

Library layout:

* :mod:`plasmonstack.geometry`   confocal elliptic coordinates, layer stacks
* :mod:`plasmonstack.materials`  contrast parameter and Drude dispersion
* :mod:`plasmonstack.npcore`     Fourier-basis layer-potential actions and matrices
* :mod:`plasmonstack.charpoly`   exact characteristic polynomials and recursions
* :mod:`plasmonstack.spectrum`   cross-validated mode computation
* :mod:`plasmonstack.field`      density solves and perturbed field evaluation
* :mod:`plasmonstack.bie`        independent Nystrom discretization on general curves
* :mod:`plasmonstack.cli`        command-line reproduction pipelines
"""

import os

# PLASMONSTACK_THREADS caps the BLAS/OpenMP thread pools.  The pools read
# their variables once, when numpy loads, so the cap is applied here, before
# any submodule (and with it numpy) is imported.
if os.environ.get("PLASMONSTACK_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["PLASMONSTACK_THREADS"])

__version__ = "0.1.0"

from .geometry import EllipticPoint, LayerStack
from .materials import DrudeParams
from .spectrum import ModeSet, PlasmonMode, modes

__all__ = [
    "__version__",
    "EllipticPoint",
    "LayerStack",
    "DrudeParams",
    "ModeSet",
    "PlasmonMode",
    "modes",
]
