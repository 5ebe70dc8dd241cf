"""Exact face classification of coadjoint orbitopes.

For a compact semisimple group given by root data and a chamber point x, the
package classifies the faces of conv(K.x) up to conjugation by x-connected
subsets of simple roots, verifies the classification against brute-force
exact convex geometry on the Kostant polytope, and cross-checks it
numerically on su(n) matrix orbits.

The records are NamedTuples.  The names of the numeric check resolve on first
use (PEP 562), so importing the package loads neither `numeric` nor numpy.
"""

from .errors import (CapExceededError, InvalidInputError, OrbitopeError,
                     TheoremViolationError)
from .faces import (FaceClassification, FaceDescriptor, classify_faces,
                    parabolic_report, phi_of_descriptor, psi_of_polytope_face,
                    saturate, x_connected_subsets)
from .integrality import (FaceWeight, WeightData, check_integral,
                          induce_face_weight)
from .polytope import (ExactPolytope, FaceOrbit, Facet, KostantPolytope,
                       PolytopeFace, act_on_faces, hull, support_set)
from .roots import ChamberPoint, RootSystem, build_root_system, chamber_point
from .strata import StratumDims, StratumPoset, build_poset, stratum_dim
from .weyl import WeylGroup, build_weyl_group, weyl_orbit

__version__ = "0.1.0"

#: the names served from `numeric`, imported on first access
_NUMERIC = frozenset(("AscentResult", "HessianReport", "ascend", "hessian_signature",
                      "matrix_orbit_point", "verify_face_numeric"))


def __getattr__(name):
    if name in _NUMERIC:
        from . import numeric
        return getattr(numeric, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))

__all__ = [
    "AscentResult", "CapExceededError", "ChamberPoint", "ExactPolytope",
    "FaceClassification", "FaceDescriptor", "FaceOrbit", "FaceWeight", "Facet",
    "HessianReport", "InvalidInputError", "KostantPolytope", "OrbitopeError",
    "PolytopeFace",
    "RootSystem", "StratumDims", "StratumPoset", "TheoremViolationError",
    "WeightData", "WeylGroup",
    "act_on_faces", "ascend", "build_poset", "build_root_system",
    "build_weyl_group", "chamber_point", "check_integral", "classify_faces",
    "hessian_signature", "hull",
    "induce_face_weight", "matrix_orbit_point", "parabolic_report",
    "phi_of_descriptor", "psi_of_polytope_face", "saturate", "stratum_dim",
    "support_set", "verify_face_numeric", "weyl_orbit", "x_connected_subsets",
]
