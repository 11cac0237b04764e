"""extenlab: a finite-resolution laboratory for continuous-extension problems.

Compact metric spaces are represented by annotated eps-nets; convergent
map families, extension constructions, and extendibility certificates are
all checked at desk scale with explicit margins.
"""

from .dyadic import format_epsilon, is_dyadic, parse_epsilon
from .errors import (DegenerateSeparation, DiameterTooLarge, DomainMismatch,
                     EpsilonTooLarge, ExtenlabError, ExtensionFailure,
                     GluingMismatch, InvalidArgument, LoopTooCoarse,
                     NotCoveredRefusal, UnknownName)
from .metric import (EpsilonGraph, Modulus, Net, build_epsilon_graph,
                     check_modulus, measured_modulus, sup_distance,
                     widest_path_value)
from .spaces import (AnnotatedSpace, SpacePair, catalog_names, cone,
                     index_cutoff, make_pair, make_space, opc_disjoint_union,
                     osc_cutoff, pair_names, product_with, spiked_base_pair,
                     subspace, urysohn)
from .maps import (Homotopy, MapFamily, MapSample, collapse_retraction,
                   cone_contraction, constant_map, dugundji_extend,
                   equiconnect_homotopy, glue_homotopy_extension,
                   homotopy_between, restrict, small_diameter_extend,
                   winding_number)
from .families import FAMILY_NAMES, example_family, explicit_extension
from .certificates import (ClopenObstruction, MandatoryCrossingObstruction,
                           PathComponentObstruction, PositiveCertificate,
                           Verdict, WindingObstruction,
                           build_negative_certificate, certificate_for,
                           check_certificate, disjointify)
from .runs import Report, list_examples, run_example

__version__ = "0.1.0"
