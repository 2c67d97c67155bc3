"""Exact degrees of noninvertibility for finite dynamical maps.

The central quantity: for f mapping an n-point set to itself,

    deg(f) = (1/n) * sum over y of |f^-1(y)|^2,

which is 1 exactly for bijections and n exactly for constant maps.  The
package computes it for a zoo of combinatorial sorting and chip-moving
dynamics, always two ways: a closed form and an independent brute-force
enumeration over the explicit transition table.
"""

from .endo import (EndoMap, FiberHistogram, collisions, compose, degree,
                   fiber_sizes, is_bijection, is_constant, iterate)
from .bubble import (bubble_degree_formula, bubble_endomap, bubble_moment,
                     bubble_preimage_count, bubble_sort, word_bubble_endomap,
                     word_degree_formula)
from .stacksort import catalan, stack_degree
# the one-swap step on permutations stays at noninv.nibble.nibble; exporting
# it here would shadow the submodule itself
from .nibble import (binary_degree, chip_fire, nibble_binary,
                     nibble_degree_formula, nibble_degree_limit)
from .solitaire import (bulgarian, bulgarian_degree, carolina,
                        carolina_degree, eta_series, monte_carlo_bulgarian)
from .hecke import HeckeWord, conjecture2_scan, hecke_endomap, updown_count
from .extremal import (build_tree_map, check_theorem3_bound, check_theorem7,
                       exhaustive_ratio_search, prop1_exact_degrees)

__version__ = "0.1.0"

__all__ = [
    "EndoMap", "FiberHistogram", "degree", "fiber_sizes", "collisions",
    "compose", "iterate", "is_bijection", "is_constant",
    "bubble_sort", "bubble_endomap", "bubble_degree_formula",
    "bubble_preimage_count", "bubble_moment", "word_bubble_endomap",
    "word_degree_formula",
    "stack_degree", "catalan",
    "nibble_degree_formula", "nibble_degree_limit", "nibble_binary",
    "chip_fire", "binary_degree",
    "bulgarian", "bulgarian_degree", "monte_carlo_bulgarian", "carolina",
    "carolina_degree", "eta_series",
    "HeckeWord", "hecke_endomap", "updown_count", "conjecture2_scan",
    "build_tree_map", "prop1_exact_degrees", "check_theorem7",
    "check_theorem3_bound", "exhaustive_ratio_search",
    "__version__",
]
