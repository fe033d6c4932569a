"""Exact clique counts for generalized Paley graphs.

The package computes the number of complete subgraphs of orders three and
four in G_k(q) by independent exact routes (enumeration, subgraph edge
counting, and two character-sum closed forms), verifies the algebraic
identities connecting them, and reproduces the multicolor Ramsey lower
bounds that zero counts certify.
"""

from .characters import MultChar, canonical_char, orthogonality_sum, trivial_char
from .cyclotomic import CycInt, cyclotomic_polynomial, zeta_pow
from .finite_field import (FieldContext, build_field, is_kth_power,
                           kth_power_residues, split_prime_power,
                           validate_paley_params)
from .hypergeometric import (check_reduction, check_transformation,
                             f21_scaled, f32_indexed, f32_scaled)
from .jacobi import (J0, JJ0, QuadFormRep, R_k, S_k, binom_symbol_scaled,
                     jacobi_sum, solve_quadform)
from .orbits import (build_Xk, burnside_Nk, fixed_point_count, generate_group,
                     orbit_decompose)
from .paley_graph import (CliqueCountResult, K3_closed, K3_corollary,
                          K4_corollary, K4_subgraph_method, K4_thm1, K4_thm2,
                          PaleyGraph, brute_force_K, build_graph, clique_count)
from .ramsey_search import (SearchReport, admissible_q, paper_bounds_suite,
                            search_zeros)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
