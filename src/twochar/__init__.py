"""twochar: characters of 2-representations of finite groups.

Exact computational toolkit: finite groups as Cayley tables, bar-complex
group cohomology with root-of-unity coefficients, Shapiro's lemma via an
explicit transfer chain equivalence, crossed modules and their strict
2-groups, 2-representations by cocycle data, a Burnside-style ring of
subgroup/cocycle pairs with mark homomorphisms, and exact cyclotomic
2-character tables.
"""

from .errors import TwoCharError

__version__ = "0.1.0"

__all__ = ["TwoCharError", "__version__"]
