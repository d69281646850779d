"""Monte Carlo estimation of Sobol' sensitivity indices.

Pick-freeze estimators of the closed and total indices (correlation,
oracle-centered, and generalized four-vector kinds), product-form and
tabulated test models with exact ANOVA, a brute-force enumeration oracle,
and a replicated efficiency benchmark harness.

Each public name is imported from its module: ``core`` (index sets, the
seeded sampler), ``models``, ``estimators``, ``experiments``, ``theory``
(the exact oracle), ``verification`` and ``cli``.
"""

__version__ = "0.1.0"
