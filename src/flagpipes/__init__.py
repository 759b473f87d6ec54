"""flagpipes: flag positroid pipe dreams and their quotient calculus.

Submodules
----------
perm        permutations, Bruhat order, reduced words
pipedream   tile grids, FPP construction, rotation to partition shape
pathgraph   non-intersecting path families and basis sets
positroid   positroids as decreasing-pivot dreams; quotients; standardization
flagbuild   row appending, quotient covers, flags
decperm     decorated permutations and cyclic-shift covers
poset       the quotient order on all positroids of a ground set
ratmat      exact rational matrices, flag minors, sign rules
render      ASCII/SVG pictures
serialize   JSON round-trips for every public value type
verify      the published-fact check suite behind ``flagpipes verify``
cli         the ``flagpipes`` command line
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
