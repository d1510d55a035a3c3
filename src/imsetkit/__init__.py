"""imset-kit: imsets, supermodular cone geometry, CI models, and Markov moves.

The package is organized bottom-up:

* groundset: ground sets, bitmask subsets, triplets, the graded and
  elementary orders.
* imsets: the vector type over P(N) (SetFunction, with Imset its
  integer-valued subclass), semi-elementary imsets, the four-rank
  elementary column table, the configuration matrix, canonical
  decomposition.
* linalg: one fraction-free pivot step behind exact rank, nullspace and
  LP feasibility (integer-tableau simplex, Bland).
* supermodular: supermodularity, skeletal (extreme-ray) testing, the
  superset/subset indicators and the skeletal constructors.
* ci: joint probability tables, multiinformation, CI models, the
  semi-graphoid closure.
* faces: face descriptions of the structural cone for a given triplet.
* membership: lattice/structural/combinatorial classification of imsets.
* relations, markov: kernel relations of the configuration, lattice-basis
  reduction, relation classification, Markov basis search.
* cli: the imset-kit command line.
"""

from .groundset import ElementaryIndex, GroundSet, Subset, Triplet

__all__ = ["GroundSet", "Subset", "Triplet", "ElementaryIndex"]

__version__ = "0.1.0"
