"""Toolkit for gracefully labeled functional digraphs and functional trees.

A function f on Z_n defines the functional digraph with edges (i, f(i)).
This package enumerates, counts, and cross-verifies graceful labelings of
such digraphs: the sign-pattern expansion parametrization, signed-permutation
generators, exact sparse generating functions for label sequences, the
directed matrix tree theorem, Whitty's determinantal identity, an
edit-distance-one neighbor generator, and exhaustive small-n conjecture
sweeps.  Every nontrivial identity ships with an independent brute-force
oracle at desk scale.  Each name is imported from its defining module
(``gracelab.digraph``, ``gracelab.whitty``, ...); the package exports only
``__version__``.
"""

__version__ = "0.1.0"
