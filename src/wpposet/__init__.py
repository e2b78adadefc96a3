"""Exact combinatorics of the weighted partition poset.

Poset construction and invariants (partitions), bicolored tree families
(trees), chains indexed by trees (chains), an edge labeling with its
shellability checks (labeling), integral (co)homology of order complexes
(homology), and straightening of cochains onto comb bases (straighten).
The sixteen end-to-end checks live in acceptance; the command line
surface is wpposet.cli.  ResourceCapError, raised wherever an
enumeration would pass its cap, is defined in partitions and exported
here.
"""

from .partitions import ResourceCapError

__all__ = ["ResourceCapError", "__version__"]
__version__ = "0.1.0"
