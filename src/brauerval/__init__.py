"""Exact verification of symbol algebra constructions over Laurent towers.

The engine builds degree-p symbol algebras over iterated Laurent series
fields, computes their value groups in exact rational arithmetic, and
machine-checks division certificates, trace-value obstructions, and
witness-carrying rewrite chains.  Every verdict comes with a structured
certificate tree; nothing is asserted without a checked derivation.
Each name is imported from the module that defines it.
"""

__version__ = "0.1.0"
