"""Exact-arithmetic Mazur-Tate elements and finite-level Iwasawa invariants.

The package is organized bottom-up: padic (number fields and local data),
modsym (Manin-symbol presentations and Hecke theory), mazurtate (group-ring
elements and mu/lambda invariants),
analysis (congruence searches and invariant tables), and cli (batch front
end).
"""

__version__ = "0.1.0"
