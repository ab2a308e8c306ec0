"""Exact-arithmetic Mazur-Tate elements and finite-level Iwasawa invariants.

The package is organized bottom-up: padic (number fields and local data;
montes factors every repeated block mod p), modsym (Manin-symbol
presentations and Hecke theory), mazurtate (group-ring elements and
mu/lambda invariants), analysis (mu_min and invariant tables), cli (batch
front end) and verify (the identity checks of its verify command).
"""

__version__ = "0.1.0"
