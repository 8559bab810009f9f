"""Exact-arithmetic toolkit certifying that the integral cohomology of the
generalized Kummer fourfold K2(A) is torsion free.

The pieces: exact linear algebra over Z and F_p (`linalg`), the Jordan-type
calculus of unipotent mod-3 actions (`jordan`), group cohomology of Z/3 on
lattices (`cohomology`), the rank-8 lattice model and its vanishing
certificate (`kummer`), a replayable certificate checker (`ledger`), the
shipped proof script (`proofscript`), and a CLI (`cli`).  The package root
re-exports nothing: import the submodule you need.
"""

__version__ = "0.1.0"
