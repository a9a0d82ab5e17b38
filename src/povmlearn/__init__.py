"""Learning a minimum-error qubit measurement from unlabeled quantum data.

The library simulates an ensemble of qubits drawn from two unknown pure
states and learns, from destructive single-qubit measurements alone, the
two-outcome POVM that discriminates the states with minimum error.  The
learners work in Bloch-vector form, so each reduces to closed-form plane
geometry plus shot-noise statistics; only the Helstrom oracle they are
checked against builds complex density matrices, and it diagonalizes their
2x2 difference in closed form from its entries.  Each name is imported
from its module (povmlearn.bloch, povmlearn.experiment, ...); the package
itself holds only __version__.
"""

__version__ = "0.1.0"
