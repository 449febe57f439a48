"""Gradient-free training of 0/1 step-activated dense networks.

The optimizer is a block coordinate descent over a penalty reformulation of
the network fit: every sub-problem is solved in closed form (hardmax prox,
entrywise step prox, rowwise hard thresholding) or by conjugate gradients
seeded with a Woodbury solve, so no derivative of the discontinuous
activation is ever needed.  Column sparsity from the group regularizer
prunes whole hidden units.

Each public name is imported from its module (``stepbcd.core``,
``dataio``, ``prox``, ``solvers``, ``trainer``, ``metrics``, ``cli``);
the package root binds none of them.
"""

__version__ = "0.1.0"
