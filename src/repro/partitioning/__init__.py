"""Tensor partitioning across threads (paper Section IV-D), as the
simulator models it.

Output tensor partitioning splits the elements of a stage's output
evenly across its threads; input tensor partitioning additionally ships
each thread only the input elements its outputs actually depend on
(possible for convolutions, whose outputs have local receptive fields —
not for fully-connected layers, whose outputs read every input).  The
runtime runs each stage on one thread; these receptive-field counts are
what the simulator charges a plan's ``y_i`` threads for.
"""

from .receptive import (
    chain_required_inputs,
    partitioned_input_elements,
    required_inputs,
)

__all__ = [
    "chain_required_inputs",
    "partitioned_input_elements",
    "required_inputs",
]
