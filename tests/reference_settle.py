"""The census's settling by rank on the whole top-edge matrix, kept as an oracle.

``enumeration._rank_settler`` drops a support's top-diagonal points and
their rows before the kernel, and reads the top entries back from the
reduced kernel vector. This is the settle it replaced: the whole
matrix, the origin's column and then the points' in engine order, on
one ``PrefixKernel``, so the tests can diff the two on the same stream.
"""

from __future__ import annotations

from chipsplit.enumeration import PRUNE_INVERTIBILITY, _kernel_resolution
from chipsplit.linalg import PrefixKernel
from chipsplit.models import fundamental_generator
from chipsplit.pascal import top_edge_columns


def full_rank_settler(points, d: int):
    """A function of an engine index tuple: its resolution and outcome, off the whole matrix."""
    table = top_edge_columns(d)
    prefix = PrefixKernel()

    def settle(combo):
        support = [(0, 0), *(points[m] for m in combo)]
        basis = prefix.kernel([table[p] for p in support])
        if not basis:
            return PRUNE_INVERTIBILITY, None
        outcome = fundamental_generator(support, basis[0], d) if len(basis) == 1 else None
        return _kernel_resolution(len(basis), outcome)

    return settle
