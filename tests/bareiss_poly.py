"""The fraction-free (Bareiss) determinant run on Poly entries, kept as an oracle.

``linalg.poly_det`` reads the determinant off one integer determinant
by Kronecker substitution. This is the elimination it replaced: the
integer ``_echelon`` step, with every division an exact polynomial
division, so the tests can diff the two on the same matrices.
"""

from __future__ import annotations

from chipsplit.linalg import Poly


def exact_quotient(a: Poly, b: Poly) -> Poly:
    """a / b for a nonzero b that divides a; raises on a remainder or a fractional coefficient."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    lead = b.coeffs[-1]
    dn = b.degree
    quot = [0] * max(len(rem) - dn, 0)
    for i in range(len(rem) - dn - 1, -1, -1):
        c, r = divmod(rem[i + dn], lead)
        if r:
            raise ValueError("polynomial division was not exact")
        quot[i] = c
        if c:
            for j, coeff in enumerate(b.coeffs):
                rem[i + j] -= c * coeff
    if any(rem):
        raise ValueError("polynomial division was not exact")
    return Poly(quot)


def bareiss_poly_det(rows) -> Poly:
    """Determinant of a square matrix of Polys and ints by Bareiss elimination in Z[x]."""
    m = [[entry if isinstance(entry, Poly) else Poly.constant(entry) for entry in row] for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    sign = 1
    prev = Poly.constant(1)
    for c in range(n):
        row = m[c]
        p = row[c]
        if not p:
            pivot = next((i for i in range(c + 1, n) if m[i][c]), None)
            if pivot is None:
                return Poly([])
            m[c], m[pivot] = m[pivot], row
            row = m[c]
            p = row[c]
            sign = -sign
        for i in range(c + 1, n):
            other = m[i]
            f = other[c]
            for j in range(c + 1, n):
                other[j] = exact_quotient(p * other[j] - f * row[j], prev)
            other[c] = Poly([])
        prev = p
    return prev * sign
