"""GF(p) arithmetic — the paper's "SQL-only" finite-fields variant.

§V-C: *"An SQL-only implementation could alternatively choose a prime number
p known to be larger than any vertex ID and use normal integer arithmetic
modulo p, giving the data type of the vertex IDs the structure of GF(p)."*

We use the Mersenne prime p = 2^31 − 1.  With ``A, x < p`` the product
``A*x`` stays below 2^62, so the whole map inlines as a plain SQL ``bigint``
expression — no UDF, pure Catalyst.  Vertex IDs must lie in ``[0, p)``:
every generator in :mod:`repro.graphs` guarantees that, and
:func:`checked_sql` rejects any other ID inside the query that reads it
(outside the domain ``h`` is no bijection: ``x`` and ``x + p`` collide).
"""
from __future__ import annotations

import numpy as np

#: The field size: Mersenne prime 2^31 - 1.
P = (1 << 31) - 1


def axb(a: int, x: int, b: int) -> int:
    """``(a*x + b) mod p`` — scalar reference."""
    return (a * x + b) % P


def axb_vec(a: int, x: np.ndarray, b: int) -> np.ndarray:
    """Vectorised :func:`axb` over an int64 array."""
    return (a * np.asarray(x, dtype=np.int64) + b) % P


def inv(a: int) -> int:
    """Multiplicative inverse mod p (Fermat); ``a`` must be nonzero mod p."""
    if a % P == 0:
        raise ZeroDivisionError("0 has no inverse in GF(p)")
    return pow(a, P - 2, P)


def axb_inverse(a: int, y: int, b: int) -> int:
    """Solve ``y = a*x + b (mod p)`` for ``x``."""
    return (inv(a) * (y - b)) % P


def axb_sql(a: int, x_expr: str, b: int) -> str:
    """SQL expression for ``(a*x + b) mod p`` over a column expression.

    Inputs are guaranteed non-negative and below p, so ``%`` (not ``pmod``)
    is safe and the intermediate product fits in a bigint.
    """
    return f"((({a} * ({x_expr})) % {P} + {b}) % {P})"


def check_domain(x: int) -> bool:
    """True iff ``x`` is a valid GF(p) vertex ID."""
    return 0 <= x < P


def checked_sql(x_expr: str) -> str:
    """``x_expr``, or a query error naming the domain if it lies outside it."""
    return (
        f"(case when {x_expr} >= 0 and {x_expr} < {P} then {x_expr} "
        f"else raise_error(concat('vertex ID ', {x_expr}, "
        f"' is outside the GF(p) domain [0, {P})')) end)"
    )
