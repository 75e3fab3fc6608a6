"""Randomisation-method abstraction used by the Randomised Contraction core.

§V-C of the paper defines three ways to draw the per-round bijection ``h_i``
on the vertex-ID domain:

* **finite fields** (``gfp``, ``gf64``): ``h(x) = A·x + B`` over GF(p) or
  GF(2^64).  These use the paper's performance optimisation of storing
  ``min h(w)`` directly (the graph gets *relabelled* each round), and the
  Fig 4 back-to-front composition via an affine ``(A, B)`` accumulator.
* **encryption** (``feistel``): ``h(x) = e_k(x)`` for a keyed cipher; the
  representative is the argmin neighbour (labels stay original vertex IDs).
* **random reals** (``reals``): a materialised table of ``rand()`` values,
  one per vertex — full randomisation; argmin semantics like encryption.

Each method knows how to build one round's representative table R(v, r)
through the :class:`repro.mppdb.Engine`, and how a label missing from the
next round's R table must be patched during composition (``coalesce``'s
second argument in Figs 3/4).  The two argmin methods relabel by the
identity: their composition hooks keep every label as it is, so Fig 4 runs
one compose loop for all four methods.
"""
from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Any

from . import feistel as _feistel
from . import gf2_64 as _gf64
from . import gfp as _gfp


class Method(ABC):
    """One randomisation method; stateless apart from registered UDFs."""

    #: method name used in APIs / reports.
    name: str
    #: Parameters of the identity relabelling (Fig 4's initial accumulator).
    identity_params: Any = None

    def prepare(self, spark) -> None:
        """Register any SQL UDFs this method needs (idempotent)."""

    @abstractmethod
    def draw(self, rng: random.Random) -> Any:
        """Draw one round's random parameters."""

    @abstractmethod
    def make_rep_table(self, eng, e_table: str, out: str, params: Any) -> int:
        """CTAS the representative table ``out(v, r)`` from edge table ``e_table``.

        ``e_table`` holds the symmetric edge list (columns v, w; loop edges
        possible).  Returns the row count of ``out``.
        """

    def missing_sql(self, params: Any, x_expr: str) -> str:
        """SQL patch for labels absent from the next R table (coalesce arm 2).

        Argmin methods keep original IDs, so the patch is the identity.
        Finite-field methods override this with ``h(x)`` / the accumulated
        affine map.
        """
        return x_expr

    def compose_params(self, acc: Any, params: Any) -> Any:
        """Return ``acc ∘ h_params`` — Fig 4's stack accumulation step.

        Argmin methods relabel by the identity, so ``acc`` stays as it is.
        """
        return acc

    def h_scalar(self, params: Any, x: int) -> int:
        """Scalar ``h(x)`` — used by tests."""
        raise NotImplementedError(f"{self.name} has no scalar form")


class _FiniteFieldMethod(Method):
    """Shared SQL shape for the two finite-field instantiations."""

    #: The affine identity ``x ↦ 1·x + 0`` (Fig 4's initial ``(A, B)``).
    identity_params = (1, 0)

    @abstractmethod
    def h_sql(self, params: tuple[int, int], x_expr: str) -> str:
        """SQL expression computing ``A·x + B`` in the field."""

    def checked_sql(self, x_expr: str) -> str:
        """``x_expr`` as the reps query reads it; a field can reject IDs here."""
        return x_expr

    def make_rep_table(self, eng, e_table: str, out: str, params) -> int:
        hv = self.h_sql(params, "v")
        # The check runs inside the aggregate, on every row before any h(v);
        # E is symmetric, so checking w checks every endpoint.
        hw = self.h_sql(params, self.checked_sql("w"))
        return eng.ctas(
            out,
            f"select v, least({hv}, min({hw})) as r from {eng.ref(e_table)} group by v",
            label="reps",
        )

    def missing_sql(self, params, x_expr: str) -> str:
        return self.h_sql(params, x_expr)


class GFPMethod(_FiniteFieldMethod):
    """Finite fields over GF(p), p = 2^31 − 1 — pure SQL, no UDF (default)."""

    name = "gfp"

    def draw(self, rng: random.Random) -> tuple[int, int]:
        return rng.randint(1, _gfp.P - 1), rng.randint(0, _gfp.P - 1)

    def h_sql(self, params, x_expr: str) -> str:
        a, b = params
        return _gfp.axb_sql(a, x_expr, b)

    def checked_sql(self, x_expr: str) -> str:
        return _gfp.checked_sql(x_expr)

    def h_scalar(self, params, x: int) -> int:
        a, b = params
        return _gfp.axb(a, x, b)

    def compose_params(self, acc, params):
        # acc = f(x)=Ax+B applied AFTER g(x)=αx+β: f∘g = (Aα)x + (Aβ+B).
        a, b = acc
        alpha, beta = params
        return (a * alpha) % _gfp.P, (a * beta + b) % _gfp.P


class GF64Method(_FiniteFieldMethod):
    """Finite fields over GF(2^64) via the ``axb_gf64`` pandas UDF."""

    name = "gf64"

    def prepare(self, spark) -> None:
        _gf64.register(spark)

    def draw(self, rng: random.Random) -> tuple[int, int]:
        a = 0
        while a == 0:
            # Avoid int64 min so the literal needs no special casing anywhere.
            a = rng.randint(-(2**63) + 1, 2**63 - 1)
        b = rng.randint(-(2**63) + 1, 2**63 - 1)
        return a, b

    def h_sql(self, params, x_expr: str) -> str:
        a, b = params
        return (
            f"{_gf64.SQL_NAME}(cast('{a}' as bigint), {x_expr}, cast('{b}' as bigint))"
        )

    def h_scalar(self, params, x: int) -> int:
        a, b = params
        return _gf64.axb(a, x, b)

    def compose_params(self, acc, params):
        a, b = acc
        alpha, beta = params
        return _gf64.to_i64(_gf64.mul(a, alpha)), _gf64.axb(a, beta, b)


class FeistelMethod(Method):
    """The encryption method with a 64-bit Feistel cipher (Blowfish stand-in)."""

    name = "feistel"

    def prepare(self, spark) -> None:
        _feistel.register(spark)

    def draw(self, rng: random.Random) -> int:
        return rng.randint(0, 2**64 - 1)

    def _e(self, key: int, x_expr: str) -> str:
        return f"{_feistel.SQL_NAME}({x_expr}, cast('{key & (2**63 - 1)}' as bigint))"

    def make_rep_table(self, eng, e_table: str, out: str, params) -> int:
        ev = self._e(params, "v")
        ew = self._e(params, "w")
        return eng.ctas(
            out,
            f"select v, case when {ev} <= min({ew}) then v "
            f"else min_by(w, {ew}) end as r "
            f"from {eng.ref(e_table)} group by v",
            label="reps",
        )

    def h_scalar(self, params: int, x: int) -> int:
        return _feistel.encrypt(x, params & (2**63 - 1))


class RandomRealsMethod(Method):
    """The random reals method: a materialised table of uniform h-values."""

    name = "reals"

    def draw(self, rng: random.Random) -> int:
        return rng.randint(0, 2**31 - 1)

    def make_rep_table(self, eng, e_table: str, out: str, params) -> int:
        e = eng.ref(e_table)
        h = f"__h_{out}"
        eng.ctas(
            h,
            f"select v, rand({params}) as h from (select distinct v from {e})",
            label="reals_h",
        )
        n = eng.ctas(
            out,
            "select e.v as v, "
            "case when hv.h <= min(hw.h) then e.v else min_by(e.w, hw.h) end as r "
            f"from {e} e join {eng.ref(h)} hv on e.v = hv.v "
            f"join {eng.ref(h)} hw on e.w = hw.v "
            "group by e.v, hv.h",
            label="reps",
        )
        eng.drop(h)
        return n


_METHODS = {m.name: m for m in (GFPMethod(), GF64Method(), FeistelMethod(), RandomRealsMethod())}


def get_method(name: str | Method) -> Method:
    """Resolve a method by name (``gfp`` | ``gf64`` | ``feistel`` | ``reals``)."""
    if isinstance(name, Method):
        return name
    try:
        return _METHODS[name]
    except KeyError:
        raise ValueError(f"unknown randomisation method {name!r}; "
                         f"choose from {sorted(_METHODS)}") from None
