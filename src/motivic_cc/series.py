"""Truncated formal power series in t over an exact coefficient ring.

A :class:`TSeries` stores coefficients for t^0 .. t^N; every operation
truncates at N and mixing different truncation orders (or different
coefficient rings) is an error rather than a silent re-truncation.  Every
coefficient is an :class:`LPoly` over the series' ring, a :class:`VarSet`, so
the same series code serves Q (the ring ``QQ`` with no variables), the
motivic Laurent ring in L, Z[u,v] and Q[y^(1/2)].  Each output coefficient of
``*``, ``invert``, ``exp`` and ``log`` is one sum of products, one ``LPoly.dot``.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .lpoly import LPoly, VarSet


class OrderMismatchError(ValueError):
    """Series operands have different truncation orders."""


class NonUnitError(ValueError):
    """Constant term is not 1 where a normalized series is required."""


class IntegralityError(ArithmeticError):
    """A coefficient left the declared integral subring."""


class TSeries:
    """Power series in t truncated at a fixed order."""

    __slots__ = ("ring", "coeffs")

    def __new__(cls, ring: VarSet, coeffs: Sequence):
        if not coeffs:
            raise ValueError("a series needs at least the t^0 coefficient")
        return cls._of(ring, [ring.coerce(c) for c in coeffs])

    @classmethod
    def _of(cls, ring: VarSet, coeffs: Sequence[LPoly]) -> "TSeries":
        """A series of coefficients already in ``ring``: nothing is coerced or checked."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "ring", ring)
        object.__setattr__(obj, "coeffs", tuple(coeffs))
        return obj

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("TSeries is immutable")

    def __reduce__(self):
        return TSeries, (self.ring, self.coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def one(cls, ring: VarSet, order: int) -> "TSeries":
        return cls._of(ring, [ring.one] + [ring.zero] * order)

    @classmethod
    def from_terms(cls, ring: VarSet, order: int, terms: dict[int, object]) -> "TSeries":
        """The series of ``terms[n] t^n`` through t^order; terms past the order are dropped."""
        return cls(ring, [terms.get(n, 0) for n in range(order + 1)])

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "TSeries") -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"truncation orders differ: {self.order} vs {other.order}")
        if self.ring != other.ring:
            raise OrderMismatchError(
                f"coefficient rings differ: {self.ring} vs {other.ring}")

    def __add__(self, other: "TSeries") -> "TSeries":
        self._check(other)
        return TSeries._of(self.ring, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other) -> "TSeries":
        if not isinstance(other, TSeries):  # a zero coefficient stays as it is
            c = self.ring.coerce(other)
            return TSeries._of(self.ring, [a * c if a.num else a for a in self.coeffs])
        self._check(other)
        a, b, ring = self.coeffs, other.coeffs, self.ring
        return TSeries._of(ring, [LPoly.dot(ring, [(1, a[i], b[m - i]) for i in range(m + 1)])
                                  for m in range(self.order + 1)])

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, TSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def pow_int(self, m: int) -> "TSeries":
        if m < 0:  # before the loop: m >>= 1 never reaches 0 from below
            raise ValueError(f"negative power {m}: invert the series first")
        result = TSeries.one(self.ring, self.order)
        base = self
        while m:
            if m & 1:
                result = result * base
            base = base * base if m > 1 else base
            m >>= 1
        return result

    def invert(self) -> "TSeries":
        """Multiplicative inverse of a series with constant term 1."""
        if self.coeffs[0] != self.ring.one:
            raise NonUnitError(f"constant term is {self.coeffs[0]}, not 1")
        c, ring = self.coeffs, self.ring
        out = [ring.one]
        for m in range(1, self.order + 1):
            out.append(LPoly.dot(ring, [(-1, c[k], out[m - k]) for k in range(1, m + 1)]))
        return TSeries._of(self.ring, out)

    def exp(self) -> "TSeries":
        """exp of a series with zero constant term."""
        if self.coeffs[0] != self.ring.zero:
            raise NonUnitError(f"exp needs zero constant term, got {self.coeffs[0]}")
        c, ring = self.coeffs, self.ring
        out = [ring.one]
        for m in range(1, self.order + 1):
            out.append(LPoly.dot(ring, [(k, c[k], out[m - k]) for k in range(1, m + 1)], m))
        return TSeries._of(self.ring, out)

    def log(self) -> "TSeries":
        """log of a series with constant term 1."""
        if self.coeffs[0] != self.ring.one:
            raise NonUnitError(f"log needs constant term 1, got {self.coeffs[0]}")
        c, ring = self.coeffs, self.ring
        out = [ring.zero]
        for m in range(1, self.order + 1):
            out.append(LPoly.dot(ring, [(m, c[m], ring.one)]
                                 + [(-k, out[k], c[m - k]) for k in range(1, m)], m))
        return TSeries._of(self.ring, out)

    def subst(self, k: int = 1, sign: int = 1) -> "TSeries":
        """The substitution t -> sign * t^k, truncated at the same order."""
        if k < 1 or sign not in (1, -1):
            raise ValueError(f"bad substitution t -> {sign}*t^{k}")
        out = [self.ring.zero] * (self.order + 1)
        for n, c in enumerate(self.coeffs):
            if n * k > self.order:
                break
            out[n * k] = c if (sign == 1 or n % 2 == 0) else -c
        return TSeries._of(self.ring, out)

    def map_coeffs(self, target: VarSet, f: Callable) -> "TSeries":
        """Apply a coefficient-ring homomorphism f to every coefficient; zero maps to zero."""
        return TSeries(target, [f(c) if c.num else target.zero for c in self.coeffs])

    def assert_integral(self, what: str = "series") -> "TSeries":
        """Fail loudly if any coefficient left the declared integral subring."""
        for n, c in enumerate(self.coeffs):
            if not c.is_integral():
                raise IntegralityError(f"{what}: t^{n} coefficient {c} is not integral")
        return self

    def __str__(self) -> str:
        parts = []
        for n, c in enumerate(self.coeffs):
            if not c.num:
                continue
            parts.append(f"({c})*t^{n}" if n else f"({c})")
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"TSeries[{self.ring}; N={self.order}]<{self}>"
