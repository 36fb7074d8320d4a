"""Sparse Laurent polynomials with half-integer exponents over exact rationals.

A polynomial stores integer numerators ``num`` (exponent vector -> nonzero
``int``) over one ``int`` denominator ``den`` in canonical form: ``den > 0``,
``gcd(den, *num.values()) == 1``, and zero has ``den == 1``; ``terms`` reads
the coefficients back as ``Fraction``s.  One kernel, :meth:`LPoly.dot`, makes
every product and every sum of products over integer numerators, reducing
once.  Substitution and the Adams operations are monomial maps, one loop that
relabels exponents.  Over ``VS_NONE`` a polynomial is an exact rational.
Exponents are counted in units of 1/2 and stored doubled, so the tuple entry
``3`` means the variable appears with exponent 3/2 and ``-2`` means exponent
-1.  Odd (genuinely half-integral) exponents are only legal for the variables
declared half-admissible (``L`` and ``y``); ``u``, ``v`` and every other
symbol stay integral.

All values are immutable after construction and all operations are pure, so
instances can be shared freely between threads.  Structural equality equals
mathematical equality because the form is canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add
from types import MappingProxyType
from typing import Mapping, Union

Coeff = Union[int, Fraction]
Expvec = tuple[int, ...]

#: variables that may carry half-integer exponents
HALF_ADMISSIBLE = frozenset({"L", "y"})

#: variables whose distinguished square root is the negative one: the class
#: of the affine line localizes at -L^(1/2), so Adams operations satisfy
#: Psi_r(-L^(1/2)) = (-L^(1/2))^r.  The genus variable y uses +y^(1/2).
NEGATIVE_ROOT = frozenset({"L"})


class VariableMismatchError(ValueError):
    """Operands live over different variable sets."""


class ExactDivisionError(ArithmeticError):
    """Polynomial division left a remainder (or divided by zero)."""


class SubstitutionError(ValueError):
    """Substitution request is incomplete or needs an undeclared root."""


@dataclass(frozen=True)
class VarSet:
    """Ordered set of variable names fixing the monomial layout."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names: {self.names}")

    def index(self, name: str) -> int:
        return self.names.index(name)

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def __len__(self) -> int:
        return len(self.names)

    def __str__(self) -> str:
        return "(" + ",".join(self.names) + ")"


VS_NONE = VarSet(())
VS_L = VarSet(("L",))
VS_Y = VarSet(("y",))
VS_UV = VarSet(("u", "v"))


class LPoly:
    """Laurent polynomial over a fixed :class:`VarSet`: ``num`` over ``den``, canonical."""

    __slots__ = ("vars", "num", "den")

    def __init__(self, vars: VarSet, terms: Mapping[Expvec, Coeff]):
        n = len(vars)
        for exps, c in terms.items():
            if len(exps) != n:
                raise VariableMismatchError(
                    f"exponent vector {exps} does not match variables {vars}")
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"not an exact coefficient: {c!r}")
            for name, e in zip(vars.names, exps):
                if c and e % 2 != 0 and name not in HALF_ADMISSIBLE:
                    raise ValueError(
                        f"half-integer exponent {Fraction(e, 2)} on integral variable {name}")
        # over the lcm of the reduced denominators the numerators share no factor with it
        den = lcm(*(c.denominator for c in terms.values() if c))
        _set_vars(self, vars)
        _set_num(self, {tuple(e): c.numerator * (den // c.denominator)
                        for e, c in terms.items() if c})
        _set_den(self, den)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("LPoly is immutable")

    def __reduce__(self):
        return LPoly._reduce, (self.vars, self.num, self.den)

    @classmethod
    def _reduce(cls, vars: VarSet, num: dict[Expvec, int], den: int) -> "LPoly":
        """``num/den`` in canonical form; operands were valid, so exponents are not checked."""
        if not den:
            raise ZeroDivisionError("polynomial with denominator 0")
        if 0 in num.values():
            num = {e: c for e, c in num.items() if c}
        if den != 1:
            g = gcd(den, *num.values()) if den > 0 else -gcd(den, *num.values())
            if g != 1:
                num = {e: c // g for e, c in num.items()}
                den //= g
        obj = object.__new__(cls)
        _set_vars(obj, vars)
        _set_num(obj, num)
        _set_den(obj, den)
        return obj

    # -- constructors ------------------------------------------------

    @classmethod
    def const(cls, vars: VarSet, c: Coeff) -> "LPoly":
        return cls(vars, {(0,) * len(vars): c})

    @classmethod
    def var(cls, vars: VarSet, name: str, half_steps: int = 2) -> "LPoly":
        """The monomial ``name`` raised to ``half_steps/2``."""
        exps = [0] * len(vars)
        exps[vars.index(name)] = half_steps
        return cls(vars, {tuple(exps): 1})

    @property
    def terms(self) -> Mapping[Expvec, Fraction]:
        """The coefficients as ``Fraction``s, a read-only mapping built on each access."""
        den = self.den
        return MappingProxyType({e: Fraction(c, den) for e, c in self.num.items()})

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return not any(any(exps) for exps in self.num)

    def is_integral(self) -> bool:
        """True when every coefficient is an integer."""
        return self.den == 1

    def constant_term(self) -> Fraction:
        return Fraction(self.num.get((0,) * len(self.vars), 0), self.den)

    def as_fraction(self) -> Fraction:
        """The value of a constant polynomial."""
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self.constant_term()

    # -- ring operations -----------------------------------------------

    def _check(self, other: "LPoly") -> None:
        if self.vars is not other.vars and self.vars != other.vars:
            raise VariableMismatchError(f"variable sets differ: {self.vars} vs {other.vars}")

    def __add__(self, other) -> "LPoly":
        if not isinstance(other, LPoly):
            other = LPoly.const(self.vars, other)
        self._check(other)
        g = gcd(self.den, other.den)
        m1, m2 = other.den // g, self.den // g
        out = {e: c * m1 for e, c in self.num.items()}
        get = out.get
        for e, c in other.num.items():
            out[e] = get(e, 0) + c * m2
        return LPoly._reduce(self.vars, out, self.den * m1)

    __radd__ = __add__

    def __neg__(self) -> "LPoly":
        return LPoly._reduce(self.vars, {e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other) -> "LPoly":
        if not isinstance(other, LPoly):
            other = LPoly.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other) -> "LPoly":
        return (-self) + other

    def __mul__(self, other) -> "LPoly":
        if not isinstance(other, LPoly):
            return self.scale(other)
        return LPoly.dot(self.vars, ((1, self, other),))

    __rmul__ = __mul__

    @classmethod
    def dot(cls, vars: VarSet, terms, n: int = 1) -> "LPoly":
        """``sum w*a*b / n`` over triples ``(int w, LPoly a, LPoly b)``, reduced once.

        The one product loop: numerators accumulate over the lcm of the ``a.den*b.den``.
        """
        out: dict[Expvec, int] = {}
        get = out.get
        den = 1
        for w, a, b in terms:
            if a.vars is not vars and a.vars != vars or b.vars is not vars and b.vars != vars:
                raise VariableMismatchError(f"variable sets differ: {a.vars}, {b.vars} vs {vars}")
            if not (w and a.num and b.num):
                continue
            d = a.den * b.den
            if den % d:  # widen the common denominator to lcm(den, d)
                g = d // gcd(den, d)
                for e in out:
                    out[e] *= g
                den *= g
            f = w * (den // d)
            bn = b.num.items()
            for e1, c1 in a.num.items():
                c1 *= f
                for e2, c2 in bn:
                    e = tuple(map(add, e1, e2))
                    out[e] = get(e, 0) + c1 * c2
        return cls._reduce(vars, out, den * n)

    def div_int(self, n: int) -> "LPoly":
        """Exact division by the nonzero integer ``n``."""
        return LPoly._reduce(self.vars, self.num, self.den * n)

    def scale(self, c: Coeff) -> "LPoly":
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"not an exact coefficient: {c!r}")
        p = c.numerator
        return LPoly._reduce(self.vars, {e: x * p for e, x in self.num.items()},
                             self.den * c.denominator)

    def __pow__(self, n: int) -> "LPoly":
        if not isinstance(n, int):
            raise TypeError("polynomial powers must be integers")
        if n < 0:
            if len(self.num) != 1:
                raise ExactDivisionError(
                    f"negative power of a non-monomial: ({self})^{n}")
            ((exps, c),) = self.num.items()
            inv = LPoly._reduce(self.vars, {tuple(-e for e in exps): self.den}, c)
            return inv ** (-n)
        result = LPoly.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LPoly.const(self.vars, other)
        if not isinstance(other, LPoly):
            return NotImplemented
        return self.vars == other.vars and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.vars, self.den, frozenset(self.num.items())))

    # -- exact division ---------------------------------------------------

    def exact_div(self, other: "LPoly") -> "LPoly":
        """Return ``q`` with ``q * other == self``; raise if none exists.

        A failure signals a violated integrality/divisibility claim, so the
        error carries both operands.
        """
        self._check(other)
        if other.is_zero():
            raise ExactDivisionError("division by zero polynomial")
        if self.is_zero():
            return self
        n = len(self.vars)
        shift_a = tuple(min(e[i] for e in self.num) for i in range(n))
        shift_b = tuple(min(e[i] for e in other.num) for i in range(n))
        num = {tuple(a - s for a, s in zip(e, shift_a)): c for e, c in self.terms.items()}
        den = {tuple(a - s for a, s in zip(e, shift_b)): c for e, c in other.terms.items()}
        lead_b = max(den)
        cb = den[lead_b]
        quot: dict[Expvec, Fraction] = {}
        rem = dict(num)
        while rem:
            lead_r = max(rem)
            m = tuple(a - b for a, b in zip(lead_r, lead_b))
            if any(e < 0 for e in m):
                raise ExactDivisionError(f"({self}) is not divisible by ({other})")
            c = rem[lead_r] / cb
            quot[m] = c
            for e2, c2 in den.items():
                e = tuple(a + b for a, b in zip(m, e2))
                nc = rem.get(e, Fraction(0)) - c * c2
                if nc == 0:
                    rem.pop(e, None)
                else:
                    rem[e] = nc
        shift_q = tuple(a - b for a, b in zip(shift_a, shift_b))
        return LPoly(self.vars, {tuple(a + s for a, s in zip(e, shift_q)): c
                                 for e, c in quot.items()})

    # -- monomial maps ----------------------------------------------------

    def _relabel(self, target: VarSet, images) -> "LPoly":
        """Map each variable's root (``step`` 1) or whole (``step`` 2) to ``p/q`` times a monomial.

        ``images[i] = (name, step, p, q, mono)``, where ``mono`` lists ``(target
        index, doubled exponent)`` pairs; the relabelled sum is reduced once.
        """
        out: dict[Expvec, int] = {}
        get = out.get
        den = 1
        for exps, c in self.num.items():
            mono, d = [0] * len(target), 1
            for e, (name, step, p, q, img) in zip(exps, images):
                if not e:
                    continue
                k, odd = (e, 0) if step == 1 else divmod(e, step)
                if odd:
                    raise SubstitutionError(f"{name}^({e}/2) needs a value for {name}^(1/2)")
                for j, x in img:
                    mono[j] += x * k
                if q == 1 and p * p == 1:  # a signed monomial: at most a sign flip
                    c = -c if p < 0 and k & 1 else c
                    continue
                if k < 0:
                    if not p:
                        raise ExactDivisionError(f"negative power of zero at {name}")
                    p, q, k = (q, p, -k) if p > 0 else (-q, -p, -k)
                c, d = c * p ** k, d * q ** k
            if den % d:  # widen the common denominator to lcm(den, d)
                g = d // gcd(den, d)
                for e in out:
                    out[e] *= g
                den *= g
            mono = tuple(mono)
            out[mono] = get(mono, 0) + c * (den // d)
        return LPoly._reduce(target, out, den * self.den)

    def adams(self, r: int) -> "LPoly":
        """The monomial map ``m -> m^r`` of the pre-lambda product formula, a ring endomorphism.

        Roots are relabelled: ``y^(1/2) -> y^(r/2)``, and the distinguished
        root ``-L^(1/2)`` (:data:`NEGATIVE_ROOT`) goes to its ``r``-th power, so
        ``L^(1/2) -> (-1)^(r+1) L^(r/2)``; without that sign the genus
        specializations would not commute with the Adams operations.
        """
        if r < 1:
            raise ValueError(f"Adams index must be >= 1, got {r}")
        if r == 1:
            return self
        sign = 1 if r % 2 else -1
        return self._relabel(self.vars, [
            (name, 1, sign if name in NEGATIVE_ROOT else 1, 1, ((i, r),))
            for i, name in enumerate(self.vars.names)])

    def substitute(self, target: VarSet,
                   whole: Mapping[str, "LPoly | Coeff"] | None = None,
                   half: Mapping[str, "LPoly | Coeff"] | None = None) -> "LPoly":
        """Evaluate into ``target`` by the monomial map the values define.

        ``whole[name]`` is the value of the variable itself, legal only where
        ``name`` occurs with integer exponents; ``half[name]`` is the value of
        ``name**(1/2)`` and covers all exponents.  A value is a rational times
        at most one monomial over ``target``.  No root is ever taken
        implicitly: the paper's sign conventions for them are deliberate.
        Variables in neither mapping must be in ``target`` and are kept.
        """
        whole, half = whole or {}, half or {}

        def image(name: str) -> tuple:
            if name not in half and name not in whole:
                if name not in target:
                    raise SubstitutionError(f"variable {name} neither assigned nor kept")
                return name, 1, 1, 1, ((target.index(name), 1),)
            step, v = (1, half[name]) if name in half else (2, whole[name])
            if isinstance(v, (int, Fraction)):
                return name, step, v.numerator, v.denominator, ()
            if not isinstance(v, LPoly):
                raise TypeError(f"bad substitution value for {name}: {v!r}")
            if v.vars != target:
                raise VariableMismatchError(f"value for {name} is over {v.vars}, not {target}")
            if len(v.num) > 1:
                raise SubstitutionError(f"value for {name} is not a monomial: {v}")
            ((exps, c),) = v.num.items() or [((), 0)]
            return name, step, c, v.den, tuple((j, x) for j, x in enumerate(exps) if x)

        return self._relabel(target, [image(name) for name in self.vars.names])

    # -- printing --------------------------------------------------------

    def __str__(self) -> str:
        if not self.num:
            return "0"
        den = self.den
        parts: list[str] = []
        for exps in sorted(self.num):
            c = self.num[exps]
            mono = ""
            for name, e in zip(self.vars.names, exps):
                if e == 0:
                    continue
                if e == 2:
                    mono += name
                elif e % 2 == 0:
                    k = e // 2
                    mono += f"{name}^{k}" if k > 0 else f"{name}^({k})"
                else:
                    mono += f"{name}^({e}/2)"
            g = gcd(c, den)  # c/den printed like the reduced Fraction
            cs = str(c // g) if g == den else f"{c // g}/{den // g}"
            if not mono:
                body = cs
            elif c == den:
                body = mono
            elif c == -den:
                body = "-" + mono
            else:
                body = f"{cs}*{mono}"
            if parts and not body.startswith("-"):
                parts.append("+" + body)
            else:
                parts.append(body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LPoly<{self}>"


# slot setters that get past the immutability guard of LPoly.__setattr__
_set_vars, _set_num, _set_den = LPoly.vars.__set__, LPoly.num.__set__, LPoly.den.__set__
