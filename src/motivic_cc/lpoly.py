"""Sparse Laurent polynomials with half-integer exponents over exact rationals.

A polynomial stores integer numerators ``num`` (packed monomial key -> nonzero
``int``) over one ``int`` denominator ``den`` in canonical form: ``den > 0``,
``gcd(den, *num.values()) == 1``, and zero has ``den == 1``; ``terms`` reads
the coefficients back as ``Fraction``s.  One kernel, :meth:`LPoly.dot`, makes
every product and every sum of products over integer numerators, reducing
once.  Over ``QQ``, the ring with no variables, a polynomial is an exact rational.
Exponents are counted in units of 1/2 and stored doubled, so the tuple entry
``3`` means the variable appears with exponent 3/2 and ``-2`` means exponent
-1.  Odd (genuinely half-integral) exponents are only legal for the variables
declared half-admissible (``L`` and ``y``); ``u``, ``v`` and every other
symbol stay integral.  A key packs the exponent vector into one ``int``
(:meth:`VarSet.pack`): ``0`` for no variables, the exponent for one, ``u*2^64
+ v`` for ``(u,v)``.  Packing is linear, so a monomial product adds keys and
the Adams map multiplies them, and sorted keys are sorted exponent vectors.
Exponents after the first must stay below 2^61 in absolute value
(:class:`ExponentLimitError`).  Only the constructor, ``terms`` and ``str``
see exponent tuples.

All values are immutable after construction and all operations are pure, so
instances can be shared freely between threads.  Structural equality equals
mathematical equality because the form is canonical.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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

#: the packed field of each exponent after the first, and the bound on those
#: exponents (doubled) that keeps the sum of two inside its balanced field
FIELD_BITS = 64
EXP_LIMIT = 1 << (FIELD_BITS - 2)
_HALF = 1 << (FIELD_BITS - 1)


class VariableMismatchError(ValueError):
    """Operands live over different variable sets."""


class ExactDivisionError(ArithmeticError):
    """Polynomial division left a remainder (or divided by zero)."""


class SubstitutionError(ValueError):
    """Substitution request is incomplete or needs an undeclared root."""


class ExponentLimitError(ArithmeticError):
    """An exponent after the first variable would leave its packed field."""


class VarSet:
    """A coefficient ring: Laurent polynomials over Q in ordered variables, ``QQ`` has none.

    The names fix the monomial layout: ``key + low_half`` has nonnegative fields, and
    ``neg_root`` picks the parity bit of each :data:`NEGATIVE_ROOT` field there;
    ``integral`` holds the positions whose exponents must stay even.  The ring supplies
    zero, one and the coercion of ``int``/``Fraction`` values.
    """

    __slots__ = ("names", "name", "low_half", "neg_root", "integral", "zero", "one", "_text")

    def __init__(self, names: tuple[str, ...]):
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names: {names}")
        for attr, val in (
                ("names", names), ("name", f"Q[{','.join(names)}]" if names else "Q"),
                ("low_half", sum(_HALF << FIELD_BITS * i for i in range(len(names) - 1))),
                ("neg_root", sum(1 << FIELD_BITS * i for i, name in enumerate(reversed(names))
                                 if name in NEGATIVE_ROOT)),
                ("integral", tuple(i for i, x in enumerate(names) if x not in HALF_ADMISSIBLE)),
                ("zero", LPoly._of(self, {}, 1)), ("one", LPoly._of(self, {0: 1}, 1)),
                ("_text", {})):
            object.__setattr__(self, attr, val)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("VarSet is immutable")

    def __reduce__(self):  # the layout follows from the names; the memo stays behind
        return VarSet, (self.names,)

    def __eq__(self, other):
        return isinstance(other, VarSet) and other.names == self.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self) -> str:
        return self.name

    def coerce(self, x) -> "LPoly":
        """``x`` as an element of this ring: an ``LPoly`` over it, an ``int`` or a ``Fraction``."""
        if isinstance(x, LPoly):
            if x.vars != self:
                raise TypeError(f"{x!r} lives over {x.vars}, not {self}")
            return x
        if isinstance(x, (int, Fraction)):
            return LPoly._of(self, {0: x.numerator}, x.denominator) if x else self.zero
        raise TypeError(f"cannot coerce {x!r} into {self}")

    def pack(self, exps: Expvec) -> int:
        """The key of a doubled exponent vector; a later exponent past the limit raises."""
        key = 0
        for i, e in enumerate(exps):
            if i and not -EXP_LIMIT < e < EXP_LIMIT:
                raise self.limit_error()
            key = (key << FIELD_BITS) + e
        return key

    def unpack(self, key: int) -> Expvec:
        """The doubled exponent vector of a key, the inverse of :meth:`pack`."""
        low = []
        for _ in self.names[1:]:  # peel the balanced fields off from the bottom
            low.append(((key + _HALF) & (2 * _HALF - 1)) - _HALF)
            key = (key - low[-1]) >> FIELD_BITS
        return (key, *reversed(low)) if self.names else ()

    def span(self, keys) -> int:
        """The largest doubled ``|exponent|`` of a variable after the first over ``keys``."""
        return max((abs(e) for k in keys for e in self.unpack(k)[1:]), default=0)

    def limit_error(self) -> "ExponentLimitError":
        return ExponentLimitError(
            f"exponent limit: every exponent of {','.join(self.names[1:])} must stay "
            f"below 2^{FIELD_BITS - 3} in absolute value")

    def monomial(self, key: int) -> str:
        """The text of the monomial of ``key``, ``""`` for 1; memoized."""
        text = self._text.get(key)
        if text is None:
            text = "".join(name if e == 2 else f"{name}^({e}/2)" if e % 2 else
                           f"{name}^{e // 2}" if e > 0 else f"{name}^({e // 2})"
                           for name, e in zip(self.names, self.unpack(key)) if e)
            if len(self._text) < 1 << 16:  # a bounded memo
                self._text[key] = text
        return text

    def __len__(self) -> int:
        return len(self.names)


class LPoly:
    """Laurent polynomial over a fixed :class:`VarSet`: ``num`` over ``den``, canonical."""

    __slots__ = ("vars", "num", "den")

    def __new__(cls, vars: VarSet, terms: Mapping[Expvec, Coeff]):
        size, integral, dens = len(vars.names), vars.integral, []
        for exps, c in terms.items():
            if len(exps) != size:
                raise VariableMismatchError(
                    f"exponent vector {exps} does not match variables {vars}")
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"not an exact coefficient: {c!r}")
            if c:
                for i in integral:
                    if exps[i] % 2:
                        raise ValueError(f"half-integer exponent {Fraction(exps[i], 2)} "
                                         f"on integral variable {vars.names[i]}")
                dens.append(c.denominator)
        # over the lcm of the reduced denominators the numerators share no factor with it
        den = lcm(*dens)
        return cls._of(vars, {vars.pack(e): c.numerator * (den // c.denominator)
                              for e, c in terms.items() if c}, den)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("LPoly is immutable")

    def __reduce__(self):
        return LPoly._reduce, (self.vars, self.num, self.den)

    @classmethod
    def _reduce(cls, vars: VarSet, num: dict[int, int], den: int) -> "LPoly":
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
        obj = object.__new__(cls)  # what _of does, inline: every product ends here
        _set_vars(obj, vars)
        _set_num(obj, num)
        _set_den(obj, den)
        return obj

    @classmethod
    def _of(cls, vars: VarSet, num: dict[int, int], den: int) -> "LPoly":
        """``num/den`` already in canonical form: the fields are set and nothing is checked."""
        obj = object.__new__(cls)
        _set_vars(obj, vars)
        _set_num(obj, num)
        _set_den(obj, den)
        return obj

    # -- constructors ------------------------------------------------

    @classmethod
    def var(cls, vars: VarSet, name: str, half_steps: int = 2) -> "LPoly":
        """The monomial ``name`` raised to ``half_steps/2``."""
        exps = [0] * len(vars)
        exps[vars.names.index(name)] = half_steps
        return cls(vars, {tuple(exps): 1})

    @property
    def terms(self) -> Mapping[Expvec, Fraction]:
        """The coefficients as ``Fraction``s, a read-only mapping built on each access."""
        den, unpack = self.den, self.vars.unpack
        return MappingProxyType({unpack(k): Fraction(c, den) for k, c in self.num.items()})

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_integral(self) -> bool:
        """True when every coefficient is an integer."""
        return self.den == 1

    def as_fraction(self) -> Fraction:
        """The value of a constant polynomial."""
        if any(self.num):  # only the key 0 is constant
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(self.num.get(0, 0), self.den)

    # -- ring operations -----------------------------------------------

    def _check(self, other: "LPoly") -> None:
        if self.vars is not other.vars and self.vars != other.vars:
            raise VariableMismatchError(f"variable sets differ: {self.vars} vs {other.vars}")

    def __add__(self, other) -> "LPoly":
        if not isinstance(other, LPoly):
            other = self.vars.coerce(other)
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
        return LPoly._of(self.vars, {e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other) -> "LPoly":
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

        The one product loop: numerators accumulate over the lcm of the ``a.den*b.den``,
        and the key of a product of monomials is the sum of their keys.  The sum is reduced
        once, by :meth:`_reduce`, which sets the fields itself.
        """
        out: dict[int, int] = {}
        get = out.get
        den = 1
        for w, a, b in terms:
            if a.vars is not vars and a.vars != vars or b.vars is not vars and b.vars != vars:
                raise VariableMismatchError(f"variable sets differ: {a.vars}, {b.vars} vs {vars}")
            if not (w and a.num and b.num):
                continue
            d = a.den * b.den
            if d != 1 and den % d:  # widen the common denominator to lcm(den, d)
                g = d // gcd(den, d)
                for e in out:
                    out[e] *= g
                den *= g
            w *= den // d
            an = a.num.items()
            for e2, c2 in b.num.items():  # a one-term b is one pass, its coefficient folded
                c2 *= w
                for e1, c1 in an:
                    e = e1 + e2
                    out[e] = get(e, 0) + c1 * c2
        # operands are inside the limit, so every field of every sum is exact, and it
        # stays inside when neither limit + field nor limit - field sets its top bit
        half, lim = vars.low_half, vars.low_half >> 1
        if half and any(((lim + e) | (lim - e)) & half for e, c in out.items() if c):
            raise vars.limit_error()
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
            ((key, c),) = self.num.items()
            inv = LPoly._reduce(self.vars, {-key: self.den}, c)  # the limit is symmetric
            return inv ** (-n)
        result = self.vars.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, LPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.vars.coerce(other)
        return ((self.vars is other.vars or self.vars == other.vars)
                and self.den == other.den and self.num == other.num)

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
        vs = self.vars
        # each variable's lowest degree adds under products: it bounds the quotient's from
        # below, and the leading exponents fall in lex order, so the loop ends
        low = [min(x) - min(y) for x, y in
               zip(zip(*map(vs.unpack, self.num)), zip(*map(vs.unpack, other.num)))]
        lead_b = max(other.num)
        exps_b, cb = vs.unpack(lead_b), other.num[lead_b]
        quot, rem = vs.zero, self
        while rem.num:  # cancel the leading term of the remainder
            lead = max(rem.num)
            exps = [x - y for x, y in zip(vs.unpack(lead), exps_b)]
            if any(x < lo for x, lo in zip(exps, low)):
                raise ExactDivisionError(f"({self}) is not divisible by ({other})")
            term = LPoly._reduce(vs, {vs.pack(exps): rem.num[lead] * other.den}, rem.den * cb)
            quot, rem = quot + term, rem - term * other
        return quot

    # -- monomial maps ----------------------------------------------------

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
        vs = self.vars
        if vs.low_half and r * vs.span(self.num) >= EXP_LIMIT:
            raise vs.limit_error()
        half, root = vs.low_half, vs.neg_root
        if r % 2 or not root:
            num = {k * r: c for k, c in self.num.items()}
        else:  # an odd total exponent of the negative roots flips the sign
            num = {k * r: -c if ((k + half) & root).bit_count() & 1 else c
                   for k, c in self.num.items()}
        return LPoly._of(vs, num, self.den)  # k -> k*r is injective: still canonical

    def substitute(self, target: VarSet,
                   whole: Mapping[str, "LPoly | Coeff"] | None = None,
                   half: Mapping[str, "LPoly | Coeff"] | None = None) -> "LPoly":
        """Evaluate into ``target`` by the signed monomial map the values define.

        ``whole[name]`` is the value of the variable itself, legal only where
        ``name`` occurs with integer exponents; ``half[name]`` is the value of
        ``name**(1/2)`` and covers all exponents.  Every variable needs a
        value, and a value is 0, 1, -1 (an ``int``, a ``Fraction`` or a
        constant over ``target``) or a monomial of ``target`` with coefficient
        +-1, as every specialization of the paper is; anything else raises
        :class:`SubstitutionError`.  No root is ever taken implicitly: the
        paper's sign conventions for them are deliberate.  A term's key is the
        sum of its exponents times the image keys, and its coefficient only
        flips sign or vanishes.
        """
        whole, half = whole or {}, half or {}

        def image(name: str) -> tuple:  # name, step (1 root, 2 whole), sign (0 for 0), key
            if name not in half and name not in whole:
                raise SubstitutionError(f"variable {name} has no value")
            step, v = (1, half[name]) if name in half else (2, whole[name])
            if isinstance(v, LPoly) and v.vars != target:
                raise VariableMismatchError(f"value for {name} is over {v.vars}, not {target}")
            v = target.coerce(v)
            if len(v.num) > 1 or v.den != 1 or any(c * c != 1 for c in v.num.values()):
                raise SubstitutionError(f"value for {name} is not 0 or +- a monomial: {v}")
            ((key, sign),) = v.num.items() or [(0, 0)]
            return name, step, sign, key

        images = [image(name) for name in self.vars.names]
        spans = [target.span([img[3]]) for img in images]
        if any(spans):  # bound the target exponents before their keys are summed
            extent = [max(map(abs, col)) for col in zip(*map(self.vars.unpack, self.num))]
            if sum(x // img[1] * s for x, img, s in zip(extent, images, spans)) >= EXP_LIMIT:
                raise target.limit_error()
        out: dict[int, int] = {}
        get = out.get
        for key, c in self.num.items():
            mono = 0
            for e, (name, step, sign, img) in zip(self.vars.unpack(key), images):
                if not e:
                    continue
                k, odd = (e, 0) if step == 1 else divmod(e, step)
                if odd:
                    raise SubstitutionError(f"{name}^({e}/2) needs a value for {name}^(1/2)")
                if not sign and k < 0:
                    raise ExactDivisionError(f"negative power of zero at {name}")
                c = c * sign if not sign or k & 1 else c
                mono += img * k
            out[mono] = get(mono, 0) + c
        return LPoly._reduce(target, out, self.den)

    # -- printing --------------------------------------------------------

    def __str__(self) -> str:
        num, den, monomial = self.num, self.den, self.vars.monomial
        parts: list[str] = []
        for key in sorted(num):  # the int keys alone sort faster than the items
            c, mono = num[key], monomial(key)
            if mono and (c == den or c == -den):  # a coefficient of +-1 prints as its sign
                body = mono if c > 0 else "-" + mono
            else:
                g = den if den == 1 else gcd(c, den)  # c/den printed like the reduced Fraction
                cs = str(c // g) if g == den else f"{c // g}/{den // g}"
                body = f"{cs}*{mono}" if mono else cs
            parts.append("+" + body if c > 0 and parts else body)
        return "".join(parts) or "0"

    def __repr__(self) -> str:
        return f"LPoly<{self}>"


# slot setters that get past the immutability guard of LPoly.__setattr__
_set_vars, _set_num, _set_den = LPoly.vars.__set__, LPoly.num.__set__, LPoly.den.__set__

QQ = VarSet(())
RING_L = VarSet(("L",))
RING_Y = VarSet(("y",))
RING_UV = VarSet(("u", "v"))
