"""Rational generating functions, exactly.

Three engines live here:

* closed-form evaluation of multinomial-coefficient sums as rational
  functions of t, by degree-lowering recursion on the polynomial part and
  boundary splitting on the shift vector.  Every denominator met there is a
  product of factors (1 - a t), so the recursion runs on `PoleFraction`
  values with the poles held as {a: m}: a sum takes the larger exponent
  pole by pole, no polynomial GCD is computed, and the result is brought to
  lowest terms once by cancelling the factors (1 - a t) that divide it.
  The numerators are integer lists over one common integer denominator, so
  the recursion runs on ints; the expanded denominator of each set of poles
  left after cancelling is cached.
  A sum is cached once per permutation class of its (exponent, shift)
  pairs, with the negative shift -s of a variable of exponent 0 lifted to
  0 as a factor t^s;
* the formal torus constant term and the Weyl-integration pairing that
  turns equivariant Hilbert-series coefficients into plain ones;
* reconstruction of a rational function from finitely many series
  coefficients, with the denominator degree minimized, which leaves the
  result in lowest terms.  Its linear system is solved without fractions,
  by the one Bareiss elimination of `linalg` and Cramer's rule, on integers
  over Q and on the polynomials themselves otherwise.

Coefficients are Fractions, or sparse multivariate polynomials over the
rationals when a series has polynomial coefficients.  No ring is passed
around: the domain is read off the coefficients.  Numbers alone are worked
in Q; one `MPoly` among them puts all of them in the polynomials in its
variable count.  There is no fraction field of the polynomials: a result
whose coefficients are not polynomials (a denominator needing 1/s, say)
raises UnsupportedError.  One sparse class, `MPoly`, serves both as those
polynomial coefficients and as the torus characters of the Weyl pairing
(whose exponents may be negative); one division, `_poly_divmod`, serves
every univariate quotient and remainder over Q, one exact division,
`_cancel_one_minus`, cancels the factors (1 - a t) on ints or Fractions
alike, and one division-free recurrence expands every power series.

Fractions appear only at the edges of the sums, the series expansion, the
`MPoly` product and the Weyl pairing: each runs on the integers of
`linalg.integer_form` and makes one Fraction per value it returns.
A `RationalFunction` over Q keeps the integer form that its coefficient
recurrence runs on, from `PoleFraction.to_rational` or from its first
expansion.  An `MPoly` product is `Combination`'s integer product keyed by
exponent sums, which the Weyl pairing sums per degree, forming no product.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate, zip_longest
from math import comb, factorial, lcm
from numbers import Number
from operator import add, mul

from .errors import ConsistencyError, UnsupportedError
from .linalg import Combination, collect, echelon, exact, integer_form, whole
from .partitions import compositions

# ---------------------------------------------------------------------------
# multivariate polynomials over Q


class MPoly(Combination):
    """Sparse multivariate polynomial with Fraction coefficients.

    Exponents may be negative, so the same class holds Laurent polynomials
    (torus characters); `exact_div` and `leading` assume non-negative ones.
    Numbers stand for constants in `==`, `+`, `-` and `*`.
    """

    __slots__ = ("nvars",)

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms = collect(terms.items(), self._exponent) if terms else {}

    def _exponent(self, expo) -> tuple[int, ...]:
        ints = tuple(int(x) for x in expo)
        if ints != tuple(expo):
            raise ValueError(f"exponent {expo} must have integer entries")
        if len(ints) != self.nvars:
            raise ValueError(f"exponent {ints} has wrong arity for {self.nvars} variables")
        return ints

    def _like(self, terms: dict[tuple[int, ...], Fraction]) -> "MPoly":
        poly = MPoly.__new__(MPoly)
        poly.nvars = self.nvars
        poly.terms = terms
        return poly

    @staticmethod
    def constant(nvars: int, c) -> "MPoly":
        return MPoly(nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(nvars: int, i: int) -> "MPoly":
        expo = tuple(1 if j == i else 0 for j in range(nvars))
        return MPoly(nvars, {expo: Fraction(1)})

    def _coerce(self, other):
        """other as a polynomial in self's variables, or None if it is not one."""
        if isinstance(other, (int, Fraction)):
            return MPoly.constant(self.nvars, other)
        if not isinstance(other, MPoly):
            return None
        if other.nvars != self.nvars:
            raise ValueError(f"variable counts differ: {self.nvars} vs {other.nvars}")
        return other

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.constant(self.nvars, other)
        return Combination.__eq__(self, other) and self.nvars == other.nvars

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Combination.__add__(self, other)

    __radd__ = __add__

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._product(other, _exponent_sum)

    __rmul__ = __mul__

    def leading(self):
        """Leading (exponent, coefficient) in graded-lex order."""
        key = max(self.terms, key=_grlex)
        return key, self.terms[key]

    def exact_div(self, other: "MPoly"):
        """Quotient self/other when the division is exact, else None.

        The remainder is a dict reduced in place: each step cancels its
        leading term against other's.
        """
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        lead_e, lead_c = other.leading()
        remainder = dict(self.terms)
        quotient = {}
        while remainder:
            re = max(remainder, key=_grlex)
            qe = tuple(a - b for a, b in zip(re, lead_e))
            if any(x < 0 for x in qe):
                return None
            qc = quotient[qe] = remainder[re] / lead_c
            for e, c in other.terms.items():
                e = tuple(a + b for a, b in zip(qe, e))
                c = remainder.get(e, 0) - qc * c
                if c:
                    remainder[e] = c
                else:
                    del remainder[e]
        return self._like(quotient)

    def __floordiv__(self, other):
        """Exact quotient in the polynomial ring; ConsistencyError if inexact."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        quotient = self.exact_div(other)
        if quotient is None:
            raise ConsistencyError("polynomial division was not exact")
        return quotient

    def __str__(self):
        if not self.terms:
            return "0"
        names = _var_names(self.nvars)
        bits = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t)):
            c = self.terms[e]
            factors = [
                names[i] + (f"^{k}" if k != 1 else "") for i, k in enumerate(e) if k
            ]
            if not factors:
                bits.append(str(c))
            elif c == 1:
                bits.append("*".join(factors))
            elif c == -1:
                bits.append("-" + "*".join(factors))
            else:
                bits.append(str(c) + "*" + "*".join(factors))
        return " + ".join(bits).replace("+ -", "- ")

    __repr__ = __str__


def _grlex(expo):
    return sum(expo), expo


def _exponent_sum(e1, e2) -> tuple[int, ...]:
    return tuple(map(add, e1, e2))


def _var_names(nvars: int) -> list[str]:
    if nvars <= 4:
        return ["s", "w", "u", "v"][:nvars]
    return [f"x{i}" for i in range(nvars)]


# ---------------------------------------------------------------------------
# the coefficient domain, read off the coefficients


def _in_common_ring(coeffs) -> tuple[list, Fraction | MPoly]:
    """The coefficients in their common ring, and its one.

    Numbers alone live in Q, as Fractions.  Once any coefficient is an MPoly,
    all live in the polynomials in its variable count, and numbers become
    constants.
    """
    nvars = {c.nvars for c in coeffs if isinstance(c, MPoly)}
    if len(nvars) > 1:
        raise ValueError("variable count mismatch")
    if not nvars:
        return [exact(c) for c in coeffs], Fraction(1)
    n = nvars.pop()
    lifted = [c if isinstance(c, MPoly) else MPoly.constant(n, c) for c in coeffs]
    return lifted, MPoly.constant(n, 1)


def _divide_all(xs, d) -> list:
    """Each x / d in the coefficients' ring.

    Over Q this is a Fraction quotient.  A polynomial quotient must be a
    polynomial: there is no fraction field of the polynomials, so a value
    that needs one raises UnsupportedError.
    """
    if not isinstance(d, MPoly):
        return [Fraction(x, d) for x in xs]
    out = [x.exact_div(d) for x in xs]
    if any(q is None for q in out):
        raise UnsupportedError(f"coefficients are not polynomials after division by {d}")
    return out


# ---------------------------------------------------------------------------
# univariate polynomial helpers (coefficient type is duck-typed)


def _trim(coeffs):
    out = list(coeffs)
    while out and not out[-1]:
        out.pop()
    return out


def _poly_add(a, b):
    return _trim([x + y for x, y in zip_longest(a, b, fillvalue=0)])


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [a[0] * 0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _poly_derivative(p):
    return _trim([p[i] * i for i in range(1, len(p))])


def _poly_divmod(a, b):
    """Quotient and remainder of a by b over a field (lists, lowest degree first).

    b must have a non-zero leading coefficient.  Each step does one division
    and len(b) - 1 multiply-subtracts in place; the leading term, which
    cancels exactly, is never computed.
    """
    r = list(a)
    low, lead = b[:-1], b[-1]
    q = [None] * max(len(r) - len(low), 0)
    for shift in range(len(q) - 1, -1, -1):
        c = r[shift + len(low)]
        if c:
            c = c / lead
            for i, y in enumerate(low):
                r[shift + i] -= c * y
        q[shift] = c
    return _trim(q), _trim(r[: len(low)])


def _poly_gcd_q(a, b):
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    if a:
        inv = 1 / a[-1]
        a = [c * inv for c in a]
    return a


class RationalFunction:
    """Quotient of polynomials in t; the denominator has constant term one.

    Over Q the integer form (N, D, B, E), with num = N/D and den = B/E, is
    kept once known: `PoleFraction.to_rational` makes it, and any other value
    computes it on its first `coefficients` call.
    """

    __slots__ = ("num", "den", "_ints")

    def __init__(self, num, den=None):
        num, den = list(num), [1] if den is None else list(den)
        coeffs, one = _in_common_ring(num + den)
        num, den = _trim(coeffs[: len(num)]), _trim(coeffs[len(num) :])
        if not den:
            raise ZeroDivisionError("zero denominator")
        while den and not den[0]:
            if num and num[0]:
                raise ValueError("not a power series: denominator vanishes at t=0")
            num = num[1:] if num else num
            den = den[1:]
            if not den:
                raise ZeroDivisionError("denominator is a power of t only")
        if not num:
            den = [one]
        elif isinstance(one, Fraction):
            g = _poly_gcd_q(num, den)
            if len(g) > 1:
                (num, rn), (den, rd) = _poly_divmod(num, g), _poly_divmod(den, g)
                if rn or rd:
                    raise ConsistencyError("polynomial division was not exact")
        if den[0] != one:
            num, den = _divide_all(num, den[0]), _divide_all(den, den[0])
        self.num = num
        self.den = den
        self._ints = None

    @classmethod
    def _lowest_terms(cls, num, den, ints=None) -> "RationalFunction":
        """Wrap a num/den already in lowest terms with den[0] == 1, over Q or
        the polynomials, with its integer form (N, D, B, E) when known."""
        rf = object.__new__(cls)
        rf.num, rf.den, rf._ints = num, den, ints
        return rf

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return _poly_mul(self.num, other.den) == _poly_mul(other.num, self.den)

    def coefficients(self, n: int) -> list:
        """First n power-series coefficients, by one division-free recurrence.

        With num = N/D and den = B/E (so B[0] = E), coefficient k is
        y_k / (D E^k), where y_k = N_k E^k - sum over i >= 1 of
        B_i E^(i-1) y_(k-i).  Over Q, N and B are integer lists; over the
        polynomials, D = E = 1 and y_k is the coefficient itself.
        """
        if n < 0:
            raise ValueError(f"number of terms must be non-negative, got {n}")
        over_q = isinstance(self.den[0], Fraction)
        if self._ints is None:
            if over_q:
                (big_n, big_d), (big_b, big_e) = integer_form(self.num), integer_form(self.den)
                self._ints = (tuple(big_n), big_d, tuple(big_b), big_e)
            else:
                self._ints = (tuple(self.num), 1, tuple(self.den), 1)
        big_n, big_d, big_b, big_e = self._ints
        zero = big_b[0] * 0
        tail = [b * big_e ** (i - 1) for i, b in enumerate(big_b) if i]
        out, ys, power = [], [], 1
        for k in range(n):
            y = big_n[k] * power if k < len(big_n) else zero
            y -= sum(map(mul, tail, reversed(ys)), zero)
            ys.append(y)
            out.append(Fraction(y, big_d * power) if over_q else y)
            power *= big_e
        return out

    def to_json(self) -> dict:
        return {
            "num": {str(i): str(c) for i, c in enumerate(self.num) if c},
            "den": {str(i): str(c) for i, c in enumerate(self.den) if c},
        }

    def __repr__(self):
        return f"RationalFunction(num={self.num}, den={self.den})"


# ---------------------------------------------------------------------------
# multinomial-coefficient sums


def _times_one_minus(p, a):
    """p * (1 - a t)."""
    return _trim([x - a * y for x, y in zip(p + [0], [0] + p)])


def _times_one_minus_power(p, a, m):
    """p * (1 - a t)^m for a trimmed non-zero p and a != 0: one pass per
    power of t, over p past its leading zeros."""
    z = 0
    while not p[z]:
        z += 1
    q, out = (p[z:] if z else p), p + [0] * m
    for j in range(1, m + 1):
        c, lo = comb(m, j) * (-a) ** j, z + j
        out[lo : lo + len(q)] = [x + c * y for x, y in zip(out[lo:], q)]
    return out


def _cancel_one_minus(p, a, m):
    """p / (1 - a t)^k for the largest k <= m whose division is exact, and m - k.

    Each factor is a bottom-up synthetic division, q_i = p_i + a q_(i-1): it
    never divides, so it is exact on ints as on Fractions.  p must be trimmed
    and non-zero.
    """
    while m:
        q = list(accumulate(p, lambda carry, x: x + a * carry))
        if q[-1]:
            break
        p, m = q[:-1], m - 1
    return p, m


class PoleFraction:
    """num / (den * prod over a of (1 - a t)^m), with the poles held as {a: m}.

    The numerator is a list of ints over one positive int `den`, so the
    recursion does integer arithmetic only.  Every value of the
    multinomial-sum recursion has such a denominator, so a sum takes the
    larger exponent pole by pole and multiplies each numerator by its
    missing linear factors: no polynomial GCD is needed.  Values are not
    kept in lowest terms; `to_rational` reduces once and makes one Fraction
    per coefficient.
    """

    __slots__ = ("num", "den", "poles")

    def __init__(self, num, poles=None):
        self.num, self.den = integer_form(_trim(num))
        self.poles = {a: m for a, m in dict(poles or {}).items() if a}  # 1 - 0 t = 1

    @classmethod
    def _of(cls, num, den, poles) -> "PoleFraction":
        """Wrap a trimmed int numerator over den, skipping the conversion."""
        pf = object.__new__(cls)
        pf.num, pf.den, pf.poles = num, den, poles
        return pf

    def _over(self, poles, factor):
        """factor times the numerator, over the denominator of `poles`, which
        holds self's."""
        num = [x * factor for x in self.num] if factor != 1 else self.num
        for a, m in poles.items():
            gap = m - self.poles.get(a, 0)
            if gap:
                num = _times_one_minus_power(num, a, gap)
        return num

    def __add__(self, other):
        if not other.num:
            return self
        if not self.num:
            return other
        poles = dict(self.poles)
        for a, m in other.poles.items():
            poles[a] = max(poles.get(a, 0), m)
        den = lcm(self.den, other.den)
        num = _poly_add(
            self._over(poles, den // self.den), other._over(poles, den // other.den)
        )
        return PoleFraction._of(num, den, poles)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __eq__(self, other):
        if not isinstance(other, PoleFraction):
            return NotImplemented
        return not (self - other).num

    def scale(self, c) -> "PoleFraction":
        """Multiply by the rational number c."""
        if not c:
            return PoleFraction._of([], 1, self.poles)
        n = c.numerator
        return PoleFraction._of([x * n for x in self.num], self.den * c.denominator, self.poles)

    def shift(self, n: int) -> "PoleFraction":
        """Multiply by t**n; for negative n the numerator must be divisible.

        Lifting to a larger denominator multiplies the numerator by factors
        with constant term one, so divisibility by a power of t is the same
        as in lowest terms.
        """
        if n >= 0:
            num = [0] * n + self.num if self.num else []
            return PoleFraction._of(num, self.den, self.poles)
        if any(self.num[:-n]):
            raise ValueError(f"numerator not divisible by t^{-n}")
        return PoleFraction._of(self.num[-n:], self.den, self.poles)

    def euler_operator(self, a: int = 0) -> "PoleFraction":
        """Apply t d/dt + a: the numerator becomes t (N' R + N S) + a N R and
        every pole exponent grows by one, where R = prod (1 - b t) over the
        poles and S = sum of m b R / (1 - b t)."""
        r, s = [1], []
        for b, m in self.poles.items():
            s = _poly_add(_times_one_minus(s, b), [m * b * x for x in r])
            r = _times_one_minus(r, b)
        # t N' R + N (t S + a R)
        num = _poly_add(
            [0] + _poly_mul(_poly_derivative(self.num), r),
            _poly_mul(self.num, _poly_add([0] + s, [a * x for x in r])),
        )
        return PoleFraction._of(num, self.den, {b: m + 1 for b, m in self.poles.items()})

    def to_rational(self) -> RationalFunction:
        """The same function in lowest terms: each (1 - a t) dividing the
        numerator is cancelled, then the denominator is expanded.  Its
        constant term is one, so this is the unique reduced form."""
        num, left = self.num, []
        if not num:
            return RationalFunction([])
        for a, m in self.poles.items():
            num, m = _cancel_one_minus(num, a, m)
            if m:
                left.append((a, m))
        big_b, den = _expanded_denominator(tuple(sorted(left)))
        return RationalFunction._lowest_terms(
            [Fraction(x, self.den) for x in num], list(den), (tuple(num), self.den, big_b, 1)
        )

    def __repr__(self):
        return f"PoleFraction(num={self.num}, den={self.den}, poles={self.poles})"


@cache
def _expanded_denominator(poles) -> tuple[tuple[int, ...], tuple[Fraction, ...]]:
    """prod over the (a, m) pairs of (1 - a t)^m, as ints and as Fractions."""
    den = [1]
    for a, m in poles:
        den = _times_one_minus_power(den, a, m)
    return tuple(den), tuple(Fraction(x) for x in den)


def multinomial(vec) -> int:
    if any(x < 0 for x in vec):
        return 0
    out = factorial(sum(vec))
    for x in vec:
        out //= factorial(x)
    return out


def multinomial_sum_rational(poly, e, d: int) -> RationalFunction:
    """Closed form of the sum over non-negative k of p(k) C_{k+e} t^{|k|}.

    poly maps exponent tuples of length d to rational coefficients (a bare
    number means a constant polynomial; coefficients follow
    `linalg.exact`); C is the multinomial coefficient,
    zero on vectors with a negative entry.  Each variable of a monomial is
    written in falling factorials of k_i + e_i, each of which trades for a
    shift of e_i and a polynomial in t d/dt, so a monomial takes one t d/dt
    per unit of degree and the recursion is at most d deep.  A shifted plain
    sum is the unshifted one, 1/(1 - d t), less its boundary slices; the
    slices of a shift b in one variable come from one chain of b - 1 steps
    of t d/dt + c off the sum in the other variables, so a shift costs one
    step per slice.  The recursion runs on `PoleFraction` values; the result
    is brought to lowest terms once, at the end.  C is symmetric in the
    entries of its vector, so each monomial sum, at the top as inside the
    recursion, is cached once per permutation class of its (exponent,
    shift) pairs, and a variable of exponent 0 with shift -s < 0 is lifted
    to shift 0 as a factor t^s.
    """
    d = whole(d, "d")
    if d < 0:
        raise ValueError("d must be non-negative")
    given = tuple(e)
    e = tuple(int(x) for x in given)
    if e != given:
        raise ValueError(f"shift vector {given} must have integer entries")
    if len(e) != d:
        raise ValueError(f"shift vector {e} has wrong length for d={d}")
    if isinstance(poly, Number):
        poly = {(0,) * d: poly}
    elif isinstance(poly, MPoly):
        poly = poly.terms
    terms = MPoly(d, poly).terms
    if any(x < 0 for expo in terms for x in expo):
        raise ValueError(f"exponents of the polynomial part must be non-negative: {poly}")
    total = PoleFraction([])
    for expo, c in terms.items():
        total = total + _shared_monomial_sum(expo, e, d).scale(c)
    return total.to_rational()


def _shared_monomial_sum(expo, e, d) -> PoleFraction:
    """`_monomial_sum` at the canonical key of its permutation class: C_m is
    symmetric in m, so the (exponent, shift) pairs are sorted, and a shift
    -s < 0 of exponent 0 only forces k_i >= s, so it is lifted to 0 and paid
    as t^s.  Pairs of exponent 0 sort first, so the shifts that reach
    `_tail_sum` are sorted too, and stay so down its recursion."""
    lift = sum(-s for x, s in zip(expo, e) if not x and s < 0)
    pairs = sorted((x, s if x or s > 0 else 0) for x, s in zip(expo, e))
    expo, e = tuple(x for x, _ in pairs), tuple(s for _, s in pairs)
    return _monomial_sum(expo, e, d).shift(lift)


@cache
def _monomial_sum(expo, e, d) -> PoleFraction:
    # With m = k + e, write k_i^x = (m_i - e_i)^x for the first variable of
    # the monomial in falling factorials m_i^(r) = m_i (m_i - 1) ... (m_i - r + 1).
    # Since m_i^(r) C_m = |m|^(r) C_(m - r u_i) at every m (both sides vanish
    # off the support), the sum is sum_r a_r F_r(theta + |e|) of the sum with
    # k_i dropped and e_i lowered by r, with theta = t d/dt and
    # F_r(y) = y (y - 1) ... (y - r + 1); Horner's rule takes it with one
    # theta per unit of exponent, so the depth is at most d.
    i = next((idx for idx, x in enumerate(expo) if x), None)
    if i is None:  # sum over k >= 0 of C_(k + e) t^|k|, with e >= 0 once lifted
        return _tail_sum(e, d).shift(-sum(e))
    rest = expo[:i] + (0,) + expo[i + 1 :]
    coeffs = _falling_factorial_coefficients(expo[i], -e[i])
    total = sum(e)
    result = None
    for r in range(expo[i], -1, -1):
        if result is not None:
            result = result.euler_operator(total - r)
        if coeffs[r]:
            term = _shared_monomial_sum(rest, e[:i] + (e[i] - r,) + e[i + 1 :], d)
            term = term if coeffs[r] == 1 else term.scale(coeffs[r])
            result = term if result is None else result + term
    return result


@cache
def _falling_factorial_coefficients(x: int, c: int) -> list[int]:
    """The a_r with (m + c)^x = sum_r a_r m (m - 1) ... (m - r + 1)."""
    coeffs = [1]
    for _ in range(x):
        grown = [0] * (len(coeffs) + 1)
        for r, a in enumerate(coeffs):
            grown[r] += (r + c) * a
            grown[r + 1] += a
        coeffs = grown
    return coeffs


@cache
def _tail_sum(eb, d) -> PoleFraction:
    # sum over m >= eb (componentwise, eb >= 0) of C_m t^{|m|}: the sum from
    # m_i >= 0 less the slices m_i = c < eb_i.  With n the total of the other
    # entries, C_m = binom(n + c, c) C_(m without m_i), so slice c is t^c G_c
    # for G_c the tail sum in d - 1 variables weighted by binom(n + c, c).
    # Since binom(n + c, c) = binom(n + c - 1, c - 1) (n + c) / c, the chain
    # G_c = (theta + c) G_(c-1) / c starts from the plain tail sum G_0.
    if d == 0:
        return PoleFraction([1])
    if not any(eb):
        return PoleFraction([1], {d: 1})
    i = next(idx for idx, x in enumerate(eb) if x)
    inner = _tail_sum(eb[:i] + eb[i + 1 :], d - 1)
    result = _tail_sum(eb[:i] + (0,) + eb[i + 1 :], d) - inner
    for c in range(1, eb[i]):
        inner = inner.euler_operator(c).scale(Fraction(1, c))
        result = result - inner.shift(c)
    return result


def denominator_pole_factors(rf: RationalFunction, d: int) -> dict[int, int]:
    """Multiplicities of (1 - a t) factors, a = 1..d, in the denominator.

    Raises ConsistencyError if anything else divides the denominator.
    """
    den = list(rf.den)
    factors: dict[int, int] = {}
    for a in range(1, d + 1):
        degree = len(den) - 1
        den, left = _cancel_one_minus(den, a, degree)
        if left < degree:
            factors[a] = degree - left
    if len(den) != 1:
        raise ConsistencyError(f"denominator has unexpected factors: {den}")
    return factors


# ---------------------------------------------------------------------------
# torus constant terms and the Weyl pairing


def torus_constant_term(x: MPoly) -> Fraction:
    """Coefficient of the trivial character."""
    return x.terms.get((0,) * x.nvars, Fraction(0))


def discriminant_squared(d: int) -> MPoly:
    """Product over i<j of (a_i - a_j) times the same with inverted variables."""
    result = MPoly.constant(d, 1)
    for i in range(d):
        for j in range(i + 1, d):
            for sign in (1, -1):
                diff = MPoly(
                    d,
                    {
                        tuple(sign if k == i else 0 for k in range(d)): Fraction(1),
                        tuple(sign if k == j else 0 for k in range(d)): Fraction(-1),
                    },
                )
                result = result * diff
    return result


def weyl_series(d: int, torus_coeffs, num_terms: int) -> list[Fraction]:
    """Plain Hilbert-series coefficients from torus-equivariant ones.

    Each t-coefficient is multiplied by the squared discriminant; the
    geometric series in the inverted variables is expanded exactly to the
    power forced by degree matching, so the pairing reduces to summing the
    non-negative monomials against multinomial coefficients, scaled by 1/d!.
    No product polynomial is formed: the product is summed per monomial over
    Z, each monomial meets its multinomial coefficient once (zero when an
    exponent is negative), and one Fraction is made per degree.
    """
    if d < 1:
        raise ValueError("d must be positive")
    if num_terms < 0:
        raise ValueError(f"number of terms must be non-negative, got {num_terms}")
    if num_terms > len(torus_coeffs):
        raise ValueError("not enough torus coefficients supplied")
    disc = discriminant_squared(d)
    out = []
    for n in range(num_terms):
        c_n = torus_coeffs[n]
        if not isinstance(c_n, MPoly):
            raise ValueError(f"torus coefficient {n} is not an MPoly: {c_n!r}")
        if c_n.nvars != d:
            raise ValueError("torus coefficient arity mismatch")
        paired, den = c_n._int_product(disc, _exponent_sum)
        total = sum(c * multinomial(e) for e, c in paired.items())
        out.append(Fraction(total, den * factorial(d)))
    return out


def geometric_torus_coefficients(d: int, n_terms: int) -> list[MPoly]:
    """Torus coefficients of the standard polynomial algebra on d characters:
    coefficient n is the sum of all degree-n monomials."""
    return [
        MPoly(d, {expo: Fraction(1) for expo in compositions(n, d)})
        for n in range(n_terms)
    ]


# ---------------------------------------------------------------------------
# rational reconstruction from truncated series


def rational_reconstruct(coeffs, max_den_degree: int):
    """Minimal-denominator rational function matching the given coefficients.

    Needs at least 2*max_den_degree + 2 coefficients.  For each candidate
    denominator degree mp, ascending, the recurrence f_j = sum of alpha_i
    f_(j-i), i = 1..mp, is imposed on the last max_den_degree positions; the
    first consistent candidate wins.  Returns None when nothing fits.

    The system is solved without fractions: its rows are brought to
    fraction-free echelon form, and with the free unknowns at zero, Cramer's
    rule gives D alpha in the ring, for D the last pivot.  Over Q the data
    are first scaled to integers, which leaves the recurrence unchanged.
    """
    coeffs, one = _in_common_ring(coeffs)
    m = whole(max_den_degree, "max_den_degree")
    if m < 0:
        raise ValueError("max_den_degree must be non-negative")
    length = len(coeffs)
    if length < 2 * m + 2:
        raise ValueError(f"need at least {2 * m + 2} coefficients, got {length}")
    if isinstance(one, Fraction):
        ring, one = integer_form(coeffs)[0], 1
    else:
        ring = coeffs
    for mp in range(m + 1):
        rows = [
            [ring[j - i] for i in range(1, mp + 1)] + [ring[j]]
            for j in range(length - m, length)
        ]
        pivots = echelon(rows, mp)
        if any(row[-1] for row in rows[len(pivots) :]):
            continue
        big_d = rows[len(pivots) - 1][pivots[-1]] if pivots else one
        scaled = [one * 0] * mp  # D alpha, the free unknowns at zero
        for k in range(len(pivots) - 1, -1, -1):
            row = rows[k]
            acc = big_d * row[-1]
            for c in pivots[k + 1 :]:
                acc = acc - row[c] * scaled[c]
            scaled[pivots[k]] = acc // row[pivots[k]]  # exact: D alpha is in the ring
        den = _divide_all([big_d] + [-x for x in scaled], big_d)
        num = _trim(_poly_mul(den, coeffs)[: length - m])
        # lowest terms: a factor of num and den, or a zero top coefficient of
        # den, would have let a smaller degree fit the same coefficients first
        return RationalFunction._lowest_terms(num, den)
    return None


def divides_up_to_unit(den, target) -> bool:
    """Whether den divides target in the polynomial ring over t, up to a unit.

    Decided by the pseudo-remainder: r <- lead(den) r - lead(r) t^k den, with
    k = deg r - deg den, until deg r < deg den.  It vanishes exactly when
    the remainder over the coefficients' fraction field does, and it never
    divides, so it runs on Fractions and polynomials alike.
    """
    den = list(den)
    coeffs, _ = _in_common_ring(den + list(target))
    den, r = _trim(coeffs[: len(den)]), _trim(coeffs[len(den) :])
    if not den:
        return False
    low, lead = den[:-1], den[-1]
    while len(r) >= len(den):
        top, shift = r[-1], len(r) - len(den)
        r = [lead * x for x in r[:-1]]
        for i, y in enumerate(low):
            r[shift + i] = r[shift + i] - top * y
        r = _trim(r)
    return not r
