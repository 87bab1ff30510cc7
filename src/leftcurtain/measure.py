"""Exact-rational discrete measures on the real line.

Everything downstream (potential functions, convex-order tests, shadows,
couplings, LP duals) is equality-sensitive, so all positions and masses are
`fractions.Fraction` and no operation ever rounds.  A measure is a finite,
sorted tuple of atoms with strictly positive weights; zero-weight atoms are
dropped and equal positions are merged at construction time.

`MathError` is the base of every library error that means a mathematical
failure (the command line's exit 2); each such error is defined in the
module that raises it and keeps its builtin base as well.
"""

from __future__ import annotations

import json
import re
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import pairwise
from math import lcm
from operator import itemgetter
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

Rational = Fraction
RationalLike = Union[Fraction, int, str]


class MathError(Exception):
    """A mathematical failure: an order, coupling or LP condition does not hold."""


class NegativeWeight(MathError, ValueError):
    """An operation produced or received an atom with negative weight."""


class NotInConvexOrder(MathError, ValueError):
    """A pair (or chain) of measures violates the convex order."""


class NotInPositiveConvexOrder(MathError, ValueError):
    """A pair of measures violates the positive convex order."""


class OutputTooLarge(MathError, ValueError):
    """A result rational has more digits than CPython writes as a string."""


class SchemaError(ValueError):
    """JSON input violates a schema; `pointer` locates the offending node."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}" if pointer else message)
        self.pointer = pointer
        self.message = message


# Integers of more digits than this cannot be written as strings (CPython's
# int_max_str_digits), so no output could show such a rational.
_MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_DIGIT_BOUND = 10**_MAX_DIGITS

# A decimal's exponent, which Fraction expands as 10**|exponent| at once.
_EXPONENT = re.compile(r"(.*)e([-+]?\d+(?:_\d+)*)\s*", re.IGNORECASE | re.DOTALL)


def rat(value: RationalLike) -> Fraction:
    """Parse a rational from a Fraction, int, or 'p/q' string (not a bool).

    A decimal string whose exponent alone puts a nonzero value past CPython's
    digit limit raises ValueError without expanding 10**|exponent|; with a
    zero mantissa it is 0.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        shape = _EXPONENT.fullmatch(value) if _MAX_DIGITS else None
        # With k mantissa digits, an exponent of at least the limit plus k
        # puts any nonzero value past the limit.
        if shape and abs(int(shape[2])) >= _MAX_DIGITS + sum(c.isdigit() for c in shape[1]):
            if Fraction((shape[1] + "e0").strip()):
                raise ValueError(f"more than {_MAX_DIGITS} digits")
            return Fraction(0)
        return Fraction(value.strip())
    raise TypeError(f"not a rational: {value!r}")


def _past_digit_limit(value: Fraction) -> bool:
    return bool(_MAX_DIGITS) and max(abs(value.numerator), value.denominator) >= _DIGIT_BOUND


def _rat_from_json(node: object, pointer: str) -> Fraction:
    if isinstance(node, bool) or isinstance(node, float):
        raise SchemaError(pointer, "rationals must be strings 'p/q' or integers")
    try:
        value = rat(node)  # type: ignore[arg-type]
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(pointer, f"invalid rational: {exc}") from None
    if _past_digit_limit(value):
        raise SchemaError(pointer, f"invalid rational: more than {_MAX_DIGITS} digits")
    return value


def _json_from_text(text: str, pointer: str) -> object:
    """The JSON value of `text` read from outside the program: text that is
    not JSON, nests past the interpreter's recursion limit or holds an
    integer past CPython's digit limit is a SchemaError at `pointer`."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(pointer, f"invalid JSON: {exc}") from None


def _rat_to_json(value: Fraction) -> str:
    if _past_digit_limit(value):
        raise OutputTooLarge(
            f"a result rational has more than {_MAX_DIGITS} digits, the limit of "
            "CPython's integer string conversion (sys.set_int_max_str_digits)"
        )
    return str(value)


class _Value:
    """An immutable value with its own constructor: its fields are the
    subclass's `__slots__`, each set once through `object.__setattr__`.  It
    compares, hashes and prints by its fields as a frozen dataclass does,
    refuses assignment and deletion, and is copied and pickled field by
    field.  It is no tuple, so a result is never mistaken for a pair.  Two
    slots of this class are no fields and are filled on first use: no
    constructor seeds them (`SupportSet.of` shares the view of its path
    measure), and a copy or an unpickled value fills its own.

    - `_hash` keeps the hash, so a cache key pays for its fields' hashes once.
    - `_ints` keeps the integer view that `_lattice_of` makes, for the
      classes that define it: a measure's (D, X, E, W), read by
      `_put_sweep` and `shadow._Residual`, and the int coordinates of a
      path measure's or a support set's paths, read by the scans of
      `geometry`.  Every check that reads a view compares ints only.
    """

    __slots__ = ("_hash", "_ints")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(self._values()))
            return self._hash

    def _lattice(self):
        """The integer view of this value (`_lattice_of`), made once."""
        try:
            return self._ints
        except AttributeError:
            object.__setattr__(self, "_ints", self._lattice_of())
            return self._ints

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    __getstate__ = _values

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)


class Interval(NamedTuple):
    """A real interval with optional rational endpoints.

    ``lo is None`` / ``hi is None`` encode the unbounded ends; the closed
    flags are meaningful only at finite endpoints.
    """

    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None
    lo_closed: bool = False
    hi_closed: bool = False

    @staticmethod
    def real_line() -> "Interval":
        return Interval()

    @staticmethod
    def open(lo: RationalLike, hi: RationalLike) -> "Interval":
        return Interval(rat(lo), rat(hi), False, False)

    @staticmethod
    def closed(lo: RationalLike, hi: RationalLike) -> "Interval":
        return Interval(rat(lo), rat(hi), True, True)

    @staticmethod
    def at_most(hi: RationalLike) -> "Interval":
        """The prefix interval (-inf, hi]."""
        return Interval(None, rat(hi), False, True)

    @staticmethod
    def point(x: RationalLike) -> "Interval":
        x = rat(x)
        return Interval(x, x, True, True)

    def contains(self, x: RationalLike) -> bool:
        x = rat(x)
        above = self.lo is None or x > self.lo or (x == self.lo and self.lo_closed)
        return above and (self.hi is None or x < self.hi or (x == self.hi and self.hi_closed))

    def to_json(self) -> dict:
        return {
            "lo": "-inf" if self.lo is None else _rat_to_json(self.lo),
            "hi": "inf" if self.hi is None else _rat_to_json(self.hi),
            "lo_closed": self.lo_closed,
            "hi_closed": self.hi_closed,
        }

    def __str__(self) -> str:
        left = "(-inf" if self.lo is None else ("[" if self.lo_closed else "(") + str(self.lo)
        right = "inf)" if self.hi is None else str(self.hi) + ("]" if self.hi_closed else ")")
        return f"{left}, {right}"


def _merged(pairs: Iterable[tuple], name: Callable[[object], str]) -> tuple:
    """(key, weight) pairs checked in input order (a negative weight raises
    NegativeWeight naming `name(key)`), zero weights dropped, sorted stably
    by key and equal neighbours summed in one pass: no key is hashed."""
    kept = []
    for pair in pairs:
        if pair[1].numerator > 0:
            kept.append(pair)
        elif pair[1].numerator < 0:
            raise NegativeWeight(f"{name(pair[0])} has negative weight {pair[1]}")
    kept.sort(key=itemgetter(0))
    merged: list = []
    for pair in kept:
        if merged and merged[-1][0] == pair[0]:
            merged[-1] = (pair[0], merged[-1][1] + pair[1])
        else:
            merged.append(pair)
    return tuple(merged)


class DiscreteMeasure(_Value):
    """A finitely supported nonnegative measure on the real line.

    Atoms are stored sorted by position with strictly positive weights, read
    in input order, then sorted and merged in one pass (`_merged`).  Instances
    are immutable and hashable; every operation returns a fresh measure.
    """

    __slots__ = ("atoms",)
    atoms: Tuple[Tuple[Fraction, Fraction], ...]

    def __init__(self, atoms: Iterable[Tuple[RationalLike, RationalLike]] = ()):
        pairs = ((rat(x), rat(w)) for x, w in atoms)
        object.__setattr__(self, "atoms", _merged(pairs, lambda x: f"atom at {x}"))

    @staticmethod
    def zero() -> "DiscreteMeasure":
        return DiscreteMeasure()

    @staticmethod
    def dirac(x: RationalLike, weight: RationalLike = 1) -> "DiscreteMeasure":
        return DiscreteMeasure([(x, weight)])

    def _lattice_of(self) -> "_View":
        """(D, X, E, W): D and E the lcms of the position and of the weight
        denominators, X the positions times D and W the weights times E, as
        ints in atom order.  D, E > 0, so X increases and every order and
        sign of the rationals is that of the ints."""
        atoms = self.atoms
        d = lcm(*{x.denominator for x, _ in atoms})
        e = lcm(*{w.denominator for _, w in atoms})
        xs = tuple([x.numerator * (d // x.denominator) for x, _ in atoms])
        ws = tuple([w.numerator * (e // w.denominator) for _, w in atoms])
        return d, xs, e, ws

    def __iter__(self) -> Iterator[Tuple[Fraction, Fraction]]:
        return iter(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    @property
    def is_zero(self) -> bool:
        return not self.atoms

    @property
    def support(self) -> Tuple[Fraction, ...]:
        # From a list: tuple(generator) allocates at one size and frees at
        # another, which fills CPython's tuple free lists on every call.
        return tuple([x for x, _ in self.atoms])

    @property
    def mass(self) -> Fraction:
        return sum((w for _, w in self.atoms), Fraction(0))

    @property
    def first_moment(self) -> Fraction:
        return sum((w * x for x, w in self.atoms), Fraction(0))

    @property
    def barycenter(self) -> Fraction:
        """First moment divided by mass; 0 by convention for the zero measure."""
        m = self.mass
        if m == 0:
            return Fraction(0)
        return self.first_moment / m

    def weight_at(self, x: RationalLike) -> Fraction:
        """The weight of the atom at x, 0 off the support: one bisection of the atoms."""
        x = rat(x)
        i = bisect_left(self.atoms, (x,))
        return self.atoms[i][1] if i < len(self.atoms) and self.atoms[i][0] == x else Fraction(0)

    def scaled(self, factor: RationalLike) -> "DiscreteMeasure":
        factor = rat(factor)
        if factor < 0:
            raise NegativeWeight(f"cannot scale by negative factor {factor}")
        return DiscreteMeasure((x, w * factor) for x, w in self.atoms)

    def restrict(self, interval: Interval) -> "DiscreteMeasure":
        return DiscreteMeasure((x, w) for x, w in self.atoms if interval.contains(x))

    def to_json(self) -> dict:
        return {"atoms": [{"x": _rat_to_json(x), "w": _rat_to_json(w)} for x, w in self.atoms]}

    @staticmethod
    def from_json(node: object, pointer: str = "") -> "DiscreteMeasure":
        if not isinstance(node, dict) or "atoms" not in node:
            raise SchemaError(pointer, "measure must be an object with an 'atoms' array")
        raw = node["atoms"]
        if not isinstance(raw, list):
            raise SchemaError(pointer + "/atoms", "must be an array")
        pairs = []
        for i, entry in enumerate(raw):
            here = f"{pointer}/atoms/{i}"
            if not isinstance(entry, dict) or "x" not in entry or "w" not in entry:
                raise SchemaError(here, "atom must be an object with 'x' and 'w'")
            x = _rat_from_json(entry["x"], here + "/x")
            w = _rat_from_json(entry["w"], here + "/w")
            if w <= 0:
                raise SchemaError(here + "/w", f"weight must be positive, got {w}")
            pairs.append((x, w))
        return DiscreteMeasure(pairs)

    def __str__(self) -> str:
        if not self.atoms:
            return "0"
        return " + ".join(f"{w}*d[{x}]" for x, w in self.atoms)


def mass(mu: DiscreteMeasure) -> Fraction:
    return mu.mass


def barycenter(mu: DiscreteMeasure) -> Fraction:
    return mu.barycenter


def add(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteMeasure:
    return DiscreteMeasure(mu.atoms + nu.atoms)


def subtract(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteMeasure:
    """mu - nu, requiring nu <= mu atomwise; raises NegativeWeight otherwise,
    at the leftmost atom of nu that fails.  One walk of the two sorted atom
    tuples: no position is hashed."""
    atoms, i, kept = mu.atoms, 0, []
    for x, w in nu.atoms:
        while i < len(atoms) and atoms[i][0] < x:
            kept.append(atoms[i])
            i += 1
        held = atoms[i][1] if i < len(atoms) and atoms[i][0] == x else Fraction(0)
        if held < w:
            raise NegativeWeight(f"subtraction drives weight at {x} to {held - w}")
        kept.append((atoms[i][0], held - w))  # w > 0, so held is the weight of atoms[i]
        i += 1
    kept.extend(atoms[i:])
    return DiscreteMeasure(kept)


def restrict(mu: DiscreteMeasure, interval: Interval) -> DiscreteMeasure:
    return mu.restrict(interval)


# The integer view of a measure (`DiscreteMeasure._lattice_of`), or of any
# atoms sorted by position: (D, X, E, W), the positions X/D, the weights W/E.
_View = Tuple[int, Sequence[int], int, Sequence[int]]
_NO_ATOMS: _View = (1, (), 1, ())
_Sweep = Tuple[List[int], List[int], int, int, int, int]


def _rescaled(values: Sequence[int], factor: int) -> Sequence[int]:
    return values if factor == 1 else [v * factor for v in values]


def _put_sweep(plus: _View, minus: _View = _NO_ATOMS, points: Sequence[Fraction] = ()) -> _Sweep:
    """The put potential of the signed measure plus - minus, in integers.

    `plus` and `minus` are integer views (D, X, E, W) of atoms sorted by
    position: a measure's own (`DiscreteMeasure._lattice`) or one made of
    its ints, as the takes of `coupling._strong_order_of_chain`.  D, the lcm
    of the two position scales and of the denominators of `points`, and E,
    the lcm of the two weight scales, put every position on one integer
    X = D*x and every weight on one integer W = E*w; a view already on D or
    E is read as it is.  With M and Mo the scaled mass and first moment
    strictly below K = D*k,

        D*E * P(k) = D*E * sum_{y < k} w * (k - y) = K*M - Mo,

    so one merged pass over the atoms gives the put potential
    P(k) = sum_i w_i * max(k - y_i, 0) on the grid.  D*E > 0, so every
    sign, zero and equality of a scaled value is that of the rational one
    and nothing is rounded; a value is read back as Fraction(value, D*E).

    Returns (grid, puts, mass, moment, D, E): grid is the increasing list of
    the distinct scaled positions of both supports and of `points`, puts
    the scaled P_plus - P_minus there, mass = E*(plus.mass - minus.mass) and
    moment = D*E*(plus.first_moment - minus.first_moment).  Calls and
    potential functions are read off the puts by parity:
    C = P - mass * k + first moment and u = 2P - mass * x + first moment.
    """
    (d_plus, x_plus, e_plus, w_plus), (d_minus, x_minus, e_minus, w_minus) = plus, minus
    d = lcm(d_plus, d_minus, *[k.denominator for k in points])
    e = lcm(e_plus, e_minus)
    signed = list(zip(_rescaled(x_plus, d // d_plus), _rescaled(w_plus, e // e_plus)))
    factor = e // e_minus
    signed += zip(_rescaled(x_minus, d // d_minus), [-w * factor for w in w_minus])
    signed += [(k.numerator * (d // k.denominator), 0) for k in points]
    signed.sort(key=itemgetter(0))
    grid: List[int] = []
    puts: List[int] = []
    mass = moment = 0
    for x, w in signed:
        if not grid or grid[-1] != x:
            grid.append(x)
            puts.append(x * mass - moment)
        mass += w
        moment += w * x
    return grid, puts, mass, moment, d, e


def call_value(mu: DiscreteMeasure, b: RationalLike) -> Fraction:
    """Exact value of the call integral sum_i w_i * max(y_i - b, 0)."""
    b = rat(b)
    grid, puts, mass, moment, d, e = _put_sweep(mu._lattice(), points=(b,))
    k = b.numerator * (d // b.denominator)
    return Fraction(puts[bisect_left(grid, k)] - mass * k + moment, d * e)


def put_value(mu: DiscreteMeasure, b: RationalLike) -> Fraction:
    """Exact value of the put integral sum_i w_i * max(b - y_i, 0)."""
    b = rat(b)
    grid, puts, _, _, d, e = _put_sweep(mu._lattice(), points=(b,))
    k = b.numerator * (d // b.denominator)
    return Fraction(puts[bisect_left(grid, k)], d * e)


class PotentialFunction(NamedTuple):
    """Piecewise-linear convex function x -> integral of |x - y| d(mu).

    Breakpoints sit exactly at the atoms of the measure; outside the support
    hull the function is affine with slopes -mass and +mass, so the defining
    asymptotics hold exactly.
    """

    breakpoints: Tuple[Tuple[Fraction, Fraction], ...]
    left_slope: Fraction
    right_slope: Fraction

    def __call__(self, x: RationalLike) -> Fraction:
        x = rat(x)
        pts = self.breakpoints
        if not pts:
            return Fraction(0)
        i = bisect_right(pts, x, key=itemgetter(0)) - 1
        x0, v0 = pts[max(i, 0)]
        return v0 + self._segment_slope(i) * (x - x0)

    def _segment_slope(self, i: int) -> Fraction:
        """Slope on the segment right of breakpoint i."""
        pts = self.breakpoints
        if i < 0:
            return self.left_slope
        if i >= len(pts) - 1:
            return self.right_slope
        (x0, v0), (x1, v1) = pts[i], pts[i + 1]
        return (v1 - v0) / (x1 - x0)

    def right_derivative(self, x: RationalLike) -> Fraction:
        return self._segment_slope(bisect_right(self.breakpoints, rat(x), key=itemgetter(0)) - 1)

    def left_derivative(self, x: RationalLike) -> Fraction:
        return self._segment_slope(bisect_left(self.breakpoints, rat(x), key=itemgetter(0)) - 1)

    def kink(self, x: RationalLike) -> Fraction:
        """Jump of the derivative at x; equals 2*mu({x}) for u_mu."""
        return self.right_derivative(x) - self.left_derivative(x)


def potential(mu: DiscreteMeasure) -> PotentialFunction:
    """The potential function u_mu(x) = integral of |x - y| mu(dy), exactly."""
    grid, puts, mass, moment, d, e = _put_sweep(mu._lattice())
    scale = d * e
    breakpoints = tuple(
        (x, Fraction(2 * p - mass * k + moment, scale))
        for x, k, p in zip(mu.support, grid, puts)
    )
    total_mass = Fraction(mass, e)
    return PotentialFunction(breakpoints, -total_mass, total_mass)


def _convex_failure(mu: DiscreteMeasure, nu: DiscreteMeasure) -> Tuple[Optional[str], _Sweep]:
    """The sweep of nu - mu and the first condition of mu <=_c nu that fails,
    in words (None if none does): equal masses, equal barycenters, then the
    put order at every atom of either measure, named by the first strike k
    where P_nu(k) < P_mu(k).  With mass and mean equal the put order is the
    order of the potential functions, and piecewise linearity makes the
    finitely many checks complete.  Words are made only on failure."""
    sweep = grid, gap, mass, moment, d, _ = _put_sweep(nu._lattice(), mu._lattice())
    if mass:
        return f"masses {mu.mass} vs {nu.mass}", sweep
    if moment:
        return f"barycenters {mu.barycenter} vs {nu.barycenter}", sweep
    for k, g in zip(grid, gap):
        if g < 0:
            return f"P_nu(k) < P_mu(k) first at k = {Fraction(k, d)}", sweep
    return None, sweep


def convex_order_leq(mu: DiscreteMeasure, nu: DiscreteMeasure) -> bool:
    """Test mu <=_c nu: no condition of `_convex_failure` fails."""
    return _convex_failure(mu, nu)[0] is None


def positive_convex_order_leq(mu: DiscreteMeasure, nu: DiscreteMeasure) -> bool:
    """Test mu <=_pc nu (the inequality for nonnegative convex integrands).

    Checks the mass inequality plus call and put values at every combined
    support point.  The cone of nonnegative convex functions on the line is
    generated by constants, calls and puts, and for finitely supported
    measures the call/put difference functions are piecewise linear with
    kinks only at support points, so this finite test is complete.  By
    parity C(b) = P(b) - mass * b + first moment, the call gap C_nu - C_mu
    is the put gap minus (excess * b - drift), where the sweep's mass and
    moment are the excess and the drift in its scale.
    """
    grid, gap, excess, drift, _, _ = _put_sweep(nu._lattice(), mu._lattice())
    return excess >= 0 and all(g >= 0 and g >= excess * k - drift for k, g in zip(grid, gap))


def require_convex_order_chain(marginals: Iterable[DiscreteMeasure]) -> List[_Sweep]:
    """Check each consecutive pair of `marginals` for the convex order and
    return the sweep of each pair (`_convex_failure`), in date order."""
    sweeps = []
    for t, (mu, nu) in enumerate(pairwise(marginals), start=1):
        failure, sweep = _convex_failure(mu, nu)
        if failure:
            raise NotInConvexOrder(f"marginals {t-1} and {t} are not in convex order: {failure}")
        sweeps.append(sweep)
    return sweeps
