"""The series and what is read from them, without numpy.

A ``SeriesExpansion`` holds the coefficients c_0..c_N of one series in
powers of the diffuseness q; the zeroth ones are exact (``EXACT_C0``):
V_0 = sqrt(pi)/2 for the slip series and W_0 = 2/sqrt(pi) for the gradient
series.  From a series follow the slip velocity

    V_sl(q) = g_v (2-q)/q * sum_n V_n q^n

and the recovered gradient  g_v(q) = V_sl * q/(2-q) * sum_n W_n q^n.
``ProblemConfig`` holds what a forward solve reads.  Every failure of the
numerics is a ``NumericalFailure``, and an inf or nan result is one.
Nothing here needs an iterate, so the command line reads an order-0 series
and checks its arguments from this module alone, before numpy is loaded;
both containers are plain classes, not dataclasses, so that a cold run
loads no ``dataclasses`` (which loads ``inspect``) either.
"""
import math
import numbers

__all__ = [
    "NumericalFailure",
    "DiffuseLimitSingular",
    "EXACT_C0",
    "SeriesExpansion",
    "ProblemConfig",
    "check_finite",
    "finite_result",
    "slip_velocity",
    "gradient",
]

# c_0 of each series kind: V_0 = sqrt(pi)/2, W_0 = 2/sqrt(pi)
EXACT_C0 = {"forward": 0.5 * math.sqrt(math.pi), "inverse": 2.0 / math.sqrt(math.pi)}


class NumericalFailure(Exception):
    """Base class of the failures of the numerics (exit status 1 of the CLI)."""


class DiffuseLimitSingular(NumericalFailure):
    """q = 0 makes the (2-q)/q prefactor diverge (pure specular reflection)."""

    def __init__(self, message="slip velocity is unbounded for q = 0 (purely specular wall)"):
        super().__init__(message)


class _Record:
    """An immutable value whose fields are its ``__slots__``: compared,
    hashed, shown and pickled by them, in that order, as a frozen dataclass."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class SeriesExpansion(_Record):
    """Ordered expansion coefficients in powers of the diffuseness q.

    ``kind`` is "forward" (the slip series) or "inverse" (the gradient
    series); ``coefficients`` is stored as a tuple of floats.
    """

    __slots__ = __match_args__ = ("kind", "coefficients")

    def __init__(self, kind: str, coefficients):
        if kind not in ("forward", "inverse"):
            raise ValueError(f"unknown series kind {kind!r}")
        coeffs = tuple(float(c) for c in coefficients)
        if not coeffs or not all(math.isfinite(c) for c in coeffs):
            raise ValueError("coefficients must be a nonempty finite sequence")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def partial_sum(self, q: float, order: int | None = None) -> float:
        """Sum of c_n q^n through the given integer order (default: all)."""
        last = self.order if order is None else order
        if not isinstance(last, numbers.Integral) or not 0 <= last <= self.order:
            raise ValueError(
                f"order must be an integer in [0, {self.order}] (the built order), got {last!r}")
        return float(sum(c * q**n for n, c in enumerate(self.coefficients[: last + 1])))


class ProblemConfig(_Record):
    """What a forward solve reads: the diffuseness ``q``, a number in [0, 1],
    the finite imposed velocity ``gradient`` and the integer truncation
    ``order`` in [0, 12].  The resolution is the build's default: the
    ``KernelSuite()`` t-rule, whose 64 nodes per panel set the build's
    320-node ``SpectralGrid.geometric()`` and its density rule.
    """

    __slots__ = __match_args__ = ("q", "gradient", "order")

    def __init__(self, q: float = 1.0, gradient: float = 1.0, order: int = 3):
        if not isinstance(q, numbers.Real) or not (0.0 <= q <= 1.0):
            raise ValueError(f"q must lie in [0, 1], got {q!r}")
        if not isinstance(order, numbers.Integral) or not (0 <= order <= 12):
            raise ValueError(f"order must be an integer in [0, 12], got {order!r}")
        if not isinstance(gradient, numbers.Real) or not math.isfinite(gradient):
            raise ValueError(f"gradient must be a finite number, got {gradient!r}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "gradient", gradient)
        object.__setattr__(self, "order", order)


def check_finite(value: float, name: str) -> None:
    """Raise ValueError unless the drive ``value`` (the gradient or the slip
    velocity) is finite; the CLI calls it before any build."""
    if not math.isfinite(value):
        raise ValueError(f"the {name} must be finite, got {value}")


def finite_result(value: float) -> float:
    """``value`` if finite; an inf or nan result is a NumericalFailure."""
    if not math.isfinite(value):
        raise NumericalFailure(f"a result is {value}: the inputs overflow double precision")
    return value


def slip_velocity(series: SeriesExpansion, q: float, g_v: float) -> float:
    """V_sl(q) = g_v (2-q)/q * sum_n V_n q^n; a NumericalFailure if it overflows."""
    if series.kind != "forward":
        raise ValueError("slip_velocity needs a forward series")
    check_finite(g_v, "gradient")
    if q == 0.0:
        raise DiffuseLimitSingular()
    if not (0.0 < q <= 1.0):
        raise ValueError(f"q must lie in (0, 1], got {q}")
    return finite_result(g_v * (2.0 - q) / q * series.partial_sum(q))


def gradient(series: SeriesExpansion, q: float, v_sl: float) -> float:
    """g_v(q) = V_sl * q/(2-q) * sum_n W_n q^n; exactly zero at q = 0, and a
    NumericalFailure if it overflows."""
    if series.kind != "inverse":
        raise ValueError("gradient needs an inverse series")
    check_finite(v_sl, "slip velocity")
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"q must lie in [0, 1], got {q}")
    if q == 0.0:
        return 0.0
    return finite_result(v_sl * q / (2.0 - q) * series.partial_sum(q))
