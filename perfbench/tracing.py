"""Per-layer tracing for the kramers benchmark.

A ``Tracer`` wraps public functions of the kramers modules for the length of
a ``with`` block and restores every patch on exit. A function is patched
wherever its callers resolve it: ``kramers.forward`` did
``from .quadrature import integrate_halfline`` and holds its own reference, so
every loaded kramers module whose attribute *is* the original function gets
the wrapper. Methods are patched on their class.

Each call records a span (layer, start, end, parent span). A layer's self
time is the duration of its spans minus the durations of their direct
children. Counts (calls, points, integrand points, scalar repeats) are
recorded at the same boundaries and repeat exactly from run to run. A target
that a refactor removed is listed in ``absent`` and reads as zero.
"""
from __future__ import annotations

import importlib
import inspect
import sys
import time
import weakref
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Target:
    """One traced function: ``attr`` is ``name`` or ``Class.method``.

    points : parameters whose broadcast size is the call's point count
    integrand : parameter holding an integrand; its evaluated points are counted
    scalar_key : parameters forming the cache key of a scalar call (methods only)
    moments : count points x t-rule size of the call's instance as moment terms
    """

    module: str
    attr: str
    points: tuple[str, ...] = ()
    integrand: str | None = None
    scalar_key: tuple[str, ...] = ()
    moments: bool = False


KRAMERS_TARGETS = {
    "kernels.t_n": Target("kramers.kernels", "KernelSuite.t_n", ("k",), scalar_key=("n", "k"),
                          moments=True),
    "kernels.j_n": Target("kramers.kernels", "KernelSuite.j_n", ("k", "k1"), moments=True),
    "kernels.s_fwd": Target("kramers.kernels", "KernelSuite.s_fwd", ("k", "k1")),
    "kernels.s_inv": Target("kramers.kernels", "KernelSuite.s_inv", ("k", "k1")),
    "quadrature.integrate_halfline": Target(
        "kramers.quadrature", "integrate_halfline", integrand="g"
    ),
    "quadrature.integrate_fourier_cos": Target(
        "kramers.quadrature", "integrate_fourier_cos", integrand="g"
    ),
    "spectral.density_eval": Target("kramers.spectral", "SpectralDensity.__call__", ("k",)),
    "spectral.density_build": Target("kramers.spectral", "SpectralDensity.__init__"),
    "spectral.self_check": Target("kramers.spectral", "SpectralDensity.self_check"),
    "forward.apply_operator_fwd": Target("kramers.forward", "apply_operator_fwd"),
    "forward.slip_coefficient": Target("kramers.forward", "slip_coefficient"),
    "forward.build_e0": Target("kramers.forward", "build_e0"),
    "inverse.apply_operator_inv": Target("kramers.inverse", "apply_operator_inv"),
    "inverse.w_coefficient": Target("kramers.inverse", "w_coefficient"),
    "inverse.build_e0_inv": Target("kramers.inverse", "build_e0_inv"),
    "profile.full_profile": Target("kramers.profile", "full_profile", ("x_nodes",)),
    "profile.velocity_correction": Target("kramers.profile", "velocity_correction"),
    "profile.wall_velocity": Target("kramers.profile", "wall_velocity"),
    "profile.boundary_distribution": Target(
        "kramers.profile", "boundary_distribution", ("mu_nodes",)
    ),
}


def t_rule_size(kern) -> int:
    """Nodes of a KernelSuite's t-rule; 0 once the suite has no such rule."""
    try:
        from kramers.quadrature import gauss_weighted_nodes
        return len(gauss_weighted_nodes(kern.spec)[0])
    except (ImportError, AttributeError):
        return 0


class LayerStat:
    __slots__ = ("points", "integrand_points", "errors", "scalar_calls", "scalar_repeats",
                 "moment_terms")

    def __init__(self):
        self.points = 0
        self.integrand_points = 0
        self.errors = 0
        self.scalar_calls = 0
        self.scalar_repeats = 0
        self.moment_terms = 0


def _param_index(fn, names):
    """Positional index of each named parameter, or None when the signature
    has no such parameter any more."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    if not all(n in params for n in names):
        return None
    return tuple((params.index(n), n) for n in names)


def _arg(args, kwargs, pos_name):
    pos, name = pos_name
    return args[pos] if pos < len(args) else kwargs[name]


class Tracer:
    """Patch the targets on ``__enter__``, restore them on ``__exit__``.

    Spans and counts accumulate over every ``with`` block of one tracer.
    """

    def __init__(self, targets=None, package="kramers"):
        self.targets = KRAMERS_TARGETS if targets is None else targets
        self.package = package
        self.names = list(self.targets)
        self.stats = {name: LayerStat() for name in self.names}
        self.absent: list[str] = []
        # spans: layer index, start, end, parent span index (-1 at the root)
        self.span_layer: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        self._seen = weakref.WeakKeyDictionary()
        self._rule_sizes = weakref.WeakKeyDictionary()

    # -- patching ------------------------------------------------------------

    def __enter__(self):
        self.absent = []
        for index, name in enumerate(self.names):
            target = self.targets[name]
            try:
                owner, attr, original = self._resolve(target)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(index, target, original)
            if owner is not None:
                self._set(owner, attr, wrapper)
            else:
                self._set_everywhere(original, wrapper)
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        return False

    def _resolve(self, target: Target):
        module = importlib.import_module(target.module)
        if "." in target.attr:
            cls_name, attr = target.attr.split(".", 1)
            cls = getattr(module, cls_name)
            return cls, attr, getattr(cls, attr)
        return None, target.attr, getattr(module, target.attr)

    def _set(self, owner, attr, value):
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, value)

    def _set_everywhere(self, original, wrapper):
        prefix = self.package + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    # -- recording -----------------------------------------------------------

    def _wrap(self, index: int, target: Target, fn):
        stat = self.stats[self.names[index]]
        points_at = _param_index(fn, target.points) if target.points else None
        integrand_at = _param_index(fn, (target.integrand,)) if target.integrand else None
        key_at = _param_index(fn, target.scalar_key) if target.scalar_key else None
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            if points_at is not None:
                npts = int(np.broadcast(*(_arg(args, kwargs, p) for p in points_at)).size)
                stat.points += npts
                if target.moments:
                    stat.moment_terms += npts * self._rule_size_of(args[0])
            if integrand_at is not None:
                args, kwargs = self._count_integrand(stat, integrand_at[0], args, kwargs)
            if key_at is not None:
                self._count_scalar(stat, args, kwargs, key_at)
            span = len(self.span_layer)
            self.span_layer.append(index)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self._stack.append(span)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                stat.errors += 1
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                self.span_start[span] = start
                self.span_end[span] = end

        wrapper.__wrapped__ = fn
        return wrapper

    def _rule_size_of(self, kern) -> int:
        size = self._rule_sizes.get(kern)
        if size is None:
            size = self._rule_sizes[kern] = t_rule_size(kern)
        return size

    @staticmethod
    def _count_integrand(stat, pos_name, args, kwargs):
        pos, name = pos_name
        g = _arg(args, kwargs, pos_name)

        def counted(k):
            stat.integrand_points += int(np.size(k))
            return g(k)

        if pos < len(args):
            args = args[:pos] + (counted,) + args[pos + 1:]
        else:
            kwargs = {**kwargs, name: counted}
        return args, kwargs

    def _count_scalar(self, stat, args, kwargs, key_at):
        values = tuple(_arg(args, kwargs, p) for p in key_at)
        if any(np.ndim(v) for v in values):
            return
        key = tuple(float(v) for v in values)
        seen = self._seen.get(args[0])
        if seen is None:
            seen = self._seen[args[0]] = set()
        stat.scalar_calls += 1
        if key in seen:
            stat.scalar_repeats += 1
        else:
            seen.add(key)

    # -- summaries -----------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Duration minus direct children, summed per layer."""
        durations = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * len(durations)
        for span, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += durations[span]
        out = dict.fromkeys(self.names, 0.0)
        for span, layer in enumerate(self.span_layer):
            out[self.names[layer]] += durations[span] - child[span]
        return out

    def calls(self) -> dict[str, int]:
        out = dict.fromkeys(self.names, 0)
        for layer in self.span_layer:
            out[self.names[layer]] += 1
        return out

    def calls_under(self, name: str, ancestor: str) -> int:
        """Calls of layer ``name`` made while a span of ``ancestor`` was open."""
        want, above = self.names.index(name), self.names.index(ancestor)
        count = 0
        for span, layer in enumerate(self.span_layer):
            if layer != want:
                continue
            parent = self.span_parent[span]
            while parent >= 0 and self.span_layer[parent] != above:
                parent = self.span_parent[parent]
            count += parent >= 0
        return count
