"""Per-layer spans taken from outside the package.

The tracer replaces the module-level names through which one layer of
coulombpacket calls another with timing wrappers.  No source file is
edited: every module of the package that binds the same function object
gets the wrapper, so a call is counted whichever module makes it.  A
layer's self time is its span time minus the time of the wrapped spans it
caused.  A name that a later change removes is reported as absent.
"""

from __future__ import annotations

import importlib
import sys
import time

# layer -> (defining module, attribute); BarrierQuery is timed via __init__
LAYERS = {
    "cli.main": ("coulombpacket.cli", "main"),
    "transmission.evaluate": ("coulombpacket.transmission", "evaluate"),
    "transmission.BarrierQuery": ("coulombpacket.transmission", "BarrierQuery.__init__"),
    "transmission.ln_T_quadrature": ("coulombpacket.transmission", "ln_T_quadrature"),
    "transmission.ln_T_steepest": ("coulombpacket.transmission", "ln_T_steepest"),
    "transmission.ln_T_bessel_gamma1": ("coulombpacket.transmission", "ln_T_bessel_gamma1"),
    "transmission.saddle_point_numeric": ("coulombpacket.transmission", "saddle_point_numeric"),
    "transmission.G_param": ("coulombpacket.transmission", "G_param"),
    "packet.shape_constants": ("coulombpacket.packet", "shape_constants"),
    "specfun.log_sum_exp": ("coulombpacket.specfun", "log_sum_exp"),
    "specfun.log_bessel_k1": ("coulombpacket.specfun", "log_bessel_k1"),
}

# packages whose import cost is read from `python -X importtime`
IMPORTS = ("numpy", "scipy.special", "scipy.optimize", "scipy.integrate",
           "coulombpacket")


def _resolve(module, attr):
    *owners, name = attr.split(".")
    try:
        obj = importlib.import_module(module)
    except ModuleNotFoundError:
        return None, name, None
    for part in owners:
        obj = getattr(obj, part, None)
        if obj is None:
            return None, name, None
    return obj, name, getattr(obj, name, None)


class Tracer:
    """Aggregated spans: per layer, calls, total seconds and child seconds."""

    def __init__(self):
        self.stats = {}
        self.absent = []
        self.root = [0.0]  # seconds spent in outermost spans
        self._stack = []
        self._undo = []

    def _wrap(self, fn, stats):
        stack = self._stack
        root = self.root
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stats[2] += stack.pop()
                stats[0] += 1
                stats[1] += dt
                if stack:
                    stack[-1] += dt
                else:
                    root[0] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every binding of every layer's function in the package;
        spans add up over repeated install/uninstall."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "coulombpacket" or n.startswith("coulombpacket.")]
        for layer, (module, attr) in LAYERS.items():
            owner, name, fn = _resolve(module, attr)
            if fn is None:
                if layer not in self.absent:
                    self.absent.append(layer)
                continue
            stats = self.stats.setdefault(layer, [0, 0.0, 0.0])
            wrapper = self._wrap(fn, stats)
            if isinstance(owner, type):  # a method has one binding, its class
                bindings = [(owner, name)]
            else:
                bindings = [(mod, k) for mod in modules
                            for k, v in vars(mod).items() if v is fn]
            for obj, key in bindings:
                self._undo.append((obj, key, fn))
                setattr(obj, key, wrapper)

    def uninstall(self):
        for mod, key, fn in reversed(self._undo):
            setattr(mod, key, fn)
        self._undo.clear()

    def snapshot(self):
        """{layer: [calls, seconds, self seconds]}, absent layers left out."""
        return {k: [c, s, s - ch] for k, (c, s, ch) in self.stats.items()}


def parse_importtime(stderr):
    """{package: seconds} from the `python -X importtime` log of one process.

    The figure is the cumulative time of the package's first import, which
    includes what it imports first, so figures overlap.  A package loaded
    through importlib has no entry of its own (scipy loads its subpackages
    so); its figure is then the sum over its outermost submodule entries.
    A package that was not imported is left out.
    """
    exact, parts_of = {}, {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        cells = line[len("import time:"):].split("|")
        try:
            cumulative = int(cells[1]) * 1e-6
        except (ValueError, IndexError):
            continue  # the header line
        name = cells[2].strip()
        depth = len(cells[2]) - len(cells[2].lstrip())
        for pkg in IMPORTS:
            if name == pkg:
                exact.setdefault(pkg, cumulative)
            elif name.startswith(pkg + "."):
                parts_of.setdefault(pkg, []).append((depth, cumulative))
    out = dict(exact)
    for pkg, entries in parts_of.items():
        if pkg not in out:
            top = min(d for d, _ in entries)
            out[pkg] = sum(c for d, c in entries if d == top)
    return out
