"""Per-layer timers and counters, installed around matrixdiff's public functions.

The program has no spans of its own, so the traced run wraps, from outside,
every public function of each layer module.  ``sde``, ``checks`` and ``cli``
bind names with ``from .symmat import ...``, so a wrapper replaces the original
at every ``matrixdiff.*`` module attribute that holds it, not only in the
module that defines it; `unwrapped_sites` lists any place still holding one.

A call counts for a layer only when it enters the layer from another layer or
from the benchmark.  A call from inside a layer into the same layer passes
straight through, so nested calls such as ``min_eigenvalues_stack`` ->
``spectral_decompose_stack`` count their matrices once.  A layer's busy time
is self time: the time inside its entering calls minus the time those calls
spent in other layers they entered.

Import this module after ``workloads.import_cli()``, which puts the checkout's
``src`` first on ``sys.path``.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from dataclasses import dataclass, field

import numpy as np

import matrixdiff
from matrixdiff import brownian, checks, cli, integrals, sde, symmat

LAYER_MODULES = {"symmat": symmat, "brownian": brownian, "integrals": integrals,
                 "sde": sde, "checks": checks, "cli": cli}
LAYERS = tuple(LAYER_MODULES)


@dataclass
class LayerStats:
    busy_s: float = 0.0
    calls: int = 0
    errors: int = 0
    counts: dict = field(default_factory=dict)

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


def public_functions(module) -> dict:
    """Plain functions the module defines and exports (``__all__``, else no leading ``_``)."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [name for name in vars(module) if not name.startswith("_")]
    return {name: getattr(module, name) for name in names
            if isinstance(getattr(module, name), types.FunctionType)
            and getattr(module, name).__module__ == module.__name__}


def _count_symmat(stats, name, args, kwargs, result) -> None:
    # The first matrix argument: an (m, d, d) stack counts m, a SymmetricMatrix counts 1.
    for value in (*args, *kwargs.values()):
        if isinstance(value, np.ndarray) and value.ndim == 3:
            stats.add("matrices", value.shape[0])
            return
        if isinstance(value, symmat.SymmetricMatrix):
            stats.add("matrices", 1)
            return


def _count_brownian(stats, name, args, kwargs, result) -> None:
    if name == "sample_path":
        stats.add("paths", 1)
        stats.add("draws", result.increments.size)


def _count_sde(stats, name, args, kwargs, result) -> None:
    if name == "euler_step":
        stats.add("path_steps", 1)
    elif name == "euler_final_states":
        grid = args[1] if len(args) > 1 else kwargs["grid"]
        stats.add("path_steps", len(result) * grid.steps)
    elif name == "euler_solve":
        stats.add("path_steps", result.grid.steps)
    elif name == "picard_solve":
        solution, diagnostics = result
        stats.add("path_steps", solution.grid.steps)
        stats.add("picard_iterations", diagnostics.iterates_kept)


_COUNTERS = {"symmat": _count_symmat, "brownian": _count_brownian, "sde": _count_sde}


class LayerTracer:
    """Wraps the public functions of matrixdiff's layer modules while installed."""

    def __init__(self) -> None:
        self.stats = {layer: LayerStats() for layer in LAYERS}
        self._stack = []  # [layer, seconds spent in other layers] per entering call
        self._wrappers = {}  # original function -> its wrapper
        for layer, module in LAYER_MODULES.items():
            for name, fn in public_functions(module).items():
                self._wrappers[fn] = self._wrap(layer, name, fn)
        self._installed = []  # (module, attribute, original)

    @staticmethod
    def _modules():
        prefix = matrixdiff.__name__ + "."
        return [module for name, module in list(sys.modules.items())
                if module is not None and (name == matrixdiff.__name__ or name.startswith(prefix))]

    def _wrap(self, layer, name, fn):
        stats, stack = self.stats[layer], self._stack
        count = _COUNTERS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            stats.calls += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stats.errors += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                stats.busy_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if count is not None:
                count(stats, name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in self._wrappers:
                    setattr(module, attr, self._wrappers[value])
                    self._installed.append((module, attr, value))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def _sites(self, functions) -> list:
        return [f"{module.__name__}.{attr}" for module in self._modules()
                for attr, value in vars(module).items()
                if isinstance(value, types.FunctionType) and value in functions]

    def unwrapped_sites(self) -> list:
        """``module.attr`` names that still hold an original, unwrapped function."""
        return self._sites(self._wrappers)

    def wrapped_sites(self) -> list:
        """``module.attr`` names that hold a wrapper."""
        return self._sites(set(self._wrappers.values()))
