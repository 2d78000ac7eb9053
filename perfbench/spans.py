"""Span tracer for the traced run, installed from outside the program.

Every public function of the layer modules is wrapped, and the wrapper is
patched into each chainflux module that holds a reference to it (``cli``
imports ``steady_state``, ``symmetry`` imports ``chain_steady_state``, and
so on), plus ``Liouvillian.apply`` and ``Liouvillian.matrix`` on the class.
A span is (parent span, name, item, start, end); spans are kept in flat
arrays in memory and written out when the run ends. Self times and busy
times are derived from the spans afterwards.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
from array import array
from functools import cached_property
from time import perf_counter

LAYERS = ("config", "cli", "pauli", "chain", "lindblad", "symmetry", "classical")

# Metric stem -> the spans it aggregates. "calls" and "busy_s" count only
# spans whose parent is not in the same group, so nested calls
# (energy_current_field_op -> spin_current_op) are not counted twice.
GROUPS = {
    "lindblad.matrix": ("lindblad.Liouvillian.matrix",),
    "lindblad.apply": ("lindblad.Liouvillian.apply",),
    "lindblad.steady_state": ("lindblad.steady_state",),
    "lindblad.jump_operators": ("lindblad.jump_operators",),
    "lindblad.currents_profile": ("lindblad.currents_profile",),
    "lindblad.expectation": ("lindblad.expectation",),
    "lindblad.validate": ("lindblad.validate_state",),
    "pauli.embed": ("pauli.embed",),
    "chain.build_hamiltonian": ("chain.build_hamiltonian",),
    "chain.current_ops": ("chain.spin_current_op", "chain.energy_current_xxz_op",
                          "chain.energy_current_field_op"),
    "classical.steady_temps": ("classical.steady_temps",),
    "classical.bond_flux": ("classical.bond_flux",),
    "config.load_config": ("config.load_config",),
}


def _public_functions(module):
    for attr, value in vars(module).items():
        if (not attr.startswith("_") and inspect.isfunction(value)
                and value.__module__ == module.__name__):
            yield value


class Tracer:
    """Wraps the program's public functions and records one span per call."""

    def __init__(self):
        self.names: list[str] = []
        self.parent = array("q")
        self.name = array("H")
        self.item = array("q")
        self.start = array("d")
        self.end = array("d")
        self.solve_keys: list[str] = []
        self.current_item = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._plan_patches()

    def _wrap(self, span_name: str, fn, before=None):
        code = len(self.names)
        self.names.append(span_name)
        stack, parent, name, item = self._stack, self.parent, self.name, self.item
        start, end = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            index = len(parent)
            parent.append(stack[-1] if stack else -1)
            name.append(code)
            item.append(self.current_item)
            end.append(0.0)
            stack.append(index)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()

        return traced

    def _record_solve_key(self, args, kwargs):
        """Key a steady-state solve by (Hamiltonian, jumps, method): (spec, bath, method)."""
        liouv = args[0] if args else kwargs["liouv"]
        method = args[1] if len(args) > 1 else kwargs.get("method", "auto")
        digest = hashlib.blake2b(liouv.hamiltonian.tobytes(), digest_size=16)
        for jump in liouv.jumps:
            digest.update(jump.tobytes())
        digest.update(method.encode())
        self.solve_keys.append(digest.hexdigest())

    def _plan_patches(self):
        package = importlib.import_module("chainflux")
        modules = {layer: importlib.import_module(f"chainflux.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for fn in _public_functions(module):
                span_name = f"{layer}.{fn.__name__}"
                before = self._record_solve_key if span_name == "lindblad.steady_state" else None
                wrapped[fn] = self._wrap(span_name, fn, before)
        for module in (package, *modules.values()):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patches.append((module, attr, value, wrapped[value]))
        liouvillian = modules["lindblad"].Liouvillian
        apply = liouvillian.__dict__["apply"]
        self._patches.append(
            (liouvillian, "apply", apply, self._wrap("lindblad.Liouvillian.apply", apply)))
        matrix = liouvillian.__dict__["matrix"]
        traced_matrix = cached_property(self._wrap("lindblad.Liouvillian.matrix", matrix.func))
        traced_matrix.__set_name__(liouvillian, "matrix")
        self._patches.append((liouvillian, "matrix", matrix, traced_matrix))

    def install(self, item_index: int) -> None:
        self.current_item = item_index
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self.current_item = -1

    def write(self, path) -> None:
        import numpy as np

        np.savez(path, names=np.array(self.names), parent=np.frombuffer(self.parent, "i8"),
                 name=np.frombuffer(self.name, "u2"), item=np.frombuffer(self.item, "i8"),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))

    def metrics(self, n_items: int) -> dict[str, float]:
        """Per-item layer metrics of the traced items (without the timing ratios)."""
        import numpy as np

        parent = np.frombuffer(self.parent, "i8")
        name = np.frombuffer(self.name, "u2")
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=duration[has_parent],
                               minlength=len(parent))
        self_time = duration - children
        codes = {span_name: code for code, span_name in enumerate(self.names)}
        layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in self.names], dtype=int)

        out = {}
        for stem, members in GROUPS.items():
            in_group = np.isin(name, [codes[m] for m in members])
            parent_in_group = np.zeros_like(in_group)
            parent_in_group[has_parent] = in_group[parent[has_parent]]
            top = in_group & ~parent_in_group
            out[f"{stem}.calls"] = int(top.sum()) / n_items
            out[f"{stem}.busy_s"] = float(duration[top].sum()) / n_items
        out["lindblad.solve.self_s"] = float(
            self_time[name == codes["lindblad.steady_state"]].sum()) / n_items
        for index, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = float(self_time[layer_of[name] == index].sum()) / n_items
        keys = self.solve_keys
        out["symmetry.distinct_solve_ratio"] = len(set(keys)) / len(keys) if keys else 0.0
        return out
