"""Outside-in per-layer attribution for the traced benchmark run.

The benchmark wraps the public entry points of each layer of ``repro``
from its own files (nothing inside the program is instrumented) and
attributes *exclusive* ("self") seconds to the layer whose wrapped call
is innermost on the stack.  Every op runs inside a root frame charged to
the ``other`` layer, so the self times of all layers — ``other``
included — add up exactly to the wall time of the wrapped ops.  That
identity is the rollup the traced run checks.

A layer is a module group: ``planar.scoped`` is ``repro.planar.scoped``,
``planar`` the rest of ``repro.planar``, and so on.  Work a layer does
through a function that is not wrapped (for instance the node programs
a ``CongestNetwork.run`` drives) is charged to the innermost wrapped
caller.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# layer -> (module, qualified names wrapped there).  The order of the
# layers is the order in which metrics are reported.
LAYERS: dict[str, list[tuple[str, str]]] = {
    "planar.scoped": [
        ("repro.planar.scoped", "ScopedPlanarityOracle.check_rerouted"),
    ],
    "planar": [
        ("repro.planar.lr_planarity", "lr_is_planar"),
        ("repro.planar.lr_planarity", "lr_planarity"),
        ("repro.planar.lr_planarity", "planar_embedding"),
        ("repro.planar.biconnected", "biconnected_components"),
        ("repro.planar.verify", "check_embedding_with_boundary"),
        ("repro.planar.verify", "verify_planar_embedding"),
    ],
    "core": [
        ("repro.core.recursion", "embed_subtree"),
        ("repro.core.recursion", "RecursionContext.try_split"),
        ("repro.core.unrestricted", "unrestricted_path_merge"),
        ("repro.core.merges", "merge_parts"),
        ("repro.core.interface", "interface_skeleton"),
        ("repro.core.realize", "realize_boundary_order"),
        ("repro.core.symmetry", "symmetry_break"),
        ("repro.core.parts", "embed_with_boundary"),
        ("repro.core.assembly", "expand_copies"),
    ],
    "primitives": [
        ("repro.primitives.leader", "elect_leader"),
        ("repro.primitives.bfs", "build_bfs_tree"),
        ("repro.primitives.aggregation", "tree_aggregate"),
        ("repro.primitives.aggregation", "tree_broadcast"),
        ("repro.primitives.subtree", "compute_subtree_stats"),
        ("repro.primitives.splitter", "find_splitter"),
    ],
    "congest": [
        ("repro.congest.network", "CongestNetwork.run"),
        ("repro.congest.network", "run_program"),
    ],
    "certify": [
        ("repro.certify.compact", "encode_certificates"),
        ("repro.certify.compact", "verify_compact"),
        ("repro.certify.verifier", "verify_distributed"),
        ("repro.certify.prover", "build_certificates"),
        ("repro.certify.delta", "DynamicCertifiedEmbedding.insert_edge"),
        ("repro.certify.delta", "DynamicCertifiedEmbedding.delete_edge"),
    ],
}
ROOT_LAYER = "other"
REPORT_LAYERS = [*LAYERS, ROOT_LAYER]

_ORIGINAL = "__perfbench_original__"


class LayerClock:
    """Self-time and call-count accumulator shared by every wrapper."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = dict.fromkeys(REPORT_LAYERS, 0.0)
        self.fn_self_s: dict[str, float] = {}
        self.fn_calls: dict[str, int] = {}
        self.root_wall_s = 0.0
        # One [child seconds] cell per active wrapped call.
        self._stack: list[list[float]] = []

    def _account(self, layer: str, label: str, elapsed: float, children: float) -> None:
        own = elapsed - children
        self.self_s[layer] += own
        self.fn_self_s[label] = self.fn_self_s.get(label, 0.0) + own
        self.fn_calls[label] = self.fn_calls.get(label, 0) + 1
        if self._stack:
            self._stack[-1][0] += elapsed

    def wrap(self, layer: str, label: str, fn):
        stack = self._stack
        account = self._account

        def wrapper(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                account(layer, label, elapsed, cell[0])

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, _ORIGINAL, fn)
        return wrapper

    def call_root(self, fn, *args):
        """Run one op as a root frame charged to ``other``."""
        if self._stack:
            raise RuntimeError("root frame opened inside a wrapped call")
        cell = [0.0]
        self._stack.append(cell)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            elapsed = perf_counter() - start
            self._stack.pop()
            self.root_wall_s += elapsed
            self._account(ROOT_LAYER, "op", elapsed, cell[0])

    def layer_fn_self(self, layer: str, names: tuple[str, ...]) -> float:
        return sum(self.fn_self_s.get(f"{layer}:{n}", 0.0) for n in names)

    def layer_fn_calls(self, layer: str, names: tuple[str, ...]) -> int:
        return sum(self.fn_calls.get(f"{layer}:{n}", 0) for n in names)

    def layer_calls(self, layer: str) -> int:
        return sum(c for k, c in self.fn_calls.items() if k.startswith(layer + ":"))


def _repro_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


class Instrumentation:
    """Installs the wrappers of :data:`LAYERS` and restores them exactly."""

    def __init__(self, clock: LayerClock) -> None:
        self.clock = clock
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        assert_untraced()
        for layer, targets in LAYERS.items():
            for modname, qualname in targets:
                module = importlib.import_module(modname)
                label = f"{layer}:{qualname}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    self._set(cls, attr, self.clock.wrap(layer, label, original))
                    continue
                original = getattr(module, qualname)
                wrapper = self.clock.wrap(layer, label, original)
                # ``from x import f`` copies the reference: patch every
                # module namespace of the program that holds it.
                for mod in _repro_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        # A module imported while the wrappers were live copied a wrapper.
        for mod in _repro_modules():
            for key, value in list(vars(mod).items()):
                if hasattr(value, _ORIGINAL):
                    setattr(mod, key, _unwrap(value))
        assert_untraced()


def _unwrap(fn):
    while hasattr(fn, _ORIGINAL):
        fn = getattr(fn, _ORIGINAL)
    return fn


def installed_wrappers() -> list[str]:
    """Every wrapper reachable from a loaded ``repro`` module or a wrapped class."""
    found = []
    for mod in _repro_modules():
        for key, value in list(vars(mod).items()):
            if hasattr(value, _ORIGINAL):
                found.append(f"{mod.__name__}.{key}")
    for targets in LAYERS.values():
        for modname, qualname in targets:
            if "." not in qualname or modname not in sys.modules:
                continue
            cls_name, attr = qualname.split(".")
            cls = getattr(sys.modules[modname], cls_name)
            if hasattr(cls.__dict__[attr], _ORIGINAL):
                found.append(f"{modname}.{qualname}")
    return found


def assert_untraced() -> None:
    """Raise if any layer wrapper is installed (untraced runs call this)."""
    found = installed_wrappers()
    if found:
        raise RuntimeError(f"layer wrappers still installed: {', '.join(found)}")
