"""Per-layer spans recorded from outside the package, by wrapping module attributes.

`Tracer.installed()` replaces every public function of the six lambda_holo
modules, plus the dynamics stage helpers, with a timing wrapper wherever the
function object is bound (`from .dynamics import propagate` in gates is a
second binding of the same object), and restores the originals on exit.
Spans live in memory: per function, the call count, the inclusive time and
the self time, which is the span minus the spans of wrapped calls made
inside it. A layer's self time is the sum over its functions.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time

LAYERS = ("qstate", "pulses", "dynamics", "gates", "sweeps", "cli")
STAGE_HELPERS = {"dynamics": ("_coupling_weights", "_step_unitaries", "time_ordered_product")}

# one 3x3 complex product: 27 complex multiplies (6 flops) and 18 complex adds (2 flops)
FLOPS_PER_PRODUCT = 27 * 6 + 18 * 2
BYTES_PER_STEP = 9 * 16  # one complex128 3x3 step unitary

# metrics derived from counts and array sizes rather than measured
COMPUTED = (
    "dynamics.steps",
    "dynamics.product.flops",
    "dynamics.stack_mb.max",
    "sweeps.propagators_per_key",
)


class Stat:
    __slots__ = ("calls", "total", "own")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.own = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[tuple[str, str], Stat] = {}
        self.steps = 0
        self.products = 0
        self.stack_max = 0
        self.rows = 0
        self.bytes = 0
        self.keys: set = set()
        self._open: list[float] = []  # child time accumulated by each open span
        self._propagator_sig = None
        self._num_steps = None

    def _wrap(self, layer: str, name: str, fn):
        stat = self.stats.setdefault((layer, name), Stat())
        before = {
            ("dynamics", "propagator"): self._on_propagator,
            ("dynamics", "time_ordered_product"): self._on_product,
        }.get((layer, name))
        after = self._count_rows if layer == "sweeps" else None
        if (layer, name) in (("cli", "render_csv"), ("cli", "render_json")):
            after = self._count_bytes
        open_spans = self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            open_spans.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = open_spans.pop()
                stat.calls += 1
                stat.total += dt
                stat.own += dt - child
                if open_spans:
                    open_spans[-1] += dt
            if after is not None:
                after(result)
            return result

        return wrapper

    def _on_propagator(self, args, kwargs):
        bound = self._propagator_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        cfg = a["cfg"]
        start = cfg.time_origin if a.get("pulse_start") is None else a["pulse_start"]
        self.keys.add((a["sys"], a["drive"], start, cfg))
        if self._num_steps is not None:
            self.steps += self._num_steps(a["sys"], a["drive"].envelope.tau, cfg)

    def _on_product(self, args, kwargs):
        n = (args[0] if args else kwargs["unitaries"]).shape[0]
        self.products += max(n - 1, 0)
        self.stack_max = max(self.stack_max, n)

    def _count_rows(self, result):
        self.rows += len(result)

    def _count_bytes(self, text):
        self.bytes += len(text.encode())

    @contextlib.contextmanager
    def installed(self):
        layer_mods = {layer: importlib.import_module(f"lambda_holo.{layer}") for layer in LAYERS}
        dynamics = layer_mods["dynamics"]
        self._num_steps = getattr(dynamics, "num_steps", None)
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, mod in layer_mods.items():
            names = [
                n
                for n, v in vars(mod).items()
                if not n.startswith("_") and inspect.isfunction(v) and v.__module__ == mod.__name__
            ]
            names += [n for n in STAGE_HELPERS.get(layer, ()) if hasattr(mod, n)]
            for name in names:
                fn = getattr(mod, name)
                if fn is getattr(dynamics, "propagator", None):
                    self._propagator_sig = inspect.signature(fn)
                wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        patched = []
        for mod in [importlib.import_module("lambda_holo"), *layer_mods.values()]:
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    patched.append((mod, attr, value))
        try:
            yield self
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def _own(self, layer: str) -> float:
        return sum(s.own for (l, _), s in self.stats.items() if l == layer)

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per pass, as name -> (value, unit).

        A metric whose function no longer exists is left out.
        """
        per = 1.0 / passes
        out: dict[str, tuple[float, str]] = {}
        stat = self.stats.get

        def span(prefix, key, calls=True):
            s = stat(key)
            if s is not None:
                if calls:
                    out[f"{prefix}.calls"] = (s.calls * per, "count")
                out[f"{prefix}.s"] = (s.total * per, "s")

        span("dynamics.propagator", ("dynamics", "propagator"))
        span("dynamics.weights", ("dynamics", "_coupling_weights"), calls=False)
        span("dynamics.step_unitaries", ("dynamics", "_step_unitaries"), calls=False)
        span("dynamics.product", ("dynamics", "time_ordered_product"), calls=False)
        prop = stat(("dynamics", "propagator"))
        if prop is not None:
            if self._num_steps is not None:
                out["dynamics.steps"] = (self.steps * per, "count")
                if self.steps:
                    out["dynamics.ns_per_step"] = (prop.total / self.steps * 1e9, "ns")
            out["sweeps.propagator_keys"] = (len(self.keys) * per, "count")
            if self.keys:
                out["sweeps.propagators_per_key"] = (prop.calls / len(self.keys), "ratio")
        if stat(("dynamics", "time_ordered_product")) is not None:
            out["dynamics.product.flops"] = (self.products * FLOPS_PER_PRODUCT * per, "flop")
            out["dynamics.stack_mb.max"] = (self.stack_max * BYTES_PER_STEP / 1e6, "MB")
        out["sweeps.rows"] = (self.rows * per, "count")
        out["sweeps.self_s"] = (self._own("sweeps") * per, "s")
        span("pulses.envelope", ("pulses", "envelope"))
        s = stat(("gates", "gate_outcome"))
        if s is not None:
            out["gates.gate_outcome.calls"] = (s.calls * per, "count")
        out["gates.self_s"] = (self._own("gates") * per, "s")
        qstate = [s for (l, _), s in self.stats.items() if l == "qstate"]
        out["qstate.calls"] = (sum(s.calls for s in qstate) * per, "count")
        out["qstate.s"] = (self._own("qstate") * per, "s")
        s = stat(("cli", "run"))
        if s is not None:
            out["cli.run.calls"] = (s.calls * per, "count")
        out["cli.self_s"] = (self._own("cli") * per, "s")
        renders = [stat(("cli", n)) for n in ("render_csv", "render_json")]
        if any(r is not None for r in renders):
            out["cli.render.s"] = (sum(r.total for r in renders if r is not None) * per, "s")
        out["cli.bytes"] = (self.bytes * per, "B")
        return out
