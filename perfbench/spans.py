"""Span tracing of cventlab from outside the package.

``Tracer.install`` replaces every module attribute bound to a public function
of the traced modules with a timing wrapper, in every loaded ``cventlab``
module, so calls from one module into another (``fiber`` into
``gaussian_core.ppt_separable``, ``interferometry`` into ``fock_oracle``) are
captured too.  ``uninstall`` puts the original objects back.  Spans are kept
in memory per request; a span's self time is its duration minus the
durations of its direct children, so the self times of one request sum to
the duration of its root span.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

MODULES = ("cli", "gaussian_core", "fock_oracle", "estimation", "discrimination",
           "interferometry", "crypto", "fiber")

ROOT_SPAN = "request"


def _block_work(args, _fn) -> int:
    """Sum of (n+1)^3 over the total-photon-number blocks the state occupies."""
    import numpy as np

    rows, cols = np.nonzero(args["state"].amps)
    return int(sum((n + 1) ** 3 for n in np.unique(rows + cols).tolist()))


def _d_max_capped(args, default_d_max) -> int:
    uncapped = default_d_max(args["x"], args["tail_tol"], cap=sys.maxsize)
    return int(uncapped > args["cap"])


# span name -> (metric name, the argument that counts the work, or a function
# of the bound arguments and the original function)
QUANTITIES = {
    "gaussian_core.sample_heterodyne": ("gaussian_core.sample_heterodyne.samples",
                                        "n_samples"),
    "discrimination.brute_force_min_overlap": (
        "discrimination.brute_force_min_overlap.draws", "n_samples"),
    "crypto.simulate_binary_protocol": ("crypto.simulate_binary_protocol.bits", "n_bits"),
    "estimation.simulate_estimation": ("estimation.simulate_estimation.trials", "n_trials"),
    "fiber.simulate_ou_variances": ("fiber.simulate_ou_variances.samples", "n_samples"),
    "fock_oracle.apply_jx_evolution": ("fock_oracle.block_work", _block_work),
    "fock_oracle.default_d_max": ("fock_oracle.d_max_capped", _d_max_capped),
}


@dataclass
class Span:
    name: str
    parent: int  # index of the parent span in the request, -1 for the root
    start: float
    end: float = 0.0
    quantity: float = 0.0


@dataclass
class RequestTrace:
    kind: str
    spans: list[Span] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.spans[0].end - self.spans[0].start

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans[1:]:
            own[s.parent] -= s.end - s.start
        return own

    def under(self, index: int, ancestor: str) -> bool:
        """True when span ``index`` has an enclosing span named ``ancestor``."""
        parent = self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name == ancestor:
                return True
            parent = self.spans[parent].parent
        return False

    def to_json(self) -> dict:
        return {"kind": self.kind,
                "spans": [[s.name, s.parent, s.start, s.end, s.quantity]
                          for s in self.spans]}

    @classmethod
    def from_json(cls, data: dict) -> "RequestTrace":
        return cls(data["kind"], [Span(*s) for s in data["spans"]])


def _public_targets(module) -> dict[str, object]:
    """Public functions defined in ``module``, plus the click group of ``cli``."""
    short = module.__name__.rsplit(".", 1)[-1]
    targets = {}
    for name, value in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            targets[name] = value
    if short == "cli":
        targets["main"] = module.main
    return {f"{short}.{name}": fn for name, fn in targets.items()}


class Tracer:
    """Records spans of the public functions of the traced cventlab modules."""

    def __init__(self):
        self.requests: list[RequestTrace] = []
        self._current: RequestTrace | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing the wrappers -------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"cventlab.{short}")
            for span_name, fn in _public_targets(module).items():
                wrappers[id(fn)] = (fn, self._wrap(span_name, fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "cventlab" and not mod_name.startswith("cventlab."):
                continue
            for name, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, name, value))
                    setattr(module, name, hit[1])

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, span_name: str, fn):
        quantity = QUANTITIES.get(span_name, (None, None))[1]
        signature = inspect.signature(fn) if quantity else None

        def traced(*args, **kwargs):
            if self._current is None:  # outside a request: pass through
                return fn(*args, **kwargs)
            index = self._open(span_name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
                if quantity is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self._current.spans[index].quantity = (
                        bound.arguments[quantity] if isinstance(quantity, str)
                        else quantity(bound.arguments, fn))

        return traced

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        spans = self._current.spans
        spans.append(Span(name, self._stack[-1] if self._stack else -1,
                          time.perf_counter()))
        self._stack.append(len(spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self._current.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def request(self, kind: str):
        """Root span of one request; spans of wrapped calls nest inside it."""
        self._current = RequestTrace(kind)
        index = self._open(ROOT_SPAN)
        try:
            yield self._current
        finally:
            self._close(index)
            self.requests.append(self._current)
            self._current = None


def summarize(requests: list[RequestTrace]) -> dict[str, float]:
    """Totals over ``requests``: ``<span>.calls``, ``<span>.self_ms`` and quantities."""
    out: dict[str, float] = {}
    for req in requests:
        for span, own in zip(req.spans, req.self_times()):
            out[f"{span.name}.calls"] = out.get(f"{span.name}.calls", 0) + 1
            out[f"{span.name}.self_ms"] = out.get(f"{span.name}.self_ms", 0.0) + own * 1e3
            if span.name in QUANTITIES:
                metric = QUANTITIES[span.name][0]
                out[metric] = out.get(metric, 0) + span.quantity
    return out


def count_under(requests: list[RequestTrace], name: str, ancestor: str) -> int:
    """Number of ``name`` spans nested (at any depth) inside an ``ancestor`` span."""
    return sum(
        1
        for req in requests
        for i, span in enumerate(req.spans)
        if span.name == name and req.under(i, ancestor)
    )
