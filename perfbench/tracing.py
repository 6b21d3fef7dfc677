"""Per-layer tracing from outside the program.

A :class:`Tracer` wraps the public functions of each layer and records,
per call, the span's self time: its duration minus the part covered by
traced calls it made (child spans).  Spans nest per thread, so a daemon's
handler threads and its dispatcher thread keep separate stacks.

Each function is patched where its callers look it up: a module-level
function in every ``repro`` module that holds it under that name (so
``from x import f`` call sites are covered too), a method on the class or
instance the caller resolves it from.  :meth:`Tracer.restore` undoes
every patch, so a traced pass can follow an untraced one in one process.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    """Collects self time and call counts per layer name."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object, bool]] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.bytes = 0
        #: Inclusive ``SolveService.submit`` time: all calls, and each
        #: call that hit the cache (the transport estimate subtracts it).
        self.submit_ns = 0
        self.hit_submit_ns: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn, observe=None):
        """``fn`` recording a ``layer`` span; ``observe(result, ns)`` sees
        each successful call's result and inclusive duration."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            stack.append(0)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    self.self_ns[layer] += elapsed - children
                    self.calls[layer] += 1
            if observe is not None:
                observe(result, elapsed)
            return result

        return traced

    def patch(self, owner, attr: str, layer: str, observe=None) -> None:
        """Replace ``owner.attr`` (class, instance or module) by a traced
        wrapper; class- and static methods stay what they were."""
        static = inspect.getattr_static(owner, attr)
        own = attr in vars(owner)
        if isinstance(static, classmethod):
            new = classmethod(self.wrap(layer, static.__func__, observe))
        elif isinstance(static, staticmethod):
            new = staticmethod(self.wrap(layer, static.__func__, observe))
        else:
            new = self.wrap(layer, getattr(owner, attr), observe)
        self._undo.append((owner, attr, static, own))
        setattr(owner, attr, new)

    def patch_function(self, module: str, name: str, layer: str, observe=None):
        """Trace ``module.name`` in every loaded ``repro`` module holding it."""
        original = getattr(sys.modules[module], name)
        for loaded in list(sys.modules.values()):
            if (
                getattr(loaded, "__name__", "").startswith("repro")
                and vars(loaded).get(name) is original
            ):
                self.patch(loaded, name, layer, observe)

    def restore(self) -> None:
        for owner, attr, static, own in reversed(self._undo):
            if own:
                setattr(owner, attr, static)
            else:
                delattr(owner, attr)
        self._undo.clear()

    def _count_bytes(self, result, _ns) -> None:
        with self._lock:
            self.bytes += len(result)

    def summary(self) -> dict:
        """Self seconds and call counts per layer (JSON-ready)."""
        return {
            "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
            "calls": dict(self.calls),
            "bytes": self.bytes,
            "submit_s": self.submit_ns / 1e9,
            "hit_submit_s": [ns / 1e9 for ns in self.hit_submit_ns],
        }

    # -- the layer tables --------------------------------------------------

    def install_solve_layers(self) -> None:
        """The ``api.solve`` path: spec → network → program → engine →
        finalize → check, plus canonical serialization."""
        from repro.api import facade
        from repro.api.engines import ENGINES
        from repro.api.registry import ALGORITHMS
        from repro.local.vectorized import VectorNetwork

        for algorithm in ALGORITHMS.values():
            self.patch(algorithm, "default_network", "api.networks.build_s")
            self.patch(algorithm, "program", "algorithms.program_s")
            self.patch(algorithm, "finalize", "algorithms.finalize_s")
        self.patch(VectorNetwork, "of", "local.vectorized.compile_s")
        self.patch(ENGINES["vectorized"], "_runner", "local.vectorized.run_s")
        self.patch(ENGINES["object"], "_runner", "local.simulator.run_s")
        self.patch(facade, "_family_check", "checkers.check_s")
        self.patch_function(
            "repro.utils.serialization",
            "canonical_dumps",
            "utils.serialization.dumps_s",
            observe=self._count_bytes,
        )

    def install_explore_layers(self) -> None:
        """The round-elimination path: operators, witnesses, digests."""
        import repro.roundelim.explore  # noqa: F401 - loads the call sites
        import repro.roundelim.kernel  # noqa: F401
        from repro.roundelim.sequences import LowerBoundSequence

        for name in ("find_label_relaxation", "find_config_map_relaxation"):
            self.patch_function(
                "repro.formalism.relaxations", name,
                "formalism.relaxations.witness_s",
            )
        self.patch_function(
            "repro.roundelim.kernel", "apply_R_kernel", "roundelim.kernel.apply_R_s"
        )
        self.patch(LowerBoundSequence, "verify", "roundelim.sequences.verify_s")
        self.patch_function(
            "repro.formalism.normalize", "normal_form",
            "formalism.normalize.normal_form_s",
        )
        self.patch_function(
            "repro.roundelim.explore.frontier", "_classify",
            "roundelim.explore.classify_s",
        )

    def install_service_layers(self) -> None:
        """The daemon's request path (call before the service is built:
        the worker pool resolves ``compute_result`` at construction)."""
        import repro.service.server  # noqa: F401 - loads the call sites
        from repro.service.cache import ReportCache
        from repro.service.server import SolveService

        for name in ("canonicalize_request", "request_digest"):
            self.patch_function(
                "repro.service.protocol", name, "service.protocol.canonicalize_s"
            )

        def note_lookup(result, _ns) -> None:
            self._local.hit = result is not None

        def note_submit(_result, ns) -> None:
            with self._lock:
                self.submit_ns += ns
                if getattr(self._local, "hit", False):
                    self.hit_submit_ns.append(ns)
            self._local.hit = False

        self.patch(ReportCache, "lookup", "service.cache.lookup_s", note_lookup)
        self.patch(ReportCache, "record", "service.cache.record_s")
        self.patch(SolveService, "submit", "service.server.submit_s", note_submit)
        self.patch_function(
            "repro.service.worker", "compute_result", "service.worker.compute_s"
        )
