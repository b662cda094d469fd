"""Spans around calls into qillum's layers, recorded from outside the program.

``Tracer.install`` swaps every public function of the layer modules (and
the ``TwoModeCovariance`` validator) for a timing wrapper, in every qillum
module namespace that binds it, so calls made between modules are caught
too; ``uninstall`` puts the originals back.  Nothing under ``src/`` changes.

A span is ``[name, layer, start, end, parent, raised, extra]``; ``parent``
is the index of the enclosing span of the same op, or -1.
"""

from __future__ import annotations

import functools
import time

LAYERS = ("cli", "gaussian", "illumination", "fock", "montecarlo")
SQUEEZE = {"fock.squeeze_operator", "fock.squeeze_exponential"}
COUNT_STATS = {"illumination.count_difference_stats",
               "illumination.splitter_folded_count_stats"}


class Tracer:
    def __init__(self, qillum):
        from qillum import cli, fock, gaussian, illumination, montecarlo

        self.spans: list = []
        self._stack: list = []
        self._patches: list = []
        modules = {"cli": cli, "gaussian": gaussian, "illumination": illumination,
                   "fock": fock, "montecarlo": montecarlo}
        namespaces = [qillum, *modules.values()]
        targets = []
        for layer, mod in modules.items():
            names = [n for n in getattr(mod, "__all__", ()) if _is_function(getattr(mod, n))]
            if layer == "cli":
                names = ["main", "build_parser", "_emit"]
            for n in names:
                targets.append((layer, n, getattr(mod, n)))
        for layer, n, fn in targets:
            span = "cli.parse" if n == "build_parser" else f"{layer}.{n.lstrip('_')}"
            wrapper = self._wrap(fn, span, layer, _AFTER.get(n))
            for ns in namespaces:
                if getattr(ns, n, None) is fn:
                    self._patches.append((ns, n, fn, wrapper))
        fn = gaussian.TwoModeCovariance.__dict__["__post_init__"]
        self._patches.append((gaussian.TwoModeCovariance, "__post_init__", fn,
                              self._wrap(fn, "gaussian.validate", "gaussian")))

    def install(self) -> None:
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, fn, name: str, layer: str, after=None):
        """``after(tracer, rec, args, result)`` may annotate the span."""
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            rec = [name, layer, clock(), 0.0, stack[-1] if stack else -1, False, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[3] = clock()
                stack.pop()
            if after is not None:
                after(tracer, rec, args, result)
            return result

        return wrapper


def _trace_parse_args(tracer, rec, args, parser) -> None:
    parser.parse_args = tracer._wrap(parser.parse_args, "cli.parse", "cli")


def _count_rows(tracer, rec, args, result) -> None:
    rec[6] = len(args[0])


_AFTER = {"build_parser": _trace_parse_args, "_emit": _count_rows}


def _is_function(obj) -> bool:
    return callable(obj) and not isinstance(obj, type)


def op_profile(spans: list) -> dict:
    """Per-op layer figures from one op's spans.

    ``busy`` is the time a layer's outermost spans cover; ``self`` is span
    time minus the time of its direct child spans, summed over the layer.
    """
    n = len(spans)
    child = [0.0] * n
    for s in spans:
        if s[4] >= 0:
            child[s[4]] += s[3] - s[2]
    prof = {f"{layer}.{k}": 0.0 for layer in LAYERS for k in ("busy", "self")}
    prof.update({"cli.parse": 0.0, "cli.rows": 0, "gaussian.validate": 0.0,
                 "gaussian.validations": 0, "gaussian.ppt": 0.0, "gaussian.raised": 0,
                 "illumination.count_stats": 0.0, "illumination.detection_reports": 0,
                 "fock.squeeze": 0.0, "fock.self_outside_squeeze": 0.0,
                 "montecarlo.analytic": 0.0})
    for i, (name, layer, start, end, parent, raised, extra) in enumerate(spans):
        dur = end - start
        own = dur - child[i]
        prof[f"{layer}.self"] += own
        anc = parent
        while anc >= 0 and spans[anc][1] != layer:
            anc = spans[anc][4]
        if anc < 0:
            prof[f"{layer}.busy"] += dur
        parent_layer = spans[parent][1] if parent >= 0 else None
        if raised and parent_layer != layer and layer == "gaussian":
            prof["gaussian.raised"] += 1
        if name == "cli.parse":
            prof["cli.parse"] += dur
        elif name == "cli.emit":
            prof["cli.rows"] += extra or 0
        elif name == "gaussian.validate":
            prof["gaussian.validate"] += dur
            prof["gaussian.validations"] += 1
        elif name == "gaussian.min_ppt_symplectic_eigenvalue":
            prof["gaussian.ppt"] += dur
        elif name in COUNT_STATS:
            prof["illumination.count_stats"] += dur
        elif name == "illumination.detection_report":
            prof["illumination.detection_reports"] += 1
        if name in SQUEEZE:
            if parent_layer is None or spans[parent][0] not in SQUEEZE:
                prof["fock.squeeze"] += dur
        elif layer == "fock":
            prof["fock.self_outside_squeeze"] += own
        if parent_layer == "montecarlo" and layer != "montecarlo":
            prof["montecarlo.analytic"] += dur
    return prof
