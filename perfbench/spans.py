"""Span recorder for the traced benchmark run.

Wraps public functions of chunknas from outside the package. Each wrapper
records (span id, parent id, name, thread, start, end, error, attrs); the
parent is the innermost open span of the same thread. Spans stay in memory
until ``report`` turns them into the per-layer metrics.

A function is wrapped everywhere it is looked up: every chunknas module
attribute bound to the original function object is replaced, because
modules such as ``cosearch`` bind ``evaluate_dataflows`` or ``instantiate``
at import time. A target that no longer exists raises ``MissingTarget``, so
a reshaped package fails the traced run instead of reporting zeros.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

FORWARD_KINDS = ("conv_pw", "conv_dw", "conv_kxk", "shift_pw", "shift_dw",
                 "adder_pw", "adder_dw")


def forward_kind(desc) -> str:
    """Layer kind of a HybridLayer descriptor: type plus pointwise,
    depthwise or dense k x k (the stem)."""
    if desc.groups > 1:
        shape = "dw"
    elif desc.kernel == 1:
        shape = "pw"
    else:
        shape = "kxk"
    return f"{desc.op_type.value}_{shape}"


class MissingTarget(LookupError):
    pass


def lookup(obj, attr: str):
    try:
        return getattr(obj, attr)
    except AttributeError:
        raise MissingTarget(f"{getattr(obj, '__name__', obj)}.{attr} is gone; "
                            f"update perfbench/spans.py") from None


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        # Every span name the wrappers can record, called or not.
        self.names: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, attrs=None):
        """``name`` is a string or a function of the call's arguments;
        ``attrs(args, kwargs, result)`` runs after the span closes."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            label = name if isinstance(name, str) else name(args)
            stack.append(sid)
            result = err = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                err = type(exc).__name__
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                extra = attrs(args, kwargs, result) if attrs and err is None else None
                tracer.spans.append(
                    (sid, parent, label, threading.get_ident(), t0, t1, err, extra))

        return wrapper

    def _set(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def patch_function(self, module, attr: str, name: str, attrs=None) -> None:
        """Replace ``module.attr`` in every chunknas module that bound it."""
        original = lookup(module, attr)
        wrapper = self.wrap(name, original, attrs)
        self.names.append(name)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("chunknas"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name, attrs=None, names=()) -> None:
        """``names`` lists the span names a computed ``name`` can give."""
        self._set(cls, attr, self.wrap(name, lookup(cls, attr), attrs))
        self.names += [name] if isinstance(name, str) else list(names)

    def patch_pool(self, module) -> None:
        """Trace the candidate pool: each mapped call becomes a
        ``cosearch.candidate`` span on its worker thread, and the caller's
        wait for all results a ``cosearch.pool_wait`` span."""
        if lookup(module, "ThreadPoolExecutor") is not ThreadPoolExecutor:
            raise MissingTarget(f"{module.__name__}.ThreadPoolExecutor is not "
                                f"concurrent.futures.ThreadPoolExecutor; update perfbench/spans.py")
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                work = tracer.wrap("cosearch.candidate", fn)
                drain = tracer.wrap(
                    "cosearch.pool_wait",
                    lambda: list(ThreadPoolExecutor.map(self, work, *iterables, **kwargs)))
                return iter(drain())

        self._set(module, "ThreadPoolExecutor", TracedPool)
        self.names += ["cosearch.candidate", "cosearch.pool_wait"]

    def install(self) -> None:
        from chunknas import accel, cli, config, cosearch, nn, reproduce, search_space, zeroshot

        self.patch_function(search_space, "expand_blocks", "search_space.expand_blocks")
        self.patch_function(accel, "evaluate_dataflows", "accel.evaluate_dataflows",
                            _sweep_attrs)
        for attr in ("tiling_candidates", "pipeline_perf", "layer_latency", "min_gb_size"):
            self.patch_function(accel, attr, f"accel.{attr}")
        for attr in ("search_accelerator", "search_accelerator_layers", "coarse_search",
                     "fine_search", "oracle_layers"):
            self.patch_function(cosearch, attr, f"cosearch.{attr}")
        self.patch_function(cosearch, "cosearch", "cosearch.cosearch", _cosearch_attrs)
        self.patch_pool(cosearch)
        self.patch_function(nn, "instantiate", "nn.instantiate", _instantiate_attrs)
        self.patch_method(nn.HybridLayer, "forward",
                          lambda args: "nn.forward." + forward_kind(args[0].desc),
                          _forward_attrs, names=[f"nn.forward.{k}" for k in FORWARD_KINDS])
        self.patch_method(nn.HybridNet, "feature_forward", "nn.feature_forward",
                          _feature_attrs)
        for attr in ("zen_score", "nn_degree", "combined_ranks"):
            self.patch_function(zeroshot, attr, f"zeroshot.{attr}")
        self.patch_function(reproduce, "compare_workloads", "reproduce.compare_workloads")
        self.patch_function(config, "load_run_config", "config.load_run_config")
        self.patch_function(cli, "cmd_cosearch", "cli.cmd_cosearch")

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)


def _sweep_attrs(args, kwargs, result):
    layers = kwargs.get("layers", args[1] if len(args) > 1 else ())
    # An empty layer set is not swept (the model reports 1 node, 4 feasible).
    swept = result.nodes if layers else 0
    return {"nodes": result.nodes, "swept": swept,
            "feasible": result.feasible_dataflows if layers else 0,
            "layers": len(layers), "distinct": len(set(layers))}


def _cosearch_attrs(args, kwargs, result):
    params = kwargs.get("params", args[3] if len(args) > 3 else None)
    threads = kwargs.get("threads", args[5] if len(args) > 5 else 1)
    generated = params.population + params.iterations * params.expand_size
    return {"evaluations": result.evaluations, "generated": generated, "threads": threads}


def _instantiate_attrs(args, kwargs, result):
    return {"weights": sum(layer.desc.weight_count for layer in result.layers)}


def _forward_attrs(args, kwargs, result):
    return {"macs": args[0].desc.macs * args[1].shape[0]}


def _feature_attrs(args, kwargs, result):
    return {"f64": int(args[1].dtype.itemsize == 8)}


def report(spans: list[tuple], names: list[str], window: tuple[float, float],
           main_thread: int) -> dict:
    """Per-layer metrics plus time accounting of the main thread.

    Every name in ``names`` gets ``.calls``, ``.s`` and ``.self_s`` (0 when
    not called), next to the derived figures. ``window`` is the (start, end)
    of the timed phase; accounting checks that the self times of the main
    thread's spans in it, plus the time no span covers, add up to the
    window's length, and how much of it the spans cover.
    """
    child_time: dict[int, float] = defaultdict(float)
    for sid, parent, _, _, t0, t1, _, _ in spans:
        if parent:
            child_time[parent] += t1 - t0
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_t: dict[str, float] = defaultdict(float)
    attrs: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    errors: dict[str, int] = defaultdict(int)
    candidate_threads: set[int] = set()
    start, end = window
    main_self = main_roots = 0.0
    for sid, parent, name, thread, t0, t1, err, extra in spans:
        dur = t1 - t0
        calls[name] += 1
        total[name] += dur
        self_t[name] += dur - child_time[sid]
        if err:
            errors[f"{name}.{err}"] += 1
        if extra:
            for key, value in extra.items():
                attrs[name][key] += value
        if name == "cosearch.candidate":
            candidate_threads.add(thread)
        if thread == main_thread and start <= t0 and t1 <= end:
            main_self += dur - child_time[sid]
            if not parent:
                main_roots += dur
    wall = end - start

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for name in names:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = total[name]
        m[f"{name}.self_s"] = self_t[name]
    sweep = "accel.evaluate_dataflows"
    m[f"{sweep}.nodes"] = attrs[sweep]["nodes"]
    m[f"{sweep}.nodes_per_s"] = ratio(attrs[sweep]["nodes"], total[sweep])
    m[f"{sweep}.layers"] = attrs[sweep]["layers"]
    m[f"{sweep}.distinct_layer_frac"] = ratio(attrs[sweep]["distinct"], attrs[sweep]["layers"])
    m[f"{sweep}.feasible_frac"] = ratio(attrs[sweep]["feasible"], attrs[sweep]["swept"])
    co = attrs["cosearch.cosearch"]
    m["cosearch.evaluations"] = co["evaluations"]
    m["cosearch.cache_hit_frac"] = ratio(co["generated"] - co["evaluations"], co["generated"])
    m["cosearch.reject_frac"] = (
        1.0 - ratio(calls["zeroshot.nn_degree"], calls["cosearch.search_accelerator_layers"])
        if calls["cosearch.cosearch"] else 0.0)
    m["cosearch.candidate_s"] = ratio(total["cosearch.candidate"], calls["cosearch.candidate"])
    threads = ratio(co["threads"], calls["cosearch.cosearch"])
    m["cosearch.thread_busy_frac"] = ratio(total["cosearch.candidate"], wall * threads)
    m["nn.instantiate.weights"] = attrs["nn.instantiate"]["weights"]
    for kind in FORWARD_KINDS:
        name = f"nn.forward.{kind}"
        m[f"{name}.macs_per_s"] = ratio(attrs[name]["macs"], total[name])
    m["nn.feature_forward.f64_calls"] = attrs["nn.feature_forward"]["f64"]
    m["zeroshot.zen_score.degenerate"] = errors["zeroshot.zen_score.NonFiniteScore"]

    accounting = {
        "wall_s": wall,
        "main_self_s": main_self,
        "uncovered_s": wall - main_roots,
        "accounted_frac": ratio(main_self + wall - main_roots, wall),
        "covered_frac": ratio(main_roots, wall),
        "spans": len(spans),
        "candidate_threads": len(candidate_threads),
    }
    by_name = {name: {"calls": calls[name], "s": total[name], "self_s": self_t[name]}
               for name in sorted(calls)}
    return {"metrics": {k: float(v) for k, v in m.items()}, "accounting": accounting,
            "spans_by_name": by_name, "errors": dict(errors)}
