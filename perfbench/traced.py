"""Run one noncross CLI command with spans recorded at every layer boundary.

Usage: python3 traced.py COMMAND_ID ARG...

Times ``import noncross.cli``, wraps the public functions and methods of the
layer modules in every module namespace that binds them, runs
``noncross.cli.main(ARGS)`` and exits with its code.  Stdout is exactly the
untraced program's.  The trace goes to stderr as one JSON line after
``TRACE_MARKER``.

Calls are folded into a call tree: one node per (parent node, callee), with
its call count, total time, exceptions raised out of it and the start of its
first and end of its last call.  A node called once is an ordinary span.  A
generator such as ``iter_nc`` is timed across its ``next`` calls, and its
yields are counted.  A node's self time is its total minus its children's
totals.  Each thread has its own tree.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time

TRACE_MARKER = "PERFBENCH-TRACE "

LAYERS = ("partitions", "series", "freeprob", "coxeter", "complexes", "randmat")

# Signed-window arithmetic called about a million times inside one group
# build; wrapping it would multiply traced time without separating a layer.
UNWRAPPED = {"coxeter.mul", "coxeter.inv", "coxeter.identity", "coxeter.apply_to_vector"}

# Dunder methods that are layer boundaries (series arithmetic, group build).
DUNDERS = {"__init__", "__mul__", "__add__", "__sub__", "__neg__"}

perf = time.perf_counter


class Node:
    __slots__ = ("id", "name", "parent", "kids", "calls", "yields", "total", "errors", "start", "end")

    def __init__(self, id_: int, name: str, parent: Node | None):
        self.id, self.name, self.parent = id_, name, parent
        self.kids: dict[str, Node] = {}
        self.calls = self.yields = self.errors = 0
        self.total = 0.0
        self.start = self.end = None


class Tracer:
    def __init__(self) -> None:
        self.origin = perf()
        self.counters: dict[str, float] = {}
        self.roots: list[Node] = []
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._local = threading.local()

    def _new_id(self) -> int:
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    def stack(self) -> list[Node]:
        try:
            return self._local.stack
        except AttributeError:
            root = Node(self._new_id(), f"thread:{threading.current_thread().name}", None)
            self.roots.append(root)
            self._local.stack = [root]
            return self._local.stack

    def enter(self, name: str) -> tuple[list[Node], Node, float]:
        stack = self.stack()
        parent = stack[-1]
        node = parent.kids.get(name)
        if node is None:
            node = parent.kids[name] = Node(self._new_id(), name, parent)
        stack.append(node)
        start = perf()
        if node.start is None:
            node.start = start
        return stack, node, start

    @staticmethod
    def leave(stack: list[Node], node: Node, start: float) -> None:
        end = perf()
        node.total += end - start
        node.calls += 1
        node.end = end
        stack.pop()

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name: str, hook=None):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    stack, node, start = tracer.enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    except BaseException:
                        node.errors += 1
                        raise
                    finally:
                        tracer.leave(stack, node, start)
                    node.yields += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, node, start = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                node.errors += 1
                raise
            finally:
                tracer.leave(stack, node, start)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def dump(self, command_id: str, import_s: float) -> dict:
        nodes = []

        def visit(node: Node) -> None:
            for kid in node.kids.values():
                nodes.append(
                    {
                        "id": kid.id,
                        "name": kid.name,
                        "parent": kid.parent.id,
                        "parent_name": kid.parent.name,
                        "command": command_id,
                        "start": kid.start - self.origin,
                        "end": kid.end - self.origin,
                        "calls": kid.calls,
                        "yields": kid.yields,
                        "total": kid.total,
                        "self": kid.total - sum(k.total for k in kid.kids.values()),
                        "errors": kid.errors,
                    }
                )
                visit(kid)

        for root in self.roots:
            visit(root)
        return {"command": command_id, "import_s": import_s, "counters": self.counters, "nodes": nodes}


# Counters read off results, where the count is a property of the output.
def _on_order_complex(tracer, args, result):
    tracer.count("complexes.chains", sum(result.f_vector))


def _on_context(tracer, args, result):
    tracer.count("coxeter.group_elements", len(args[0].elements))


def _on_nc_set(tracer, args, result):
    tracer.count("coxeter.nc_elements", len(result))
    tracer.count("coxeter.nc_group_elements", args[0].order)


def _on_red_t(tracer, args, result):
    tracer.count("coxeter.factorizations", len(result))


HOOKS = {
    "complexes.order_complex_open_interval": _on_order_complex,
    "coxeter.CoxeterContext.__init__": _on_context,
    "coxeter.nc_set": _on_nc_set,
    "coxeter.red_t_factorizations": _on_red_t,
}


def _targets(module, layer: str):
    """(owner, attribute, function, span name) for each boundary the layer
    module defines: its public functions and the public methods, static
    methods and boundary dunders of its public classes."""
    path = module.__file__
    for attr, obj in vars(module).items():
        if attr.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield module, attr, obj, f"{layer}.{attr}"
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for meth, raw in vars(obj).items():
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                if not inspect.isfunction(fn) or fn.__code__.co_filename != path:
                    continue
                if meth.startswith("_") and meth not in DUNDERS:
                    continue
                yield obj, meth, raw, f"{layer}.{attr}.{meth}"


def install(tracer: Tracer) -> None:
    """Replace every boundary function by its wrapper, in the defining module,
    on its class, and in every other noncross module that imported it."""
    modules = [m for name, m in sorted(sys.modules.items()) if name == "noncross" or name.startswith("noncross.")]
    replaced: dict[object, object] = {}
    for layer in LAYERS:
        module = sys.modules[f"noncross.{layer}"]
        for owner, attr, raw, name in list(_targets(module, layer)):
            if name in UNWRAPPED:
                continue
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(tracer.wrap(raw.__func__, name, HOOKS.get(name)))
            else:
                wrapped = tracer.wrap(raw, name, HOOKS.get(name))
                replaced[raw] = wrapped
            setattr(owner, attr, wrapped)
    cli = sys.modules["noncross.cli"]
    replaced[cli.render] = tracer.wrap(cli.render, "cli.render")
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(module, attr, replaced[obj])


def main(argv: list[str]) -> int:
    command_id, args = argv[0], argv[1:]
    start = perf()
    import noncross.cli

    import_s = perf() - start
    tracer = Tracer()
    install(tracer)
    code = noncross.cli.main(args)
    sys.stdout.flush()
    sys.stderr.write(TRACE_MARKER + json.dumps(tracer.dump(command_id, import_s)) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
