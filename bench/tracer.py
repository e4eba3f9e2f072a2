"""Per-layer tracing of cuspeps from outside the package.

``install()`` replaces the public functions and methods of each module
(``cyclo``, ``ffield``, ``glq``, ``cusp``, ``bessel``, ``epsilon``,
``verify``, ``cli``) with wrappers, and rebinds every module global and
module-level dict entry that still points at an original (for example
``get_evaluator`` imported by name into ``epsilon`` and ``verify``, or the
suite functions in ``verify.SUITES``).  The package itself is not changed.

A span wrapper keeps a stack of open spans.  When a span closes, its time is
added to its parent's child time, and the (parent, name) edge accumulates
calls, total time and self time (total minus the time its child spans
cover).  Edges are kept in memory per request and written out as JSON when
the child process ends.  Count wrappers only count calls; their time folds
into the caller's span.  Repeat tracking records the distinct arguments a
memoized entry point sees, for ``repeat_ratio = 1 - distinct / calls``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

LAYERS = ("cyclo", "ffield", "glq", "cusp", "bessel", "epsilon", "verify", "cli")
ROOT = "<root>"

# layer -> {"Class.attr" or "function": span name inside the layer}.  Spans
# beyond the reported metrics keep each layer's self time honest: work below
# an unwrapped boundary would count as the caller's.
SPANS = {
    "cyclo": {
        "CycloNumber.__init__": "new",
        "CycloNumber.__add__": "add",
        "CycloNumber.__radd__": "add",
        "CycloNumber.__sub__": "sub",
        "CycloNumber.__rsub__": "sub",
        "CycloNumber.__neg__": "neg",
        "CycloNumber.__mul__": "mul",
        "CycloNumber.__rmul__": "mul",
        "CycloNumber.__pow__": "pow",
        "CycloNumber.scale": "scale",
        "CycloNumber.conjugate": "conjugate",
        "CycloNumber.promote": "promote",
        "CycloNumber.__eq__": "eq",
        "CycloNumber.embed": "embed",
        "CycloNumber.to_dict": "to_dict",
    },
    "ffield": {
        "AdditiveChar.eval": "char_eval",
        "MultChar.eval": "char_eval",
        "build_field": "build_field",
    },
    "glq": {
        "Mat.__mul__": "mat_mul",
        "Mat.inv": "mat_inv",
        "GLGroup.class_key": "class_key",
        "GLGroup.iterate": "enumerate",
        "GLGroup.elements": "enumerate",
        "GLGroup.coset_reps": "coset_reps",
        "GLGroup.coset_rep_inverses": "coset_reps",
        "GLGroup.class_map": "class_map",
        "GLGroup.contains": "contains",
        "GLGroup.psi_u": "psi_u",
        "GLGroup.singer_matrix": "singer",
        "GLGroup.singer_decompose": "singer",
        "GLGroup.charpoly": "charpoly",
        "gl_group": "gl_group",
    },
    "cusp": {
        "CuspidalRep.char_value": "char_value",
        "CuspidalRep.char_at": "char_at",
        "CuspidalRep.char_table": "char_table",
        "CuspidalRep.central_value": "central_value",
        "list_cuspidals": "list_cuspidals",
        "contragredient": "contragredient",
        "inner_product": "inner_product",
        "induced_psi_character": "induced_psi",
        "mirabolic_restriction_check": "mirabolic_restriction",
        "gelfand_graev_mult": "gelfand_graev",
    },
    "bessel": {
        "BesselEvaluator.__init__": "evaluator_init",
        "BesselEvaluator.__call__": "J",
        "get_evaluator": "get_evaluator",
        "bessel_value": "bessel_value",
        "build_table": "build_table",
        "operator_L": "operator_L",
        "hankel_check": "hankel",
        "contragredient_table": "contragredient_table",
        "mat_mul": "matrix",
        "mat_eq": "matrix",
        "mat_trace": "matrix",
    },
    "epsilon": {
        "gauss_pair_sum": "gauss_pair_sum",
        "pair_sum_vanishing": "pair_sum_vanishing",
        "epsilon_pair": "epsilon_pair",
        "l_factor_pair": "l_factor_pair",
        "zeta_tilde_oracle": "oracle",
        "epsilon_transfer": "transfer",
        "twist_ratio_check": "twist_ratio",
        "whittaker_eval": "whittaker",
        "LevelZeroRep.central_sign": "central_sign",
        "SMonomial.__eq__": "monomial",
        "SMonomial.__mul__": "monomial",
        "SMonomial.value_at": "monomial",
        "SMonomial.modulus_at_half": "monomial",
        "SMonomial.to_dict": "monomial",
    },
    "verify": {
        "run_suites": "run_suites",
        "field_suite": "suite",
        "cyclo_suite": "suite",
        "glq_suite": "suite",
        "cusp_suite": "suite",
        "bessel_suite": "suite",
        "realization_suite": "suite",
        "vanishing_suite": "suite",
        "epsilon_suite": "suite",
        "transfer_suite": "suite",
    },
    "cli": {
        "main": "main",
        "build_parser": "parse",
        "cmd_field": "command",
        "cmd_cuspidals": "command",
        "cmd_bessel": "command",
        "cmd_epsilon": "command",
        "cmd_transfer": "command",
        "cmd_verify": "command",
        "_emit": "emit",
    },
}

# Hot entry points that are only counted: a span there would cost more than
# the work it measures.
COUNTS = {
    "ffield": {"FieldSpec.add": "add", "FieldSpec.mul": "mul"},
    "verify": {"Check.__init__": "checks"},
}

# span name -> key of the arguments whose distinct values are tracked
REPEAT_KEYS = {
    "glq.class_key": lambda args: args[1],
    "bessel.J": lambda args: (id(args[0]), args[1]),
}


class Tracer:
    def __init__(self):
        self.stack = [[ROOT, 0.0]]
        self.edges: dict[tuple[str, str], list] = {}
        self.counts: dict[str, list] = {}
        self.seen: dict[str, set] = {}
        self.requests: list[dict] = []
        self.missing: list[str] = []

    # -- wrappers -----------------------------------------------------

    def _close(self, name, frame, dt, count):
        stack = self.stack
        stack.pop()
        parent = stack[-1]
        parent[1] += dt
        edge = self.edges.get((parent[0], name))
        if edge is None:
            edge = self.edges[(parent[0], name)] = [0, 0.0, 0.0]
        edge[0] += count
        edge[1] += dt
        edge[2] += dt - frame[1]

    def span(self, name, fn):
        stack, close, clock = self.stack, self._close, time.perf_counter
        key_of = REPEAT_KEYS.get(name)
        seen = self.seen.setdefault(name, set()) if key_of else None

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                return self._span_iter(name, it)
        else:
            def wrapper(*args, **kwargs):
                if seen is not None:
                    seen.add(key_of(args))
                frame = [name, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(name, frame, clock() - t0, 1)

        return wrapper

    def _span_iter(self, name, it):
        """Time each resumption of a generator; one call per generator."""
        stack, close, clock = self.stack, self._close, time.perf_counter
        count = 1
        while True:
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                value = next(it)
            except StopIteration:
                return
            finally:
                close(name, frame, clock() - t0, count)
            count = 0
            yield value

    def counter(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- requests -----------------------------------------------------

    def end_request(self, rid, argv):
        """Move everything recorded since the last request into one record."""
        self.requests.append(
            {
                "id": rid,
                "argv": argv,
                "edges": [[p, n, c, t, s] for (p, n), (c, t, s) in sorted(self.edges.items())],
                "counts": {name: cell[0] for name, cell in sorted(self.counts.items())},
            }
        )
        self.edges.clear()
        for cell in self.counts.values():
            cell[0] = 0

    def dump(self, path):
        doc = {
            "requests": self.requests,
            "distinct": {name: len(s) for name, s in sorted(self.seen.items())},
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _resolve(module, target):
    """(owner, attribute) for "Class.attr" or "function", or None if absent."""
    owner = module
    if "." in target:
        cls_name, attr = target.split(".", 1)
        owner = vars(module).get(cls_name)
        if owner is None:
            return None
    else:
        attr = target
    if attr not in vars(owner) or not callable(vars(owner)[attr]):
        return None
    return owner, attr


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the cuspeps modules, in place."""
    modules = {layer: importlib.import_module(f"cuspeps.{layer}") for layer in LAYERS}
    originals: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
    for kind, table in (("span", SPANS), ("count", COUNTS)):
        for layer, targets in table.items():
            for target, op in targets.items():
                found = _resolve(modules[layer], target)
                if found is None:
                    tracer.missing.append(f"{layer}.{target}")
                    continue
                owner, attr = found
                orig = vars(owner)[attr]
                if id(orig) not in originals:
                    make = tracer.span if kind == "span" else tracer.counter
                    originals[id(orig)] = (orig, make(f"{layer}.{op}", orig))
                setattr(owner, attr, originals[id(orig)][1])
    # Rebind names imported with "from .x import f" and entries of dispatch dicts.
    package = importlib.import_module("cuspeps")
    for module in (package, *modules.values()):
        for name, value in list(vars(module).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, name, hit[1])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    hit = originals.get(id(item))
                    if hit is not None and hit[0] is item:
                        value[key] = hit[1]
