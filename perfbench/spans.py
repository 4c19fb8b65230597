"""Per-layer spans recorded from outside the package.

The tracer replaces chosen public functions of the twistchain modules with
timing wrappers.  Modules bind each other's functions by name
(``from .bethe import bethe_jacobian``), so every module-level binding of
an original function is replaced, not only the defining one; otherwise the
calls Newton makes from inside ``solver`` would go unseen.  Spans live in
memory only; a layer's self time is its span's duration minus the time its
child spans cover.  Everything runs in one thread, so nothing waits.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

# (module, attribute) -> span name.  Functions called millions of times from
# inside these (kernel products, VariableSet methods) are left unwrapped:
# their cost lands in the self time of the traced caller.
TRACED = {
    ("chain", "build_monodromy"): "chain.build_monodromy",
    ("chain", "build_transfer"): "chain.build_transfer",
    ("chain", "build_hamiltonian"): "chain.build_hamiltonian",
    ("chain", "structure_checks"): "chain.structure_checks",
    ("chain", "exchange_residuals"): "chain.exchange_residuals",
    ("linalg", "MatrixPolynomial.__call__"): "linalg.poly_eval",
    ("linalg", "eigenpairs"): "linalg.eigenpairs",
    ("linalg", "determinant"): "linalg.determinant",
    ("twist", "build_modified_operators"): "twist.build_modified_operators",
    ("twist", "vacuum_action_residuals"): "twist.vacuum_action_residuals",
    ("bethe", "bethe_residuals"): "bethe.bethe_residuals",
    ("bethe", "bethe_jacobian"): "bethe.bethe_jacobian",
    ("bethe", "transfer_eigenvalue"): "bethe.transfer_eigenvalue",
    ("bethe", "eigenvalue_gradient"): "bethe.eigenvalue_gradient",
    ("states", "build_bethe_vector"): "states.build_bethe_vector",
    ("states", "build_dual_vector"): "states.build_dual_vector",
    ("states", "offshell_action_residuals"): "states.offshell_action_residuals",
    ("states", "raising_identity_residual"): "states.raising_identity_residual",
    ("states", "w0"): "states.w0",
    ("solver", "solve_newton"): "solver.solve_newton",
    ("solver", "vector_weight"): "solver.vector_weight",
    ("solver", "solve_tq_fit"): "solver.solve_tq_fit",
    ("solver", "classify_solutions"): "solver.classify_solutions",
    ("solver", "spectrum_match"): "solver.spectrum_match",
    ("overlaps", "norm_report"): "overlaps.norm_report",
    ("overlaps", "overlap_report"): "overlaps.overlap_report",
    ("overlaps", "scalar_direct"): "overlaps.scalar_direct",
    ("overlaps", "slavnov_formula"): "overlaps.slavnov_formula",
    ("overlaps", "gaudin_norm"): "overlaps.gaudin_norm",
    ("overlaps", "gaudin_matrix"): "overlaps.gaudin_matrix",
    ("overlaps", "gaudin_limit_deviation"): "overlaps.gaudin_limit_deviation",
    ("cli", "execute"): "cli.execute",
    ("cli", "render"): "cli.render",
}

# errors counted per type when they leave the overlaps layer
RAISED_TYPES = ("ValueError", "OffShellError", "CoincidenceError",
                "TwistDegeneracyError", "LinAlgError")

PACKAGE = "twistchain"
PASS_SPAN = "bench.pass"


class Tracer:
    """Counts calls and self time per span name while `active` is set."""

    def __init__(self):
        self.active = False
        self.calls = Counter()
        self.self_s = Counter()
        self.newton_calls = Counter()   # calls made while solve_newton runs
        self.counts = Counter()         # newton starts/sets, tq flags, raises
        self._stack = []                # [name, start, child seconds]
        self._open = Counter()

    def reset(self) -> None:
        for c in (self.calls, self.self_s, self.newton_calls, self.counts):
            c.clear()

    def _enter(self, name: str) -> None:
        if self._open["solver.solve_newton"]:
            self.newton_calls[name] += 1
        self._open[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self, exc: BaseException | None) -> None:
        name, start, child = self._stack.pop()
        self._open[name] -= 1
        span = time.perf_counter() - start
        self.calls[name] += 1
        self.self_s[name] += span - child
        if self._stack:
            self._stack[-1][2] += span
        layer = name.split(".")[0]
        parent = self._stack[-1][0].split(".")[0] if self._stack else None
        if exc is not None and layer == "overlaps" and parent != layer:
            kind = type(exc).__name__
            self.counts["overlaps.raised"] += 1
            self.counts["overlaps.raised." + (kind if kind in RAISED_TYPES else "other")] += 1

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span even when it is not a traced function."""
        if not self.active:
            return fn(*args, **kwargs)
        self._enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._exit(exc)
            raise
        self._exit(None)
        return result

    def _wrap(self, name: str, fn):
        tracer = self
        sig = inspect.signature(fn) if name == "solver.solve_newton" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            result = tracer.span(name, fn, *args, **kwargs)
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.counts["solver.newton.starts"] += bound.arguments["starts"]
                tracer.counts["solver.newton.sets"] += len(result)
            elif name == "solver.solve_tq_fit":
                tracer.counts["solver.tq.flagged"] += sum(s.flag is not None for s in result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every TRACED function and rebind all references to it."""
        modules = {
            key.split(".", 1)[1]: mod for key, mod in sys.modules.items()
            if key.startswith(PACKAGE + ".")
        }
        replaced = {}
        for (mod_name, attr), name in TRACED.items():
            owner = modules[mod_name]
            for part in attr.split(".")[:-1]:
                owner = getattr(owner, part)
            leaf = attr.split(".")[-1]
            original = getattr(owner, leaf)
            wrapper = self._wrap(name, original)
            setattr(owner, leaf, wrapper)
            replaced[id(original)] = (original, wrapper)
        for key, mod in list(sys.modules.items()):
            if key != PACKAGE and not key.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
