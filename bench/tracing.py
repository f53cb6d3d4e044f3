"""Spans around the public functions of each cnmfg layer, recorded from outside.

The package is not instrumented. ``Tracer.install`` wraps the public
functions and methods listed in ``HOOKS`` and ``Tracer.uninstall`` puts the
originals back, so an untraced operation runs the unmodified code.

Library functions are copied between modules by ``from .x import f``, so a
hook rebinds every ``cnmfg.*`` module attribute that *is* the original object
(found by identity), not a hand-kept list of modules. Methods are wrapped on
their class. Only public names are hooked: a hook whose name no longer exists
is skipped and reported in ``Tracer.missing``, and its layer reads as zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# failures of a hook's reader when a later version renames an argument or
# changes a return type
_READ_ERRORS = (AttributeError, KeyError, TypeError, IndexError, ValueError)


@dataclass
class Span:
    name: str
    layer: str
    start: float
    op: int
    parent: int = -1          # index in Tracer.spans, -1 for an operation's root
    end: float = 0.0
    child_s: float = 0.0      # summed duration of the direct children
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass(frozen=True)
class Hook:
    """One public callable: ``target`` is "module:attr" or "module:Class.method"."""

    target: str
    layer: str
    read: Callable | None = None      # read(info, bound_args, result, error) after the call
    before: Callable | None = None    # before(tracer, bound_args) ahead of the call
    bind: bool = False                # whether ``read`` or ``before`` need the bound arguments

    @property
    def name(self) -> str:
        module, attr = self.target.split(":")
        return f"{module}.{attr}"


def _particle_steps(info, args, result, error):
    m, k, n_nodes = result.states.shape
    info["particle_steps"] = m * k * (n_nodes - 1)


def _sweeps(info, args, result, error):
    history = result.residual_history if error is None else error.history["residuals"]
    info["sweeps"] = len(history)


def _backward(info, args, result, error):
    m, k, span = result.q.shape
    info["particle_steps"] = m * k * span
    info["r2_min"] = float(np.min(result.diagnostics["r_squared"]))


def _elements(info, args, result, error):
    info["elements"] = int(np.size(result))


def _stages(info, args, result, error):
    info["stages"] = len(result[1].steps)


def _inner_solve(info, args, result, error):
    # enough to tell a new continuation attempt from the next inner solve of
    # the same one (see ``_stage_attempts``)
    info["gamma"] = float(args.arguments["gamma"])
    u0 = args.arguments.get("u0")
    info["u0"] = None if u0 is None else id(u0)
    info["out"] = None if result is None else id(result.controls)


def _gap(info, args, result, error):
    info["inconclusive"] = bool(result.inconclusive)


def _file(info, args, result, error):
    info["bytes"] = Path(result).stat().st_size


def _count_f0u(tracer, args):
    tracer.count_f0u(args.arguments["spec"].cost)


HOOKS = (
    Hook("cnmfg.forward_sim:simulate_forward", "forward_sim", read=_particle_steps),
    Hook("cnmfg.forward_sim:NoiseBundle.__post_init__", "forward_sim"),
    Hook("cnmfg.bsde:picard_solve", "bsde", read=_sweeps),
    Hook("cnmfg.bsde:solve_bsde_given_control", "bsde", read=_backward),
    Hook("cnmfg.bsde:first_order_residual", "bsde"),
    Hook("cnmfg.model:minimize_hamiltonian_values", "model", read=_elements, before=_count_f0u,
         bind=True),
    Hook("cnmfg.model:cost_functional", "model"),
    Hook("cnmfg.measures:MeasureFlow.node_distance", "measures"),
    Hook("cnmfg.mfg_solvers:solve_continuation", "mfg_solvers", read=_stages),
    Hook("cnmfg.mfg_solvers:solve_scaled_fbsde", "mfg_solvers", read=_inner_solve, bind=True),
    Hook("cnmfg.lq_oracle:solve_riccati", "lq_oracle"),
    Hook("cnmfg.nplayer:simulate_nplayer", "nplayer"),
    Hook("cnmfg.nplayer:nash_gap", "nplayer", read=_gap),
    Hook("cnmfg.nplayer:gap_versus_n", "nplayer"),
    Hook("cnmfg.nplayer:population_cost_convergence", "nplayer"),
    Hook("cnmfg.records:RunWriter.csv", "records", read=_file),
    Hook("cnmfg.records:RunWriter.json", "records", read=_file),
    Hook("cnmfg.cli:main", "cli"),
)


class Tracer:
    """In-memory span recorder; one operation id per traced operation."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.f0u_evals: dict[int, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []
        self._f0u_originals: list[tuple[object, Callable]] = []

    # -- spans ---------------------------------------------------------------

    def _begin(self, name: str, layer: str) -> Span:
        span = Span(name, layer, time.perf_counter(), self._op,
                    parent=self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _end(self) -> None:
        span = self.spans[self._stack.pop()]
        span.end = time.perf_counter()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration

    def operation(self, fn: Callable, *args):
        """Run ``fn(*args)`` as a new operation under a root span; return (result, span)."""
        self._op += 1
        root = self._begin("operation", "bench")
        try:
            return fn(*args), root
        finally:
            self._end()

    # -- hooks ---------------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for hook in self.hooks:
            module_name, attr = hook.target.split(":")
            try:
                owner = importlib.import_module(module_name)
                cls_name, _, method = attr.rpartition(".")
                if cls_name:
                    owner = getattr(owner, cls_name)
                    attr = method
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(hook.name)
                continue
            wrapper = self._wrap(hook, original)
            if isinstance(owner, type):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                self._rebind(original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []
        for cost, original in self._f0u_originals:
            cost.f0u = original
        self._f0u_originals = []

    def _rebind(self, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "cnmfg" or name.startswith("cnmfg.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _wrap(self, hook: Hook, original: Callable) -> Callable:
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs) if hook.bind else None
            if hook.before is not None:
                try:
                    hook.before(self, bound)
                except _READ_ERRORS:
                    pass        # a renamed argument leaves its counter at zero
            span = self._begin(hook.name, hook.layer)
            result = error = None
            try:
                result = original(*args, **kwargs)
                return result
            except Exception as err:
                error = err
                raise
            finally:
                self._end()
                if hook.read is not None:
                    try:
                        hook.read(span.info, bound, result, error)
                    except _READ_ERRORS:
                        span.info["unread"] = True

        return wrapper

    def count_f0u(self, cost) -> None:
        """Count calls of this cost's ``f0u`` from now until ``uninstall``."""
        original = cost.f0u
        if getattr(original, "_bench_counted", False):
            return

        def counted(*args, **kwargs):
            self.f0u_evals[self._op] += 1
            return original(*args, **kwargs)

        counted._bench_counted = True
        self._f0u_originals.append((cost, original))
        cost.f0u = counted

    # -- output --------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({"name": span.name, "layer": span.layer, "op": span.op,
                                     "parent": span.parent, "start": span.start,
                                     "end": span.end, "self_s": span.self_s,
                                     **span.info}) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced operation
# ---------------------------------------------------------------------------

# name -> unit; also the order of the output
LAYER_METRICS = {
    "forward_sim.calls": "count",
    "forward_sim.self_s": "s",
    "forward_sim.particle_steps": "count",
    "forward_sim.ns_per_particle_step": "ns",
    "forward_sim.noise_calls": "count",
    "forward_sim.noise_s": "s",
    "bsde.picard_calls": "count",
    "bsde.sweeps": "count",
    "bsde.ms_per_sweep": "ms",
    "bsde.picard_self_s": "s",
    "bsde.backward_calls": "count",
    "bsde.backward_self_s": "s",
    "bsde.backward_ns_per_particle_step": "ns",
    "bsde.foc_check_s": "s",
    "bsde.r2_min": "ratio",
    "model.minimizer_calls": "count",
    "model.minimizer_self_s": "s",
    "model.minimizer_ns_per_element": "ns",
    "model.f0u_evals": "count",
    "model.cost_functional_s": "s",
    "measures.node_distance_calls": "count",
    "measures.node_distance_s": "s",
    "mfg_solvers.stages": "count",
    "mfg_solvers.stage_attempts": "count",
    "mfg_solvers.inner_solves": "count",
    "mfg_solvers.self_s": "s",
    "lq_oracle.riccati_calls": "count",
    "lq_oracle.riccati_s": "s",
    "nplayer.games": "count",
    "nplayer.game_s": "s",
    "nplayer.gap_estimates": "count",
    "nplayer.inconclusive": "count",
    "nplayer.self_s": "s",
    "records.files": "count",
    "records.bytes": "B",
    "records.write_s": "s",
    "records.write_mb_per_s": "MB/s",
    "cli.self_s": "s",
}

# metrics that must repeat exactly on one instance; ``records.bytes`` is not
# among them, because ``report.json`` holds the wall clock
COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS.items() if unit == "count")


def _ratio(num: float, den: float, scale: float) -> float:
    return num / den * scale if den else 0.0


def _inner_solves(tracer: "Tracer", spans: list[Span], outer: Span) -> list[Span]:
    return [s for s in spans if s.name == "cnmfg.mfg_solvers.solve_scaled_fbsde"
            and s.parent >= 0 and tracer.spans[s.parent] is outer]


def _stage_attempts(tracer: "Tracer", spans: list[Span]) -> int:
    """Continuation attempts, counted from the inner solves of each continuation span.

    The first inner solve is the gamma = 0 start. Later ones belong to one
    attempt while gamma stays fixed and each solve warm-starts from the
    controls the previous solve returned; a rejected attempt restarts from the
    last accepted bundle, an accepted one moves gamma.
    """
    attempts = 0
    for outer in spans:
        if outer.name != "cnmfg.mfg_solvers.solve_continuation":
            continue
        inner = _inner_solves(tracer, spans, outer)
        attempts += len(inner) > 1
        for prev, cur in zip(inner[1:], inner[2:]):
            if cur.info.get("gamma") != prev.info.get("gamma") or cur.info.get("u0") != prev.info.get("out"):
                attempts += 1
    return attempts


def operation_metrics(tracer: Tracer, root: Span, setup: Span | None = None) -> dict[str, float]:
    """Per-layer metrics of the operation under ``root``.

    Noise generation is counted in the operation plus the traced set-up
    ``setup``, because library workloads build their noise before the call.
    """
    spans = [s for s in tracer.spans if s.op == root.op and s is not root]
    noise_ops = {root.op} if setup is None else {root.op, setup.op}
    noise = [s for s in tracer.spans
             if s.name.endswith("NoiseBundle.__post_init__") and s.op in noise_ops]
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name.rsplit(".", 1)[-1]].append(span)

    def total(name, attr="duration"):
        return sum(getattr(s, attr) for s in by_name[name])

    def info_sum(name, key):
        return sum(s.info.get(key, 0) for s in by_name[name])

    def layer_self(layer):
        return sum(s.self_s for s in spans if s.layer == layer)

    fwd_self = total("simulate_forward", "self_s")
    fwd_steps = info_sum("simulate_forward", "particle_steps")
    sweeps = info_sum("picard_solve", "sweeps")
    back_self = total("solve_bsde_given_control", "self_s")
    back_steps = info_sum("solve_bsde_given_control", "particle_steps")
    r2 = [s.info["r2_min"] for s in by_name["solve_bsde_given_control"] if "r2_min" in s.info]
    min_self = total("minimize_hamiltonian_values", "self_s")
    elements = info_sum("minimize_hamiltonian_values", "elements")
    writes = by_name["csv"] + by_name["json"]
    write_s = sum(s.duration for s in writes)
    n_bytes = sum(s.info.get("bytes", 0) for s in writes)
    return {
        "forward_sim.calls": len(by_name["simulate_forward"]),
        "forward_sim.self_s": fwd_self,
        "forward_sim.particle_steps": fwd_steps,
        "forward_sim.ns_per_particle_step": _ratio(fwd_self, fwd_steps, 1e9),
        "forward_sim.noise_calls": len(noise),
        "forward_sim.noise_s": sum(s.duration for s in noise),
        "bsde.picard_calls": len(by_name["picard_solve"]),
        "bsde.sweeps": sweeps,
        "bsde.ms_per_sweep": _ratio(total("picard_solve"), sweeps, 1e3),
        "bsde.picard_self_s": total("picard_solve", "self_s"),
        "bsde.backward_calls": len(by_name["solve_bsde_given_control"]),
        "bsde.backward_self_s": back_self,
        "bsde.backward_ns_per_particle_step": _ratio(back_self, back_steps, 1e9),
        "bsde.foc_check_s": total("first_order_residual"),
        "bsde.r2_min": min(r2) if r2 else 0.0,
        "model.minimizer_calls": len(by_name["minimize_hamiltonian_values"]),
        "model.minimizer_self_s": min_self,
        "model.minimizer_ns_per_element": _ratio(min_self, elements, 1e9),
        "model.f0u_evals": tracer.f0u_evals.get(root.op, 0),
        "model.cost_functional_s": total("cost_functional"),
        "measures.node_distance_calls": len(by_name["node_distance"]),
        "measures.node_distance_s": total("node_distance"),
        "mfg_solvers.stages": info_sum("solve_continuation", "stages"),
        "mfg_solvers.stage_attempts": _stage_attempts(tracer, spans),
        "mfg_solvers.inner_solves": sum(len(_inner_solves(tracer, spans, s))
                                        for s in by_name["solve_continuation"]),
        "mfg_solvers.self_s": layer_self("mfg_solvers"),
        "lq_oracle.riccati_calls": len(by_name["solve_riccati"]),
        "lq_oracle.riccati_s": total("solve_riccati"),
        "nplayer.games": len(by_name["simulate_nplayer"]),
        "nplayer.game_s": total("simulate_nplayer"),
        "nplayer.gap_estimates": len(by_name["nash_gap"]),
        "nplayer.inconclusive": sum(1 for s in by_name["nash_gap"] if s.info.get("inconclusive")),
        "nplayer.self_s": layer_self("nplayer"),
        "records.files": len(writes),
        "records.bytes": n_bytes,
        "records.write_s": write_s,
        "records.write_mb_per_s": _ratio(n_bytes, write_s, 1e-6),
        "cli.self_s": layer_self("cli"),
    }
