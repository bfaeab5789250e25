"""Span recording around calls into the diffusim modules.

Spans are recorded from the benchmark's side only: :meth:`Tracer.install`
replaces the public functions of the ``diffusim`` package namespace, the
names that ``diffusim.cli`` imports from the other modules, ``cli.main``
and the CSV methods of ``TrajectoryTable`` with recording wrappers, and
:meth:`Tracer.uninstall` puts the originals back. Nothing under ``src/``
is edited. The benchmark calls the library through module attributes
(``diffusim.integrate(...)``), so the same pass code runs traced or not.

A span is ``(id, parent, name, layer, leg, pass_id, start, end, counts,
error)``. ``layer`` is the defining module of the wrapped function;
``leg`` is the benchmark leg that was open when the span started.
Counts are work measured from a call's inputs and outputs only
(replica-epochs, RK4 steps, kernel states, CSV bytes), so they repeat
exactly for a seed.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import time

import numpy as np

LAYERS = ("cli", "config", "threshold", "model", "integrate", "logistic", "dtmc", "trajectory")

FIELDS = ("id", "parent", "name", "layer", "leg", "pass", "start", "end", "counts", "error")
ID, PARENT, NAME, LAYER, LEG, PASS, START, END, COUNTS, ERROR = range(len(FIELDS))


def _n_epochs(dt: float, horizon: float) -> int:
    # the chain runs floor(horizon / dt) epochs (same rounding as diffusim.dtmc)
    return int(math.floor(float(horizon) / float(dt) + 1e-9))


def _coupled(logistic) -> bool:
    return logistic is not None and bool(logistic.enabled)


def _count_ensemble(args: dict, result) -> dict:
    return {
        "replica_epochs": args["n_replicas"] * _n_epochs(args["dt"], args["horizon"]),
        "coupled": _coupled(args.get("logistic")),
    }


def _count_replica(args: dict, result) -> dict:
    n_epochs = _n_epochs(args["dt"], args["horizon"])
    counts = {"replica_epochs": n_epochs, "coupled": _coupled(args.get("logistic"))}
    if args.get("sample_every") is None:
        # sampled every epoch: an epoch changed the state iff it fired an event
        rows = np.hstack([result.s, result.a, result.dd])
        counts["event_epochs"] = int(np.any(rows[1:] != rows[:-1], axis=1).sum())
        counts["event_epoch_base"] = n_epochs
    return counts


def _count_extinction(args: dict, result) -> dict:
    n_epochs = _n_epochs(args["dt"], args["horizon"])
    dt = float(args["dt"])
    used = 0
    for t in result.times:
        used += n_epochs if math.isnan(t) else int(round(t / dt))
    return {"replica_epochs": used, "coupled": _coupled(args.get("logistic"))}


def _count_exact(args: dict, result) -> dict:
    return {"states": int(result.states.shape[0]), "steps": int(args["n_steps"])}


def _count_integrate(args: dict, result) -> dict:
    cfg = args["cfg"]
    return {
        "rk4_steps": int(math.floor(cfg.horizon / cfg.step + 1e-9)),
        "clamped_steps": int(result.clamped_steps),
        "coupled": _coupled(args.get("logistic")),
    }


def _count_csv_rows(args: dict, result) -> dict:
    return {"csv_bytes": sum(len(row) + 1 for row in result)}


def _count_csv_header(args: dict, result) -> dict:
    return {"csv_bytes": len(result) + 1}


COUNTERS = {
    "monte_carlo_mean": _count_ensemble,
    "simulate_replica": _count_replica,
    "extinction_time_stochastic": _count_extinction,
    "exact_propagation": _count_exact,
    "integrate": _count_integrate,
    "csv_rows": _count_csv_rows,
    "csv_header": _count_csv_header,
}


class Tracer:
    """Keeps spans in memory; install/uninstall swap wrappers in and out."""

    def __init__(self):
        self.spans: list[list] = []
        self.pass_id: int | None = None
        self.entered = 0
        self._stack: list[int] = []
        self._legs: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._seen_errors: set[int] = set()
        self._error_type = Exception

    # -- recording -------------------------------------------------------

    def _open(self, name: str, layer: str) -> list:
        parent = self._stack[-1] if self._stack else None
        leg = self._legs[-1] if self._legs else None
        span = [len(self.spans), parent, name, layer, leg, self.pass_id, 0.0, 0.0, None, False]
        self.spans.append(span)
        self._stack.append(span[ID])
        span[START] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def leg(self, name: str):
        """A benchmark leg: a span of layer "leg" that names its children."""
        self.entered += 1
        self._legs.append(name)
        span = self._open(name, "leg")
        try:
            yield
        finally:
            self._close(span)
            self._legs.pop()

    def wrap(self, fn, layer: str, *, eager: bool = False):
        name = f"{layer}.{fn.__name__}"
        counter = COUNTERS.get(fn.__name__)
        signature = inspect.signature(fn) if counter is not None else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
                if eager:
                    result = list(result)
            except tracer._error_type as exc:
                # count each DiffusionError once, at the innermost span it left
                if id(exc) not in tracer._seen_errors:
                    tracer._seen_errors.add(id(exc))
                    span[ERROR] = True
                raise
            finally:
                tracer._close(span)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[COUNTS] = counter(bound.arguments, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, diffusim, cli) -> None:
        """Wrap the package's public functions and the names cli calls."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._error_type = diffusim.DiffusionError
        wrapped: dict[int, object] = {}

        def wrapper_for(fn):
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self.wrap(fn, fn.__module__.rsplit(".", 1)[-1])
            return wrapped[id(fn)]

        for attr in diffusim.__all__:
            obj = getattr(diffusim, attr)
            if inspect.isfunction(obj) and obj.__module__.startswith("diffusim."):
                self._patch(diffusim, attr, wrapper_for(obj))
        for attr, obj in list(vars(cli).items()):
            if (
                inspect.isfunction(obj)
                and obj.__module__.startswith("diffusim.")
                and obj.__module__ != cli.__name__
            ):
                self._patch(cli, attr, wrapper_for(obj))
        self._patch(cli, "main", self.wrap(cli.main, "cli"))
        table = diffusim.TrajectoryTable
        self._patch(table, "csv_header", self.wrap(table.csv_header, "trajectory"))
        # csv_rows is a generator: materialise it inside the span so the
        # span covers the rendering, not just the generator's creation
        self._patch(table, "csv_rows", self.wrap(table.csv_rows, "trajectory", eager=True))
        self._patch(table, "write_csv", self.wrap(table.write_csv, "trajectory"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path) -> None:
        """Write every span kept in memory as a JSON list of objects."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(FIELDS, span)) for span in self.spans], fh)


def _self_times(spans: list[list]) -> dict[int, float]:
    own = {span[ID]: span[END] - span[START] for span in spans}
    for span in spans:
        if span[PARENT] is not None and span[PARENT] in own:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def layer_metrics(spans: list[list], pass_wall: float) -> dict[str, float]:
    """Per-layer numbers for the spans of one traced pass."""
    own = _self_times(spans)
    busy = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    errors = {layer: 0 for layer in LAYERS}
    out: dict[str, float] = {}
    sums = {
        "ens_s": 0.0, "ens_work": 0, "ext_s": 0.0, "ext_work": 0,
        "event_epochs": 0, "event_base": 0, "exact_states": 0,
        "build_s": 0.0, "split_full_s": 0.0,
        "rk4": 0, "clamped": 0, "const_rk4": 0, "const_s": 0.0,
        "log_rk4": 0, "log_s": 0.0, "log_calls": 0, "log_errors": 0,
        "endemic_s": 0.0, "csv_bytes": 0, "dtmc_s": 0.0,
    }
    for span in spans:
        layer = span[LAYER]
        if layer == "leg":
            continue
        dur = span[END] - span[START]
        busy[layer] += own[span[ID]]
        calls[layer] += 1
        errors[layer] += int(span[ERROR])
        counts = span[COUNTS] or {}
        fn = span[NAME].split(".", 1)[1]
        if counts.get("coupled"):
            sums["log_calls"] += 1
            sums["log_errors"] += int(span[ERROR])
        if layer == "dtmc":
            sums["dtmc_s"] += own[span[ID]]
        if fn in ("monte_carlo_mean", "simulate_replica"):
            sums["ens_s"] += dur
            sums["ens_work"] += counts.get("replica_epochs", 0)
            sums["event_epochs"] += counts.get("event_epochs", 0)
            sums["event_base"] += counts.get("event_epoch_base", 0)
        elif fn == "extinction_time_stochastic":
            sums["ext_s"] += dur
            sums["ext_work"] += counts.get("replica_epochs", 0)
        elif fn == "exact_propagation":
            sums["exact_states"] += counts.get("states", 0)
            if span[LEG] == "exact_split":
                if counts.get("steps", 0) == 0:
                    sums["build_s"] += dur
                else:
                    sums["split_full_s"] += dur
        elif fn == "integrate":
            sums["rk4"] += counts.get("rk4_steps", 0)
            sums["clamped"] += counts.get("clamped_steps", 0)
            if counts.get("coupled"):
                sums["log_rk4"] += counts.get("rk4_steps", 0)
                sums["log_s"] += dur
            else:
                sums["const_rk4"] += counts.get("rk4_steps", 0)
                sums["const_s"] += dur
        elif fn == "endemic_equilibrium":
            sums["endemic_s"] += dur
        if "csv_bytes" in counts:
            sums["csv_bytes"] += counts["csv_bytes"]

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    out["cli.self_s"] = busy["cli"]
    out["config.busy_s"] = busy["config"]
    out["threshold.busy_s"] = busy["threshold"]
    out["model.endemic_s"] = sums["endemic_s"]
    out["integrate.busy_s"] = busy["integrate"]
    out["integrate.rk4_steps"] = sums["rk4"]
    out["integrate.rk4_steps_per_s"] = rate(sums["const_rk4"], sums["const_s"])
    out["integrate.clamped_steps"] = sums["clamped"]
    out["logistic.rk4_steps"] = sums["log_rk4"]
    out["logistic.rk4_steps_per_s"] = rate(sums["log_rk4"], sums["log_s"])
    const_rate = out["integrate.rk4_steps_per_s"]
    log_rate = out["logistic.rk4_steps_per_s"]
    out["logistic.slowdown"] = const_rate / log_rate if const_rate > 0 and log_rate > 0 else 0.0
    out["dtmc.ensemble_s"] = sums["ens_s"]
    out["dtmc.ensemble_replica_epochs"] = sums["ens_work"]
    out["dtmc.ensemble_replica_epochs_per_s"] = rate(sums["ens_work"], sums["ens_s"])
    out["dtmc.extinction_s"] = sums["ext_s"]
    out["dtmc.extinction_replica_epochs"] = sums["ext_work"]
    out["dtmc.extinction_replica_epochs_per_s"] = rate(sums["ext_work"], sums["ext_s"])
    out["dtmc.event_epochs"] = sums["event_epochs"]
    out["dtmc.event_epoch_base"] = sums["event_base"]
    out["dtmc.event_epoch_ratio"] = (
        sums["event_epochs"] / sums["event_base"] if sums["event_base"] else 0.0
    )
    out["dtmc.exact_build_s"] = sums["build_s"]
    out["dtmc.exact_propagate_s"] = max(sums["split_full_s"] - sums["build_s"], 0.0)
    out["dtmc.exact_states"] = sums["exact_states"]
    out["dtmc.pass_share"] = sums["dtmc_s"] / pass_wall if pass_wall > 0 else 0.0
    out["trajectory.csv_s"] = busy["trajectory"]
    out["trajectory.csv_bytes"] = sums["csv_bytes"]
    for layer in LAYERS:
        if layer == "logistic":
            out["logistic.calls"] = sums["log_calls"] + calls["logistic"]
            out["logistic.errors"] = sums["log_errors"] + errors["logistic"]
        else:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.errors"] = errors[layer]
    out["trace.spans"] = len(spans)
    return out
