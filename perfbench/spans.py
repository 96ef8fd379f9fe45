"""Outside-in tracing: spans around the public functions of each layer.

Nothing under ``src/`` is edited.  :func:`install` replaces public
functions and methods of the program's modules with wrappers that
record one span per call (name, start, end, parent span) into a
:class:`SpanLog` kept in memory; :meth:`SpanLog.save` writes the spans
out once the cell has finished.  A few very hot leaf functions are
counted instead of spanned, so that their call count stays exact
without a span per call.

Span names are the module path of the layer (``datacenter.advance``,
``core.aggregation.merge``, ...), which is also the prefix of the
per-layer metrics derived from them in :func:`layer_metrics`.  A span's
self time is its duration minus the part covered by its direct
children.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from collections import Counter
from typing import Any, Callable, Dict, List, Optional

import numpy as np

__all__ = ["SpanLog", "install", "layer_metrics", "cross_check", "PER_LAYER_UNITS"]


class SpanLog:
    """Spans of one traced cell, in columnar arrays."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        #: Exact counts recorded at layer boundaries.
        self.counts: Counter = Counter()
        #: Durations (s) of PABFD policy steps that ran a control pass.
        self.pass_s: List[float] = []
        #: The ``experiments.result`` span, open until run_policy returns.
        self.result_span: Optional[int] = None

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[self.name_id[idx]]} closed out of order")

    def wrap(
        self,
        fn: Callable,
        name: str,
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable:
        """``fn`` recording one span per call; ``after(args, result)``
        runs once the span has closed."""
        log = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = log.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                log.close(idx)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def counted(self, fn: Callable, key: str) -> Callable:
        """``fn`` counting its calls under ``key``, without a span."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- analysis ------------------------------------------------------------

    def arrays(self):
        """(name id, parent index, start, end) as numpy views."""
        return (
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        names, parent, start, end = self.arrays()
        if self._stack:
            raise RuntimeError("spans still open")
        dur = end - start
        n = len(self.names)
        has_parent = parent >= 0
        child_s = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_s = dur - child_s
        calls = np.bincount(names, minlength=n)
        total = np.bincount(names, weights=dur, minlength=n)
        own = np.bincount(names, weights=self_s, minlength=n)
        return {
            self.names[i]: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i in range(n)
        }

    def top_level_s(self) -> float:
        names, parent, start, end = self.arrays()
        top = parent < 0
        return float((end[top] - start[top]).sum())

    def save(self, path: str) -> None:
        """Write the spans (name, start, end, parent) to an ``.npz`` file."""
        names, parent, start, end = self.arrays()
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=names,
            parent=parent,
            start=start,
            end=end,
        )


def install(log: SpanLog) -> None:
    """Wrap the public functions of every layer; the process stays traced.

    Patches the attribute each caller actually looks up (a module-level
    name is patched in the module that calls it), so every call made by
    the program goes through a wrapper.
    """
    from repro.baselines import bfd, pabfd
    from repro.baselines.ecocloud import EcoCloudProtocol
    from repro.baselines.grmp import GrmpProtocol
    from repro.core import aggregation
    from repro.core.consolidation import GlapConsolidationProtocol
    from repro.core.learning import GossipLearningProtocol, LocalTrainer
    from repro.datacenter.cluster import DataCenter
    from repro.experiments import runner
    from repro.metrics.collector import MetricsCollector
    from repro.overlay.cyclon import CyclonProtocol
    from repro.simulator.engine import Simulation
    from repro.simulator.network import Network

    counts = log.counts

    def patch(owner: Any, attr: str, name: str, after=None) -> None:
        setattr(owner, attr, log.wrap(getattr(owner, attr), name, after))

    def learned(args, updates) -> None:
        counts["core.learning.updates"] += int(updates)

    def saved(args, payload) -> None:
        counts["checkpoint.bytes"] += os.path.getsize(args[1])

    patch(runner, "build_simulation", "experiments.build_simulation")
    patch(runner, "save_checkpoint", "checkpoint.save", saved)
    patch(DataCenter, "advance_round", "datacenter.advance")
    patch(DataCenter, "migrate", "datacenter.migrate")
    patch(Simulation, "run_round", "simulator.run_round")
    patch(Network, "exchange_ok", "simulator.network.exchange")
    patch(CyclonProtocol, "execute_round", "overlay.cyclon.execute")
    patch(GossipLearningProtocol, "execute_round", "core.learning.execute")
    patch(LocalTrainer, "train_round", "core.learning.train", learned)
    patch(aggregation.QAggregationProtocol, "execute_round", "core.aggregation.execute")
    patch(GlapConsolidationProtocol, "execute_round", "core.consolidation.execute")
    patch(pabfd.PabfdPolicy, "step", "baselines.pabfd.step")
    patch(GrmpProtocol, "execute_round", "baselines.grmp.execute")
    patch(EcoCloudProtocol, "execute_round", "baselines.ecocloud.execute")
    patch(bfd, "bfd_pack", "baselines.bfd.pack")
    patch(MetricsCollector, "sample", "metrics.sample")

    # Merges are spanned; the entries they fold are counted on entry,
    # before the merge grows the first table.
    merge = log.wrap(aggregation.merge_qtables, "core.aggregation.merge")

    def merge_counted(a, b):
        counts["core.aggregation.entries_merged"] += len(a) + len(b)
        return merge(a, b)

    aggregation.merge_qtables = merge_counted

    # Thousands of threshold evaluations per control pass: counted, not
    # spanned, so that tracing does not dominate the pass it measures.
    pabfd.mad_upper_threshold = log.counted(
        pabfd.mad_upper_threshold, "baselines.thresholds.mad_calls"
    )
    step = pabfd.PabfdPolicy.step

    def step_timed(self, dc, sim):
        before = counts["baselines.thresholds.mad_calls"]
        t0 = time.perf_counter()
        step(self, dc, sim)
        if counts["baselines.thresholds.mad_calls"] != before:
            log.pass_s.append(time.perf_counter() - t0)

    pabfd.PabfdPolicy.step = step_timed

    # Result assembly has no function of its own: it is everything from
    # ``Simulation.finish`` (the last call of the evaluation loop) until
    # run_policy returns, where the caller closes the span.
    finish = Simulation.finish

    def finish_opens_result(self):
        log.result_span = log.open("experiments.result")
        finish(self)

    Simulation.finish = finish_opens_result


#: Unit and direction of every per-layer metric, in report order.
PER_LAYER_UNITS: Dict[str, tuple] = {
    "traces.build_s": ("s", "lower"),
    "traces.bytes": ("bytes", "lower"),
    "experiments.build_simulation_s": ("s", "lower"),
    "experiments.attach_s": ("s", "lower"),
    "experiments.result_s": ("s", "lower"),
    "datacenter.advance_s": ("s", "lower"),
    "datacenter.advance_calls": ("count", "lower"),
    "datacenter.migrate_s": ("s", "lower"),
    "datacenter.migrate_calls": ("count", "lower"),
    "simulator.run_round_s": ("s", "lower"),
    "simulator.run_round_self_s": ("s", "lower"),
    "simulator.network.exchange_calls": ("count", "lower"),
    "simulator.network.exchange_s": ("s", "lower"),
    "simulator.network.messages_sent": ("count", "lower"),
    "simulator.network.messages_dropped": ("count", "lower"),
    "simulator.network.bytes": ("bytes", "lower"),
    "overlay.cyclon.execute_s": ("s", "lower"),
    "overlay.cyclon.calls": ("count", "lower"),
    "core.learning.execute_s": ("s", "lower"),
    "core.learning.train_calls": ("count", "lower"),
    "core.learning.train_s": ("s", "lower"),
    "core.learning.updates": ("count", "lower"),
    "core.aggregation.execute_s": ("s", "lower"),
    "core.aggregation.merge_calls": ("count", "lower"),
    "core.aggregation.merge_s": ("s", "lower"),
    "core.aggregation.entries_merged": ("count", "lower"),
    "core.qtable.entries_mean": ("count", "lower"),
    "core.convergence.q_cosine": ("ratio", "higher"),
    "core.consolidation.execute_s": ("s", "lower"),
    "core.consolidation.attempted": ("count", "lower"),
    "core.consolidation.accepted": ("count", "higher"),
    "core.consolidation.accept_ratio": ("ratio", "higher"),
    "baselines.pabfd.step_s": ("s", "lower"),
    "baselines.pabfd.control_passes": ("count", "lower"),
    "baselines.pabfd.pass_ms_p50": ("ms", "lower"),
    "baselines.thresholds.mad_calls": ("count", "lower"),
    "baselines.grmp.execute_s": ("s", "lower"),
    "baselines.ecocloud.execute_s": ("s", "lower"),
    "baselines.bfd.pack_s": ("s", "lower"),
    "metrics.sample_s": ("s", "lower"),
    "checkpoint.save_s": ("s", "lower"),
    "checkpoint.saves": ("count", "lower"),
    "checkpoint.bytes": ("bytes", "lower"),
    "sim_slav": ("ratio", "lower"),
    "bench.span_coverage": ("ratio", "higher"),
    "bench.trace_overhead_ratio": ("ratio", "lower"),
    "bench.cell_wall_s": ("s", "lower"),
    "bench.host_probe_us": ("us", "lower"),
    "bench.failed_share": ("ratio", "lower"),
}


def layer_metrics(log: SpanLog, extra: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced cell.

    ``extra`` carries what the cell read off the program's public state
    (network stats, consolidation counters, Q-map gauges, trace bytes,
    the run's SLAV, the traced wall); the bench-level ratios are filled in by the
    caller, which also sees the untraced cells.
    """
    t = log.totals()
    counts = log.counts

    def total(name: str) -> float:
        return t.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> int:
        return t.get(name, {}).get("calls", 0)

    attempted = extra["consolidation_attempted"]
    accepted = extra["consolidation_accepted"]
    out = {
        "traces.build_s": total("traces.build"),
        "traces.bytes": extra["trace_bytes"],
        "experiments.build_simulation_s": total("experiments.build_simulation"),
        "experiments.attach_s": total("experiments.attach"),
        "experiments.result_s": total("experiments.result"),
        "datacenter.advance_s": total("datacenter.advance"),
        "datacenter.advance_calls": calls("datacenter.advance"),
        "datacenter.migrate_s": total("datacenter.migrate"),
        "datacenter.migrate_calls": calls("datacenter.migrate"),
        "simulator.run_round_s": total("simulator.run_round"),
        "simulator.run_round_self_s": t.get("simulator.run_round", {}).get("self_s", 0.0),
        "simulator.network.exchange_calls": calls("simulator.network.exchange"),
        "simulator.network.exchange_s": total("simulator.network.exchange"),
        "simulator.network.messages_sent": extra["messages_sent"],
        "simulator.network.messages_dropped": extra["messages_dropped"],
        "simulator.network.bytes": extra["network_bytes"],
        "overlay.cyclon.execute_s": total("overlay.cyclon.execute"),
        "overlay.cyclon.calls": calls("overlay.cyclon.execute"),
        "core.learning.execute_s": total("core.learning.execute"),
        "core.learning.train_calls": calls("core.learning.train"),
        "core.learning.train_s": total("core.learning.train"),
        "core.learning.updates": counts["core.learning.updates"],
        "core.aggregation.execute_s": total("core.aggregation.execute"),
        "core.aggregation.merge_calls": calls("core.aggregation.merge"),
        "core.aggregation.merge_s": total("core.aggregation.merge"),
        "core.aggregation.entries_merged": counts["core.aggregation.entries_merged"],
        "core.qtable.entries_mean": extra["q_entries_mean"],
        "core.convergence.q_cosine": extra["q_cosine"],
        "core.consolidation.execute_s": total("core.consolidation.execute"),
        "core.consolidation.attempted": attempted,
        "core.consolidation.accepted": accepted,
        "core.consolidation.accept_ratio": accepted / attempted if attempted else 0.0,
        "baselines.pabfd.step_s": total("baselines.pabfd.step"),
        "baselines.pabfd.control_passes": len(log.pass_s),
        "baselines.pabfd.pass_ms_p50": (
            float(np.median(log.pass_s)) * 1e3 if log.pass_s else 0.0
        ),
        "baselines.thresholds.mad_calls": counts["baselines.thresholds.mad_calls"],
        "baselines.grmp.execute_s": total("baselines.grmp.execute"),
        "baselines.ecocloud.execute_s": total("baselines.ecocloud.execute"),
        "baselines.bfd.pack_s": total("baselines.bfd.pack"),
        "metrics.sample_s": total("metrics.sample"),
        "checkpoint.save_s": total("checkpoint.save"),
        "checkpoint.saves": calls("checkpoint.save"),
        "checkpoint.bytes": counts["checkpoint.bytes"],
        "sim_slav": extra["slav"],
        "bench.span_coverage": log.top_level_s() / extra["traced_wall_s"],
    }
    return {k: float(v) for k, v in out.items()}


#: (span, PhaseProfiler phase) pairs that time the same calls.
CROSS_CHECK = [
    ("core.learning.execute", "learning"),
    ("core.aggregation.execute", "aggregation"),
    ("core.consolidation.execute", "consolidation"),
    ("datacenter.advance", "advance_round"),
    ("baselines.pabfd.step", "policy_step"),
]


def cross_check(cell: dict) -> List[dict]:
    """Span totals against the ``PhaseProfiler`` totals of one cell run
    with both instruments, for every pair of CROSS_CHECK that ran."""
    rows = []
    for span, phase in CROSS_CHECK:
        if span in cell["spans"]:
            ours, theirs = cell["spans"][span], cell["profile"][phase]
            rows.append({
                "span": span, "phase": phase,
                "span_s": ours["total_s"], "profiler_s": theirs["total_s"],
                "span_calls": ours["calls"], "profiler_calls": theirs["calls"],
            })
    return rows
