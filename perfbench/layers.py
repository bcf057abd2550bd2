"""Outside-in layer tracing: wrap each layer's entry points, record spans.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
the listed methods and functions with timing wrappers before the cluster is
built:

* methods are wrapped on the class that defines them and on every subclass
  that overrides them, so every instance and every caller sees the wrapper;
* module-level functions (the codec's ``encode_message`` /
  ``decode_message``) are re-bound in every loaded ``repro`` module that
  imported them by name, not only in the defining module;
* the replica's message handlers are re-registered through the public
  ``register_message_handler(..., override=True)`` extension point, keeping
  their CPU-cost functions.

A span is (name, start, end, parent).  Spans stay in flat in-memory arrays
while the program runs and are written out once, at the end
(:meth:`SpanRecorder.save`).  A layer's self time is the sum over its spans
of duration minus the duration of their direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

#: layer -> entry points, as (module, "Class.method") or (module, "function").
#: ``sim`` is the scheduler loop: in model mode every callback runs inside
#: ``run_until``, so its self time is the scheduler plus any callback that no
#: other wrapper covers.
TARGETS: Dict[str, List[Tuple[str, str]]] = {
    "sim": [("repro.sim.events", "EventScheduler.run_until")],
    "sim.cpu_queue": [("repro.sim.resources", "FifoServer.submit")],
    "network": [
        ("repro.network.network", "Network.send"),
        ("repro.network.network", "Network.broadcast"),
        # The NIC/wire pipeline the scheduler calls back into.
        ("repro.network.network", "Network._arrive_fast"),
        ("repro.network.network", "Network._deliver"),
        ("repro.network.network", "Network._propagate"),
        ("repro.network.network", "Network._arrive"),
    ],
    # Plus every registered message handler (see install()).
    "core": [
        ("repro.core.replica", "Replica.deliver"),
        # Work the replica queued on its CPU server or its pacemaker.
        ("repro.core.replica", "Replica._send_vote"),
        ("repro.core.replica", "Replica._broadcast_proposal"),
        ("repro.core.replica", "Replica._send_timeout"),
        ("repro.core.replica", "Replica._propose"),
    ],
    "client": [
        ("repro.client.client", "ClientBase.deliver"),
        ("repro.client.client", "ClientBase._submit_request"),
        ("repro.client.client", "ClientBase._expire"),
        ("repro.client.client", "PoissonClient._arrive"),
    ],
    "mempool": [
        ("repro.mempool.mempool", "Mempool.add"),
        ("repro.mempool.mempool", "Mempool.next_batch"),
        ("repro.mempool.mempool", "Mempool.mark_committed"),
        ("repro.mempool.mempool", "Mempool.requeue_front"),
    ],
    "executor": [
        ("repro.executor.kvstore", "KeyValueStore.apply"),
        ("repro.executor.kvstore", "KeyValueStore.transaction_applied"),
    ],
    "forest": [
        ("repro.forest.forest", "BlockForest.add_block"),
        ("repro.forest.forest", "BlockForest.record_qc"),
        ("repro.forest.forest", "BlockForest.commit"),
        ("repro.forest.forest", "BlockForest.prune"),
    ],
    "quorum": [
        ("repro.quorum.quorum", "QuorumTracker.add_and_certify"),
        ("repro.quorum.quorum", "TimeoutTracker.add_and_certify"),
    ],
    "sync": [
        ("repro.sync.manager", "SyncManager.handle_request"),
        ("repro.sync.manager", "SyncManager.handle_response"),
    ],
    "checkpoint": [
        ("repro.checkpoint.manager", "CheckpointManager.on_commit"),
        ("repro.checkpoint.manager", "CheckpointManager.handle_request"),
        ("repro.checkpoint.manager", "CheckpointManager.handle_response"),
    ],
    "crypto": [
        ("repro.crypto.keys", "KeyPair.mac"),
        ("repro.crypto.keys", "KeyPair.verify_tag"),
        ("repro.crypto.keys", "Ed25519KeyPair.mac"),
        ("repro.crypto.keys", "Ed25519KeyPair.verify_tag"),
    ],
    "codec": [
        ("repro.transport.codec", "encode_message"),
        ("repro.transport.codec", "decode_message"),
    ],
    "transport": [
        ("repro.transport.asyncio_net", "AsyncioTransport.send"),
        ("repro.transport.asyncio_net", "AsyncioTransport.broadcast"),
    ],
}


class SpanRecorder:
    """Flat in-memory span store shared by every wrapper."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layer_of: List[str] = []
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        #: Extra counts taken at the same boundaries.
        self.encoded_bytes = 0
        self.applies_useful = 0
        self.timer_lags: List[float] = []

    def _intern(self, layer: str, label: str) -> int:
        self.names.append(label)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def wrap(self, fn: Callable, layer: str, label: str, after=None) -> Callable:
        """Return ``fn`` wrapped in a span named ``label`` of ``layer``.

        ``after(args, result)`` (optional) runs inside the span to take a
        count at the boundary.
        """
        nid = self._intern(layer, label)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            index = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(index)
            began = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                end[index] = clock()
                start[index] = began
                stack.pop()

        return span

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def arrays(self):
        """(name_id, parent, duration, self_time, start) as numpy arrays."""
        import numpy as np

        name_id = np.frombuffer(self.name_id, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        duration = np.frombuffer(self.end, dtype=np.float64) - start
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(parent)
        )
        return name_id, parent, duration, duration - child_time, start

    def layer_totals(self, run_window: Tuple[float, float] = None) -> Dict[str, Dict]:
        """Per layer: calls and self seconds; per span name: calls and time.

        With ``run_window`` (deploy mode, where no synchronous root span
        exists), ``sim`` self time is the window minus the top-level spans
        that started in it: the event loop plus any uncovered callback.
        """
        import numpy as np

        name_id, parent, duration, self_time, start = self.arrays()
        count = len(self.names)
        calls = np.bincount(name_id, minlength=count)
        self_by_name = np.bincount(name_id, weights=self_time, minlength=count)
        total_by_name = np.bincount(name_id, weights=duration, minlength=count)
        layers: Dict[str, Dict] = {layer: {"calls": 0, "self_s": 0.0} for layer in TARGETS}
        by_name: Dict[str, Dict] = {}
        for nid, label in enumerate(self.names):
            layer = layers[self.layer_of[nid]]
            layer["calls"] += int(calls[nid])
            layer["self_s"] += float(self_by_name[nid])
            by_name[label] = {
                "calls": int(calls[nid]),
                "total_s": float(total_by_name[nid]),
            }
        if run_window is not None:
            lo, hi = run_window
            top = (parent < 0) & (start >= lo) & (start < hi)
            layers["sim"]["self_s"] += (hi - lo) - float(duration[top].sum())
        # HMAC verification recomputes the tag with mac(): count only the
        # signatures made, not the macs nested in a verification.
        mac_ids = [i for i, n in enumerate(self.names) if n.endswith(".mac")]
        verify_ids = [i for i, n in enumerate(self.names) if n.endswith(".verify_tag")]
        if mac_ids:
            is_mac = np.isin(name_id, mac_ids)
            parent_kind = np.where(parent >= 0, name_id[np.maximum(parent, 0)], -1)
            nested = is_mac & np.isin(parent_kind, verify_ids)
            by_name["crypto.signs"] = {"calls": int(is_mac.sum() - nested.sum())}
        return {"layers": layers, "by_name": by_name}

    def save(self, path) -> None:
        """Write every span (and the name table) to ``path`` as ``.npz``."""
        import numpy as np

        name_id, parent, duration, self_time, start = self.arrays()
        np.savez(
            path, names=np.array(self.names), layers=np.array(self.layer_of),
            name_id=name_id, parent=parent, start=start, duration=duration,
        )


def _resolve(module: str, qualname: str):
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _subclasses(cls) -> List[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def _wrap_method(recorder: SpanRecorder, cls: type, attr: str, layer: str) -> None:
    for klass in _subclasses(cls):
        if attr in vars(klass):
            label = f"{layer}:{klass.__name__}.{attr}"
            setattr(klass, attr, recorder.wrap(vars(klass)[attr], layer, label))


def _wrap_function(recorder: SpanRecorder, module: str, attr: str, layer: str, after=None) -> None:
    original = getattr(importlib.import_module(module), attr)
    wrapped = recorder.wrap(original, layer, f"{layer}:{attr}", after)
    for name, loaded in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and vars(loaded).get(attr) is original:
            setattr(loaded, attr, wrapped)


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer's entry points; call before the cluster is built."""
    # Load every module the layers and their callers live in first, so that
    # the subclass walk and the by-name re-binding see all of them.
    importlib.import_module("repro.api")
    importlib.import_module("repro.transport.runtime")

    def count_bytes(args, result):
        recorder.encoded_bytes += len(result)

    for layer, targets in TARGETS.items():
        for module, qualname in targets:
            owner, attr = _resolve(module, qualname)
            if qualname == "KeyValueStore.apply":
                _wrap_apply(recorder, owner)
            elif isinstance(owner, type):
                _wrap_method(recorder, owner, attr, layer)
            else:
                after = count_bytes if attr == "encode_message" else None
                _wrap_function(recorder, module, attr, layer, after)

    from repro.core.dispatch import MESSAGE_HANDLERS, register_message_handler

    for kind in MESSAGE_HANDLERS.available():
        entry = MESSAGE_HANDLERS.get(kind)
        wrapped = recorder.wrap(entry.handle, "core", f"core:handle[{kind}]")
        register_message_handler(kind, cost=entry.cost, override=True)(wrapped)

    _wrap_timers(recorder)


def _wrap_apply(recorder: SpanRecorder, store_cls: type) -> None:
    """KeyValueStore.apply, also counting the applies that changed state.

    ``apply`` is a no-op for an already-applied transaction id; the store's
    ``operations_applied`` counter moves only when it took effect.
    """
    original = store_cls.apply

    def counted(store, transaction):
        before = store.operations_applied
        result = original(store, transaction)
        recorder.applies_useful += store.operations_applied - before
        return result

    store_cls.apply = recorder.wrap(
        functools.wraps(original)(counted), "executor", "executor:KeyValueStore.apply"
    )


def _wrap_timers(recorder: SpanRecorder) -> None:
    """Record each AsyncioClock timer's lag: fire time minus due time."""
    from repro.transport.clock import AsyncioClock

    lags = recorder.timer_lags
    call_after, post_after = AsyncioClock.call_after, AsyncioClock.post_after

    def timed(clock, delay, callback):
        due = clock.now + max(0.0, delay)

        def fire(*args, **kwargs):
            lags.append(clock.now - due)
            return callback(*args, **kwargs)

        return fire

    @functools.wraps(call_after)
    def lagged_call_after(clock, delay, callback, *args, **kwargs):
        return call_after(clock, delay, timed(clock, delay, callback), *args, **kwargs)

    @functools.wraps(post_after)
    def lagged_post_after(clock, delay, callback, *args):
        post_after(clock, delay, timed(clock, delay, callback), *args)

    AsyncioClock.call_after = lagged_call_after
    AsyncioClock.post_after = lagged_post_after
