"""Test helpers: a mock protocol context and simulation shorthands."""

from __future__ import annotations

import asyncio
import os
from typing import Any, Callable, List, Tuple

from repro.core.protocol import Context, Router
from repro.net.latency import lan_latency
from repro.net.runtime import SimRuntime


class LocalFuture:
    """Synchronous future for direct-drive protocol tests."""

    def __init__(self):
        self.done = False
        self.value = None

    def resolve(self, value=None):
        assert not self.done, "future resolved twice"
        self.done = True
        self.value = value


class LocalQueue:
    """Synchronous queue for direct-drive protocol tests."""

    def __init__(self):
        self.items: List[Any] = []

    def put(self, item):
        self.items.append(item)

    def can_get(self):
        return bool(self.items)

    def __len__(self):
        return len(self.items)


class MockContext(Context):
    """Drives a single protocol instance directly; records all sends.

    Effects apply immediately; ``sent`` collects ``(dst, pid, mtype,
    payload)`` tuples for assertions.
    """

    def __init__(self, group, node_id: int = 0):
        self.node_id = node_id
        self.n = group.n
        self.t = group.t
        self.crypto = group.party(node_id)
        self.router = Router()
        self.sent: List[Tuple[int, str, str, Any]] = []
        self._deferred: List[Callable] = []
        self.timers: List[Tuple[float, Callable, Any]] = []
        self._clock = 0.0

    def send(self, dst, pid, mtype, payload):
        self.sent.append((dst, pid, mtype, payload))

    def effect(self, fn: Callable, *args):
        fn(*args)

    def defer(self, fn):
        # Queued, not immediate: the router defers buffered-message replay
        # until the protocol instance has finished constructing.
        self._deferred.append(fn)

    def flush(self):
        """Run deferred work (e.g. buffered-message replay)."""
        while self._deferred:
            self._deferred.pop(0)()

    def set_timer(self, delay, fn):
        from repro.core.protocol import Timer

        timer = Timer()
        self.timers.append((delay, fn, timer))
        return timer

    def fire_timers(self):
        """Fire all pending (uncancelled) timers, in scheduling order."""
        pending, self.timers = self.timers, []
        for _, fn, timer in pending:
            if timer.active:
                fn()

    def new_queue(self):
        return LocalQueue()

    def new_future(self):
        return LocalFuture()

    def now(self):
        return self._clock

    # -- assertions ------------------------------------------------------------

    def sent_of_type(self, mtype: str):
        return [s for s in self.sent if s[2] == mtype]


def sim_runtime(group, seed=1, latency=None, **kwargs) -> SimRuntime:
    """A LAN runtime with no CPU cost model (fast unit tests)."""
    return SimRuntime(
        group, latency=latency or lan_latency(), seed=seed, **kwargs
    )


def run_and_get(rt, futures, limit=600.0):
    """Run the simulation until every future resolves; return values."""
    return rt.run_all(list(futures), limit=limit)


def sync_applied(rt, services, count, limit=9000.0):
    """Run the simulation until every service has applied ``count``
    commands (``applied_seq``), stopping at the event that completes it."""
    while any(s.applied_seq < count for s in services):
        assert not rt.sim.idle, f"simulation went idle before {count} applied"
        assert rt.now <= limit, f"{count} not applied within {limit} s"
        rt.run(max_events=1)


async def wait_for(predicate, timeout=60.0, what="condition"):
    """Poll ``predicate`` every 50 ms until it holds, or fail after
    ``timeout`` seconds."""
    for _ in range(int(timeout / 0.05)):
        if predicate():
            return
        await asyncio.sleep(0.05)
    raise AssertionError(f"timed out waiting for {what}")


async def stop_all(replicas, fabric):
    """Stop every replica still running, then the chaos fabric."""
    for replica in replicas:
        if replica.node is not None:
            await replica.stop()
    await fabric.stop()


def no_errors(rt):
    """Assert no router refused a message during an honest run."""
    errors = rt.router_errors()
    assert not errors, f"malformed messages in honest run: {errors[:5]}"


def print_repro(seed: int) -> None:
    """Print the one-line replay of the running seeded test; appended to
    ``REPRO_FILE`` too when that is set, like a simulator case's line."""
    test = os.environ["PYTEST_CURRENT_TEST"].rsplit(" ", 1)[0]
    line = f"REPRO: PYTHONPATH=src python -m pytest {test} --fuzz-seed=0x{seed:x}"
    print(line)
    path = os.environ.get("REPRO_FILE")
    if path:
        with open(path, "a") as fh:
            fh.write(line + "\n")
