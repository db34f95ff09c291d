"""Connections, listeners and dialing — the Go ``net`` surface.

A :class:`Conn` is a message-oriented duplex connection: two directed
pipes, one per direction.  Sends never block (the fabric buffers messages
in flight, like kernel socket buffers); receives block until a message
lands, the peer closes (EOF), or the local end is closed.  Close semantics
follow Go's sharp edges deliberately, because the paper's bugs live there:

* ``send`` on a closed connection **panics** (the Go ``send on closed
  channel`` equivalent at the network layer);
* ``close`` twice **panics** (``close of closed connection``);
* ``close_write`` half-closes: the peer drains in-flight messages and then
  sees EOF, while this side can keep receiving;
* ``send`` to a peer that crashed or fully closed raises
  :class:`ConnReset` — an error, not a panic, because a remote reset is an
  environmental failure the program is expected to handle (redial), unlike
  the local programming error of writing to a connection *you* closed.

A :class:`Listener` is backed by a real simulated channel, so a full
accept backlog refuses connections and closing the listener wakes pending
accepts — the same primitives the mini-apps are built from.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterator, Optional, Tuple, TYPE_CHECKING

from ..runtime.errors import GoPanic
from ..runtime.trace import EventKind
from .fabric import NetError

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.runtime import Runtime
    from .fabric import Network


class ConnReset(NetError):
    """The peer closed or crashed: deterministic ECONNRESET, raised on the
    next send instead of letting writes vanish into an aborted pipe."""


class _Pipe:
    """One direction of a connection: src node -> dst node."""

    __slots__ = ("src", "dst", "obj", "queue", "waiters", "closed",
                 "aborted", "in_flight", "last_deliver", "_sched")

    def __init__(self, rt: "Runtime", src: str, dst: str):
        self.src = src
        self.dst = dst
        self.obj = rt.new_obj_id()
        self.queue: deque = deque()       # (seq, payload, sent_at)
        self.waiters: deque = deque()     # goroutines parked in recv
        self.closed = False               # sender closed (EOF after drain)
        self.aborted = False              # receiver closed (discard arrivals)
        self.in_flight = 0
        self.last_deliver = 0.0           # FIFO watermark for the fabric
        self._sched = rt.sched

    def wake_all(self) -> None:
        while self.waiters:
            self._sched.ready(self.waiters.popleft())


class Conn:
    """A duplex message connection between two named nodes."""

    def __init__(self, rt: "Runtime", net: "Network", local: str, remote: str,
                 out: _Pipe, in_: _Pipe):
        self._rt = rt
        self._net = net
        self._sched = rt.sched
        self.local = local
        self.remote = remote
        self._out = out
        self._in = in_
        self._closed = False
        self._recv_reason = f"net.recv:{remote}->{local}"

    @classmethod
    def pair(cls, rt: "Runtime", net: "Network", a: str, b: str
             ) -> Tuple["Conn", "Conn"]:
        """Two connected endpoints: (conn at ``a``, conn at ``b``)."""
        ab = _Pipe(rt, a, b)
        ba = _Pipe(rt, b, a)
        return (cls(rt, net, a, b, out=ab, in_=ba),
                cls(rt, net, b, a, out=ba, in_=ab))

    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def write_closed(self) -> bool:
        return self._out.closed

    @property
    def peer_reset(self) -> bool:
        """True once the peer fully closed (or crashed): its read side is
        aborted, so anything sent from here would be discarded on arrival."""
        return self._out.aborted

    def send(self, payload: Any) -> None:
        """Queue one message for delivery.  Never blocks; panics if the
        write side is closed locally (Go's send-on-closed equivalent) and
        raises :class:`ConnReset` if the *peer* is gone."""
        self._sched.schedule_point()
        if self._out.closed:
            raise GoPanic("send on closed connection")
        if self._out.aborted:
            raise ConnReset(
                f"connection reset by peer: {self.local}->{self.remote}")
        self._net.transmit(self._out, payload)

    def recv(self) -> Any:
        """Receive the next message; returns None at EOF (like a zero
        value).  Prefer :meth:`recv_ok` when None is a real payload."""
        return self.recv_ok()[0]

    def recv_ok(self) -> Tuple[Any, bool]:
        """Receive the next message as ``(payload, ok)``.

        ``ok`` is False at EOF: the peer closed (or this side did) and
        everything in flight has drained — the comma-ok idiom.
        """
        sched = self._sched
        sched.schedule_point()
        pipe = self._in
        me = sched.current
        while True:
            if pipe.queue:
                seq, payload, sent_at = pipe.queue.popleft()
                if sched.trace.active:
                    sched.emit(EventKind.NET_RECV, obj=pipe.obj,
                               info={"link": f"{pipe.src}->{pipe.dst}",
                                     "seq": seq,
                                     "latency": sched.clock.now - sent_at})
                return payload, True
            if pipe.aborted:
                return None, False
            if pipe.closed and pipe.in_flight == 0:
                return None, False
            pipe.waiters.append(me)
            sched.block(self._recv_reason)
            try:
                pipe.waiters.remove(me)
            except ValueError:
                pass

    def try_recv(self) -> Tuple[Any, bool, bool]:
        """Non-blocking receive: ``(payload, received, open)``."""
        sched = self._sched
        sched.schedule_point()
        pipe = self._in
        if pipe.queue:
            seq, payload, sent_at = pipe.queue.popleft()
            if sched.trace.active:
                sched.emit(EventKind.NET_RECV, obj=pipe.obj,
                           info={"link": f"{pipe.src}->{pipe.dst}",
                                 "seq": seq,
                                 "latency": sched.clock.now - sent_at})
            return payload, True, True
        if pipe.aborted or (pipe.closed and pipe.in_flight == 0):
            return None, False, False
        return None, False, True

    def __iter__(self) -> Iterator[Any]:
        """Iterate payloads until EOF, like ``for v := range ch``."""
        while True:
            payload, ok = self.recv_ok()
            if not ok:
                return
            yield payload

    # ------------------------------------------------------------------
    # Close / half-close
    # ------------------------------------------------------------------

    def close_write(self) -> None:
        """Half-close: no more sends from this side; the peer sees EOF
        after draining.  Panics if the write side is already closed."""
        self._sched.schedule_point()
        if self._out.closed:
            raise GoPanic("close of closed connection")
        self._out.closed = True
        self._sched.emit(EventKind.NET_CLOSE, obj=self._out.obj,
                         info={"conn": f"{self.local}<->{self.remote}",
                               "half": True})
        # Peer receivers may now be able to complete their EOF check.
        self._out.wake_all()

    def close(self) -> None:
        """Close both directions.  Panics on double close."""
        self._sched.schedule_point()
        if self._closed:
            raise GoPanic("close of closed connection")
        self._shutdown()

    def shutdown(self) -> None:
        """Idempotent close, for teardown paths (node stop, defer-style
        cleanup) where double-close must not panic."""
        if not self._closed:
            self._shutdown()

    def _shutdown(self) -> None:
        self._closed = True
        if not self._out.closed:
            self._out.closed = True
            self._out.wake_all()
        # Abort our read side: local receivers unblock with EOF and
        # anything still arriving is discarded.
        self._in.aborted = True
        self._sched.emit(EventKind.NET_CLOSE, obj=self._in.obj,
                         info={"conn": f"{self.local}<->{self.remote}",
                               "half": False})
        self._in.wake_all()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"<Conn {self.local}<->{self.remote} {state}>"


class Listener:
    """A bound address accepting connections (create via ``node.listen``)."""

    def __init__(self, rt: "Runtime", net: "Network", node_name: str,
                 addr: str, backlog: int = 16):
        self._rt = rt
        self._net = net
        self.node_name = node_name
        self.addr = addr
        self.closed = False
        # A real simulated channel: backlog pressure, close-wakes-accepts
        # and deterministic handoff all come for free.
        self.incoming = rt.make_chan(backlog, name=f"listener:{addr}")
        net.bind(addr, self)

    def accept(self) -> Conn:
        """Block until a connection arrives.  Raises :class:`NetError`
        once the listener is closed and the backlog is drained."""
        conn, ok = self.incoming.recv_ok()
        if not ok:
            raise NetError(f"accept {self.addr}: listener closed")
        return conn

    def accept_loop(self) -> Iterator[Conn]:
        """Iterate accepted connections until the listener closes."""
        return iter(self.incoming)

    def close(self) -> None:
        """Unbind and wake pending accepts.  Idempotent."""
        if self.closed:
            return
        self.closed = True
        self._net.unbind(self.addr)
        self.incoming.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"<Listener {self.addr} {state}>"


def dial(net: "Network", src: str, addr: str) -> Conn:
    """Connect from node ``src`` to ``addr`` (``"node:port"``).

    Models one RTT of handshake latency on the link, then hands the server
    side to the listener's backlog.  Raises :class:`NetError` when the
    address is unbound, the backlog is full, or a partition separates the
    endpoints (checked both before and after the handshake, so a partition
    landing mid-handshake also refuses).
    """
    rt = net._rt
    sched = net._sched
    sched.schedule_point()
    net.stats["dials"] += 1
    dst = addr.split(":", 1)[0]
    sched.emit(EventKind.NET_DIAL, info={"src": src, "addr": addr})

    def refuse(reason: str) -> NetError:
        net._log_line(f"DIAL {src}->{addr} {reason}")
        return NetError(f"dial {addr} from {src}: {reason}")

    if not net.reachable(src, dst):
        raise refuse("host unreachable")
    listener = net.lookup(addr)
    if listener is None or listener.closed:
        raise refuse("connection refused")

    rtt = 2.0 * net.link(src, dst).latency
    if rtt > 0:
        rt.sleep(rtt)
        if not net.reachable(src, dst):
            raise refuse("host unreachable")
        listener = net.lookup(addr)
        if listener is None or listener.closed:
            raise refuse("connection refused")

    client, server = Conn.pair(rt, net, src, dst)
    try:
        accepted = listener.incoming.try_send(server)
    except GoPanic:
        accepted = False
    if not accepted:
        raise refuse("connection refused (backlog full)")
    net._log_line(f"DIAL {src}->{addr} ok")
    return client
