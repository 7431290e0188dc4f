"""Persistent forked workers fed over a pipe: the one process protocol
behind campaign shards and served sweep batches.

A worker answers every message with ``handler(message)``.  It first
closes the supervisor-side pipe ends the fork copied into it (a copy
left open would keep a pipe from reaching end-of-file when the
supervisor dies), ignores SIGINT, and exits when its pipe reaches
end-of-file, so none outlives a killed supervisor.  An exception from
the handler ends the process: the supervisor counts a worker death.
"""

from __future__ import annotations

import multiprocessing
import signal
from dataclasses import dataclass
from multiprocessing.connection import Connection
from typing import Callable

__all__ = ["Worker", "retire", "spawn_context", "start_worker"]


def spawn_context():
    """Fork where the platform has it (cheap, and the workers inherit
    the parent's tables copy-on-write); the default context otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else None
    )


@dataclass
class Worker:
    """A worker process and the supervisor's end of its pipe; ``task``
    is what it runs (``None`` while idle)."""

    process: multiprocessing.Process
    conn: Connection
    task: object = None
    deadline: float = 0.0


def _loop(handler: Callable, inbox, inherited: list) -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for connection in inherited:
        connection.close()
    while True:
        try:
            message = inbox.recv()
        except (EOFError, OSError):  # the supervisor closed or died
            return
        reply = handler(message)
        try:
            inbox.send(reply)
        except OSError:  # the supervisor is gone
            return


def start_worker(context, handler: Callable, peers: list[Worker]) -> Worker:
    """Fork a worker on a fresh pipe; the child is handed every
    supervisor-side end it inherits (``peers``' and its own) to close."""
    conn, inbox = context.Pipe()
    process = context.Process(
        target=_loop,
        args=(handler, inbox, [peer.conn for peer in peers] + [conn]),
        daemon=True,
    )
    process.start()
    inbox.close()
    return Worker(process=process, conn=conn)


def retire(worker: Worker, grace: float = 0.0) -> None:
    """Close the worker's pipe (it exits once its task, if any, is done)
    and reap it, terminating, then killing it after ``grace`` seconds."""
    worker.conn.close()
    process = worker.process
    process.join(grace)
    if process.is_alive():
        process.terminate()
        process.join(1.0)
        if process.is_alive():  # pragma: no cover - stubborn child
            process.kill()
            process.join()
