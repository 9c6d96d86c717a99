"""A closed-loop JSON-lines client for ``repro.cli serve --port 0``.

:class:`Daemon` starts the daemon as a subprocess, waits for its
``serving on`` line and the first ``pong``, and always stops it (and
waits for it) on exit.  :meth:`Daemon.closed_loop` keeps a fixed number
of ``run`` requests outstanding on one TCP connection and times each one
from send to its final answer.
"""

from __future__ import annotations

import json
import os
import queue
import re
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: answers that end a request; anything else (``accepted``, ``event``)
#: is progress
FINAL = ("result", "error", "busy")

#: seconds any single daemon answer may take before the run is abandoned
ANSWER_TIMEOUT_S = 150.0

_LISTENING = re.compile(r"serving on 127\.0\.0\.1:(\d+)")


class DaemonError(RuntimeError):
    """The daemon did not start, answer or stop as the protocol says."""


class Daemon:
    """One ``repro.cli serve`` subprocess and one client connection."""

    def __init__(self, root: Path, store: Path, jobs: int = 2):
        self.root = root
        self.store = store
        self.jobs = jobs
        self.proc: Optional[subprocess.Popen] = None
        self.sock: Optional[socket.socket] = None
        self._rfile = None
        self._stderr: "queue.Queue[str]" = queue.Queue()
        self._drain: Optional[threading.Thread] = None
        self.setup_s = 0.0

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "Daemon":
        """Spawn the daemon; ``setup_s`` is spawn to first ``pong``."""
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        begin = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--isolation", "process", "--jobs", str(self.jobs),
             "--store", str(self.store)],
            cwd=str(self.root), env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self._drain = threading.Thread(target=self._read_stderr, daemon=True)
        self._drain.start()
        port = self._await_port()
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=ANSWER_TIMEOUT_S)
        self._rfile = self.sock.makefile("r", encoding="utf-8")
        self.send({"op": "ping", "id": "ping"})
        self.await_type("pong")
        self.setup_s = time.perf_counter() - begin
        return self

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self._stderr.put(line)
        self._stderr.put("")  # end of stream: the daemon exited

    def _await_port(self) -> int:
        deadline = time.monotonic() + ANSWER_TIMEOUT_S
        seen: List[str] = []
        while time.monotonic() < deadline:
            try:
                line = self._stderr.get(timeout=deadline - time.monotonic())
            except queue.Empty:
                break
            if line == "":
                raise DaemonError("daemon exited before listening: "
                                  + "".join(seen[-5:]))
            seen.append(line)
            match = _LISTENING.search(line)
            if match:
                return int(match.group(1))
        raise DaemonError("daemon did not report its port in time")

    def stop(self) -> None:
        """Shut the daemon down, killing it if it does not exit in time,
        and wait until it and the stderr reader have ended."""
        try:
            if self.sock is not None:
                try:
                    self.send({"op": "shutdown", "id": "bye"})
                    self.await_type("bye")
                except (OSError, DaemonError, ValueError):
                    pass
            elif self.proc is not None:
                self.proc.kill()  # never connected: nothing to drain
        finally:
            for handle in (self._rfile, self.sock):
                if handle is not None:
                    try:
                        handle.close()
                    except OSError:
                        pass
            self._rfile = self.sock = None
            if self.proc is not None:
                try:
                    self.proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            if self._drain is not None:
                self._drain.join(timeout=10)

    def __enter__(self) -> "Daemon":
        try:
            return self.start()
        except BaseException:
            self.stop()
            raise

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- protocol ----------------------------------------------------------------

    def send(self, request: Dict[str, Any]) -> None:
        self.sock.sendall((json.dumps(request) + "\n").encode("utf-8"))

    def receive(self) -> Dict[str, Any]:
        try:
            line = self._rfile.readline()
        except socket.timeout as exc:
            raise DaemonError("daemon answer timed out") from exc
        if not line:
            raise DaemonError("daemon closed the connection")
        return json.loads(line)

    def await_type(self, kind: str) -> Dict[str, Any]:
        while True:
            answer = self.receive()
            if answer.get("type") == kind:
                return answer

    def closed_loop(
        self, requests: Sequence[Dict[str, Any]], outstanding: int = 2,
    ) -> Tuple[List[Tuple[float, float, Dict[str, Any]]], float]:
        """Send ``requests`` keeping ``outstanding`` in flight; returns
        ``([(sent, answered, final answer)] in request order, flush_s)``.

        Each request's ``id`` is its index.  The run ends with ``flush``,
        whose round trip is ``flush_s``.
        """
        answers: List[Optional[Tuple[float, float, Dict[str, Any]]]] = (
            [None] * len(requests)
        )
        sent_at: Dict[int, float] = {}
        following = 0

        def send_next() -> None:
            nonlocal following
            request = dict(requests[following], id=following)
            sent_at[following] = time.perf_counter()
            self.send(request)
            following += 1

        while following < min(outstanding, len(requests)):
            send_next()
        done = 0
        while done < len(requests):
            answer = self.receive()
            rid = answer.get("id")
            if answer.get("type") not in FINAL or not isinstance(rid, int):
                continue
            answers[rid] = (sent_at[rid], time.perf_counter(), answer)
            done += 1
            if following < len(requests):
                send_next()
        start = time.perf_counter()
        self.send({"op": "flush", "id": "flush"})
        self.await_type("flushed")
        return answers, time.perf_counter() - start
