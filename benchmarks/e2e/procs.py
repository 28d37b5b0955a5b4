"""Starting, measuring and stopping the program's processes.

Every server runs in its own session, so its whole process tree (shard
workers, resource trackers) can be found and killed by process group.
Stopping a server also checks that it left nothing behind: no process
in its group, no listener on its port, no new ``/dev/shm`` segment.
"""

from __future__ import annotations

import http.client
import os
import re
import signal
import socket
import subprocess
import time
from pathlib import Path

from common import SRC

_SERVING = re.compile(rb"serving on http://[^:\s]+:(\d+)")
POLL_SECONDS = 0.010


class BootError(RuntimeError):
    """The program exited or never became healthy."""


def program_env() -> dict[str, str]:
    """The environment children run in: this checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [part for part in
                      env.get("PYTHONPATH", "").split(os.pathsep) if part])
    return env


def _healthy(port: int) -> bool:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=1.0)
    try:
        connection.request("GET", "/healthz")
        response = connection.getresponse()
        response.read()
        return response.status == 200
    except (OSError, http.client.HTTPException):
        return False
    finally:
        connection.close()


def group_members(pgid: int) -> list[int]:
    """Live process ids whose process group is ``pgid``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # fields after the parenthesised command: state ppid pgrp ...
        fields = stat[stat.rfind(")") + 2:].split()
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry.name))
    return members


def pss_mib(pids) -> float:
    """Proportional set size summed over ``pids``, in MiB."""
    total_kib = 0
    for pid in pids:
        try:
            text = Path(f"/proc/{pid}/smaps_rollup").read_text()
        except OSError:
            continue
        match = re.search(r"^Pss:\s+(\d+) kB", text, re.MULTILINE)
        if match:
            total_kib += int(match.group(1))
    return total_kib / 1024.0


def shm_segments() -> set[str]:
    """Names currently in ``/dev/shm``."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def port_listening(port: int) -> bool:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.settimeout(1.0)
        return probe.connect_ex(("127.0.0.1", port)) == 0


class Server:
    """One program process serving HTTP on an OS-chosen port."""

    def __init__(self, argv: list[str], log_path: Path):
        self.argv = argv
        self.log_path = log_path
        self.process: subprocess.Popen | None = None
        self.port: int | None = None
        self._shm_before: set[str] = set()

    def boot(self, timeout: float = 120.0) -> float:
        """Spawn and wait for the first 200 from ``/healthz``, polled
        every 10 ms; returns the seconds from spawn to that answer."""
        self._shm_before = shm_segments()
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.log_path, "wb") as log:
            started = time.perf_counter()
            self.process = subprocess.Popen(
                self.argv, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, env=program_env(),
                start_new_session=True)
        deadline = started + timeout
        try:
            while time.perf_counter() < deadline:
                if self.process.poll() is not None:
                    raise BootError(f"server exited with code "
                                    f"{self.process.returncode}:\n"
                                    f"{self.log_tail()}")
                if self.port is None:
                    match = _SERVING.search(self.log_path.read_bytes())
                    if match:
                        self.port = int(match.group(1))
                if self.port is not None and _healthy(self.port):
                    return time.perf_counter() - started
                time.sleep(POLL_SECONDS)
            raise BootError(f"server not healthy after {timeout:.0f}s:\n"
                            f"{self.log_tail()}")
        except BaseException:
            # no caller holds a server that failed to boot, so nothing
            # else would stop what it started
            self.kill()
            raise

    def log_tail(self, lines: int = 20) -> str:
        try:
            text = self.log_path.read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])

    def pss_mib(self) -> float:
        """PSS of the server and every process in its tree."""
        return pss_mib(group_members(self.process.pid))

    def kill(self) -> None:
        """SIGKILL the whole process group and reap the server."""
        if self.process is None:
            return
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()

    def stop(self, timeout: float = 20.0) -> list[str]:
        """Interrupt the server as a user would (Ctrl-C), wait, then
        kill whatever is left; returns what it left behind."""
        problems: list[str] = []
        if self.process is None:
            return problems
        pgid = self.process.pid
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                problems.append(f"server ignored SIGINT for {timeout:.0f}s")
        # shard workers may take a moment to exit after their parent
        deadline = time.monotonic() + 5.0
        while group_members(pgid) and time.monotonic() < deadline:
            time.sleep(0.05)
        leftover = group_members(pgid)
        if leftover:
            problems.append(f"processes left running: {leftover}")
        self.kill()
        if self.port is not None and port_listening(self.port):
            problems.append(f"port {self.port} still listening")
        leaked = shm_segments() - self._shm_before
        if leaked:
            problems.append(f"shared-memory segments leaked: "
                            f"{sorted(leaked)}")
        return problems
