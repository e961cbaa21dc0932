"""Benchmark-side JSON-lines client: one connection, raw bytes.

The client is the benchmark's own code so that a change to
``repro.service.session`` cannot change how the doors are driven.
"""

from __future__ import annotations

import socket


class LineClient:
    """One persistent connection; requests and responses are lines."""

    def __init__(self, address, timeout: float = 60.0) -> None:
        self.sock = socket.create_connection(address, timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def send(self, line: bytes) -> None:
        self.sock.sendall(line + b"\n")

    def recv(self) -> bytes:
        line = self.rfile.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return line.rstrip(b"\n")

    def close(self) -> None:
        try:
            self.rfile.close()
        finally:
            self.sock.close()

    def __enter__(self) -> "LineClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
