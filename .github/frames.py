"""Client for `lorentz serve`'s wire protocol, shared by the CI smoke steps.

A frame is a u32 big-endian byte length followed by that many bytes of
JSON. Run the steps from the checkout root with `PYTHONPATH=.github`, so
that `from frames import serve` finds this file and `serve` finds
`target/release/lorentz`.
"""

import json
import socket
import struct
import subprocess

LORENTZ = "target/release/lorentz"

# The resource path the WAL and promotion smokes read and send feedback for.
PATH = {"customer": 8, "subscription": 1, "resource_group": 1}
READ = dict(PATH, id=0)
FEEDBACK = dict(PATH, gamma=1)


def frame(obj):
    b = json.dumps(obj).encode()
    return struct.pack(">I", len(b)) + b


def recv(s):
    def exact(n):
        buf = b""
        while len(buf) < n:
            chunk = s.recv(n - len(buf))
            assert chunk, "server closed early"
            buf += chunk
        return buf

    return json.loads(exact(struct.unpack(">I", exact(4))[0]))


def connect(addr):
    host, port = addr.rsplit(":", 1)
    return socket.create_connection((host, int(port)))


def send(s, obj):
    """Sends one frame and returns the reply."""
    s.sendall(frame(obj))
    return recv(s)


class ServerExited(Exception):
    """The server exited before it printed `listening on`."""

    def __init__(self, code, stderr):
        super().__init__(f"serve exited {code} before listening:\n{stderr}")
        self.code = code
        self.stderr = stderr


def serve(flags, frames):
    """Starts `lorentz serve --listen 127.0.0.1:0 --json FLAGS`, waits for
    `listening on`, sends FRAMES and a drain frame in one write on one
    connection, and waits for the server to exit 0.

    Returns (replies, stderr, report): the reply to each frame in order
    (the drain ack checked and left out), the server's stderr text, and
    its `--json` report. Raises ServerExited if the server exits before it
    listens.
    """
    proc = subprocess.Popen(
        [LORENTZ, "serve", "--listen", "127.0.0.1:0", "--json", *flags],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    seen = ""
    while True:
        line = proc.stderr.readline()
        if not line:
            out, rest = proc.communicate(timeout=60)
            raise ServerExited(proc.returncode, seen + rest)
        seen += line
        if line.startswith("listening on "):
            addr = line.split()[2]
            break
    s = connect(addr)
    s.sendall(b"".join(frame(f) for f in [*frames, {"op": "drain"}]))
    replies = [recv(s) for _ in frames]
    assert recv(s) == {"ack": "drain"}
    out, rest = proc.communicate(timeout=60)
    stderr = seen + rest
    assert proc.returncode == 0, f"serve exited {proc.returncode}:\n{stderr}"
    return replies, stderr, json.loads(out)
