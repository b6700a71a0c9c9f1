"""The serve floor: a benchmark-owned einsum server (never imports ``repro``).

    python3 perfbench/floor_server.py

Speaks the same request shape as ``repro.serve`` (``POST /query`` with
``{"kind": "einsum", "spec": ..., "operands": [{"entries": ..., "dims":
...}]}`` over HTTP/1.1 keep-alive), decodes the operands into dense
numpy arrays, forks a child per request that runs ``numpy.einsum`` and
pipes the result back, and encodes the nonzeros as ``{"result":
{"entries": [[i, j, v], ...]}}``.  It prints ``FLOOR_READY host:port``
once listening and exits on SIGTERM.
"""

import asyncio
import json
import os
import signal
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def decode(doc):
    ops = []
    for obj in doc["operands"]:
        a = np.zeros(obj["dims"])
        for coords, v in obj["entries"]:
            a[tuple(coords)] = v
        ops.append(a)
    return doc["spec"], ops


def compute_in_child(spec, ops):
    """Fork; the child computes and pipes the result back."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(r)
            out = np.einsum(spec, *ops)
            data = np.ascontiguousarray(out, dtype=np.float64)
            header = json.dumps(list(data.shape)).encode() + b"\n"
            with os.fdopen(w, "wb") as fh:
                fh.write(header + data.tobytes())
        finally:
            os._exit(0)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        header = fh.readline()
        body = fh.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError("floor child failed")
    shape = json.loads(header)
    return np.frombuffer(body, dtype=np.float64).reshape(shape)


def encode(out):
    idx = np.nonzero(out)
    entries = [[*map(int, c), float(out[c])] for c in zip(*idx)] if out.ndim else [[float(out)]]
    return json.dumps({"result": {"entries": entries}}).encode()


async def handle(reader, writer, pool):
    loop = asyncio.get_running_loop()
    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            length = 0
            while True:
                h = await reader.readline()
                if h in (b"\r\n", b"\n", b""):
                    break
                k, _, v = h.decode().partition(":")
                if k.strip().lower() == "content-length":
                    length = int(v)
            body = await reader.readexactly(length)
            spec, ops = decode(json.loads(body))
            out = await loop.run_in_executor(pool, compute_in_child, spec, ops)
            payload = encode(out)
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                         b"Content-Length: " + str(len(payload)).encode()
                         + b"\r\n\r\n" + payload)
            await writer.drain()
    except (ConnectionError, asyncio.IncompleteReadError):
        pass
    finally:
        writer.close()


async def main():
    pool = ThreadPoolExecutor(8)
    server = await asyncio.start_server(lambda r, w: handle(r, w, pool), "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    print(f"FLOOR_READY {host}:{port}", flush=True)
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    async with server:
        await stop.wait()
    pool.shutdown(wait=True)


if __name__ == "__main__":
    asyncio.run(main())
    sys.exit(0)
