"""async-blocking fixture: blocking primitives inline in coroutines."""

import sqlite3
import time

import numpy as np


async def handle(request, future):
    # BAD: time.sleep stalls the loop; open blocks on file IO;
    # future.result() blocks until resolution.
    time.sleep(0.1)
    with open(request) as fh:
        payload = fh.read()
    return future.result(), payload


async def refit(strategy, zoo, target):
    # BAD: a strategy fit runs inline on the event loop.
    return strategy.fit(zoo, target)


async def lookup(index, fingerprint):
    # BAD: SQLite work is file IO (plus a database lock) on the loop.
    conn = sqlite3.connect("registry.db")
    return conn.execute("SELECT path FROM registry_index WHERE fp = ?",
                        (fingerprint,)).fetchall()


async def revive(path, report):
    # BAD: artifact and report file IO inline on the event loop.
    data = path.read_bytes()
    meta = path.with_suffix(".json").read_text()
    report.write_bytes(data)
    report.with_suffix(".txt").write_text(meta)
    return np.load(path)
