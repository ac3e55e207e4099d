"""End-to-end network-tier smoke: CLI workers + gateway, bitwise pin.

Run by ``make smoke-net`` (part of ``make ci``).  The script exercises
the full deployment shape through the real CLI entry points:

1. build a 2-shard memory index and persist it;
2. start one ``repro serve-shard`` subprocess per shard directory;
3. start an ``experiment serve --listen`` gateway subprocess pointed
   at the saved index with ``--endpoints`` flipping it onto the socket
   workers;
4. search through ``NetClient`` and assert the answers are bitwise
   identical to the in-process index;
5. SIGTERM everything and assert every process drains and exits 0.

Exit status 0 means the whole chain held; any assertion or timeout is
a non-zero failure.
"""

import os
import signal
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

import numpy as np  # noqa: E402

from repro.api import (  # noqa: E402
    DatasetSpec,
    IndexSpec,
    QuantizerSpec,
    SearchRequest,
    ShardingSpec,
    save_index,
)
from repro.eval import Workbench, laptop_graph  # noqa: E402
from repro.serving.net import NetClient  # noqa: E402

VOLATILE_COUNTERS = {"workspace_reused"}


def spawn_cli(args):
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )


def await_line(proc, marker, timeout_s=120.0):
    deadline = time.monotonic() + timeout_s
    lines = []
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        lines.append(line)
        if marker in line:
            return line.strip().rsplit(" ", 1)[-1]
    raise RuntimeError(
        f"no {marker!r} line within {timeout_s}s; output so far:\n"
        + "".join(lines)
    )


def await_ready_file(path, timeout_s=120.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if os.path.exists(path):
            with open(path) as handle:
                text = handle.read().strip()
            if "listening on" in text:
                return text.rsplit(" ", 1)[-1]
        time.sleep(0.05)
    raise RuntimeError(f"ready file {path} never reported an endpoint")


def assert_identical(response, expected):
    np.testing.assert_array_equal(response.ids, expected.ids)
    np.testing.assert_array_equal(response.distances, expected.distances)
    np.testing.assert_array_equal(response.counts, expected.counts)
    for name, values in expected.counters.items():
        if name.startswith("batcher_") or name in VOLATILE_COUNTERS:
            continue
        np.testing.assert_array_equal(
            response.counters[name], values, err_msg=name
        )


def terminate_and_check(name, proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    code = proc.wait(timeout=60)
    if code != 0:
        raise RuntimeError(f"{name} exited {code} after SIGTERM")
    print(f"  {name}: clean exit 0")


def main():
    bench = Workbench()
    spec = IndexSpec(
        dataset=DatasetSpec("sift", n_base=160, n_queries=6, seed=5),
        graph=laptop_graph("vamana", seed=5),
        quantizer=QuantizerSpec("pq", num_chunks=8, num_codewords=16),
        sharding=ShardingSpec(num_shards=2),
    )
    index = bench.build(spec)
    request = SearchRequest(
        queries=bench.dataset(spec).queries, k=5, beam_width=16
    )
    expected = index.search(request)

    procs = []
    try:
        with tempfile.TemporaryDirectory(prefix="smoke-net-") as tmp:
            index_dir = os.path.join(tmp, "index")
            save_index(index, index_dir)

            endpoints = []
            for shard in range(2):
                ready = os.path.join(tmp, f"ready_{shard}")
                proc = spawn_cli(
                    [
                        "serve-shard",
                        "--dir",
                        os.path.join(index_dir, f"shard_{shard:03d}"),
                        "--ready-file",
                        ready,
                    ]
                )
                procs.append((f"serve-shard[{shard}]", proc))
                endpoints.append(await_ready_file(ready))
            print(f"  workers up: {', '.join(endpoints)}")

            gateway = spawn_cli(
                [
                    "experiment",
                    "serve",
                    "--listen",
                    "127.0.0.1:0",
                    "--dir",
                    index_dir,
                    "--endpoints",
                    ",".join(endpoints),
                ]
            )
            procs.append(("gateway", gateway))
            address = await_line(gateway, "gateway listening on")
            print(f"  gateway up: {address}")

            with NetClient(address) as client:
                for _ in range(3):
                    assert_identical(client.search(request), expected)
            print(
                "  bitwise identity: NetClient -> gateway -> "
                "socket shards == in-process"
            )

            # Gateway first (it holds client connections to the
            # workers), then the workers; each must drain and exit 0.
            for name, proc in reversed(procs):
                terminate_and_check(name, proc)
            procs = [p for p in procs if p[1].poll() is None]
    finally:
        for _, proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        index.close()

    print("SMOKE-NET OK")


if __name__ == "__main__":
    main()
