"""Closed-loop profile of the serving path at ``online_gateway``'s shape.

Builds a 2-shard memory index (sift, n_base = 2400, NSG graphs, PQ
16 x 256), saves it, and serves it the way the ``online_gateway``
workload of ``benchmarks/e2e`` deploys it: two ``serve-shard`` workers
and one ``experiment serve --listen`` gateway, all child processes of
this script, and one pipelined ``NetClient`` in this process holding 64
single-row requests (k = 10, beam 32) in flight.  After a warm-up it
replays a fixed, seeded sequence of requests — half from a hot set of
64 queries, half uniform over the pool — and prints, under a header
naming the gateway's batch size and per-connection admission cap:

* the micro-batch size histogram: the rows of one micro-batch share
  their ``batcher_dequeue_s`` stamp;
* CPU milliseconds per answered query for each process — ``utime +
  stime`` from ``/proc/<pid>/stat``, before and after the closed loop —
  and their sum;
* voluntary context switches per answered query for each process — the
  ``voluntary_ctxt_switches`` line of ``/proc/<pid>/task/*/status``,
  summed over the process's threads (``/proc/<pid>/status`` counts the
  main thread only, and the work runs on others);
* the sha256 of every answer (ids, distances, counts, hops, distance
  computations) in request order, and how many answers differ from the
  in-process index answering the same rows.

Equal digests between two checkouts mean the serving path answers bit
for bit alike, however it batches.  Run it with ``PYTHONPATH=<other
checkout>/src`` to profile another version; the children use the same
``repro`` the script imported.

    cd benchmarks && python profile_gateway.py      # ~15 s
    REPRO_SMOKE=1 python profile_gateway.py         # toy size, ~3 s

Plain script, not a pytest bench: profiles are for humans reading a
breakdown, and nothing in it is timing-gated.  It exits 1 on a wrong
answer or an unclean exit, which is what ``make ci`` checks at the
smoke size.
"""

from __future__ import annotations

import os

#: One BLAS thread in every process, so four processes on two cores
#: measure the program and not the scheduler.
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
os.environ.update(THREAD_ENV)

import hashlib  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro.api import (  # noqa: E402
    GraphSpec,
    IndexSpec,
    QuantizerSpec,
    ScenarioSpec,
    SearchRequest,
    ShardingSpec,
    build,
    load_index,
    save_index,
)
from repro.cli import build_parser  # noqa: E402
from repro.datasets import load  # noqa: E402
from repro.serving.net import Gateway, NetClient  # noqa: E402

SMOKE = os.environ.get("REPRO_SMOKE") == "1"
N_BASE = 400 if SMOKE else 2400
POOL = 128 if SMOKE else 1024
HOT = 16 if SMOKE else 64
NUM_CHUNKS = 8 if SMOKE else 16
NUM_CODEWORDS = 16 if SMOKE else 256
INFLIGHT = 16 if SMOKE else 64
REQUESTS = 400 if SMOKE else 6000
WARMUP = 64
K, BEAM, SHARDS, SEED = 10, 32, 2, 41
TIMEOUT_S = 60.0
#: Upper edges of the micro-batch size histogram's buckets.
BUCKETS = (1, 4, 8, 16, 32, 64)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def setup(tmp: str):
    """Build and save the index; return its directory, the query pool
    and the in-process reference answers for the whole pool."""
    data = load("sift", n_base=N_BASE, n_queries=POOL, seed=0)
    spec = IndexSpec(
        graph=GraphSpec(kind="nsg"),
        quantizer=QuantizerSpec(
            kind="pq", num_chunks=NUM_CHUNKS, num_codewords=NUM_CODEWORDS
        ),
        scenario=ScenarioSpec(kind="memory"),
        sharding=ShardingSpec(num_shards=SHARDS),
    )
    built = build(spec, data=data.base)
    index_dir = os.path.join(tmp, "index")
    try:
        save_index(built, index_dir)
    finally:
        built.close()
    index = load_index(index_dir)
    try:
        reference = index.search(
            SearchRequest(data.queries, k=K, beam_width=BEAM)
        )
    finally:
        index.close()
    return index_dir, data.queries, reference


def spawn(args, log_path: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    with open(log_path, "w") as log:
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *args],
            stdout=log,
            stderr=subprocess.STDOUT,
            env=env,
        )


def await_address(proc: subprocess.Popen, path: str, marker: str) -> str:
    deadline = time.monotonic() + TIMEOUT_S
    while time.monotonic() < deadline:
        if os.path.exists(path):
            with open(path) as handle:
                for line in handle:
                    if marker in line:
                        return line.strip().rsplit(" ", 1)[-1]
        if proc.poll() is not None:
            break
        time.sleep(0.01)
    raise RuntimeError(f"no {marker!r} in {path} (exit code {proc.poll()})")


def terminate(procs) -> list:
    """SIGTERM in reverse start order (the gateway holds connections to
    the workers), kill what does not drain; returns the bad exits."""
    bad = []
    for name, proc in reversed(procs):
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
        if code != 0:
            bad.append(f"{name} exited {code}")
    return bad


def cpu_seconds(pid) -> float:
    """``utime + stime`` of ``pid`` (``"self"`` for this process)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # Fields 14 and 15 of stat(5), counted after the command name.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def voluntary_switches(pid) -> int:
    """Voluntary context switches of every live thread of ``pid``."""
    total = 0
    task_dir = f"/proc/{pid}/task"
    for tid in os.listdir(task_dir):
        try:
            with open(f"{task_dir}/{tid}/status") as handle:
                for line in handle:
                    if line.startswith("voluntary_ctxt_switches:"):
                        total += int(line.split()[1])
        except FileNotFoundError:
            pass  # the thread exited after the listing
    return total


def sample(pid) -> np.ndarray:
    """``[CPU seconds, voluntary context switches]`` of ``pid`` so far."""
    return np.array([cpu_seconds(pid), voluntary_switches(pid)])


def admission(gateway_args) -> tuple:
    """``(max batch size, per-connection admission cap)`` of the gateway
    ``experiment serve`` builds from ``gateway_args`` — taken from the
    CLI's and the gateway's own defaults, so each checkout reports its
    own."""
    args = build_parser().parse_args(gateway_args)
    gateway = Gateway(
        None, max_batch_size=args.batch_size, max_wait_ms=args.wait_ms
    )
    try:
        return args.batch_size, gateway._max_inflight_per_conn
    finally:
        gateway.close_sync()


def closed_loop(client: NetClient, queries: np.ndarray, picks) -> list:
    """Every pick as one single-row request, ``INFLIGHT`` outstanding."""
    slots = threading.Semaphore(INFLIGHT)
    futures = []
    for pick in picks:
        if not slots.acquire(timeout=TIMEOUT_S):
            raise RuntimeError("the gateway stopped answering")
        future = client.submit_request(
            SearchRequest(queries[pick : pick + 1], k=K, beam_width=BEAM)
        )
        future.add_done_callback(lambda _f: slots.release())
        futures.append(future)
    return [future.result(timeout=TIMEOUT_S) for future in futures]


def draw(rng: np.random.Generator, hot: np.ndarray, count: int):
    """Half the picks from the hot set, half uniform over the pool."""
    uniform = rng.integers(POOL, size=count)
    hot_picks = hot[rng.integers(HOT, size=count)]
    return np.where(rng.random(count) < 0.5, hot_picks, uniform)


def report(responses, picks, reference, usage, wall_s, limits) -> int:
    """Print the profile; returns how many answers differ from the
    in-process index."""
    answered = len(responses)
    batch_size, cap = limits
    print(
        f"online_gateway closed loop (sift, n {N_BASE}, {SHARDS} shards, "
        f"PQ {NUM_CHUNKS} x {NUM_CODEWORDS}, {INFLIGHT} in flight, "
        f"batch {batch_size}, admission cap {cap}, "
        f"{answered} requests, {answered / wall_s:.0f} QPS)"
    )
    stamps = [float(r.counters["batcher_dequeue_s"][0]) for r in responses]
    sizes = list(Counter(stamps).values())
    print(
        f"micro-batches: {len(sizes)}, mean {np.mean(sizes):.1f} rows, "
        f"max {max(sizes)}"
    )
    low = 0
    for high in BUCKETS:
        inside = [s for s in sizes if low < s <= high]
        label = f"{low + 1}-{high}" if high > low + 1 else f"{high}"
        print(
            f"  {label:>6} rows  {len(inside):6d} batches  "
            f"{sum(inside) / answered:6.1%} of rows"
        )
        low = high
    print("per answered query:")
    print(f"  {'':<8} {'CPU ms':>12} {'voluntary ctx switches':>22}")
    for name, (seconds, switches) in {
        **usage,
        "total": sum(usage.values()),
    }.items():
        print(
            f"  {name:<8} {seconds / answered * 1e3:12.3f} "
            f"{switches / answered:22.2f}"
        )

    digest = hashlib.sha256()
    wrong = 0
    for pick, response in zip(picks, responses):
        for array in (
            response.ids,
            response.distances,
            response.counts,
            response.counters["hops"],
            response.counters["distance_computations"],
        ):
            digest.update(np.ascontiguousarray(array).tobytes())
        wrong += not (
            np.array_equal(response.ids[0], reference.ids[pick])
            and np.array_equal(response.distances[0], reference.distances[pick])
        )
    print(f"answers differing from in-process: {wrong}")
    print(f"sha256 answers {digest.hexdigest()}")
    return wrong


def main() -> int:
    procs = []
    client = None
    with tempfile.TemporaryDirectory() as tmp:
        index_dir, queries, reference = setup(tmp)
        try:
            endpoints = []
            for shard in range(SHARDS):
                ready = os.path.join(tmp, f"ready_{shard}")
                args = ["serve-shard", "--dir"]
                args += [os.path.join(index_dir, f"shard_{shard:03d}")]
                proc = spawn(args + ["--ready-file", ready], ready + ".log")
                procs.append((f"shard{shard}", proc))
                endpoints.append(await_address(proc, ready, "listening on"))
            log = os.path.join(tmp, "gateway.log")
            args = ["experiment", "serve", "--listen", "127.0.0.1:0"]
            args += ["--dir", index_dir, "--endpoints", ",".join(endpoints)]
            limits = admission(args)
            proc = spawn(args, log)
            procs.append(("gateway", proc))
            client = NetClient(await_address(proc, log, "gateway listening on"))

            rng = np.random.default_rng(SEED)
            hot = rng.permutation(POOL)[:HOT]
            closed_loop(client, queries, draw(rng, hot, WARMUP))
            picks = draw(rng, hot, REQUESTS)
            pids = {name: p.pid for name, p in procs}
            pids["client"] = "self"
            before = {name: sample(pid) for name, pid in pids.items()}
            start = time.perf_counter()
            responses = closed_loop(client, queries, picks)
            wall_s = time.perf_counter() - start
            usage = {
                name: sample(pid) - before[name]
                for name, pid in pids.items()
            }
        finally:
            if client is not None:
                client.close()
            bad = terminate(procs)
    wrong = report(responses, picks, reference, usage, wall_s, limits)
    if bad:
        print(f"unclean exits: {', '.join(bad)}")
    return 1 if bad or wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
