"""End-to-end ``index migrate`` smoke through the real CLI.

Run by ``make smoke-migrate`` (part of ``make ci``):

1. ``repro index migrate`` the committed format-1 memory fixture
   (``tests/fixtures/index_v1/memory_hnsw``) into a temp directory;
2. ``repro index describe`` the result (must report format 2);
3. boot ``repro serve-shard --dir`` on it and answer one
   ``repro index search --connect`` over the wire;
4. SIGTERM the worker and assert it drains and exits 0;
5. ``repro index migrate`` the committed int64-era format-2 directory
   (``tests/fixtures/index_v2_int64/memory_hnsw``): every vertex-id
   section (``*neighbors`` / ``*_vertices``) must come out at exactly
   half the bytes and ``repro index search --dir`` must print the same
   answer line before and after.

Exit status 0 means every step held.
"""

import os
import re
import tempfile

from smoke_net import (
    REPO_ROOT,
    await_ready_file,
    spawn_cli,
    terminate_and_check,
)

FIXTURE = os.path.join(
    REPO_ROOT, "tests", "fixtures", "index_v1", "memory_hnsw"
)
FIXTURE_V2_INT64 = os.path.join(
    REPO_ROOT, "tests", "fixtures", "index_v2_int64", "memory_hnsw"
)
#: the dataset recipe the fixtures were built from (their spec.json)
QUERY_FLAGS = "--dataset deep --n-base 64 --n-queries 4 --seed 7".split()


def run_cli(args):
    proc = spawn_cli(args)
    out, _ = proc.communicate(timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(
            f"repro {' '.join(args)} exited {proc.returncode}:\n{out}"
        )
    return out


def id_section_bytes(dirpath):
    """``{section: bytes}`` of the vertex-id sections `describe` lists."""
    described = run_cli(["index", "describe", "--dir", dirpath])
    rows = re.findall(
        r"^  (\S+(?:neighbors|_vertices)): (\d+) bytes$", described, flags=re.M
    )
    return {name: int(size) for name, size in rows}


def migrate_int64_directory(tmp):
    out_dir = os.path.join(tmp, "narrowed")
    run_cli(["index", "migrate", "--dir", FIXTURE_V2_INT64, "--out", out_dir])
    before = id_section_bytes(FIXTURE_V2_INT64)
    after = id_section_bytes(out_dir)
    if not before or {k: 2 * v for k, v in after.items()} != before:
        raise RuntimeError(f"id sections not halved: {before} -> {after}")
    search = ["index", "search", "--k", "5"] + QUERY_FLAGS
    answers = [
        run_cli(search + ["--dir", d]) for d in (FIXTURE_V2_INT64, out_dir)
    ]
    if answers[0] != answers[1]:
        raise RuntimeError(f"answers moved: {answers}")
    print(
        f"  int64 -> int32 ids: {sum(before.values())} -> "
        f"{sum(after.values())} bytes, {answers[1].strip()}"
    )


def main():
    with tempfile.TemporaryDirectory(prefix="smoke-migrate-") as tmp:
        out_dir = os.path.join(tmp, "migrated")
        migrated = run_cli(
            ["index", "migrate", "--dir", FIXTURE, "--out", out_dir]
        )
        print(f"  {migrated.strip()}")
        described = run_cli(["index", "describe", "--dir", out_dir])
        if "format_version: 2\n" not in described:
            raise RuntimeError(f"not a format-2 directory:\n{described}")

        ready = os.path.join(tmp, "ready")
        worker = spawn_cli(
            ["serve-shard", "--dir", out_dir, "--ready-file", ready]
        )
        try:
            endpoint = await_ready_file(ready)
            print(f"  worker up: {endpoint}")
            answer = run_cli(
                ["index", "search", "--connect", endpoint, "--k", "5"]
                + QUERY_FLAGS
            )
            print(f"  {answer.strip()}")
            terminate_and_check("serve-shard", worker)
        finally:
            if worker.poll() is None:
                worker.kill()
                worker.wait(timeout=30)
        migrate_int64_directory(tmp)
    print("SMOKE-MIGRATE OK")


if __name__ == "__main__":
    main()
