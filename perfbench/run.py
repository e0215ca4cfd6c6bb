#!/usr/bin/env python3
"""Build the tka benchmark from source and run one workload.

Run from the root of a tka checkout:

    python3 perfbench/run.py --workload topk-batch --seed 1 --seconds 20 --trace 0

The arguments are passed to perfbench/main.exe (see perfbench/README.md);
its last line of standard output is the JSON result. Build chatter goes to
standard error. Everything the build and the run write stays inside the
checkout: dune's _build/ and .perfbench-out/ (span dumps, the serve socket,
compiler temporaries).
"""

import hashlib
import os
import pathlib
import subprocess
import sys

# A run must end within 180 s; the first one in a checkout also builds.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def source_id(root):
    """The git commit when there is one, else a hash of the sources."""
    if (root / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"],
                cwd=root, capture_output=True, text=True, timeout=10,
            )
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        p = root / top
        files = [p] if p.is_file() else sorted(f for f in p.rglob("*") if f.is_file())
        for f in files:
            if f.suffix in (".ml", ".mli") or f.name in ("dune", "dune-project"):
                h.update(str(f.relative_to(root)).encode())
                h.update(f.read_bytes())
    return "src-" + h.hexdigest()[:12]


def main():
    root = pathlib.Path.cwd()
    if not (root / "dune-project").is_file() or not (root / "lib").is_dir():
        print("run.py: no tka sources here (dune-project and lib/ are missing); "
              "run it from the root of a checkout", file=sys.stderr)
        return 2
    out = root / ".perfbench-out"
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=str(out / "tmp"))
    env.pop("TKA_JOBS", None)  # each workload pins its own pool size
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    exe = root / "_build" / "default" / "perfbench" / "main.exe"
    args = [str(exe), *sys.argv[1:], "--commit", source_id(root)]
    try:
        return subprocess.run(args, cwd=root, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
