"""Hash the outputs of every `hetclust` command in the README.

Usage: python tests/readme_outputs.py [--keep DIR] [--extra "hetclust ..."]...
       python tests/readme_outputs.py --compare OLD NEW

Takes the `hetclust ...` lines of the README's command block, joining
lines continued with a backslash, and runs them in README order in one
temporary directory, so that a later command can read an earlier one's
file.  The README uses constant weights only, so the fixed
`RANK_ONE_COMMANDS` run next, then the fixed `KERNEL_COMMANDS`,
`DECOMPOSE_COMMANDS`, `DENSE_COMMANDS` and `CONSTANT_COMMANDS`, then each
`--extra` command, all in the same directory.  The dense commands read
`w.csv`, a seeded symmetric weight matrix that the script writes into the
directory first.
It prints the first 16 hex digits of the sha256 of `w.csv`, then, for
every command, of its stdout, its stderr and every file it wrote or
changed.  Two checkouts whose listings are equal produce the same bytes
for these commands.  With `--keep DIR` the commands run in DIR, which
must be empty or absent, and their files stay there, with the stdout of
the k-th command in `stdout/<k>.txt`, so that two checkouts' outputs can
be compared number by number: `--compare OLD NEW` takes two such
directories and prints, for each file, `same`, or its old and new digests
and the largest change over the numbers that changed, relative to the
largest |x| in the file.

The commands run the package under `src/` of the checkout holding this
script, through `python -m hetclust.cli`.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
FENCE = "```"

# rank-one runs of `theory`, `decompose` and `mc`, whose numbers come from
# the product-form sums over non-constant w
RANK_ONE_COMMANDS = [
    "hetclust theory --n 300 --alpha 0.4 --weights rank1:grid:0.5,1 --dump-constants --out c.json",
    "hetclust theory --n 200 --alpha 0.3 --weights rank1:grid:0.3,1",
    "hetclust theory --n 500 --alpha 0.7 --weights rank1:grid:0.5,1",
    "hetclust theory --n 3000 --alpha 0.3 --weights rank1:grid:0.5,1",
    "hetclust decompose --n 200 --alpha 0.3 --weights rank1:grid:0.5,1 --stat triangles"
    " --replicates 200 --seed 2 --out d.csv",
    "hetclust decompose --n 200 --alpha 0.3 --weights rank1:grid:0.5,1 --stat clustering"
    " --replicates 200 --seed 2 --out dc.csv",
    "hetclust mc --n 200 --alpha 0.6 --weights rank1:grid:0.5,1 --stat triangles"
    " --replicates 200 --seed 2 --out r.csv",
    # `theory` at a size where one n x n array is 3.2 GB: the pair sums over
    # separable factors in O(n) memory
    "hetclust theory --n 20000 --alpha 0.7 --weights rank1:grid:0.5,1",
    # a sub-half `decompose` at ten times the cubic cap: the linear term
    # gathered at the edges, with no dense A - mu_matrix
    "hetclust decompose --n 3000 --alpha 0.3 --weights rank1:grid:0.5,1 --stat clustering"
    " --replicates 20 --seed 2 --out drl.csv",
]

# `sample` and `stats` on a graph each statistic reads through its dense
# per-edge sum kernel (n=1000, fill 25%) and on one read through the sparse
# kernel (n=2000, fill 0.5%)
KERNEL_COMMANDS = [
    "hetclust sample --n 1000 --alpha 0.2 --weights constant:1.0 --seed 7 --out dense.txt",
    "hetclust stats dense.txt",
    "hetclust sample --n 2000 --alpha 0.7 --weights constant:1.0 --seed 7 --out sparse.txt",
    "hetclust stats sparse.txt",
]

# `decompose` on each leading-term path: constant-weight triangles above
# alpha = 1/2 (the exact cubic term), constant-weight clustering below and at
# it (the exact linear term, then both), and rank-one clustering above it,
# which keeps the dense terms on B = A - mu_matrix
DECOMPOSE_COMMANDS = [
    "hetclust decompose --n 300 --alpha 0.7 --weights constant:1.0 --stat triangles"
    " --replicates 200 --seed 3 --out dt.csv",
    "hetclust decompose --n 300 --alpha 0.3 --weights constant:1.0 --stat clustering"
    " --replicates 200 --seed 3 --out dl.csv",
    "hetclust decompose --n 300 --alpha 0.5 --weights constant:1.0 --stat clustering"
    " --replicates 200 --seed 3 --out dh.csv",
    "hetclust decompose --n 200 --alpha 0.7 --weights rank1:grid:0.5,1 --stat clustering"
    " --replicates 200 --seed 3 --out dr.csv",
]

# `theory`, `sample`, `mc` and `decompose` on explicit dense weights, whose
# pair vector, theory constants and digest (`mu_sha1` in the JSON results)
# come from the rows of `w.csv`
DENSE_CSV, DENSE_N, DENSE_SEED = "w.csv", 60, 16
DENSE_COMMANDS = [
    f"hetclust theory --n {DENSE_N} --alpha 0.4 --weights dense:{DENSE_CSV}"
    " --dump-constants --out wc.json",
    f"hetclust sample --n {DENSE_N} --alpha 0.4 --weights dense:{DENSE_CSV} --seed 5 --out wg.txt",
    f"hetclust mc --n {DENSE_N} --alpha 0.4 --weights dense:{DENSE_CSV} --stat clustering"
    " --replicates 200 --seed 5 --out wr.json --format json",
    f"hetclust decompose --n {DENSE_N} --alpha 0.5 --weights dense:{DENSE_CSV} --stat triangles"
    " --replicates 200 --seed 5 --out wd.json --format json",
]

# constant weights, whose theory takes the rank-one product-form sums with
# w = 1 at probability p*c
CONSTANT_COMMANDS = [
    # `theory`: mean_cc_approx and mean_t_leading from power sums, no mu_matrix
    "hetclust theory --n 3000 --alpha 0.5 --weights constant:1.0",
    # the lemma3 centering, the one `mc` output that reads mean_cc_approx
    "hetclust mc --n 400 --alpha 0.4 --weights constant:1.0 --stat clustering --centering lemma3"
    " --replicates 200 --seed 1 --out lc.csv",
]


def write_dense_weights(path: Path) -> None:
    """A seeded symmetric DENSE_N x DENSE_N weight matrix: entries uniform on
    [0.5, 1] above the diagonal, mirrored below it, zero on it."""
    upper = np.triu(np.random.default_rng(DENSE_SEED).uniform(0.5, 1.0, (DENSE_N, DENSE_N)), 1)
    np.savetxt(path, upper + upper.T, delimiter=",", fmt="%.17g")


def readme_commands(text: str) -> list[str]:
    """The `hetclust` commands of the first fenced block that holds any."""
    blocks = text.split(FENCE)[1::2]  # the insides of the fenced blocks
    for block in blocks:
        joined = block.replace("\\\n", " ")
        commands = [
            " ".join(line.split())
            for line in joined.splitlines()
            if line.strip().startswith("hetclust ")
        ]
        if commands:
            return commands
    return []


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _snapshot(workdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir()) if p.is_file()}


def run_commands(commands: list[str], workdir: Path) -> list[str]:
    """Run each command in `workdir`; one listing line per output.  The
    stdout of the k-th command is also kept in `stdout/<k>.txt` there."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    lines = []
    for k, command in enumerate(commands):
        argv = shlex.split(command)
        before = _snapshot(workdir)
        proc = subprocess.run(
            [sys.executable, "-m", "hetclust.cli", *argv[1:]],
            cwd=workdir, env=env, capture_output=True,
        )
        (workdir / "stdout").mkdir(exist_ok=True)
        (workdir / "stdout" / f"{k:02d}.txt").write_bytes(proc.stdout)
        lines.append(f"$ {command}")
        lines.append(f"  exit {proc.returncode}")
        lines.append(f"  stdout {_digest(proc.stdout)}")
        lines.append(f"  stderr {_digest(proc.stderr)}")
        for name, data in _snapshot(workdir).items():
            if before.get(name) != data:
                lines.append(f"  {name} {_digest(data)}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--extra", action="append", default=[], metavar="COMMAND",
        help="a further `hetclust ...` command to run after the fixed ones",
    )
    parser.add_argument(
        "--keep", metavar="DIR", type=Path,
        help="run in DIR (empty or absent) and keep the files written there",
    )
    parser.add_argument(
        "--compare", nargs=2, metavar=("OLD", "NEW"), type=Path,
        help="compare the files of two --keep directories instead of running",
    )
    args = parser.parse_args(argv)
    if args.compare:
        for line in compare_dirs(*args.compare):
            print(line)
        return 0
    readme = readme_commands((ROOT / "README.md").read_text())
    commands = (
        readme + RANK_ONE_COMMANDS + KERNEL_COMMANDS + DECOMPOSE_COMMANDS + DENSE_COMMANDS
        + CONSTANT_COMMANDS + args.extra
    )
    if args.keep is None:
        with tempfile.TemporaryDirectory(prefix="readme-outputs-") as tmp:
            list_outputs(commands, Path(tmp))
        return 0
    args.keep.mkdir(parents=True, exist_ok=True)
    if any(args.keep.iterdir()):
        parser.error(f"--keep directory {args.keep} is not empty")
    list_outputs(commands, args.keep)
    return 0


def list_outputs(commands: list[str], workdir: Path) -> None:
    """Write `w.csv` into `workdir`, run the commands there, print the listing."""
    weights = workdir / DENSE_CSV
    write_dense_weights(weights)
    print(f"{DENSE_CSV} {_digest(weights.read_bytes())}")
    for line in run_commands(commands, workdir):
        print(line)


# a decimal number standing alone, not a run of digits inside a word or digest
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def compare_text(old: str, new: str) -> str:
    """How `new` differs from `old`: the count of numbers that changed, the
    largest change relative to the largest |x| of either and to the number
    itself, or a note that the text around the numbers changed."""
    if NUMBER.split(old) != NUMBER.split(new):
        return "text differs"
    pairs = [(float(a), float(b)) for a, b in zip(NUMBER.findall(old), NUMBER.findall(new))]
    changed = [(abs(a - b), max(abs(a), abs(b))) for a, b in pairs if a != b]
    if not changed:
        return "numbers equal, written differently"
    scale = max(max(abs(a), abs(b)) for a, b in pairs)
    largest = max(d for d, _ in changed) / scale
    own = max(d / x for d, x in changed)
    return (f"{len(changed)} numbers changed, largest by {largest:.2g} of max |x|"
            f" ({own:.2g} of its own value)")


def compare_dirs(old: Path, new: Path) -> list[str]:
    """One line per file of either directory, `stdout/` included."""
    names = sorted({p.relative_to(d).as_posix() for d in (old, new) for p in d.rglob("*")
                    if p.is_file()})
    lines = []
    for name in names:
        a, b = old / name, new / name
        if not (a.is_file() and b.is_file()):
            lines.append(f"{name}: only in {old if a.is_file() else new}")
        elif a.read_bytes() == b.read_bytes():
            lines.append(f"{name}: same")
        else:
            da, db = _digest(a.read_bytes()), _digest(b.read_bytes())
            diff = compare_text(a.read_text(), b.read_text())
            lines.append(f"{name}: {da} -> {db}, {diff}")
    return lines


if __name__ == "__main__":
    sys.exit(main())
