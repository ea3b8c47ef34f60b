"""SHA-256 of the reference command outputs, for checking that a change keeps them.

Runs a fixed set of ``ssnno`` commands in a temporary directory with
single-threaded BLAS and prints one ``sha256 name`` line per output file
(manifests are left out: they hold wall-clock times).  Run it in two checkouts
and diff the output:

    python3 tools/output_hashes.py            # this checkout
    python3 tools/output_hashes.py OTHER_ROOT # the checkout at OTHER_ROOT

The commands: ``generate --seed 0``; ``generate --seed 7 --n-samples 360
--split 200 --n-steps 18``; ``train --repair --max-iter 40 --seed 7`` on that
data; ``reduce --delta 0.0005`` of the fixture full model on the seed-0 data;
and the 300-step fixture ``mpc`` run with plant noise.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = (
    ("generate", "--seed", "0", "--out", "seed0.csv"),
    ("generate", "--seed", "7", "--n-samples", "360", "--split", "200", "--n-steps", "18",
     "--out", "seed7.csv"),
    ("train", "--data", "seed7.csv", "--repair", "--max-iter", "40", "--seed", "7",
     "--out", "model.json"),
    ("reduce", "--model", "{fixture}/full_model.json", "--data", "seed0.csv", "--delta", "0.0005",
     "--out", "reduced.json"),
    ("mpc", "--reduced-model", "{fixture}/reduced_model.json", "--full-model",
     "{fixture}/full_model.json", "--steps", "300", "--targets", "0.5,0.6,0.4,0.7,0.55",
     "--plant-noise-std", "0.02", "--out", "mpc_log.csv"),
)


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    fixture = root / "benchmarks" / "fixture"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryDirectory() as work:
        for command in COMMANDS:
            args = [a.format(fixture=fixture) for a in command]
            subprocess.run([sys.executable, "-m", "ssnno.cli", *args], cwd=work, env=env,
                           check=True, stdout=subprocess.DEVNULL)
            out = Path(work) / args[args.index("--out") + 1]
            manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
            for entry in manifest["outputs"]:
                path = Path(work) / entry["path"]
                print(hashlib.sha256(path.read_bytes()).hexdigest(), path.name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
