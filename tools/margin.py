"""How far the acceptance suite's best-of-five training run sits from failing criteria 5 and 6.

    python3 tools/margin.py            # this checkout
    python3 tools/margin.py OTHER_ROOT # the checkout at OTHER_ROOT

Criteria 5 and 6 of ``tests/test_acceptance.py`` score the ``best_of_five``
fixture: five seeds of ``TRAIN_BUDGET`` L-BFGS iterations on the CSTR data
set, where the lowest final loss wins.  A change that moves training by
roundoff can hand the win to another seed or push a variance across a
threshold.  This script trains the same five seeds from the root's
``tests/conftest.py`` constants and builders, with single-threaded BLAS, and
prints:

- each seed's final loss, whether its variances are ordered (criterion 5's
  slack) and its variances;
- the winner's loss relative to the best unordered seed's (a negative margin
  means the ordered winner is ahead by that much);
- V_x2 and V_x3 as multiples of criterion 6's thresholds 0.0005 and 0.001.
  Criterion 6 needs V_x2 in (0.0005, 0.001] and V_x3 <= 0.0005.

It ends with one ``FAILED`` line per criterion that would fail and a verdict
line, and exits 1 if either criterion fails.  It takes about 20-40 s.
``tools/compare.py`` runs it at two checkouts and diffs the lines.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THRESHOLDS = (0.0005, 0.001)


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    import conftest as c
    import ssnno as s

    data = getattr(c.cstr_dataset, "__wrapped__", c.cstr_dataset)()  # the fixture's builder
    arch, weights = c.experiment_arch(), c.experiment_weights()
    rows = []
    for seed in range(c.N_SEEDS):
        report = s.train(data, arch, weights, s.TrainConfig(max_iterations=c.TRAIN_BUDGET, seed=seed))
        loss = report.loss_history[-1].total
        ordered = s.is_variance_ordered(report.stats, 1e-12)
        variances = report.stats.variances
        rows.append((seed, loss, ordered, variances))
        print(f"seed {seed} loss {loss!r} ordered {ordered} variances "
              f"[{', '.join(f'{v:.4g}' for v in variances)}]", flush=True)

    winner = min(rows, key=lambda r: r[1])  # the first of equal losses, as the fixture keeps it
    print(f"winner seed {winner[0]} loss {winner[1]!r} ordered {winner[2]}")
    unordered = [r for r in rows if not r[2]]
    if unordered:
        best = min(unordered, key=lambda r: r[1])
        print(f"best unordered seed {best[0]} loss {best[1]!r}; winner margin "
              f"{(winner[1] - best[1]) / best[1]:+.4%}")
    else:
        print("best unordered seed: none, every seed is ordered")
    for name, v in (("V_x2", winner[3][1]), ("V_x3", winner[3][2])):
        print(f"{name} {v:.4g}: " + ", ".join(f"{v / t:.3f} x {t}" for t in THRESHOLDS))
    low, high = THRESHOLDS
    failures = []
    if not winner[2]:
        failures.append(f"criterion 5: the winner, seed {winner[0]}, is not variance-ordered")
    if not low < winner[3][1] <= high:
        failures.append(f"criterion 6: V_x2 {winner[3][1]:.4g} is outside ({low}, {high}]")
    if winner[3][2] > low:
        failures.append(f"criterion 6: V_x3 {winner[3][2]:.4g} is above {low}")
    for failure in failures:
        print(f"FAILED {failure}")
    print("criteria 5 and 6: " + ("fail" if failures else "pass"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
