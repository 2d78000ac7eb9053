"""The benchmark workloads: seeded streams of CLI items.

An item is one ``chainflux <command> --config <file>`` call. Item ``i >= 1``
of a workload is drawn from ``random.Random("<workload>:<seed>:<i>")``, so
the same seed always gives the same configs, and two items of one run never
share their continuous parameters (a solve cache can only hit inside an
item, never across items). Item 0 is the warm-up item of the set-up; it is
the same for every seed, so the set-up time does not depend on the seed.

Symmetry items cycle their bath family (two target_z, one twisted_xy)
rather than drawing it: the latency median of a run must sit inside one
cluster of item costs, whatever the seed, or it would jump between clusters
from run to run. An odd cycle also gives the odd (traced) and the even
(untraced) items of a traced run the same mix of families.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass

SIZES = ("full", "toy")

# The default direction-scan grid of the symmetry command (cli.cmd_symmetry).
SYMMETRY_GRID = (0.2, 0.5, 0.8)

FAMILY_CYCLE = ("target_z", "target_z", "twisted_xy")


@dataclass(frozen=True)
class Item:
    """One CLI call and what its output must look like."""

    command: str
    config: dict
    expect: dict


def symmetry_repeat(rng: random.Random, index: int, size: str) -> Item:
    n_sites = 4 if size == "full" else 3
    family = FAMILY_CYCLE[index % 3]
    drive = rng.choice(SYMMETRY_GRID)
    if family == "target_z":
        bath = {"family": family, "f": drive, "gamma": rng.uniform(0.7, 1.5)}
        grid = SYMMETRY_GRID
    else:
        bath = {"family": family, "k": drive, "rate": rng.uniform(0.7, 1.5)}
        grid = (drive,)
    # Below a smallest coupling of about 0.45 the exchange energy current of a
    # graded chain changes sign between drives 0.2 and 0.8, so direction_overall
    # is physically false there; stay where the certification holds.
    model = {"n_sites": n_sites, "alpha": 1.0, "delta_mean": rng.uniform(1.0, 1.4),
             "delta_step": rng.uniform(0.1, 0.4)}
    return Item("symmetry", {"model": model, "bath": bath},
                {"n_sites": n_sites, "family": family, "grid": grid})


def classical_rectify(rng: random.Random, index: int, size: str) -> Item:
    n_sites = rng.randint(40, 56) if size == "full" else rng.randint(9, 11)
    c_first, c_last = rng.uniform(0.5, 1.5), rng.uniform(2.0, 4.0)
    if rng.random() < 0.5:
        c_first, c_last = c_last, c_first
    step = (c_last - c_first) / (n_sites - 1)
    hot, cold = rng.uniform(1.2, 2.0), rng.uniform(0.4, 0.9)
    t_left, t_right = (hot, cold) if rng.random() < 0.5 else (cold, hot)
    # alpha_exp = 0 is left out: the program's own alpha_exp = 0 self-check
    # refuses some valid chains (test_perfbench.KNOWN_REFUSAL).
    alphas = (rng.uniform(0.2, 0.5), rng.uniform(0.8, 1.5))
    config = {
        "classical": {
            "c": [c_first + j * step for j in range(n_sites)],
            "t_left": t_left,
            "t_right": t_right,
        },
        "sweep": {"parameter": "alpha_exp", "grid": list(alphas)},
    }
    return Item("classical", config, {"n_sites": n_sites, "alphas": alphas})


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[random.Random, int, str], Item]

    def item(self, seed: int, index: int, size: str) -> Item:
        key = f"{self.name}:warm-up" if index == 0 else f"{self.name}:{seed}:{index}"
        return self.make(random.Random(key), index, size)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("symmetry_repeat_n4", symmetry_repeat),
        Workload("classical_rectify", classical_rectify),
    )
}
