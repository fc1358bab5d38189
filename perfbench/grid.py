"""Time both profile engines over the (group, |A|) grid the set workloads use.

    PYTHONPATH=src python3 perfbench/grid.py

Prints one markdown row per case: group, order, |A|, factor shape, and the
best of three calls (one call when it takes over a second) of
rep_profile_naive and rep_profile_fast, in ms.  Takes about half a minute.
"""

import random
import time
from math import prod

from repfn.groups import Group, GroupSubset
from repfn.profiles import rep_profile_fast, rep_profile_naive

GRID = [
    ("Z_65536", [65536], 363),
    ("Z_65536", [65536], 4096),
    ("Z_65536", [65536], 32768),
    ("Z_161203", [161203], 402),
    ("Z_2^14", [2] * 14, 128),
    ("Z_2^12", [2] * 12, 64),
    ("Z_2^12", [2] * 12, 2048),
    ("Z_16^3", [16] * 3, 2048),
    ("Z_4xZ_5xZ_7xZ_9", [4, 5, 7, 9], 51),
    ("Z_4xZ_5xZ_7xZ_9", [4, 5, 7, 9], 630),
]


def best_ms(fn, a) -> float:
    times = []
    while len(times) < 3 and sum(times) < 1.0:
        t0 = time.perf_counter()
        fn(a)
        times.append(time.perf_counter() - t0)
    return 1000 * min(times)


def main() -> None:
    rng = random.Random(0)
    print("| group | order | \\|A\\| | factors | naive ms | packed ms |")
    print("|---|---|---|---|---|---|")
    for name, orders, size in GRID:
        group = Group(tuple(orders))
        a = GroupSubset.from_elements(group, rng.sample(range(prod(orders)), size))
        naive, fast = best_ms(rep_profile_naive, a), best_ms(rep_profile_fast, a)
        shape = "x".join(map(str, orders)) if len(orders) < 5 else f"{orders[0]}^{len(orders)}"
        print(f"| {name} | {prod(orders)} | {size} | {shape} | {naive:.1f} | {fast:.1f} |")


if __name__ == "__main__":
    main()
