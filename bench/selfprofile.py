"""Self-time profile of one pass over a workload's pool, by dimcalc module.

    python3 bench/selfprofile.py --workload laws|sweep|language|groups --seed N

Runs the pool once under cProfile (after a short warm-up) and prints each
module's share of self time, the share of ``is_prime`` and its calls per
item.  Time in the standard library counts under its own module, not under
the dimcalc module that called it.  The workload mixes are set from these
figures (see ``bench/meta.json``); this is not part of the timed benchmark.
"""

from __future__ import annotations

import argparse
import cProfile
import collections
import pstats
from pathlib import Path

import oracles
from run import OUT, ROOT, import_checkout, run_item
from workloads import WORKLOADS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    dimcalc = import_checkout()
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](dimcalc, oracles.load_support(ROOT), args.seed, OUT)
    for item in workload.trace_items:
        run_item(workload, item)
    profiler = cProfile.Profile()
    profiler.enable()
    for item in workload.items:
        run_item(workload, item)
    profiler.disable()

    by_module: collections.Counter[str] = collections.Counter()
    prime_s = prime_calls = 0
    for (file, _, function), (_, calls, self_s, _, _) in pstats.Stats(profiler).stats.items():
        module = Path(file).stem if file != "~" else "builtins"
        dimcalc_code = "dimcalc" in Path(file).parts
        by_module[f"dimcalc.{module}" if dimcalc_code else module] += self_s
        if dimcalc_code and function == "is_prime":
            prime_s += self_s
            prime_calls += calls
    total = sum(by_module.values())
    items = sum(workload.size(item) for item in workload.items)
    print(f"workload {args.workload}, seed {args.seed}: {items} items, {total:.3f} s self time")
    for module, self_s in by_module.most_common(8):
        print(f"  {module:24s} {100 * self_s / total:5.1f}%")
    print(f"  is_prime: {100 * prime_s / total:.1f}% of self time, "
          f"{prime_calls / items:.2f} calls per item")


if __name__ == "__main__":
    main()
