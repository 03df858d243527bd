"""Write expected.json: the default seed's set-up digest and the shortest
length of every instance, computed by the oracle's own subset BFS.

    python3 perfbench/make_expected.py

Run it only when a workload definition changes; the committed file is what
lets the benchmark check lengths without trusting the code under test.
"""

from __future__ import annotations

import json

import oracle
import run
import workloads


def main() -> None:
    out = {}
    for name in workloads.WORKLOADS:
        _, setup = workloads.setup(name, run.DEFAULT_SEED)
        lengths = {}
        for block in setup.blocks:
            for solve in block:
                if solve.instance not in lengths:
                    lengths[solve.instance] = oracle.shortest_length(solve.automaton.delta)
                if any(ref != lengths[solve.instance] for ref in solve.expected):
                    raise SystemExit(f"{name} {solve.instance}: set-up length {solve.expected}"
                                     f" != oracle length {lengths[solve.instance]}")
        out[name] = {"digest": setup.digest(), "lengths": lengths}
        print(name, len(lengths), "instances", flush=True)
    run.EXPECTED.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
