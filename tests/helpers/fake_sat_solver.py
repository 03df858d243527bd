#!/usr/bin/env python3
"""Stand-in SAT solver for adapter tests: DIMACS in, standard s/v lines out.

It reads only what `write_dimacs` writes, and exits with no output unless the
file has a "p cnf V C" line and exactly C 0-terminated clauses, so the adapter
reports a malformed file as a solver failure.
"""

import sys

from syncword.satenc import CnfInstance, solve_internal


def read_dimacs(text):
    lines = [l for l in text.splitlines() if l.strip() and not l.startswith("c")]
    p, fmt, nvars, nclauses = lines[0].split()
    clauses, current = [], []
    for tok in " ".join(lines[1:]).split():
        if tok == "0":
            clauses.append(current)
            current = []
        else:
            current.append(int(tok))
    if (p, fmt) != ("p", "cnf") or current or len(clauses) != int(nclauses):
        sys.exit(1)
    return CnfInstance(int(nvars), clauses)


def main() -> int:
    cnf = read_dimacs(open(sys.argv[1]).read())
    model = solve_internal(cnf)
    if model is None:
        print("s UNSATISFIABLE")
        return 20
    print("s SATISFIABLE")
    lits = [v if val else -v for v, val in sorted(model.items())]
    for i in range(0, len(lits), 20):
        print("v " + " ".join(str(l) for l in lits[i:i + 20]))
    print("v 0")
    return 10


if __name__ == "__main__":
    sys.exit(main())
