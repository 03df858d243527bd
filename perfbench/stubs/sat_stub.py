#!/usr/bin/env python3
"""Stand-in SAT solver for the benchmark: DIMACS in, 's'/'v' lines out.

A self-contained DPLL with two watched literals and chronological
backtracking.  It imports nothing from syncword, so its cost depends only on
the formula it is given, not on the code under test.

Usage: sat_stub.py FILE.cnf   (exit 10 satisfiable, 20 unsatisfiable)
"""

import sys


def parse_dimacs(text):
    nvars = 0
    clauses = []
    current = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line[0] == "c":
            continue
        if line[0] == "p":
            nvars = int(line.split()[2])
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                current.append(lit)
    return nvars, clauses


def solve(nvars, clauses):
    """Return a total model as a list of signed literals, or None."""
    val = [0] * (nvars + 1)  # 0 unknown, 1 true, -1 false
    # Literal l indexes watch[l]; negative literals land in the upper half.
    watch = [[] for _ in range(2 * nvars + 1)]
    units = []
    for ci, cl in enumerate(clauses):
        if len(cl) == 1:
            units.append(cl[0])
        else:
            watch[cl[0]].append(ci)
            watch[cl[1]].append(ci)
    trail = []

    def value(lit):
        v = val[lit if lit > 0 else -lit]
        return v if lit > 0 else -v

    def assign(lit):
        val[lit if lit > 0 else -lit] = 1 if lit > 0 else -1
        trail.append(lit)

    def propagate(head):
        while head < len(trail):
            false_lit = -trail[head]
            head += 1
            ws = watch[false_lit]
            i = 0
            while i < len(ws):
                cl = clauses[ws[i]]
                if cl[0] == false_lit:
                    cl[0], cl[1] = cl[1], cl[0]
                if value(cl[0]) == 1:
                    i += 1
                    continue
                moved = False
                for j in range(2, len(cl)):
                    if value(cl[j]) != -1:
                        cl[1], cl[j] = cl[j], cl[1]
                        watch[cl[1]].append(ws[i])
                        ws[i] = ws[-1]
                        ws.pop()
                        moved = True
                        break
                if moved:
                    continue
                first = value(cl[0])
                if first == -1:
                    return False
                if first == 0:
                    assign(cl[0])
                i += 1
        return True

    def undo(mark):
        while len(trail) > mark:
            lit = trail.pop()
            val[lit if lit > 0 else -lit] = 0

    for lit in units:
        v = value(lit)
        if v == -1:
            return None
        if v == 0:
            assign(lit)
    if not propagate(0):
        return None
    decisions = []  # (trail mark, decision literal, already flipped)
    while True:
        var = next((v for v in range(1, nvars + 1) if val[v] == 0), 0)
        if var == 0:
            return [v if val[v] == 1 else -v for v in range(1, nvars + 1)]
        mark = len(trail)
        decisions.append((mark, var, False))
        assign(var)
        while not propagate(mark):
            while decisions and decisions[-1][2]:
                undo(decisions.pop()[0])
            if not decisions:
                return None
            mark, lit, _ = decisions.pop()
            undo(mark)
            decisions.append((mark, -lit, True))
            assign(-lit)


def main():
    with open(sys.argv[1]) as fh:
        nvars, clauses = parse_dimacs(fh.read())
    model = solve(nvars, clauses)
    if model is None:
        print("s UNSATISFIABLE")
        return 20
    print("s SATISFIABLE")
    for i in range(0, len(model), 20):
        print("v " + " ".join(str(lit) for lit in model[i:i + 20]))
    print("v 0")
    return 10


if __name__ == "__main__":
    sys.exit(main())
