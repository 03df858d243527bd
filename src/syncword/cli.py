"""Command-line surface.

Machine-readable results go to stdout, diagnostics to stderr.  Exit codes:
0 success, 1 no synchronizing sequence, 2 usage or input error,
3 infrastructure error: solver process or output, resource cap, or a witness
that fails verification.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys
from pathlib import Path

from syncword import aspenc, bench, satenc
from syncword.automaton import (
    Word,
    generate_cerny,
    generate_random,
    int_token,
    is_synchronizing_word,
    parse_fa,
    parse_kiss2,
    serialize_fa,
    word_to_letters,
)
from syncword.driver import METHODS, SearchConfig, find_shortest
from syncword.errors import ResourceLimitError, SolverError, SoundnessError
from syncword.exact import check_synchronizable, greedy_sync

EXIT_OK = 0
EXIT_NO_SYNC = 1
EXIT_USAGE = 2
EXIT_INFRA = 3


def _file(path: str, text: str | None = None) -> str | None:
    """Read a file the user named, or write `text` to it; OSError is a usage error."""
    try:
        if text is None:
            return Path(path).read_text()
        Path(path).write_text(text)
    except OSError as exc:
        raise ValueError(exc) from exc
    return None


def _load_fa(path: str):
    return parse_fa(_file(path))


def _emit(text: str, out: str | None) -> None:
    if out and out != "-":
        _file(out, text)
    else:
        sys.stdout.write(text)


def _print_word(word: Word | None) -> int:
    if word is None:
        print("not synchronizable")
        return EXIT_NO_SYNC
    print(f"length {len(word)}")
    print(f"witness {word_to_letters(word)}")
    return EXIT_OK


def _decimal(text: str) -> int:
    # argparse would name the type function in its message; name the rule instead.
    try:
        return int_token(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a decimal integer: {text!r}") from None


def _seconds(text: str) -> float:
    # ASCII decimals and the "inf" that sets no limit; float() also takes '1_0', ' 5', 'nan'.
    if not re.fullmatch(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?|inf", text):
        raise argparse.ArgumentTypeError(f"not a decimal number: {text!r}")
    return float(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syncword",
        description="Shortest synchronizing sequences for finite automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(*flags, parents=(), **kwargs) -> argparse.ArgumentParser:
        p = argparse.ArgumentParser(add_help=False, parents=list(parents))
        p.add_argument(*flags, **kwargs)
        return p

    fa = shared("fa", help="automaton file")
    bound = shared("-c", type=_decimal, required=True, dest="bound")
    out = shared("-o", dest="out", default="-")
    encoding = shared("--encoding", choices=satenc.ENCODINGS, default="image",
                      help="SAT encoding: image sets (default) or the paper's six groups")
    legacy = shared("--legacy-syntax", action="store_true", help="ASP syntax for older solvers")
    search = shared("--solver-cmd", parents=[encoding, legacy],
                    help="external solver command with a {file} placeholder")
    search.add_argument("--time-budget", type=_seconds,
                        help="seconds per probe, for every method; exceeding it exits 3")

    p = sub.add_parser("check", parents=[fa], help="is the automaton synchronizable?")
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("shortest", parents=[fa, search],
                       help="find a shortest synchronizing sequence")
    p.set_defaults(run=_cmd_shortest)
    p.add_argument("--method", choices=METHODS, default="bfs")

    p = sub.add_parser("greedy", parents=[fa], help="greedy upper-bound synchronizing sequence")
    p.set_defaults(run=_cmd_greedy)

    p = sub.add_parser("encode", help="emit a SAT or ASP encoding")
    p.set_defaults(run=_cmd_encode)
    enc_sub = p.add_subparsers(dest="target", required=True)
    enc_sub.add_parser("sat", parents=[fa, bound, out, encoding])
    q = enc_sub.add_parser("asp", parents=[fa, bound, out, legacy])
    q.add_argument("--formulation", choices=aspenc.FORMULATIONS, required=True)

    p = sub.add_parser("decode", help="decode an external solver model")
    p.set_defaults(run=_cmd_decode)
    dec_sub = p.add_subparsers(dest="target", required=True)
    q = dec_sub.add_parser("sat", parents=[fa, bound])
    q.add_argument("--model", required=True, help="file of signed literals (v-line payload)")

    p = sub.add_parser("gen", help="generate an automaton")
    p.set_defaults(run=_cmd_gen)
    gen_sub = p.add_subparsers(dest="family", required=True)
    q = gen_sub.add_parser("random")
    q.add_argument("-n", type=_decimal, required=True)
    q.add_argument("-k", type=_decimal, required=True)
    q.add_argument("--seed", type=_decimal, required=True)
    q.add_argument("--require-sync", action="store_true",
                   help="redraw with successive seeds until synchronizable")
    q = gen_sub.add_parser("cerny")
    q.add_argument("-n", type=_decimal, required=True)

    p = sub.add_parser("import", help="import a KISS2 machine as native format")
    p.set_defaults(run=_cmd_import)
    imp_sub = p.add_subparsers(dest="format", required=True)
    q = imp_sub.add_parser("kiss")
    q.add_argument("file")

    p = sub.add_parser("bench", parents=[search], help="seeded benchmark sweep")
    p.set_defaults(run=_cmd_bench)
    p.add_argument("--spec", required=True, help="n:k:count[,n:k:count...]")
    p.add_argument("--methods", required=True, help="comma-separated method list")
    p.add_argument("--seed", type=_decimal, required=True)
    p.add_argument("--csv", default="-", help="output path (default stdout)")
    p.add_argument("--table", action="store_true", help="also print an aligned table to stderr")

    return parser


def search_settings(args: argparse.Namespace) -> dict:
    """Every `SearchConfig` field but the method; a field with no flag raises."""
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(SearchConfig)
            if f.name != "method"}


def _cmd_check(args) -> int:
    a = _load_fa(args.fa)
    if check_synchronizable(a):
        print("synchronizable")
        return EXIT_OK
    print("not synchronizable")
    return EXIT_NO_SYNC


def _cmd_shortest(args) -> int:
    a = _load_fa(args.fa)
    outcome = find_shortest(a, SearchConfig(method=args.method, **search_settings(args)))
    for rec in outcome.calls if outcome else ():
        print(f"probe c={rec.c} {rec.verdict} {rec.wall_time * 1000:.1f}ms", file=sys.stderr)
    return _print_word(outcome.witness if outcome else None)


def _cmd_greedy(args) -> int:
    return _print_word(greedy_sync(_load_fa(args.fa)))


def _cmd_encode(args) -> int:
    a = _load_fa(args.fa)
    if args.target == "sat":
        text = satenc.write_dimacs(satenc.encode_sat(a, args.bound, args.encoding))
    else:
        text = aspenc.emit(a, args.formulation, args.bound, args.legacy_syntax).text
    _emit(text, args.out)
    return EXIT_OK


def _cmd_decode(args) -> int:
    a = _load_fa(args.fa)
    model = satenc.parse_model_literals(_file(args.model))
    word = satenc.decode_model(a, args.bound, model)
    if not is_synchronizing_word(a, word):
        raise SoundnessError(f"decoded witness {word_to_letters(word)} does not synchronize")
    print(f"witness {word_to_letters(word)}")
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.family == "cerny":
        sys.stdout.write(serialize_fa(generate_cerny(args.n)))
        return EXIT_OK
    seed = args.seed
    a = generate_random(args.n, args.k, seed)
    if args.require_sync:
        while not check_synchronizable(a):
            seed += 1
            a = generate_random(args.n, args.k, seed)
        if seed != args.seed:
            print(f"# drew seed {seed} after discarding non-synchronizable draws",
                  file=sys.stderr)
    sys.stdout.write(serialize_fa(a))
    return EXIT_OK


def _cmd_import(args) -> int:
    sys.stdout.write(serialize_fa(parse_kiss2(_file(args.file))))
    return EXIT_OK


def _parse_bench_spec(text: str) -> list[bench.BenchCell]:
    cells = []
    for chunk in text.split(","):
        parts = chunk.split(":")
        if len(parts) == 2 and parts[0] == "cerny":
            cells.append(bench.BenchCell(int_token(parts[1]), 2, 1, family="cerny"))
        elif len(parts) == 3:
            cells.append(bench.BenchCell(*map(int_token, parts)))
        else:
            raise ValueError(f"bad bench spec cell {chunk!r}, expected n:k:count or cerny:n")
    return cells


def _cmd_bench(args) -> int:
    cells = _parse_bench_spec(args.spec)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    _emit("", args.csv)  # truncate --csv first, as `>` would: a bad path fails before any solve
    csv_text = bench.bench_run(cells, methods, args.seed, **search_settings(args))
    _emit(csv_text, args.csv)
    if args.table:
        print(bench.render_table(csv_text), file=sys.stderr)
    return EXIT_OK


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.run(args)
    except ValueError as exc:  # ParseError and DecodeError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SolverError, SoundnessError, ResourceLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFRA


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
