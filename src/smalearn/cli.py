"""Command-line workbench.

Subcommands: ``learn`` (identify a target machine through the simulated
teacher), ``random`` (generate a random target file), ``equiv`` (compare two
automaton files), and ``export`` (write a builtin benchmark to a file).
Machine-readable results go to stdout, diagnostics and traces to stderr.

Exit codes: 0 success, 1 I/O or file-format failure, 2 invalid input or
learning failure, 3 automata differ (``equiv`` only).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .algebra import AlgebraError, format_char
from .automata import AutomatonError, SMealy, symbolic_equiv
from .bench import BUILTIN_NAMES, RandomSpec, make_builtin, random_sma
from .learner import LearningError, learn
from .oracle import Oracle, OracleAssumptionViolation

STATS_COLUMNS = ["name", "states", "transitions", "eq_queries", "output_queries",
                 "sigmaE", "final_R", "final_E", "max_cex_len", "seed", "runtime_ms"]


def _err(msg):
    print(f"smalearn: {msg}", file=sys.stderr)


def _load(path):
    """The machine in the file at ``path``, or None after a one-line diagnostic."""
    try:
        return SMealy.load(path)
    except OSError as exc:
        _err(f"cannot read {path}: {exc}")
    except (json.JSONDecodeError, RecursionError, UnicodeDecodeError, AutomatonError,
            AlgebraError) as exc:  # RecursionError: JSON nested too deeply to decode
        _err(f"cannot parse {path}: {exc}")
    return None


def cmd_learn(args) -> int:
    if args.reps < 1:
        _err(f"--reps must be at least 1, got {args.reps}")
        return 2
    if args.bench:
        try:
            target, name = make_builtin(args.bench), args.bench
        except ValueError as exc:
            _err(str(exc))
            return 2
    else:
        target, name = _load(args.target), args.target
        if target is None:
            return 1

    violations = target.validate()
    if violations:
        for v in violations:
            _err(str(v))
        return 2
    if args.oracle == "random" and args.seed is None:
        _err("--seed is required with --oracle random")
        return 2
    a0 = None
    if args.init is not None:
        try:
            a0 = target.algebra.char_from_json(json.loads(args.init))
        except (json.JSONDecodeError, RecursionError, AlgebraError) as exc:
            _err(f"bad --init value: {exc}")
            return 2

    rows = []
    learned = None
    for rep in range(args.reps):
        seed = (args.seed + rep) if args.seed is not None else None
        trace = [] if args.trace else None
        try:
            oracle = Oracle(target, mode=args.oracle, seed=seed)
            learned, stats = learn(oracle, target.algebra, a0=a0, trace=trace)
        except (LearningError, OracleAssumptionViolation, AlgebraError) as exc:
            _err(f"learning failed: {exc}")
            return 2
        if trace:
            for event in trace:
                _print_trace_line(event)
        rows.append({
            "name": name, "states": learned.n_states,
            "transitions": len(learned.transitions),
            "eq_queries": stats.eq_queries, "output_queries": stats.output_queries,
            "sigmaE": stats.sigma_e_size, "final_R": stats.r_size,
            "final_E": stats.e_size, "max_cex_len": stats.max_cex_len,
            "seed": "" if seed is None else seed,
            "runtime_ms": round(stats.wall_time * 1000, 1),
        })
        print(f"{name}: states={learned.n_states} eq={stats.eq_queries} "
              f"oq={stats.output_queries}")

    try:
        if args.stats:
            with open(args.stats, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=STATS_COLUMNS)
                writer.writeheader()
                writer.writerows(rows)
        if args.out:
            learned.save(args.out)
        if args.dot:
            with open(args.dot, "w") as fh:
                fh.write(learned.to_dot() + "\n")
    except OSError as exc:
        _err(f"write failed: {exc}")
        return 1
    return 0


def _print_trace_line(event):
    kind = event["event"]
    if kind == "repair":
        t = event["table"]
        _err(f"repair {event['kind']} |S|={len(t['S'])} |R|={len(t['R'])} "
             f"|sigmaE|={len(t['sigma_e'])} |E|={len(t['E'])}")
    elif kind == "counterexample":
        word = "·".join(format_char(a) for a in event["word"])
        _err(f"counterexample {word}")
    elif kind == "hypothesis":
        _err(f"hypothesis states={event['states']}")


def cmd_random(args) -> int:
    try:
        spec = RandomSpec(n=args.states, k=args.essential, seed=args.seed)
        machine = random_sma(spec)
    except ValueError as exc:
        _err(str(exc))
        return 2
    try:
        machine.save(args.out)
    except OSError as exc:
        _err(f"write failed: {exc}")
        return 1
    print(f"wrote {args.out}: states={machine.n_states} "
          f"transitions={len(machine.transitions)}")
    return 0


def cmd_equiv(args) -> int:
    machines = []
    for path in (args.fileA, args.fileB):  # one diagnostic: stop at the first bad file
        machines.append(_load(path))
        if machines[-1] is None:
            return 1
    for m, path in zip(machines, (args.fileA, args.fileB)):
        violations = m.validate()
        if violations:
            for v in violations:
                _err(f"{path}: {v}")
            return 2
    try:
        witness = symbolic_equiv(*machines)
    except AlgebraError as exc:
        _err(str(exc))
        return 2
    if witness is None:
        print("equal")
        return 0
    if machines[0].run(witness) == machines[1].run(witness):
        _err("internal error: witness does not distinguish the machines")
        return 2
    print(json.dumps(list(witness)))
    return 3


def cmd_export(args) -> int:
    if not (args.out or args.dot):
        _err("export needs --out or --dot")
        return 2
    try:
        machine = make_builtin(args.bench)
    except ValueError as exc:
        _err(str(exc))
        return 2
    try:
        if args.out:
            machine.save(args.out)
        if args.dot:
            with open(args.dot, "w") as fh:
                fh.write(machine.to_dot() + "\n")
    except OSError as exc:
        _err(f"write failed: {exc}")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smalearn",
        description="Active learning workbench for symbolic Mealy machines.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn", help="learn a target machine")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--target", help="automaton JSON file")
    src.add_argument("--bench", help=f"builtin name: {', '.join(BUILTIN_NAMES)}, lower:n,k")
    p.add_argument("--oracle", choices=("lexmin", "random"), default="lexmin")
    p.add_argument("--seed", type=int)
    p.add_argument("--init", help="initial character as JSON")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--stats", help="write per-repetition CSV here")
    p.add_argument("--dot", help="write learned automaton DOT here")
    p.add_argument("--out", help="write learned automaton JSON here")
    p.add_argument("--trace", action="store_true", help="log per-round events to stderr")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("random", help="generate a random target file")
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--essential", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("equiv", help="compare two automaton files")
    p.add_argument("fileA")
    p.add_argument("fileB")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("export", help="write a builtin benchmark to files")
    p.add_argument("--bench", required=True)
    p.add_argument("--out")
    p.add_argument("--dot")
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
