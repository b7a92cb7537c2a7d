"""Command-line front end.

The subcommands are the keys of `_SUBCOMMANDS`, each with its handler.
Graphs travel as graph6 strings (or edge-list files via --format
edgelist).  Exit codes: 0 success, 1 failed theorem check,
2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import booldim as booldim_mod
from .boolfn import BooleanFunction
from .classes import ClassTag, enumerate_members
from .decompose import (
    class_L_decomposition,
    partition_complementation_sequence,
    twin_decomposition,
    vizing_matchings,
    xor_normal_form,
)
from .errors import BoolcombError, MalformedInput
from .extremal import DEFAULT_SEED, hnk, hnk_report, verify_all, verify_theorem
from .gformats import emit_graph, parse_graph
from .graphs import Graph, apply_boolean, combine
from .invariants import compute_params
from .labeling import EquivalenceScheme, compose

_SINGLE_GRAPH_DECOMPOSITIONS = {
    "vizing": vizing_matchings,
    "twin": twin_decomposition,
    "classL": class_L_decomposition,
}


def _read_graph(text: str, fmt: str) -> Graph:
    return parse_graph(sys.stdin.read() if text == "-" else text, fmt)


def _params(args) -> int:
    g = _read_graph(args.graph, args.format)
    print(compute_params(g).to_json())
    return 0


def _combine(args) -> int:
    graphs = [_read_graph(t, args.format) for t in args.graphs]
    if args.op.startswith("fn:"):
        f = BooleanFunction.from_text(args.op[3:])
        result = apply_boolean(f, graphs)
    elif args.op in ("union", "intersect", "xor"):
        result = combine(args.op, graphs)
    else:
        raise MalformedInput(f"unknown --op {args.op!r}")
    print(emit_graph(result))
    return 0


def _decompose(args) -> int:
    graphs = [_read_graph(t, args.format) for t in args.graphs]
    if args.method == "pcseq":
        seq = partition_complementation_sequence(graphs)
        print(json.dumps([[sorted(b) for b in p.blocks] for p in seq]))
        return 0
    if args.method == "xornf":
        if not args.fn:
            raise MalformedInput("xornf needs --fn")
        f = BooleanFunction.from_text(args.fn)
        d = xor_normal_form(f, graphs, ClassTag.from_text(args.class_tag))
    elif len(graphs) != 1:
        raise MalformedInput(f"{args.method} decomposes one graph, got {len(graphs)}")
    else:
        d = _SINGLE_GRAPH_DECOMPOSITIONS[args.method](graphs[0])
    print(json.dumps(d.to_json_dict()))
    return 0


def _hnk(args) -> int:
    if args.report:
        print(hnk_report(args.n, args.k).to_json())
    else:
        print(emit_graph(hnk(args.n, args.k)))
    return 0


def _verify(args) -> int:
    if args.theorem == "all":
        checks = verify_all(args.seed)
    else:
        checks = [verify_theorem(args.theorem, args.seed)]
    print(json.dumps([c.to_json_dict() for c in checks], indent=2))
    return 0 if all(c.passed for c in checks) else 1


def _booldim(args) -> int:
    g = _read_graph(args.target, "graph6")
    tag = ClassTag.from_text(args.class_tag)
    if args.mode:
        witness = booldim_mod.restricted_dimension(g, tag, args.mode, args.kmax, budget=args.budget)
    else:
        witness = booldim_mod.boolean_dimension(g, tag, args.kmax, budget=args.budget)
    if witness is None:
        print(json.dumps({"found": False, "exhausted_k": args.kmax}))
    else:
        print(json.dumps({"found": True, **witness.to_json_dict()}))
    return 0


def _label(args) -> int:
    graphs = [_read_graph(t, args.format) for t in args.graphs]
    if args.fn:
        f = BooleanFunction.from_text(args.fn)
    else:
        f = BooleanFunction.projection(len(graphs), 1)
    schemes = [EquivalenceScheme] * f.arity
    labels, descriptor = compose(f, schemes, graphs)
    hex_labels = {str(v): lab.to_hex() for v, lab in enumerate(labels)}
    print(json.dumps({"scheme": descriptor.to_json_dict(), "labels": hex_labels}))
    return 0


def _enumerate(args) -> int:
    tag = ClassTag.from_text(args.class_tag)
    for g in enumerate_members(tag, args.n):
        print(emit_graph(g))
    return 0


_FORMAT = ("--format", dict(default="graph6", choices=["graph6", "edgelist"]))

# name -> (handler, help, [(argument, add_argument keywords), ...]), in usage order
_SUBCOMMANDS = {
    "params": (_params, "exact parameter report for a graph", [
        ("graph", dict(help="graph6 string, or - for stdin")),
        _FORMAT,
    ]),
    "combine": (_combine, "boolean combination of graphs", [
        ("--op", dict(required=True, help="union | intersect | xor | fn:<arity>:<hex>")),
        ("graphs", dict(nargs="+", help="graph6 strings")),
        _FORMAT,
    ]),
    "decompose": (_decompose, "certified decompositions", [
        ("--method", dict(required=True, choices=["vizing", "twin", "classL", "xornf", "pcseq"])),
        ("graphs", dict(nargs="+", help="graph6 strings (xornf/pcseq take several)")),
        ("--fn", dict(help="boolean function for xornf, e.g. 2:0xe")),
        ("--class", dict(dest="class_tag", default="equiv", help="class tag for xornf")),
        _FORMAT,
    ]),
    "hnk": (_hnk, "the odd-agreements graph on [n]^k", [
        ("n", dict(type=int)),
        ("k", dict(type=int)),
        ("--report", dict(action="store_true", help="emit the bounds report instead of graph6")),
    ]),
    "verify": (_verify, "run theorem checks", [
        ("theorem", dict(help="a catalogue id, or 'all'")),
        ("--seed", dict(type=int, default=DEFAULT_SEED)),
    ]),
    "booldim": (_booldim, "boolean dimension search", [
        ("--target", dict(required=True, help="graph6 string")),
        ("--class", dict(dest="class_tag", required=True, help="class tag, e.g. equiv")),
        ("--kmax", dict(type=int, required=True)),
        ("--mode", dict(choices=["union", "intersect", "xor"], help="restrict f to a fold")),
        ("--budget", dict(type=int, default=booldim_mod.DEFAULT_BUDGET)),
    ]),
    "label": (_label, "adjacency labels for a boolean combination", [
        ("--fn", dict(help="boolean function, e.g. 2:0x6 (default: identity)")),
        ("graphs", dict(nargs="+", help="graph6 strings of equivalence graphs")),
        _FORMAT,
    ]),
    "enumerate": (_enumerate, "all labeled members of a class", [
        ("--class", dict(dest="class_tag", required=True)),
        ("--n", dict(type=int, required=True)),
    ]),
}


def _parser(name: str | None = None) -> argparse.ArgumentParser:
    """The parser of `boolcomb <name>` alone, or with no name the whole
    CLI, each subcommand's parser under the `command` choice."""
    if name is None:
        parser = argparse.ArgumentParser(
            prog="boolcomb",
            description="Boolean combinations of graphs: operators, decompositions, "
            "exact invariants, and desk-scale theorem checks.",
        )
        sub = parser.add_subparsers(dest="command", required=True)
        named = [(sub.add_parser(command, help=help_text), command)
                 for command, (_, help_text, _) in _SUBCOMMANDS.items()]
    else:
        parser = argparse.ArgumentParser(prog=f"boolcomb {name}")
        named = [(parser, name)]
    for p, command in named:
        run, _, arguments = _SUBCOMMANDS[command]
        for argument, keywords in arguments:
            p.add_argument(argument, **keywords)
        p.set_defaults(run=run)
    return parser


def main(argv: list[str]) -> int:
    try:
        if argv[:1] == ["--"] and argv[1:2] and argv[1] in _SUBCOMMANDS:
            # argparse would hand the "--" itself to the command slot
            argv = argv[1:]
        if argv and argv[0] in _SUBCOMMANDS:
            # what the whole CLI's parser does with a subcommand's leftovers
            args, extra = _parser(argv[0]).parse_known_args(argv[1:])
            if extra:
                _parser().error(f"unrecognized arguments: {' '.join(extra)}")
        else:
            args = _parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except BoolcombError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cli_main() -> None:
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; point fd 1 at devnull so the
        # interpreter's final flush does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    cli_main()
