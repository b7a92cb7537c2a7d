"""The pinned CLI corpus: each argv in cli_corpus.json, run in-process
through `cli.main`, gives its recorded exit code and the recorded sha256
of stdout and of stderr, and gives the same again with its options in
reversed order and with its options ahead of its positional arguments.

The corpus holds booldim requests (every enumerable class tag in every
mode at n <= 7, a target with a witness and one without for ek:2 and
multipartite at n = 7 and d1 at n = 8, and each kind of refusal), `params` on graphs at
n = 0..17, on ten at n = 18..32 whose χ needs a search, and on a few
past the chromatic and clique caps, and
`hnk --report` on every shape with n^k <= 32 and on shapes up to and past
the clique cap, and `verify` on every catalogue id at three seeds, with
the refusals of an unknown id and of a missing or non-integer seed.  It
also holds the README examples, `combine` with each operator and its
refusals, `decompose` with each method and its refusals, vizing on named
graphs (C4, K4, K5, Petersen, K1, the empty graph on 4 vertices), on
degree-capped graphs at n = 12, 30 and 40, on an edge list and on a
graph needing more than 16 matchings, `label` with and
without `--fn`, `enumerate` on every enumerable class tag at n <= 5 and
its refusals, a `--` before and after the command, and `params` on
graph6 strings with an invalid byte or nonzero padding and on seven
malformed edge lists.  Its booldim fold slice holds union at kmax 2
(exhaustive) and 3 and intersect at kmax 3 (exhaustive) on two
C5-planted targets at n = 6, with an unrestricted kmax 2 search on a
C5-planted target at n = 7, and one unrestricted and one union search
with `--budget` at exactly the multisets searched and at one less.  Its
codec slice holds `combine --op xor` on seeded graph pairs at n = 20,
62, 63, 64 and 130, on both sides of the long-form header and across
several 24-bit groups, and `params` refusals of a nonzero padding bit at
n = 2, 3 and 5 and of an invalid byte at the first and at the last body
position of a long-form string.  Its induced-subgraph slice holds
equiv searches at kmax 1..3 and under XOR at kmax 2 and 3 on
C5-planted targets at n = 6, 7 and 8 and on a 2-XOR target at n = 7,
kmax 2 searches over d1, multipartite, ek:2 and C on C5-planted
targets at n = 7 (and d1 at kmax 3), a C5-planted n = 7 equiv target
at kmax 2 with `--budget` at C(878, 2) = 385003 and one less, free and
under XOR, `--class complete` at n = 40, `--kmax` 0 and 10^400,
`--kmax -1` and `--budget` 0 and -1 under XOR, `--budget 0` free, and
`booldim -h`.  Its guard slice holds equiv searches at kmax 3, free and
under XOR, with `--budget` at the scan guard's bound C(n, 5) C(m5 + k -
1, k) and one less: 21 C(54, 3) = 520884 on a C5-planted target at
n = 7, 6 C(54, 3) = 148824 at n = 6 and 56 C(53, 2) = 77168 at n = 8.
Its boundary slice holds `-h` for every other subcommand, `hnk
--report` at and past the 4096-vertex cap (4096^1, 64^2, 2^12), at
10^400 in either argument and at a negative one, `enumerate` at and
past each class's cap (d1, C and L at n = 9 and 10, complete and empty
at n = 65537, equiv at n = 10^400, ek:1 at n = -1) and `verify --seed`
at -1, 0 and 10^400.  Its chain slice holds `params` on seeded G(n, p)
at n = 10, 11 and 12 with p in {0.1, 0.3, 0.5, 0.7, 0.9}, where both
chain searches run up to their cap.  Its xornf slice holds the refusal
of a class not known to be intersection-closed (`dk:1`,
`multipartite`).  Every refusal prints nothing on stdout and, on
stderr, one `error: ` line or an argparse usage block.  A change that
alters a pinned output declares it and rewrites that entry's digests.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from boolcomb.cli import main

CORPUS = json.loads((Path(__file__).parent / "cli_corpus.json").read_text())


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def digests(argv):
    code, out, err = run(argv)
    return code, hashlib.sha256(out.encode()).hexdigest(), hashlib.sha256(err.encode()).hexdigest()


def option_groups(argv):
    """argv's tokens after the command: the positional arguments before
    the first option, then each `--name` with the values up to the next
    one."""
    groups = []
    for token in argv[1:]:
        if token.startswith("--") or not groups:
            groups.append([token])
        else:
            groups[-1].append(token)
    head = [] if groups and groups[0][0].startswith("--") else groups.pop(0)
    return head, groups


def options_reversed(argv):
    """argv with its options in reversed order; the command and any
    positional arguments before the first option stay in front."""
    head, groups = option_groups(argv)
    return [argv[0], *head, *(token for group in reversed(groups) for token in group)]


def options_first(argv):
    """argv with the positional arguments before its first option moved
    behind its options, or None when there is nothing to move or argv
    ends in an option (which would then read them as its value)."""
    head, groups = option_groups(argv)
    if not head or not groups or argv[-1].startswith("--"):
        return None
    return [argv[0], *(token for group in groups for token in group), *head]


def test_options_reversed():
    assert options_reversed(["booldim", "--target", "Dhc", "--kmax", "-1"]) == [
        "booldim", "--kmax", "-1", "--target", "Dhc",
    ]
    assert options_reversed(["combine", "A_", "A_", "--op", "xor", "--format", "graph6"]) == [
        "combine", "A_", "A_", "--format", "graph6", "--op", "xor",
    ]


def test_options_first():
    assert options_first(["verify", "meyniel-split", "--seed", "7"]) == [
        "verify", "--seed", "7", "meyniel-split",
    ]
    assert options_first(["verify", "all", "--seed"]) is None
    assert options_first(["hnk", "3", "3", "--report"]) is None
    assert options_first(["booldim", "--target", "Dhc", "--kmax", "1"]) is None


@pytest.mark.parametrize("entry", CORPUS, ids=[f"{i:02d}-{e['argv'][0]}" for i, e in enumerate(CORPUS)])
def test_pinned_output(entry, monkeypatch):
    # argparse wraps its usage lines at the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    argv = entry["argv"]
    pinned = (entry["exit"], entry["stdout_sha256"], entry["stderr_sha256"])
    assert digests(argv) == pinned, argv
    if sum(token.startswith("--") for token in argv) >= 2:
        assert digests(options_reversed(argv)) == pinned, options_reversed(argv)
    moved = options_first(argv)
    if moved is not None:
        assert digests(moved) == pinned, moved


def test_refusals_print_one_error_line_or_a_usage_block(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    refusals = [entry["argv"] for entry in CORPUS if entry["exit"] == 2]
    assert refusals
    for argv in refusals:
        code, out, err = run(argv)
        lines = err.splitlines()
        assert code == 2 and out == "" and lines, argv
        if lines[0].startswith("usage: "):
            assert lines[-1].startswith(("boolcomb: error: ", f"boolcomb {argv[0]}: error: ")), argv
        else:
            assert err == lines[0] + "\n" and lines[0].startswith("error: "), argv
