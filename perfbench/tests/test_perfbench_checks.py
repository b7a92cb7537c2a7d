"""The benchmark's output checks must be able to fail, and its tracer must
account for the traced wall time and leave the library as it found it."""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import boolcomb  # noqa: E402
import boolcomb.cli  # noqa: E402
from perfbench import inputs, worker  # noqa: E402
from perfbench.spans import Tracer, metric_units  # noqa: E402


def _failed_ratio(ops):
    loop = worker.Loop(ops, worker.cli_runner(boolcomb)).go(0)
    attempted, failed, reasons, _ = worker.check_all("query", {"ops": ops}, [loop])
    return failed / attempted, reasons


def _tamper(monkeypatch, command, edit):
    """Make cli.main rewrite the JSON printed for one subcommand."""
    real_main = boolcomb.cli.main

    def tampering_main(argv):
        if argv[0] != command:
            return real_main(argv)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = real_main(argv)
        doc = json.loads(buf.getvalue())
        print(json.dumps(edit(doc)))
        return rc

    monkeypatch.setattr(boolcomb.cli, "main", tampering_main)


def _booldim_ops():
    rng = random.Random(7)
    return [inputs._booldim_request((5, 3, mode, "representable"), rng) for mode in inputs.MODES]


def _params_ops():
    rng = random.Random(8)
    return [inputs._params_request(n, 0.5, rng) for n in (6, 7, 8)]


def test_clean_outputs_pass():
    ratio, reasons = _failed_ratio(_booldim_ops() + _params_ops())
    assert ratio == 0, reasons


def test_tampered_booldim_witness_is_counted(monkeypatch):
    def negate_f(doc):
        k, table = doc["f"].split(":")
        doc["f"] = f"{k}:0x{int(table, 16) ^ ((1 << (1 << int(k))) - 1):x}"
        return doc

    _tamper(monkeypatch, "booldim", negate_f)
    ops = _booldim_ops() + _params_ops()
    ratio, reasons = _failed_ratio(ops)
    assert ratio == 4 / 7
    assert all("booldim" in r for r in reasons)


def test_wrong_params_field_is_counted(monkeypatch):
    def bump_omega(doc):
        doc["omega"] += 1
        return doc

    _tamper(monkeypatch, "params", bump_omega)
    ratio, reasons = _failed_ratio(_booldim_ops() + _params_ops())
    assert ratio == 3 / 7
    assert all("params" in r and "omega" in r for r in reasons)


def test_tracer_accounts_for_wall_time_and_uninstalls():
    ops = _booldim_ops() + _params_ops() + [{"kind": "hnk", "argv": ["hnk", "3", "2", "--report"]}]
    run = worker.cli_runner(boolcomb)
    untraced = worker.Loop(ops, run).go(0)
    originals = (boolcomb.graphs.combine, boolcomb.booldim.apply_boolean, boolcomb.graphs.Graph.__init__)
    tracer = Tracer()
    tracer.install(boolcomb)
    try:
        assert boolcomb.booldim.apply_boolean is not originals[1]
        traced = worker.Loop(ops, run).go(0)
    finally:
        tracer.uninstall()
    assert (boolcomb.graphs.combine, boolcomb.booldim.apply_boolean, boolcomb.graphs.Graph.__init__) == originals
    layers = tracer.summary(traced.wall, traced.passes, untraced.wall / untraced.passes)
    assert set(layers) == set(metric_units())
    units = metric_units()
    self_times = sum(v for k, v in layers.items() if units[k] == "s" and not k.startswith("trace."))
    assert abs(self_times + layers["trace.unattributed_s"] - layers["trace.wall_s"]) < 1e-6
    assert layers["cli.calls"] == len(ops)
    assert layers["booldim.calls"] == 4 and layers["booldim.found_ratio"] == 1.0
    assert layers["invariants.chain_calls"] == 2 * 3  # chain and strong chain per params request
