"""The benchmark's tracer (perfbench/tracer.py) wraps palfact functions and
methods by name.  These tests load it without importing or writing anything
under perfbench/, so renaming or removing a name it patches fails here
instead of breaking the traced benchmark run."""

import sys
import types
from pathlib import Path

from palfact import eertree, experiments, words
from palfact.cli import main

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    mod = types.ModuleType("perfbench_tracer")
    mod.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), mod.__dict__)
    return mod


def patchable_state():
    """Every attribute the tracer may replace: the namespaces of the loaded
    palfact modules, the dicts of the patched classes and the suite table."""
    state = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "palfact" or name.startswith("palfact.")):
            state.update(((name, attr), value) for attr, value in vars(mod).items())
    for cls in (eertree.PalindromeIndex, eertree.SharedEertree, words.Word):
        state.update(((cls, attr), value) for attr, value in vars(cls).items())
    state.update((("SUITES", k), v) for k, v in experiments.SUITES.items())
    return state


def test_tracer_patches_and_restores_by_identity(capsys):
    tracer = load_tracer()
    main(["len", "lit:a"])  # main keeps the parser it builds on its first call
    before = patchable_state()
    rec = tracer.Recorder()
    patches = tracer.install(rec)
    try:
        during = patchable_state()
        changed = {key for key, value in before.items() if during.get(key) is not value}
        # one op per traced layer, so every wrapper is called with the
        # program's own arguments
        for argv in (["len", "lit:abaab"], ["decompose", "lit:abaab"],
                     ["profile", "fib", "--horizon", "60"],
                     ["bounds", "periodic:ababa", "--horizon", "60", "--window", "10"],
                     ["next", "lit:aab", "--max-len", "16"], ["verify", "nextsets"]):
            assert main(argv) == 0, argv
        layers = tracer.layer_values(rec)
    finally:
        patches.undo()
    capsys.readouterr()
    after = patchable_state()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    for key in [(eertree.PalindromeIndex, "__init__"),
                (eertree.PalindromeIndex, "longest_suffix_leq"),
                (eertree.SharedEertree, "advance"), (words.Word, "__new__"),
                ("palfact.analysis", "bound_report"),
                ("palfact.engine", "palindromic_prefixes"),
                ("palfact.profiles", "build_profile"), ("SUITES", "bound2")]:
        assert key in changed, key
    assert layers["analysis.bound_report_calls"] == 1
    assert layers["eertree.index_builds"] > 0
    assert layers["eertree.shared_advance_calls"] > 0
    assert layers["analysis.next_members"] > 0
    assert layers["profiles.build_profile_self_s"] > 0
