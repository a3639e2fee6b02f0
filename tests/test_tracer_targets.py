"""The benchmark tracer patches manlab's functions where they are held."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_held_where_the_tracer_patches_it():
    # `perfbench/run.py --trace 1` swaps holder.__dict__[attr] for a timing
    # wrapper; a name dropped from a module's imports would only fail there
    missing, stale = [], []
    for span, attr, holders, _ in _load_tracer().TARGETS:
        for holder in holders:
            if attr not in holder.__dict__:
                missing.append((span, attr, holder.__name__))
            elif holder.__dict__[attr] is not holders[0].__dict__.get(attr):
                stale.append((span, attr, holder.__name__))
    assert not missing, missing
    assert not stale, stale
