"""The benchmark tracer patches package names from the outside. This loads
perfbench/tracer.py as it is, without putting perfbench/ on sys.path, and
checks that its patches still find their targets and count each encoding
once on a small seating instance."""

import importlib.util
import os
from types import SimpleNamespace

from partmax import cards, encoders, formats, graphs, maxsat, sat
from partmax.encoders import SchemeChoice, SeatingGenConfig, encode_seating, gen_seating

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def load_tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def seating_instance():
    cfg = SeatingGenConfig(
        min_persons=12, max_persons=12, min_tables=3, max_tables=3,
        min_tag_universe=4, max_tag_universe=4, min_tags_per_person=1, max_tags_per_person=2,
    )
    return encode_seating(gen_seating(cfg, 7002), SchemeChoice.SEAT_TABLES)


def test_tracer_patches_fit_and_count_each_encoding_once():
    pinst = seating_instance()
    mods = SimpleNamespace(
        formats=formats, graphs=graphs, cards=cards, sat=sat, maxsat=maxsat, encoders=encoders
    )
    tracer = load_tracer_class()(mods)
    tracer.install()
    try:
        results = {}
        for job, alg in enumerate(("oll", "msu3")):
            tracer.job = job
            results[alg] = maxsat.solve_instance(pinst, alg)
            tracer.job = None
    finally:
        tracer.uninstall()
    assert maxsat.solve_instance.__name__ == "solve_instance"
    assert "__wrapped__" not in vars(cards.Totalizer.__init__)

    oll, msu3 = tracer.counts[0], tracer.counts[1]
    assert results["oll"].cost == 7
    # recorded with the recursive unary totalizer; oll's encoding must not change.
    # The SAT counts are those of a driver that skips the call for a block the
    # best model already solves, and of a solver that never branches on the
    # hard-only variables pure-literal elimination removed
    assert {k: oll[k] for k in (
        "cards.aux_vars", "cards.clauses", "sat.calls", "sat.conflicts", "sat.propagations"
    )} == {
        "cards.aux_vars": 33, "cards.clauses": 55, "sat.calls": 11,
        "sat.conflicts": 32, "sat.propagations": 2490,
    }
    assert oll["sat.calls"] == results["oll"].stats.sat_calls
    assert results["msu3"].cost == 7
    assert msu3["cards.aux_vars"] > 0 and msu3["cards.clauses"] > 0
    assert msu3["sat.calls"] == results["msu3"].stats.sat_calls
