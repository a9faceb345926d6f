"""The tracer reaches every alias of a traced function and keeps its sums straight."""

import types

import pytest

import layertrace
from orbita import cli


def _holders():
    """Every (where, value) an orbita module holds: attributes, module-level
    dict values, and attributes of the classes it defines."""
    for module in layertrace.orbita_modules():
        for key, value in vars(module).items():
            yield f"{module.__name__}.{key}", value
            if isinstance(value, dict) and not key.startswith("__"):
                for k, v in value.items():
                    yield f"{module.__name__}.{key}[{k!r}]", v
            if isinstance(value, type) and value.__module__ == module.__name__:
                for k, v in vars(value).items():
                    yield f"{module.__name__}.{key}.{k}", v


@pytest.fixture
def tracer():
    t = layertrace.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_no_unwrapped_alias_survives(tracer):
    originals = {id(fn) for fn in tracer.originals.values()}
    assert len(originals) > 40
    left = [where for where, value in _holders()
            if isinstance(value, types.FunctionType) and id(value) in originals]
    assert left == []


def test_known_aliases_are_wrapped(tracer):
    import orbita.bounds, orbita.cli, orbita.maps, orbita.orbits, orbita.projective
    import orbita.suites

    for module in (orbita.cli, orbita.maps, orbita.orbits, orbita.projective):
        assert hasattr(module.factor, "__wrapped__"), module.__name__
    assert all(hasattr(fn, "__wrapped__") for fn in orbita.suites._RUNNERS.values())
    assert hasattr(orbita.bounds.BoundValue.magnitude_str, "__wrapped__")


def test_uninstall_restores_originals():
    before = {where: value for where, value in _holders()}
    t = layertrace.Tracer()
    t.install()
    t.uninstall()
    after = {where: value for where, value in _holders()}
    assert all(after[w] is v for w, v in before.items())


def test_factor_counted_through_cli_and_self_time_nets_out_children(tracer):
    tracer.begin_op()
    assert cli.main(["badprimes", "--map", "z^2 - 29/16"]) == 0
    factor = tracer.spans["numtheory.factor"]
    assert factor[0] >= 2  # bad_primes in maps, then factor in cli
    assert tracer.counters["numtheory.factor.repeats"] >= 1
    bad = tracer.spans["maps.bad_primes"]
    assert bad[0] == 1 and 0 <= bad[1] <= bad[2]
    main = tracer.spans["cli.main"]
    children = sum(rec[1] for key, rec in tracer.spans.items() if key != "cli.main")
    assert main[1] + children == pytest.approx(main[2], rel=1e-6, abs=1e-6)


def test_errors_counted_where_they_leave_a_layer(tracer):
    import orbita.numtheory

    with pytest.raises(ValueError):
        orbita.numtheory.factor(0)
    assert tracer.counters["numtheory.errors"] == 1
    with pytest.raises(orbita.numtheory.FactorizationBudgetError):
        orbita.numtheory.factor(3**40, max_bits=8)
    assert tracer.counters["numtheory.errors"] == 2
    assert tracer.counters["numtheory.factor.budget_errors"] == 1
    # vp raises after its own is_prime call returns: still one error for the layer
    with pytest.raises(ValueError):
        orbita.numtheory.vp(12, 4)
    assert tracer.counters["numtheory.errors"] == 3


def test_metrics_cover_every_per_layer_name(tracer):
    cli.main(["verify", "--suite", "prop52", "--iterations", "2"])
    names = [n for n, _ in layertrace.PER_LAYER]
    got = tracer.metrics({"forms.resultant.deep_op_share": 0.0, "traced_op_s": 1.0,
                          "trace_overhead_ratio": 0.0, "op_fail_ratio": 0.0})
    assert list(got) == names
    assert got["numtheory.factor.calls"] > 0
    assert got["forms.resultant.le4.calls"] > 0
