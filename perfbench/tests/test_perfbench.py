"""Tests of the benchmark's tracer, inputs and checks.

    python3 -m pytest -q perfbench/tests
"""

import random
from fractions import Fraction

import pytest

import run
import workloads as wl
from tracer import Tracer, instrument


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("outer"):
        clock.now += 1.0
        with tracer.span("inner"):
            clock.now += 2.0
            with tracer.span("leaf"):
                clock.now += 4.0
        with tracer.span("inner"):
            clock.now += 8.0
        clock.now += 16.0
    assert tracer.stats["leaf"] == [1, 4.0, 4.0]
    assert tracer.stats["inner"] == [2, 10.0, 14.0]
    assert tracer.stats["outer"] == [1, 17.0, 31.0]
    assert tracer.self_sum() == 31.0
    assert tracer.edges == {("", "outer"): 1, ("outer", "inner"): 2, ("inner", "leaf"): 1}


def test_wrapped_function_records_time_even_when_it_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def fail():
        clock.now += 3.0
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("f", fail)()
    assert tracer.stats["f"] == [1, 3.0, 3.0]
    assert tracer._stack == []


def test_instrument_rebinds_package_internal_imports():
    import pappus
    from pappus import cli, fareypattern, markedbox, symmspace

    originals = (symmspace.metric_d, fareypattern.metric_d, cli.op_t, markedbox.op_t, pappus.op_t)
    tracer = Tracer()
    with instrument(tracer):
        assert fareypattern.metric_d is symmspace.metric_d is not originals[0]
        assert cli.op_t is markedbox.op_t is pappus.op_t is not originals[2]
        markedbox.orbit_enumerate(fareypattern.base_box(Fraction(3, 10), Fraction(2, 5)), 2)
        cli._expand_chunk([("", fareypattern.base_box(Fraction(3, 10), Fraction(2, 5)))])
    assert tracer.calls("markedbox.op_t") == (2 + 4) + 1
    assert tracer.calls("markedbox.orbit_enumerate") == 1
    assert tracer.calls("markedbox.markedbox") > 0
    assert tracer.calls("projective.homvec") > 0
    assert (symmspace.metric_d, fareypattern.metric_d, cli.op_t, markedbox.op_t, pappus.op_t) == originals


@pytest.mark.parametrize("argv", [
    ("orbit", "--x", "3/10", "--y", "2/5", "--depth", "3"),
    ("orbit", "--x", "0.3", "--y", "0.4", "--depth", "5", "--workers", "2"),
    ("limitset", "--x", "17/41", "--y", "5/37", "--depth", "4"),
    ("pattern", "--x", "3/10", "--y", "2/5", "--depth", "2", "--distances"),
    ("prism", "--x", "3/10", "--y", "2/5", "--format", "obj", "--samples", "4"),
])
def test_traced_run_emits_the_same_bytes(argv):
    rc, plain, _, _ = run.run_inprocess(argv)
    tracer = Tracer()
    with instrument(tracer):
        rc_traced, traced, _, _ = run.run_inprocess(argv)
    assert rc == rc_traced == 0
    assert traced == plain
    assert tracer.calls("cli.main") == 1
    if "--workers" in argv:
        assert tracer.calls("cli.pool.start") == 1 and tracer.calls("cli.pool.map") > 0


def test_seed_zero_gives_the_canonical_pairs():
    stream = wl.pair_stream(0)
    assert [next(stream) for _ in range(3)] == [wl.CANONICAL] * 3


def test_seeded_pairs_repeat_and_respect_the_draw_rules():
    first = wl.pair_stream(7)
    again = wl.pair_stream(7)
    pairs = [next(first) for _ in range(50)]
    assert pairs == [next(again) for _ in range(50)]
    for pair, tall in pairs:
        for x, y in (pair, tall):
            assert wl.REGION[0] <= x <= wl.REGION[1] and wl.REGION[0] <= y <= wl.REGION[1]
            assert x.denominator <= wl.MAX_DEN and y.denominator <= wl.MAX_DEN
            assert abs(x - y) >= Fraction(1, 20) and abs(x + y - 1) >= Fraction(1, 20)
        assert min(tall[0].denominator, tall[1].denominator) >= wl.TALL_MIN_DEN


def test_strict_json_rejects_non_finite_numbers():
    assert wl.strict_json(b'{"a": 1.5}') == {"a": 1.5}
    for bad in (b'{"a": NaN}', b'{"a": Infinity}', b'{"a": -Infinity}'):
        with pytest.raises(wl.CheckFailed):
            wl.strict_json(bad)


def test_checks_reject_wrong_counts_and_mismatched_copies():
    op = wl.Op("orbit", ("orbit",), "orbit_csv", {"depth": 0})
    good = b"word,a\n-,1\ni,2\n"
    assert wl.check_output(op, 0, good, run.ROOT) is None
    assert "rows" in wl.check_output(op, 0, good + b"it,3\n", run.ROOT)
    assert "exit code" in wl.check_output(op, 3, good, run.ROOT)
    copy = wl.Op("orbit_w2", ("orbit",), "orbit_csv", {"depth": 0}, same_as="orbit")
    assert "differs" in wl.check_output(copy, 0, good, run.ROOT, reference=wl.sha256(b"other"))


def test_highest_percentile_keeps_ten_samples_above_it():
    assert run.highest_percentile(list(range(10))) is None
    pct, value = run.highest_percentile([float(v) for v in random.Random(1).sample(range(100), 40)])
    assert pct == 100.0 * 30 / 40
    assert value is not None


def test_coord_bits_reads_rational_tokens():
    assert wl.coord_bits(b"-,3/10,-17/1024,0.5\n") == 11
    assert wl.coord_bits(b"0.25,0.5\n") == 0


def test_run_outside_a_checkout_exits_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "exact-enum", "--seconds", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "no pappus sources" in out.err


def test_separation_round_covers_the_canonical_pattern_in_five_slices():
    seen = 0
    for r in range(5):
        todo, bounds, total = wl.separation_round(wl.CANONICAL[0], r)
        assert total == 105 and len(todo) == len(bounds) == wl.SEPARATION_SLICE
        seen += len(todo)
    assert seen == 105
    from pappus.fareypattern import min_distance_flats

    values = [min_distance_flats(fa, fb) for fa, fb in todo[:3]]
    assert wl.check_separation(values, bounds[:3], total, 105) is None
    assert "outside" in wl.check_separation([0.0], bounds[:1], total, 105)
