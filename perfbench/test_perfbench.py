"""Unit tests of the benchmark's own arithmetic.

    python3 -m pytest -q perfbench
"""

import math

import pytest

import layers
import measure
import speed
from spans import Tracer


class TestPercentileRule:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert measure.percentile(values, 50) == 50
        assert measure.percentile(values, 90) == 90
        assert measure.percentile(values, 100) == 100
        assert measure.percentile([7.0], 99) == 7.0

    def test_samples_beyond(self):
        assert measure.samples_beyond(1100, 99) == 11
        assert measure.samples_beyond(1000, 99) == 10
        assert measure.samples_beyond(100, 90) == 10

    @pytest.mark.parametrize("n, expected", [
        (9, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
        (999, 90.0), (1000, 99.0), (1100, 99.0), (9999, 99.0), (10000, 99.9),
    ])
    def test_tail_needs_ten_beyond(self, n, expected):
        assert measure.tail_percentile(n) == expected

    def test_summary_states_count(self):
        seconds = [i / 1000.0 for i in range(1, 1101)]
        s = measure.latency_summary(seconds)
        assert s["samples"] == 1100
        assert s["tail_pct"] == 99.0 and s["tail_beyond"] == 11
        assert s["tail_ms"] == pytest.approx(1089.0)
        assert s["p50_ms"] == pytest.approx(550.0)
        assert "tail_pct" not in measure.latency_summary([0.1] * 5)


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            (0, None, 0.0, 10.0),
            (1, 0, 1.0, 4.0),
            (2, 1, 2.0, 3.0),
            (3, 0, 6.0, 7.5),
        ]
        selfs = measure.self_times(spans)
        assert selfs[0] == pytest.approx(10.0 - 3.0 - 1.5)
        assert selfs[1] == pytest.approx(2.0)
        assert selfs[2] == pytest.approx(1.0)
        assert selfs[3] == pytest.approx(1.5)
        # self times partition the root interval
        assert sum(selfs.values()) == pytest.approx(10.0)

    def test_overlapping_children_counted_once(self):
        spans = [(0, None, 0.0, 10.0), (1, 0, 2.0, 6.0), (2, 0, 4.0, 8.0)]
        assert measure.self_times(spans)[0] == pytest.approx(4.0)
        assert measure.covered([(2.0, 6.0), (4.0, 8.0), (-1.0, 1.0)], 0.0, 10.0) == 7.0

    def test_tracer_records_parents(self):
        tracer = Tracer()
        inner = tracer.wrap("lstm.inner", lambda x: x + 1)
        outer = tracer.wrap("cli.outer", lambda x: inner(x) * 2,
                            count=lambda args, kwargs, result: {"result": result})
        assert outer(1) == 4
        (o, i) = sorted(tracer.spans, key=lambda s: s[0])
        assert o[2] == "cli.outer" and o[1] is None and o[5] == {"result": 4}
        assert i[2] == "lstm.inner" and i[1] == o[0]
        assert o[3] <= i[3] <= i[4] <= o[4]


class TestErrorRate:
    def test_ratio(self):
        assert measure.error_rate(0, 10) == 0.0
        assert measure.error_rate(3, 12) == 0.25

    @pytest.mark.parametrize("failed, attempted", [(0, 0), (2, 1), (-1, 5)])
    def test_rejects_impossible_counts(self, failed, attempted):
        with pytest.raises(ValueError):
            measure.error_rate(failed, attempted)


def test_layer_metrics_from_synthetic_spans():
    tracer = Tracer()
    tracer.spans = [
        [0, None, "cli.parafac", 0.0, 1.0, {}],
        [1, 0, "parafac.cp_als", 0.1, 0.9, {"iterations": 2, "fit": 0.5}],
        [2, 1, "parafac.mttkrp", 0.2, 0.3, {"mode": 1, "flop": 2e9, "bytes": 1e9}],
        [3, 1, "parafac.mttkrp", 0.3, 0.4, {"mode": 2, "flop": 2e9, "bytes": 1e9}],
        [4, 1, "parafac.mttkrp", 0.5, 0.6, {"mode": 1, "flop": 2e9, "bytes": 1e9}],
        [5, None, "lstm.perplexity", 1.0, 2.0, {}],
        [6, 5, "lstm.pack_batch", 1.1, 1.2, {"items": 30.0, "slots": 40}],
    ]
    m = {k: v for k, (v, _) in layers.layer_metrics(tracer, 2.0, 2.5).items()}
    assert m["parafac.sweeps"] == 2
    assert m["parafac.ms_per_sweep"] == pytest.approx(400.0)
    assert m["parafac.mttkrp_calls"] == 3
    assert m["parafac.mttkrp_gflop_computed"] == pytest.approx(6.0)
    assert m["parafac.self_s"] == pytest.approx(0.8)
    assert m["cli.self_s"] == pytest.approx(0.2)
    assert m["lstm.eval_useful_slot_ratio"] == pytest.approx(0.75)
    assert m["lstm.train_useful_slot_ratio"] == 0.0
    assert m["trace.overhead_s"] == pytest.approx(0.5)
    assert m["lstm.predict_p99_ms"] == 0.0
    assert all(math.isfinite(v) for v in m.values())


class TestSpeedNormalization:
    def test_scales_by_mean_probe_time(self):
        ref = speed.REF_PROBE_S
        # host at half speed: probes take twice the reference
        samples = [(t * 0.1, 2 * ref) for t in range(100)]
        wall = 10.0
        assert speed.normalize(samples, 0.0, wall) == pytest.approx(
            (wall - 100 * 2 * ref) / 2)

    def test_descheduled_probe_is_capped(self):
        ref = speed.REF_PROBE_S
        samples = [(t * 0.1, ref) for t in range(99)] + [(9.95, 50 * ref)]
        # the outlier counts as 2x the median, not 50x
        mean = (99 * ref + 2 * ref) / 100
        expected = (10.0 - 99 * ref - 50 * ref) * ref / mean
        assert speed.normalize(samples, 0.0, 10.0) == pytest.approx(expected)

    def test_short_interval_uses_all_samples(self):
        ref = speed.REF_PROBE_S
        samples = [(t * 0.1, 3 * ref) for t in range(10)]
        assert speed.normalize(samples, 5.0, 5.03) == pytest.approx(0.01)
