"""Fast end-to-end checks of the experiment harness.

Each experiment runs on its smallest configuration and is checked for
the qualitative *shape* the paper reports (who wins, monotone trends),
not absolute numbers.  The CIFAR models are excluded for speed; the
benchmark suite covers fuller configurations.
"""

import pytest

from repro.experiments import (
    exp1_scaling,
    exp2_stream,
    exp3_allocation,
    exp4_partitioning,
    exp5_leakage,
    exp6_comparison,
    fig1_paillier,
)
from repro.experiments.common import prepare_model

SMALL = ("breast", "heart")


class TestFig1:
    def test_rows_and_trends(self):
        # Best of three: one addition is microseconds, so a single
        # preempted timing would decide the ratios below.
        rows = fig1_paillier.run_fig1(key_sizes=(128, 256),
                                      sample_elements=8, repeats=3)
        assert [row.key_size for row in rows] == [128, 256]
        for row in rows:
            # Fig. 1 shape: decryption dominates arithmetic by an
            # order of magnitude.  Encryption is a fixed-base table
            # walk — 10 multiplies at 128 bits, not the textbook
            # full-width exponentiation — so at these toy keys it is
            # a clear multiple of one addition, not 10x.
            assert row.encrypt_seconds > 3 * row.add_seconds
            assert row.decrypt_seconds > 10 * row.add_seconds
        # larger keys are slower
        assert rows[1].encrypt_seconds > rows[0].encrypt_seconds

    def test_render(self):
        rows = fig1_paillier.run_fig1(key_sizes=(128,),
                                      sample_elements=4, repeats=1)
        text = fig1_paillier.render_fig1(rows)
        assert "128" in text


class TestExp1:
    def test_accuracy_shape(self):
        rows = exp1_scaling.run_accuracy_tables(SMALL, max_decimals=4)
        for row in rows:
            # Tables IV/V shape: the largest factor recovers (nearly)
            # the original accuracy; the smallest factor is worse or
            # equal.
            assert row.train_by_decimals[4] >= \
                row.train_by_decimals[0] - 1e-9
            assert abs(row.test_by_decimals[4] - row.original_test) \
                < 2.0

    def test_selected_factor_recorded(self):
        rows = exp1_scaling.run_accuracy_tables(("breast",),
                                                max_decimals=4)
        assert 0 <= rows[0].selected_decimals <= 6

    def test_latency_increases_with_factor(self):
        rows = exp1_scaling.run_latency_vs_factor(("mnist-1",),
                                                  total_cores=24,
                                                  max_decimals=4)
        latencies = rows[0].latency_by_decimals
        assert latencies[4] > latencies[0]

    def test_renders(self):
        rows = exp1_scaling.run_accuracy_tables(("breast",),
                                                max_decimals=2)
        assert "Table IV" in exp1_scaling.render_accuracy_table(
            rows, "train"
        )
        assert "Table V" in exp1_scaling.render_accuracy_table(
            rows, "test"
        )


class TestExp2:
    def test_ordering(self):
        rows = exp2_stream.run_stream_comparison(SMALL)
        for row in rows:
            # PlainBase << PP-50 < PP-25 < CipherBase
            assert row.plain_base < row.pp_stream_50
            assert row.pp_stream_50 < row.pp_stream_25
            assert row.pp_stream_25 < row.cipher_base
            assert row.reduction_50 > row.reduction_25 > 50.0

    def test_render(self):
        rows = exp2_stream.run_stream_comparison(("breast",))
        assert "Fig. 8" in exp2_stream.render_stream_comparison(rows)


class TestExp3:
    def test_balancing_helps(self):
        rows = exp3_allocation.run_allocation_comparison(
            ("mnist-1",), core_sweep=(12, 24)
        )
        for row in rows:
            assert row.balanced_latency <= row.even_latency * 1.05

    def test_render(self):
        rows = exp3_allocation.run_allocation_comparison(
            ("breast",), core_sweep=(12,)
        )
        assert "Fig. 7" in \
            exp3_allocation.render_allocation_comparison(rows)


class TestExp4:
    def test_partitioning_helps_conv_model(self):
        rows = exp4_partitioning.run_partitioning_comparison(
            ("mnist-2",), core_sweep=(24,)
        )
        for row in rows:
            assert row.with_partitioning < row.without_partitioning

    def test_gain_grows_with_cores(self):
        """The paper's observation: more cores -> larger TP gains."""
        rows = exp4_partitioning.run_partitioning_comparison(
            ("mnist-2",), core_sweep=(12, 48)
        )
        by_cores = {row.total_cores: row.reduction for row in rows}
        assert by_cores[48] >= by_cores[12]

    def test_render(self):
        rows = exp4_partitioning.run_partitioning_comparison(
            ("breast",), core_sweep=(12,)
        )
        assert "Fig. 9" in \
            exp4_partitioning.render_partitioning_comparison(rows)


class TestExp5:
    def test_monotone_and_paper_magnitudes(self):
        rows = exp5_leakage.run_leakage(
            lengths=(2 ** 5, 2 ** 9, 2 ** 13), trials=4,
            source="gaussian",
        )
        values = [row.distance_correlation for row in rows]
        assert values[0] > values[1] > values[2]
        assert values[0] > 0.15
        assert values[2] < 0.05

    def test_activation_source(self):
        rows = exp5_leakage.run_leakage(
            lengths=(2 ** 5, 2 ** 8), trials=2, source="activations",
            activation_models=("breast", "heart"),
        )
        assert all(0 <= row.distance_correlation <= 1 for row in rows)

    def test_render(self):
        rows = exp5_leakage.run_leakage(lengths=(32,), trials=2,
                                        source="gaussian")
        assert "Table VI" in exp5_leakage.render_leakage(rows)


class TestExp6:
    def test_pp_stream_beats_ezpc(self):
        rows = exp6_comparison.run_comparison(("mnist-1",),
                                              ezpc_max_real_relu=8)
        by_system = {(r.system, r.model_key): r.latency_seconds
                     for r in rows}
        assert by_system[("PP-Stream", "mnist-1")] < \
            by_system[("EzPC", "mnist-1")]
        assert by_system[("PP-Stream", "mnist-1")] < \
            by_system[("SecureML", "mnist-1")]

    def test_reported_rows_present(self):
        rows = exp6_comparison.run_comparison(("mnist-1", "mnist-2"),
                                              ezpc_max_real_relu=4)
        systems = {row.system for row in rows}
        assert {"SecureML", "CryptoNets", "CryptoDL", "EzPC",
                "PP-Stream"} <= systems

    def test_render(self):
        rows = exp6_comparison.run_comparison(("mnist-1",),
                                              ezpc_max_real_relu=4)
        assert "Table VII" in exp6_comparison.render_comparison(rows)


class TestExp7:
    def test_throughput_ordering(self):
        from repro.experiments import exp7_throughput

        rows = exp7_throughput.run_throughput(("breast",), requests=40)
        row = rows[0]
        assert row.pp_stream_25 > row.cipher_base
        assert row.speedup_50 > 2.0

    def test_latency_vs_load_saturates(self):
        from repro.experiments import exp7_throughput

        rows = exp7_throughput.run_latency_vs_load(
            "breast", total_cores=24, utilizations=(0.3, 1.3),
            requests=60,
        )
        by_util = {r.utilization: r.mean_latency for r in rows}
        assert by_util[1.3] > by_util[0.3]

    def test_render(self):
        from repro.experiments import exp7_throughput

        rows = exp7_throughput.run_throughput(("breast",), requests=20)
        assert "throughput" in \
            exp7_throughput.render_throughput(rows).lower()


class TestAblationMerging:
    def test_single_stage_loses(self):
        from repro.experiments import ablation_merging

        rows = ablation_merging.run_merging_ablation(("breast",),
                                                     total_cores=24)
        row = rows[0]
        assert row.merged < row.single_stage
        assert "Ablation" in \
            ablation_merging.render_merging_ablation(rows)

    def test_unmerged_stages_cover_all_primitives(self):
        from repro.experiments.ablation_merging import unmerged_stages
        from repro.planner.primitive import extract_primitives
        from repro.nn import model_zoo

        model = model_zoo.build_model("breast")
        stages = unmerged_stages(model)
        assert len(stages) == len(extract_primitives(model))
        assert all(len(s.primitives) == 1 for s in stages)


class TestCommon:
    def test_prepare_model_cached(self):
        assert prepare_model("breast") is prepare_model("breast")

    def test_trained_to_useful_accuracy(self):
        prepared = prepare_model("breast")
        assert prepared.train_accuracy > 0.9

    def test_unknown_key(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            prepare_model("mystery")
