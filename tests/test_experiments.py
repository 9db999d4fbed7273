"""Tests for the experiment functions (one per table/figure of the paper).

The smoke tests run them at the ``tiny`` scale with few k values so they
stay fast.  ``TestPaperClaims`` (slow tier) runs each one as ``repro
experiments NAME`` would at ``--time-limit 2``, over its default k values,
and checks the claim of the paper that its table or figure carries.
"""

from __future__ import annotations

import pytest

from repro.bench import (
    EXPERIMENTS,
    figure7,
    figure8,
    run_experiment,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
)


class TestTable2:
    def test_structure_and_ordering(self):
        result = table2(scale="tiny", k_values=(1,), time_limit=3.0, algorithms=("kDC", "MADEC"))
        assert result.name == "table2"
        assert "real_world_like" in result.data
        assert "Table 2" in result.text
        for collection, solved in result.data.items():
            assert set(solved) == {"kDC", "MADEC"}
            # kDC must solve at least as many instances as the MADEC baseline
            assert solved["kDC"][1] >= solved["MADEC"][1]


class TestTable3:
    def test_rows_cover_instances(self):
        result = table3(scale="tiny", k_values=(1,), time_limit=3.0, algorithms=("kDC", "KDBB"))
        assert "Table 3" in result.text
        assert result.records
        assert {r.algorithm for r in result.records} == {"kDC", "KDBB"}


class TestTable4:
    def test_ratios_reported(self):
        result = table4(scale="tiny", k_values=(1,))
        assert "Table 4" in result.text
        assert result.data
        for values in result.data.values():
            # Degen-opt computes an initial solution at least as large as Degen's,
            # and the kDC preprocessing never keeps more of the graph than
            # kDC-Degen's (RR6 only removes extra edges).
            assert values["initial_solution_ratio"] >= 1.0
            assert values["reduced_vertices_ratio"] <= 1.0 + 1e-9
            assert values["reduced_edges_ratio"] <= 1.0 + 1e-9


class TestTables5to7:
    def test_table5_ratios_at_least_one(self):
        result = table5(scale="tiny", k_values=(1,), time_limit=3.0)
        assert "Table 5" in result.text
        for agg in result.data.values():
            if agg["count"]:
                assert agg["avg_ratio"] >= 1.0
                assert agg["max_ratio"] >= agg["avg_ratio"] - 1e-9

    def test_table6_counts_bounded(self):
        result = table6(scale="tiny", k_values=(1,), time_limit=3.0)
        assert "Table 6" in result.text
        for agg in result.data.values():
            assert 0 <= agg["num_extending_max_clique"] <= agg["count"]

    def test_table7_percentages_bounded(self):
        result = table7(scale="tiny", k_values=(1,), time_limit=3.0)
        assert "Table 7" in result.text
        for agg in result.data.values():
            assert 0.0 <= agg["avg_pct_not_fully_connected"] <= 100.0


class TestFigures:
    def test_figure7_monotone_in_time_limit(self):
        result = figure7(scale="tiny", k_values=(1,), time_limits=(0.05, 3.0), algorithms=("kDC", "KDBB"))
        assert result.name == "figure7"
        small = result.data["k=1/limit=0.05"]
        large = result.data["k=1/limit=3.0"]
        for algorithm in ("kDC", "KDBB"):
            assert small[algorithm] <= large[algorithm]

    def test_figure8_runs(self):
        result = figure8(scale="tiny", k_values=(1,), time_limits=(3.0,), algorithms=("kDC",))
        assert result.name == "figure8"
        assert result.records


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "table2", "table3", "table4", "table5", "table6", "table7", "figure7", "figure8",
        }

    def test_run_experiment_dispatch(self):
        result = run_experiment("table4", scale="tiny", k_values=(1,))
        assert result.name == "table4"

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("table99")


#: The slow tier's per-instance budget (seconds), as ``--time-limit 2``.
TIME_LIMIT = 2.0
SEARCH_ALGORITHMS = ("kDC", "kDC/RR3&4", "kDC/UB1", "kDC-Degen", "KDBB")
COLLECTIONS = ("real_world_like", "facebook_like", "dimacs_snap_like")


@pytest.mark.slow
class TestPaperClaims:
    """Each table and figure at tiny scale, checked against the claim it makes."""

    def test_table2_kdc_solves_no_fewer_than_the_baselines(self):
        k_values = (1, 2, 3, 5)
        result = table2(
            scale="tiny", k_values=k_values, time_limit=TIME_LIMIT,
            algorithms=("kDC", "KDBB", "MADEC"),
        )
        assert set(result.data) == set(COLLECTIONS)
        for collection, solved in result.data.items():
            for k in k_values:
                assert solved["kDC"][k] >= solved["MADEC"][k], (collection, k)
                assert solved["kDC"][k] >= solved["KDBB"][k] - 1, (collection, k)

    def test_table3_kdc_solves_what_kdc_degen_solves(self):
        result = table3(
            scale="tiny", k_values=(1, 3), time_limit=TIME_LIMIT,
            algorithms=SEARCH_ALGORITHMS, top_fraction=0.5,
        )
        solved_by = {algorithm: set() for algorithm in SEARCH_ALGORITHMS}
        for record in result.records:
            if record.solved:
                solved_by[record.algorithm].add((record.instance, record.k))
        assert len(solved_by["kDC"]) >= len(solved_by["kDC-Degen"])

    def test_table4_ratio_sides(self):
        result = table4(scale="tiny", k_values=(1, 2, 3, 5))
        assert result.data
        for key, values in result.data.items():
            assert values["initial_solution_ratio"] >= 1.0, key
            assert values["reduced_vertices_ratio"] <= 1.0 + 1e-9, key
            assert values["reduced_edges_ratio"] <= 1.0 + 1e-9, key

    def test_table5_ratios_grow_with_k(self):
        result = table5(scale="tiny", k_values=(1, 2, 3, 5), time_limit=TIME_LIMIT)
        for key, agg in result.data.items():
            if agg["count"]:
                assert agg["avg_ratio"] >= 1.0, key
                assert agg["max_ratio"] >= agg["avg_ratio"] - 1e-9, key
        for collection in COLLECTIONS:
            low, high = result.data[f"{collection}/k=1"], result.data[f"{collection}/k=5"]
            if low["count"] and high["count"]:
                assert high["avg_ratio"] >= low["avg_ratio"] - 1e-9, collection

    def test_table6_most_k1_solutions_extend_a_maximum_clique(self):
        result = table6(scale="tiny", k_values=(1, 2, 3, 5), time_limit=TIME_LIMIT)
        for key, agg in result.data.items():
            assert 0 <= agg["num_extending_max_clique"] <= agg["count"], key
        for collection in COLLECTIONS:
            agg = result.data[f"{collection}/k=1"]
            if agg["count"]:
                assert agg["num_extending_max_clique"] >= agg["count"] / 2, collection

    def test_table7_missing_neighbour_share_grows_with_k(self):
        result = table7(scale="tiny", k_values=(1, 2, 3, 5), time_limit=TIME_LIMIT)
        for key, agg in result.data.items():
            assert 0.0 <= agg["avg_pct_not_fully_connected"] <= 100.0, key
        for collection in COLLECTIONS:
            low, high = result.data[f"{collection}/k=1"], result.data[f"{collection}/k=5"]
            if low["count"] and high["count"]:
                assert (
                    high["avg_pct_not_fully_connected"]
                    >= low["avg_pct_not_fully_connected"] - 1e-9
                ), collection

    @pytest.mark.parametrize("figure", [figure7, figure8])
    def test_figures_solved_counts_grow_with_the_limit(self, figure):
        limits = (0.1, 0.4, 1.0, TIME_LIMIT)
        result = figure(
            scale="tiny", k_values=(1, 3), time_limits=limits, algorithms=SEARCH_ALGORITHMS
        )
        for k in (1, 3):
            curves = [result.data[f"k={k}/limit={limit}"] for limit in limits]
            for algorithm in SEARCH_ALGORITHMS:
                counts = [curve[algorithm] for curve in curves]
                assert counts == sorted(counts), (k, algorithm, counts)
            assert curves[-1]["kDC"] >= curves[-1]["KDBB"] - 1, k
