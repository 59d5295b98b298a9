"""The declared mutant table: one-replacement mutations of `src/` that named
tests must catch.

A row is (id, file, old text, new text, test node ids).  For each row the
runner copies `src/` to a temporary directory, replaces the old text of
`file` (a path under `src/cachegeo/`) with the new text, and runs the named
tests with `PYTHONPATH` pointing at the copy.  The mutant is killed when
every named test fails (a parametrized test fails when any of its cases
does) and survives otherwise.  It is an error, not a skip, when the old
text is not found exactly once in its file, so a refactor that moves the
code must update the row, or when a named test is not collected or fails
on the unmutated copy.

    python tests/mutants.py [ID ...]

prints one `id killed|survived|error` line per row (all rows, or the ones
named) and exits 1 unless every row is killed.  It runs pytest once per row,
so it stays outside tier-1; tier-1 (`tests/test_mutants.py`) checks that
every old text is found exactly once, and that `check` reports a mutant
its named test cannot see as a survivor.  A survivor means a test is
missing: add one, never weaken a row.
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    id: str
    file: str
    old: str
    new: str
    tests: tuple


_ANALYTICS = "tests/test_analytics.py::"
_NAKAGAMI = _ANALYTICS + "TestNakagamiLowerBound::"
_REFUSAL = "tests/test_cli.py::TestRunMatrix::test_refusal_row"
_DOMAIN = "tests/test_model.py::TestDomainTypes::"
_BAD_DRAW_ARGS = "tests/test_simulator.py::test_bad_trials_or_seed_refused_before_any_draw"
_TRIALS_BELOW_ONE = "tests/test_simulator.py::test_trials_below_one_refused"
_PER_STEP = "tests/test_optimizer.py::TestSolveOnceMatchesPerStep::"
_LIVE_SET = "tests/test_optimizer.py::TestLiveSetMatchesFullVector::"
_A_OVER_B = _ANALYTICS + "TestHypergeometricConstants::"
_WRITER = "tests/test_cli.py::TestColumnarWriter::"
_RANDOM_ROWS = _WRITER + "test_random_rows_match_the_oracle"
_BLOCK_EDGES = _WRITER + "test_rows_across_block_boundaries_match_the_oracle"
_OTHER_KEYS = _WRITER + "test_row_with_other_keys_is_refused"
_XI_MIN = "tests/test_simulator.py::TestXiMinDistribution::"
_BATCHED = _XI_MIN + "test_batched_rows_equal_one_point_calls"
_ORACLE = "tests/test_simulator.py::TestStrongestChannelOracle::"

MUTANTS = (
    # the general-fading bound in bounded variables
    Mutant("bound-scale-without-gamma-n", "analytics.py",
           "math.gamma(b) if n == 0 else delta / _gamma_ratio(b, delta))",
           "math.gamma(b) if n == 0 else delta)",
           (_NAKAGAMI + "test_matches_quadrature",
            _NAKAGAMI + "test_finite_where_the_pochhammer_overflowed",
            _ANALYTICS + "TestRadialIntegrals::test_match_quadrature")),
    Mutant("exp-composition-without-j+1", "analytics.py",
           "T[k, 1 : k + 1] *= j1[:k] / k", "T[k, 1 : k + 1] /= k",
           (_NAKAGAMI + "test_matches_quadrature",
            _NAKAGAMI + "test_success_given_distance_matches_quadrature",
            _NAKAGAMI + "test_finite_where_the_pochhammer_overflowed",
            _NAKAGAMI + "test_large_thresholds_match_high_precision")),
    Mutant("bound-m_D-not-an-integer-type", "analytics.py",
           'raise ValueError(f"fading_desired = {m_d:g} is "',
           'raise NotImplementedError(f"fading_desired = {m_d:g} is "',
           (_NAKAGAMI + "test_rejects_fractional_desired_fading",)),
    Mutant("bound-m_D-limit-173", "analytics.py",
           "if m_d != int(m_d) or m_d > 171:", "if m_d != int(m_d) or m_d > 172:",
           (_NAKAGAMI + "test_desired_fading_up_to_171",)),
    Mutant("gamma-ratio-without-x^s", "analytics.py",
           "- s + tail) * x**s", "- s + tail)",
           (_ANALYTICS + "TestIntensity::test_fading_moment_matches_high_precision",
            _ANALYTICS + "TestIntensity::test_radial_scales_match_high_precision")),
    Mutant("c_alpha-old-check", "analytics.py",
           "if not 2 < alpha < math.inf:  # NaN fails too", "if alpha <= 2:",
           (_ANALYTICS + "test_non_finite_arguments_are_refused[c_alpha-nan]",
            _ANALYTICS + "test_non_finite_arguments_are_refused[c_alpha-inf]")),
    # values the design path computes once, or only where they are used
    Mutant("a-over-b-branches-swapped", "analytics.py",
           "small = tau < 1.0", "small = tau >= 1.0",
           (_A_OVER_B + "test_a_over_b_takes_one_branch_per_entry",
            _A_OVER_B + "test_a_over_b_against_high_precision")),
    Mutant("a-over-b-half-the-terms", "analytics.py",
           "steps = math.ceil(54.0 / -math.log2(top))", "steps = math.ceil(27.0 / -math.log2(top))",
           (_A_OVER_B + "test_a_over_b_takes_one_branch_per_entry",
            _A_OVER_B + "test_a_over_b_against_high_precision")),
    Mutant("a-over-b-prefactor-without-pi", "analytics.py",
           "total *= math.sin(math.pi * min(a, 1.0 - a)) / math.pi",
           "total *= math.sin(math.pi * min(a, 1.0 - a))",
           (_A_OVER_B + "test_a_over_b_against_high_precision",
            _A_OVER_B + "test_a_over_b_matches_quadrature")),
    Mutant("g-of-w-from-log-upper", "optimizer.py",
           "g_width = shape(width)", "g_width = shape(log_upper)",
           (_PER_STEP + "test_interference", _PER_STEP + "test_noise")),
    Mutant("live-set-keeps-the-settled", "optimizer.py",
           "a, q_a, moving = key, q, q != q_b", "a, q_a, moving = key, q, q == q_b",
           (_LIVE_SET + "test_interference", _LIVE_SET + "test_noise",
            _LIVE_SET + "test_design_sweep_library")),
    Mutant("live-set-ends-written-into-one-vector", "optimizer.py",
           "p_a, p_b = p, p.copy()", "p_a, p_b = p, p",
           (_LIVE_SET + "test_interference", _LIVE_SET + "test_noise")),
    # the interference engine: its refusals, the typical user's links, and
    # the pairs and ties of the strongest-channel load
    Mutant("pair-gains-one-short", "simulator.py",
           "last = ends[paired[-1]]", "last = ends[paired[-1]] - 1",
           ("tests/test_simulator.py::TestDecidedTrials::test_bounded_loads_keep_outcomes_and_draws",)),
    Mutant("pair-slice-unbounded", "simulator.py",
           'ends.searchsorted(starts[lo] + _PAIR_SLICE, "right")', "ends.size",
           (_ORACLE + "test_each_draw_holds_one_slice_of_pairs",)),
    Mutant("pair-position-without-run-start", "simulator.py",
           "position = (first[a:b] - seg_start).take(pair_user)",
           "position = (0 - seg_start).take(pair_user)",
           (_ORACLE + "test_loads_match_per_user_oracle",
            _ORACLE + "test_small_draw_slices_match_per_user_oracle")),
    Mutant("pair-position-without-pair-offset", "simulator.py",
           "position += np.arange(gain.size)", "position += seg_start.take(pair_user)",
           (_ORACLE + "test_loads_match_per_user_oracle",
            _ORACLE + "test_small_draw_slices_match_per_user_oracle")),
    Mutant("decided-only-when-open-for-every-target", "simulator.py",
           "undecided = ((cap >= need) & (cap / upper < need)).any(0)",
           "undecided = ((cap >= need) & (cap / upper < need)).all(0)",
           (_ORACLE + "test_loads_match_per_user_oracle",)),
    Mutant("pair-ties-to-the-highest-index", "simulator.py",
           "at = at[np.concatenate(([True], tied[1:] != tied[:-1]))]",
           "at = at[np.concatenate((tied[1:] != tied[:-1], [True]))]",
           (_ORACLE + "test_ties_go_to_the_lowest_index",)),
    Mutant("segment-argmin-ties-to-the-highest-index", "simulator.py",
           "first = np.minimum.reduceat(np.where(at_min, np.arange(values.size), values.size), starts)",
           "first = np.maximum.reduceat(np.where(at_min, np.arange(values.size), -1), starts)",
           ("tests/test_simulator.py::TestSmallestReciprocal::test_tie_breaks_to_lower_index",
            "tests/test_simulator.py::TestTypicalLink::test_instantaneous_selection_and_interference")),
    Mutant("window-population-ceiling-raised", "simulator.py",
           "if population > _CHUNK_POPULATION:", "if population > 1.25 * _CHUNK_POPULATION:",
           ("tests/test_simulator.py::TestSimulateInterferenceLimited::"
            "test_crowded_chunk_is_refused_before_any_draw",)),
    Mutant("link-terms-non-finite-accepted", "simulator.py",
           "if not np.isfinite(term).all():", "if False:",
           ("tests/test_simulator.py::TestFloatRange::test_non_finite_link_term_raises",)),
    Mutant("typical-links-nearest-by-gain", "simulator.py",
           "key = chunk.helper_dist if nearest else reciprocal", "key = reciprocal",
           ("tests/test_simulator.py::TestTypicalLinksOracle::test_links_match_per_trial_loop",)),
    Mutant("version-slice-off-by-one", "experiments.py",
           "return line[8:]", "return line[9:]",
           ("tests/test_cli.py::TestVersion::test_header_forms",)),
    # the CSV writer: its escapes, its checks, the cells it reuses and its blocks
    Mutant("writer-percent-unescaped", "experiments.py",
           'parts.append(_cell(value, alone).replace("%", "%%"))',
           "parts.append(_cell(value, alone))",
           (_RANDOM_ROWS, _BLOCK_EDGES)),
    Mutant("cell-quotes-undoubled", "experiments.py",
           """return '"' + text.replace('"', '""') + '"'""", """return '"' + text + '"'""",
           (_WRITER + "test_synthetic_rows_match_the_oracle", _RANDOM_ROWS)),
    Mutant("cell-alone-empty-unquoted", "experiments.py",
           "if (alone and not text) or any(", "if any(",
           (_WRITER + "test_empty_cell_of_a_one_column_line_is_quoted[single]",
            _WRITER + "test_empty_cell_of_a_one_column_line_is_quoted[array]")),
    Mutant("writer-lengths-unchecked", "experiments.py",
           """raise ValueError(f"a row's arrays differ in length: {arrays}")""", "pass",
           (_WRITER + "test_arrays_of_unequal_length_raise",
            _WRITER + "test_failed_run_keeps_an_earlier_csv")),
    Mutant("writer-row-columns-unchecked", "experiments.py",
           """raise ValueError(f"a row's columns {list(row)} differ from the first row's {fields}")""",
           "pass",
           (_OTHER_KEYS + "[one-key-more]", _OTHER_KEYS + "[one-key-fewer]",
            _OTHER_KEYS + "[reordered]")),
    Mutant("optimizer-rows-c-always", "experiments.py",
           '**({} if consts is None else {"c": consts.c}),',
           '**({"c": ""} if consts is None else {"c": consts.c}),',
           ("tests/test_cli.py::TestRun::test_every_scenario_writes_its_header[optimize-noise]",)),
    Mutant("writer-bools-as-%d", "experiments.py",
           'if kind not in "fiu":', 'if kind not in "fiub":',
           (_RANDOM_ROWS, _BLOCK_EDGES)),
    Mutant("writer-floats-%.11g", "experiments.py",
           'slot = "%.12g" if kind == "f"', 'slot = "%.11g" if kind == "f"',
           (_WRITER + "test_synthetic_rows_match_the_oracle",
            _WRITER + "test_matches_the_per_cell_oracle[optimize-noise-sweep]", _RANDOM_ROWS)),
    Mutant("writer-reuse-by-value", "experiments.py",
           "np.array_equal(*(np.ascontiguousarray(x).view(np.uint8) for x in (a, b)))",
           "np.array_equal(a, b)",
           (_RANDOM_ROWS, _BLOCK_EDGES)),
    Mutant("writer-block-one-line-short", "experiments.py",
           "n = min(count - start, _BLOCK)", "n = min(count - start, _BLOCK - 1)",
           (_RANDOM_ROWS, _BLOCK_EDGES)),
    Mutant("writer-block-past-the-row", "experiments.py",
           "size = min(count, _BLOCK)", "size = _BLOCK",
           (_WRITER + "test_a_one_line_row_is_not_repeated_to_a_block",)),
    # caching probabilities outside [0, 1]
    Mutant("analytics-probabilities-unchecked", "analytics.py",
           "        raise ValueError(violation)", "        pass",
           (_ANALYTICS + "test_probabilities_outside_the_unit_interval_are_refused",)),
    Mutant("probability-above-one-allowed", "model.py",
           "if ((p >= 0) & (p <= 1)).all():", "if ((p >= 0) & (p <= 2)).all():",
           (_ANALYTICS + "test_probabilities_outside_the_unit_interval_are_refused[xi1_cdf-2.0]",
            "tests/test_model.py::TestValidatePolicy::test_negative_and_oversized_probabilities")),
    # config fields that no part of the run reads
    Mutant("channel-outside-simulate", "experiments.py",
           'if self.channel != "noise" and self.scenario != "simulate":', "if False:",
           (_REFUSAL + "[channel-on-optimize-noise]",
            _REFUSAL + "[channel-on-figure-approx-check]")),
    Mutant("load_mode-outside-interference", "experiments.py",
           'if self.load_mode != "instantaneous" and (', "if False and (",
           (_REFUSAL + "[load_mode-on-noise]", _REFUSAL + "[load_mode-on-optimize-sir]")),
    Mutant("c_value-unchecked", "experiments.py",
           'if self.c_mode == "fixed" and not 1 <= self.c_value < math.inf:', "if False:",
           (_REFUSAL + "[c_value=nan]", _REFUSAL + "[c_value=inf]", _REFUSAL + "[c_value=0.5]")),
    Mutant("c_value-read-under-any-c_mode", "experiments.py",
           'if self.c_value != type(self).c_value and not (self.c_mode == "fixed" and reads_c):',
           "if False:",
           (_REFUSAL + "[c_value-under-load]",)),
    Mutant("c_mode-outside-c-readers", "experiments.py",
           'if self.c_mode != "load" and not reads_c:', "if False:",
           (_REFUSAL + "[c_mode-on-optimize-noise]",)),
    Mutant("probs-outside-explicit-accepted", "experiments.py",
           'if self.probs and (self.scenario, self.policy_source) != ("simulate", "explicit"):',
           "if False:",
           (_REFUSAL + "[probs-on-uc]",)),
    Mutant("sweep-grid-empty-accepted", "experiments.py",
           "if not self.sweep_grid:", "if False:",
           (_REFUSAL + "[sweep-without-sweep_grid]",)),
    Mutant("explicit-probs-length-unchecked", "experiments.py",
           "if len(config.probs) != library.count:", "if False:",
           (_REFUSAL + "[explicit-probs-length]",)),
    Mutant("fading_desired-unchecked", "model.py",
           'for name in ("fading_desired", "fading_interf"):', 'for name in ("fading_interf",):',
           (_REFUSAL + "[inf-fading_desired]",
            _DOMAIN + "test_params_require_finite_fading[fading_desired]")),
    # guards that tier-1 once never executed
    Mutant("negative-xi-allowed", "analytics.py",
           'raise ValueError("xi must be >= 0")', "pass",
           (_ANALYTICS + "TestXi1Cdf::test_negative_xi_rejected",)),
    Mutant("bound-takes-a-batch", "analytics.py",
           'raise ValueError("nakagami_lower_bound evaluates one policy at a time")', "pass",
           ("tests/test_simulator.py::TestPolicyLength::test_nakagami_bound_takes_one_policy",)),
    Mutant("mean-load-one-good-p-passes", "analytics.py",
           "if not np.all((0 < p) & (p < math.inf)):", "if not np.any((0 < p) & (p < math.inf)):",
           (_ANALYTICS + "test_non_finite_arguments_are_refused[load-p-array-zero]",
            _ANALYTICS + "test_non_finite_arguments_are_refused[load-p-array-nan]",
            _ANALYTICS + "test_non_finite_arguments_are_refused[load-p-array-inf]")),
    Mutant("mean-load-zero-helper-density", "analytics.py",
           "if not 0 < helper_density < math.inf:", "if not 0 <= helper_density < math.inf:",
           (_ANALYTICS + "TestMeanLoad::test_zero_helper_density_rejected",)),
    Mutant("constants-tau-zero", "analytics.py",
           "if np.any(tau <= 0):", "if np.any(tau < 0):",
           (_ANALYTICS + "TestHypergeometricConstants::"
            "test_constants_outside_their_domain_rejected[tau=0]",)),
    Mutant("constants-b-equal-a", "analytics.py",
           "if np.any(B <= A):", "if np.any(B < A):",
           (_ANALYTICS + "TestHypergeometricConstants::"
            "test_constants_outside_their_domain_rejected[B=A]",)),
    Mutant("library-count-zero", "model.py",
           "if self.count < 1:", "if self.count < 0:",
           (_DOMAIN + "test_library_rejects_bad_count_or_popularity[count=0]",)),
    Mutant("library-zero-popularity", "model.py",
           "if not np.all(pop > 0):", "if not np.all(pop >= 0):",
           (_DOMAIN + "test_library_rejects_bad_count_or_popularity[zero-popularity]",)),
    Mutant("policy-2-D", "model.py",
           "if probs.ndim != 1 or probs.size == 0:", "if probs.size == 0:",
           (_DOMAIN + "test_policy_rejects_bad_shape_or_memory[2-D]",)),
    Mutant("policy-memory-zero", "model.py",
           "if int(self.memory) != self.memory or self.memory < 1:",
           "if int(self.memory) != self.memory:",
           (_DOMAIN + "test_policy_rejects_bad_shape_or_memory[memory=0]",)),
    Mutant("optimizer-fractional-memory", "optimizer.py",
           'raise ValueError("memory must be an integer")', "pass",
           ("tests/test_optimizer.py::TestOptimizeNoise::test_rejects_fractional_memory",)),
    Mutant("noise-engine-over-budget-accepted", "simulator.py",
           'raise ValueError(f"infeasible policy: {violation}")', "pass",
           ("tests/test_simulator.py::TestSimulateNoiseLimited::"
            "test_over_budget_policy_refused_before_any_draw",)),
    Mutant("bisection-failure-unraised", "optimizer.py",
           "if not (np.nextafter(a, np.inf) >= b and np.isfinite(p.sum())):", "if False:",
           ("tests/test_cli.py::TestExitCodes::test_numeric_failure_exits_3",)),
    Mutant("config-unknown-keyword", "experiments.py",
           "    except TypeError as exc:\n        raise ConfigError(str(exc)) from exc",
           "    except KeyError as exc:\n        raise ConfigError(str(exc)) from exc",
           ("tests/test_cli.py::TestConfig::test_unknown_keyword_rejected",)),
    Mutant("select_c-certifies-anything", "experiments.py",
           'raise NumericalError(f"no c in {_C_GRID} certifies',
           'return _C_GRID[-1]\n    raise NumericalError(f"no c in {_C_GRID} certifies',
           ("tests/test_cli.py::TestExitCodes::test_uncertified_load_bound_exits_3",)),
    # the bucket-table request lookup and the draw-argument check
    Mutant("requests-strict-probe", "simulator.py",
           "found += half * (self._cdf.take(found + (half - 1)) <= u)",
           "found += half * (self._cdf.take(found + (half - 1)) < u)",
           ("tests/test_simulator.py::TestRequests::test_bucket_edges_match_searchsorted",)),
    Mutant("requests-one-step-fewer", "simulator.py",
           "steps = int(np.diff(start).max()).bit_length()",
           "steps = int(np.diff(start).max()).bit_length() - 1",
           ("tests/test_simulator.py::TestRequests::test_bucket_edges_match_searchsorted",)),
    Mutant("requests-bucket-scale", "simulator.py",
           "self._scale = float(buckets)", "self._scale = float(buckets - 1)",
           ("tests/test_simulator.py::TestRequests::test_bucket_edges_match_searchsorted",)),
    Mutant("requests-table-per-chunk", "simulator.py",
           "        chunk = _sample_chunk(rng, n, requests, params, layout, radius)",
           "        requests = _Requests(library.popularity)\n"
           "        chunk = _sample_chunk(rng, n, requests, params, layout, radius)",
           ("tests/test_simulator.py::TestRequests::test_each_engine_call_builds_one_table",)),
    Mutant("draw-args-accept-bools", "simulator.py",
           "whole = not isinstance(value, bool) and index(value) >= least",
           "whole = index(value) >= least",
           (_BAD_DRAW_ARGS + "[sample_xi_min-True-1-trials]",
            _BAD_DRAW_ARGS + "[sample_xi_min-10-True-seed]")),
    Mutant("draw-args-trials-from-zero", "simulator.py",
           '("trials", trials, 1), ("seed", seed, 0)', '("trials", trials, 0), ("seed", seed, 0)',
           (_TRIALS_BELOW_ONE + "[sample_xi_min-0]", _TRIALS_BELOW_ONE + "[sample_xi_min--1]")),
    Mutant("xi-min-draw-args-unchecked", "simulator.py",
           "    _check_draw_args(trials, seed)\n    points = list(networks)",
           "    points = list(networks)",
           (_TRIALS_BELOW_ONE + "[sample_xi_min-0]",)),
    Mutant("interference-pass-draw-args-unchecked", "simulator.py",
           "    _check_draw_args(trials, seed)\n    mean_modes", "    mean_modes",
           (_TRIALS_BELOW_ONE + "[_simulate_interference_pass-0]",
            _TRIALS_BELOW_ONE + "[simulate_interference_limited-0]")),
    Mutant("library-length-unchecked", "model.py",
           "if pop.shape != (self.count,) or rates.shape != (self.count,):",
           "if rates.shape != (self.count,):",
           (_DOMAIN + "test_library_rejects_bad_count_or_popularity[wrong-length]",)),
    Mutant("noise-engine-draw-args-unchecked", "simulator.py",
           "    _check_draw_args(trials, seed)\n    # raises before any draw; theta^delta",
           "    # raises before any draw; theta^delta",
           (_BAD_DRAW_ARGS + "[simulate_noise_limited-10.5-1-trials]",)),
    # the noise kernel's shared draws: counts and radii once, gains once per fading
    Mutant("xi-min-state-not-restored", "simulator.py",
           "rng.bit_generator.state = after_radii", "pass",
           (_BATCHED, _XI_MIN + "test_batched_empty_trials_are_inf_in_every_row")),
    Mutant("xi-min-shared-fading-from-wrong-row", "simulator.py",
           "samples[row] = samples[owner[point.fading_desired]]",
           "samples[row] = samples[row - 1]",
           (_BATCHED, _XI_MIN + "test_batched_empty_trials_are_inf_in_every_row")),
    Mutant("xi-min-empty-inf-first-fading-only", "simulator.py",
           "out[empty] = np.inf", "outs[0][empty] = np.inf",
           (_XI_MIN + "test_batched_empty_trials_are_inf_in_every_row",)),
    Mutant("xi-min-mixed-alpha-accepted", "simulator.py",
           "if len(alphas) != 1:", "if not alphas:",
           (_XI_MIN + "test_batched_points_must_share_pathloss_exp",)),
    Mutant("cdf-sorted-copy", "experiments.py",
           "xi.sort()\n        empirical = np.searchsorted(xi,",
           "empirical = np.searchsorted(np.sort(xi),",
           ("tests/test_cli.py::TestFigureRegistry::"
            "test_figure_3_holds_one_row_per_curve_and_the_kernel_buffers",)),
)


def occurrences(mutant: Mutant) -> int:
    """How often the row's old text occurs in its file."""
    return (ROOT / "src" / "cachegeo" / mutant.file).read_text().count(mutant.old)


def _failing(src: Path, tests, workdir: Path) -> dict:
    """Whether each of `tests` fails when run against the package in `src`;
    a test that pytest did not report is missing from the result."""
    # the run's cwd holds Hypothesis's example database, away from the repo
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "--tb=no", "-p", "no:cacheprovider",
         "--rootdir", str(ROOT), "-c", str(ROOT / "pyproject.toml"),
         *(str(ROOT / test) for test in tests)],
        cwd=workdir, env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(src), os.environ.get("PYTHONPATH"))))),
        capture_output=True, text=True)
    outcomes = []
    for line in result.stdout.splitlines():
        if line.startswith(("PASSED ", "FAILED ", "ERROR ")):
            word, node = line.split(" ", 2)[:2]
            path, sep, rest = node.partition("::")  # the path is relative to the cwd
            outcomes.append((word, (workdir / path).resolve().relative_to(ROOT).as_posix()
                             + sep + rest))
    failing = {}
    for test in tests:
        hits = [word != "PASSED" for word, node in outcomes  # a node may be a whole file
                if node in (test, test.split("::")[0]) or node.startswith(test + "[")]
        if hits:
            failing[test] = any(hits)
    return failing


def check(mutant: Mutant, workdir: Path) -> str:
    """'killed' or 'survived', or an error text."""
    found = occurrences(mutant)
    if found != 1:
        return f"error: the old text occurs {found} times in {mutant.file}"
    src = workdir / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    target = src / "cachegeo" / mutant.file
    target.write_text(target.read_text().replace(mutant.old, mutant.new))
    failing = _failing(src, mutant.tests, workdir)
    missing = [test for test in mutant.tests if test not in failing]
    if missing:
        return f"error: not collected: {missing}"
    passed = [test for test in mutant.tests if not failing[test]]
    return f"survived: {passed} passed" if passed else "killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run each declared mutant against its "
                                     "tests; exit 1 unless every row is killed.")
    parser.add_argument("ids", nargs="*", help="rows to run (default: all)")
    args = parser.parse_args(argv)
    unknown = set(args.ids) - {mutant.id for mutant in MUTANTS}
    if unknown:
        parser.error(f"unknown mutant ids: {sorted(unknown)}")
    rows = [mutant for mutant in MUTANTS if not args.ids or mutant.id in args.ids]
    start, bad = time.perf_counter(), 0
    with tempfile.TemporaryDirectory() as directory:
        workdir = Path(directory)
        tests = tuple(dict.fromkeys(test for mutant in rows for test in mutant.tests))
        failing = _failing(ROOT / "src", tests, workdir)
        broken = [test for test in tests if failing.get(test, True)]
        if broken:
            print(f"error: not collected or failing unmutated: {broken}", file=sys.stderr)
            return 1
        for mutant in rows:
            outcome = check(mutant, workdir)
            bad += outcome != "killed"
            print(mutant.id, outcome, flush=True)
    print(f"{len(rows) - bad} of {len(rows)} killed in {time.perf_counter() - start:.0f} s",
          flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
