"""Parity tests for the runner's parallel and cached execution paths.

The performance layer must never change results: the parallel matrix and
the disk-cache round trip both have to reproduce the serial, uncached
outputs byte-for-byte (virtual clock + fixed seed ⇒ determinism).
"""

import json

import pytest

from repro.experiments.runner import (
    ExperimentRunner,
    ExperimentSettings,
    PROFILING_KEY,
)

WORKLOADS = ("cassandra-wi",)
STRATEGIES = ("g1", "polm2")
PROFILE_MS = 1_500.0
PRODUCTION_MS = 2_500.0


def settings(**overrides) -> ExperimentSettings:
    params = dict(profiling_ms=PROFILE_MS, production_ms=PRODUCTION_MS)
    params.update(overrides)
    return ExperimentSettings(**params)


def canonical(matrix) -> str:
    """Byte-exact serialization of a result matrix."""
    return json.dumps(
        {
            f"{workload}|{strategy}": result.to_dict()
            for (workload, strategy), result in sorted(matrix.items())
        },
        sort_keys=True,
    )


@pytest.fixture(scope="module")
def serial_matrix():
    runner = ExperimentRunner(settings())
    return canonical(runner.full_matrix(WORKLOADS, STRATEGIES))


class TestParallelParity:
    def test_parallel_matches_serial_byte_for_byte(self, serial_matrix):
        runner = ExperimentRunner(settings(jobs=2))
        parallel = runner.full_matrix(WORKLOADS, STRATEGIES)
        assert canonical(parallel) == serial_matrix

    def test_jobs_argument_overrides_settings(self, serial_matrix):
        runner = ExperimentRunner(settings())
        parallel = runner.full_matrix(WORKLOADS, STRATEGIES, jobs=2)
        assert canonical(parallel) == serial_matrix


class TestDiskCacheParity:
    def test_cached_second_run_matches_serial(self, serial_matrix, tmp_path):
        cache_dir = str(tmp_path / "cache")
        warm = ExperimentRunner(settings(cache_dir=cache_dir))
        assert canonical(warm.full_matrix(WORKLOADS, STRATEGIES)) == (
            serial_matrix
        )
        cold = ExperimentRunner(settings(cache_dir=cache_dir))
        assert canonical(cold.full_matrix(WORKLOADS, STRATEGIES)) == (
            serial_matrix
        )
        # The cached run served every cell from disk: no pipeline was
        # ever built and no profiling phase was forced (satellite: cached
        # polm2 cells must not recompute their profile).
        assert not cold._pipelines
        assert not cold._profiles

    def test_profiling_phase_cached_on_disk(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        warm = ExperimentRunner(settings(cache_dir=cache_dir))
        profile = warm.profile(WORKLOADS[0])
        cold = ExperimentRunner(settings(cache_dir=cache_dir))
        assert not cold._pipelines
        assert cold.profile(WORKLOADS[0]).to_json() == profile.to_json()
        assert not cold._pipelines  # served from disk, never computed
        cell = cold._cache_load(WORKLOADS[0], PROFILING_KEY)
        assert cell is not None and cell.snapshots is not None

    def test_settings_change_invalidates_key(self, tmp_path):
        from repro.config import SimConfig

        cache_dir = str(tmp_path / "cache")

        def key(**overrides):
            backend = settings(cache_dir=cache_dir, **overrides).open_backend(
                SimConfig()
            )
            return backend.key

        assert key() != key(production_ms=PRODUCTION_MS + 1)
        # jobs/cache_dir are performance knobs, not result inputs.
        assert key() == key(jobs=8)


class TestPauseSeries:
    def test_baseline_only_series_never_profiles(self):
        runner = ExperimentRunner(settings())
        series = runner.pause_series(WORKLOADS[0], strategies=("g1",))
        assert set(series) == {"G1"}
        assert not runner._profiles
        assert not runner._profiling_results
