"""What each entry point leaves unloaded: numpy, numpy.random, networkx.

Every check runs its code in a fresh interpreter, because this test
process has long since imported all three.  A module that starts
importing one of them at top level fails here; ``python -X importtime
-c "import repro.api"`` then names the module that pulled it in.
"""

import os
import subprocess
import sys
import textwrap

import pytest

#: The perfbench solve specs, each solved on its default network.
ARRAY_SOLVES = (
    ("matching:delta=4,x=0,y=1", "matching:proposal"),
    ("mis:delta=4", "mis:luby"),
    ("ruling-set:delta=4,colors=1,beta=2", "ruling-set:class-sweep"),
)


def _run_fresh(code: str) -> None:
    """Run ``code`` in a fresh interpreter on this process's module path;
    an assertion that fails there fails the test with its traceback."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


def test_graphs_package_imports_without_numpy():
    # Exploration imports repro.graphs; numpy would add ~12 MB of RSS and
    # ~0.15 s of set-up to a path that never uses it.
    _run_fresh("import sys, repro.graphs; assert 'numpy' not in sys.modules")


@pytest.mark.parametrize("module", ["repro.utils.serialization", "repro.roundelim.explore"])
def test_exploration_path_imports_without_numpy(module):
    # Serialization encodes array-backed solutions through encoders that
    # repro.local.dense registers; their numpy code must stay out of the
    # exploration path (numpy raised explore-d3's peak RSS by a third).
    _run_fresh(f"import sys, {module}; assert 'numpy' not in sys.modules")


def test_luby_solve_leaves_numpy_random_unloaded():
    # Importing numpy.random adds ~7.5 ms to every process's set-up; the
    # replay brings its own twist.
    _run_fresh(
        """
        import sys, repro.api as api
        report = api.solve('mis:delta=4', algorithm='mis:luby', engine='vectorized',
                           n=200, seed=1)
        assert report.valid
        assert 'numpy.random' not in sys.modules, 'numpy.random was imported'
        """
    )


def test_array_solves_leave_networkx_unloaded():
    # networkx costs ~0.15 s of every solve process's set-up, and a
    # default array solve builds no graph.
    _run_fresh(
        f"""
        import sys, repro.api as api
        for problem, algorithm in {ARRAY_SOLVES!r}:
            report = api.solve(problem, algorithm=algorithm, engine='vectorized',
                               n=200, seed=1)
            assert report.valid, (algorithm, report.check)
            report.canonical_json()
            assert 'networkx' not in sys.modules, algorithm
        """
    )


def test_exploration_leaves_networkx_unloaded():
    _run_fresh(
        """
        import sys
        from repro.problems.matching import pi_matching
        from repro.roundelim.explore import ExplorationLimits, explore
        report = explore(
            [pi_matching(3, 0, 1), pi_matching(3, 1, 1)],
            limits=ExplorationLimits(max_depth=1, max_nodes=4),
        )
        report.canonical_json()
        assert 'networkx' not in sys.modules
        """
    )


def test_service_boot_leaves_networkx_unloaded(tmp_path):
    _run_fresh(
        f"""
        import sys, repro.service
        service = repro.service.SolveService(cache_dir={str(tmp_path)!r})
        service.close()
        assert 'networkx' not in sys.modules
        """
    )


def test_object_engine_solve_loads_networkx():
    # The control: the object engine walks network.graph, so the checks
    # above would see networkx if a solve path reached it.
    _run_fresh(
        """
        import sys, repro.api as api
        report = api.solve('matching:delta=4,x=0,y=1', algorithm='matching:proposal',
                           engine='object', n=200, seed=1)
        assert report.valid
        assert 'networkx' in sys.modules
        """
    )
