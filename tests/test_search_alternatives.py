"""Tests for the alternative search strategies (section 2.3's named
alternative, a genetic algorithm, plus the random and exhaustive
baselines)."""

import pytest

from repro.errors import SearchError
from repro.fko import FKO, TransformParams
from repro.kernels import get_kernel
from repro.machine import Context, pentium4e
from repro.search import LineSearch, build_space, make_searcher
from repro.timing.timer import Timer


@pytest.fixture(scope="module")
def setup():
    spec = get_kernel("dasum")
    p4e = pentium4e()
    fko = FKO(p4e)
    a = fko.analyze(spec.hil)
    # a trimmed space keeps the exhaustive sweep fast
    space = build_space(a, p4e, unrolls=(1, 4, 8), aes=(1, 2),
                        dist_lines=(2, 8, 16))
    start = fko.defaults(spec.hil)
    timer = Timer(p4e, Context.OUT_OF_CACHE, 20000)
    cache = {}

    def evaluate(params):
        key = params.key()
        if key not in cache:
            cache[key] = timer.time(fko.compile(spec.hil, params),
                                    spec).cycles
        return cache[key]

    return spec, a, space, start, evaluate


def _search(name, evaluate, space, start, max_evals, **opts):
    return make_searcher(name, space, start, max_evals=max_evals,
                         **opts).run(evaluate)


# registry names; the ids keep the long-standing test names
ALL = [pytest.param("random", id="random_search"),
       pytest.param("genetic", id="genetic_search")]


class TestStrategies:
    @pytest.mark.parametrize("strategy", ALL)
    def test_never_worse_than_start(self, strategy, setup):
        _, a, space, start, evaluate = setup
        res = _search(strategy, evaluate, space, start, max_evals=40,
                      seed=3)
        assert res.best_cycles <= res.start_cycles

    @pytest.mark.parametrize("strategy", ALL)
    def test_budget_respected(self, strategy, setup):
        _, a, space, start, evaluate = setup
        res = _search(strategy, evaluate, space, start, max_evals=15,
                      seed=1)
        assert res.n_evaluations <= 15

    @pytest.mark.parametrize("strategy", ALL)
    def test_zero_budget_rejected(self, strategy, setup):
        _, a, space, start, evaluate = setup
        with pytest.raises(SearchError):
            _search(strategy, evaluate, space, start, max_evals=0)

    @pytest.mark.parametrize("strategy", ALL)
    def test_deterministic_given_seed(self, strategy, setup):
        _, a, space, start, evaluate = setup
        r1 = _search(strategy, evaluate, space, start, max_evals=30, seed=9)
        r2 = _search(strategy, evaluate, space, start, max_evals=30, seed=9)
        assert r1.best_params.key() == r2.best_params.key()
        assert r1.best_cycles == r2.best_cycles


class TestAgainstExhaustive:
    def test_line_search_matches_exhaustive_on_small_space(self, setup):
        """The paper's claim, quantified: on a space small enough to
        sweep, the seeded line search finds (near-)optimal points at a
        fraction of the evaluations."""
        _, a, space, start, evaluate = setup
        gold = _search("exhaustive", evaluate, space, start,
                       max_evals=100000)
        ls = LineSearch(space, start,
                        output_arrays=a.output_arrays).run(evaluate)
        # within noise of the exhaustive optimum...
        assert ls.best_cycles <= gold.best_cycles * 1.03
        # ...at a small fraction of the cost
        assert ls.n_evaluations < gold.n_evaluations / 2

    def test_exhaustive_covers_shared_distance_grid(self, setup):
        _, a, space, start, evaluate = setup
        gold = _search("exhaustive", evaluate, space, start,
                       max_evals=100000)
        # sv(2) * wnt(1) * ur(3) * ae(2) * (1 + dists(3)*hints(3)) = 120
        assert gold.n_evaluations <= 2 * 1 * 3 * 2 * 10 + 1
        assert gold.n_evaluations > 50
