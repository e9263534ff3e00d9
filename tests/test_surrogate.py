"""Tests for the surrogate strategy, the warm-start transfer wrapper
and their support layers: the generic feature encoding on
:class:`SearchSpace`, the warm-start neighbor lookup with wire-schema
canonicalization, and the crash-proofed curves/perf-diff reporting.

The determinism suite here complements ``test_strategies.py`` (which
already races every seeded strategy through the jobs=1 vs jobs=N
bit-identity and same-seed parametrizations, including ``surrogate``
and the warm-started ``transfer`` wrapper): the golden ask-stream
digest below pins the surrogate's exact proposal sequence, so an
accidental change to the mirror rng, the model rng split, the EI
tie-break or the batch composition shows up as a digest mismatch, not
a silent quality drift.
"""

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import cli
from repro.errors import SearchError
from repro.fko import TransformParams
from repro.machine import Context
from repro.obs import aggregate_curves, collect_curves
from repro.obs.perfdiff import diff_metrics, render_diff
from repro.search import (SearchSpace, TransferSearch, TuneConfig,
                          build_space, lookup_warm_start, make_searcher,
                          searcher_names, tune_kernel, write_warm_entry)
from repro.search.space import dim_get
from repro.search.strategies import _fit_tree, _Forest, _RegressionTree
from repro.service import TuneRequest

from .conftest import DDOT_SRC


@pytest.fixture
def ddot_space(fko_p4e, p4e, ddot_src):
    a = fko_p4e.analyze(ddot_src)
    return build_space(a, p4e), fko_p4e.defaults(ddot_src)


@pytest.fixture
def dgemm_space(fko_p4e, p4e):
    from repro.hil.tiling import nest_info
    from repro.kernels import get_kernel
    src = get_kernel("dgemm").hil
    return (build_space(fko_p4e.analyze(src), p4e, nest=nest_info(src)),
            fko_p4e.defaults(src))


def _fake_cycles(params):
    """Deterministic pseudo-cycles, independent of dict/set ordering."""
    h = hashlib.sha256(repr(params.key()).encode()).digest()
    return 1000.0 + int.from_bytes(h[:6], "big") % 100000


def _drive(searcher):
    asked = []
    while not searcher.finished:
        batch = searcher.ask()
        asked.extend(p.key() for p in batch)
        searcher.tell([(p, _fake_cycles(p)) for p in batch])
    return asked, searcher.result()


# ---------------------------------------------------------------------------
# feature encoding

class TestEncoding:
    def test_one_feature_per_declared_dimension_in_order(self, ddot_space):
        sp, start = ddot_space
        x = sp.encode(start)
        assert len(x) == len(sp.dimensions)
        assert all(0.0 <= v <= 1.0 for v in x)
        # flipping exactly one dimension moves exactly that coordinate
        for i, dim in enumerate(sp.dimensions):
            if len(dim.options) < 2:
                continue
            cur = dim_get(start, dim.name)
            other = next(o for o in dim.options if o != cur)
            from repro.search.space import dim_set
            y = sp.encode(dim_set(start, dim.name, other))
            changed = [j for j in range(len(x)) if x[j] != y[j]]
            assert changed == [i], dim.name
            break
        else:
            pytest.skip("space has no multi-option dimension")

    def test_null_erased_ext_encodes_like_absent(self, ddot_space):
        sp, start = ddot_space
        absent = start.copy()
        erased = start.copy()
        # a store round-trip can hand back an explicit zero entry where
        # with_ext would have dropped the key entirely; dim_get folds
        # both to the same value, so the encodings must be identical
        erased.ext = dict(erased.ext)
        erased.ext["tile:j"] = 0
        assert sp.encode(absent) == sp.encode(erased)

    def test_off_grid_value_snaps_to_nearest_option(self):
        sp = SearchSpace(sv_options=[False], wnt_options=[False],
                         unroll_options=[1, 2, 4, 8], ae_options=[1],
                         prefetch_arrays=[], hint_options=[],
                         dist_options=[0], line=64)
        i = next(j for j, d in enumerate(sp.dimensions)
                 if d.name == "unroll")
        # 3 is off the grid, equidistant from 2 and 4: the lower
        # option index wins, so the snap is deterministic
        off = sp.encode(TransformParams(unroll=3))[i]
        assert off == sp.encode(TransformParams(unroll=2))[i]
        assert off != sp.encode(TransformParams(unroll=4))[i]

    def test_encoding_digest_stable_across_processes(self, ddot_space):
        sp, start = ddot_space
        here = hashlib.sha256(repr(sp.encode(start)).encode()).hexdigest()
        prog = (
            "import hashlib\n"
            "from repro.fko import FKO\n"
            "from repro.machine import pentium4e\n"
            "from repro.search import build_space\n"
            "src = %r\n"
            "p4e = pentium4e()\n"
            "fko = FKO(p4e)\n"
            "sp = build_space(fko.analyze(src), p4e)\n"
            "x = sp.encode(fko.defaults(src))\n"
            "print(hashlib.sha256(repr(x).encode()).hexdigest())\n"
        ) % DDOT_SRC
        env = dict(os.environ)
        src_dir = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "random"   # must not matter
        out = subprocess.run([sys.executable, "-c", prog], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == here

    def test_distance_is_zero_on_self_and_symmetric(self, ddot_space):
        import numpy as np
        from repro.search.strategies import _random_point
        sp, start = ddot_space
        other = _random_point(sp, np.random.default_rng(1))
        assert sp.distance(start, start) == 0.0
        assert sp.distance(start, other) == sp.distance(other, start)

    def test_project_keeps_on_grid_values_and_fills_off_grid(self,
                                                             ddot_space):
        sp, start = ddot_space
        projected = sp.project(start)
        for dim in sp.dimensions:
            assert dim_get(projected, dim.name) in dim.options
        # an off-grid unroll falls back to the start's value
        from repro.search.space import dim_set
        weird = dim_set(start, "unroll", 999) \
            if any(d.name == "unroll" for d in sp.dimensions) else None
        if weird is not None:
            back = sp.project(weird, fallback=start)
            assert dim_get(back, "unroll") == dim_get(start, "unroll")


# ---------------------------------------------------------------------------
# the surrogate strategy

class TestSurrogate:
    #: sha256 over the exact key sequence the surrogate asks for on the
    #: ddot space (p4e, max_evals=32, seed=7) against the _fake_cycles
    #: evaluator — regenerate only for a *deliberate* proposal change
    GOLDEN_ASK_DIGEST = ("34b893ed310a2fe56eafe7dd582ffbdb"
                         "0cd9efc98ca50c2c4ee8ddf99086adb2")

    def test_golden_seeded_ask_stream(self, ddot_space):
        sp, start = ddot_space
        s = make_searcher("surrogate", sp, start, max_evals=32, seed=7)
        asked, res = _drive(s)
        assert res.n_evaluations == 32
        digest = hashlib.sha256(repr(asked).encode()).hexdigest()
        assert digest == self.GOLDEN_ASK_DIGEST

    #: the same digest at the benchmark budget (max_evals=96, seed=7):
    #: 76 explore evaluations, then several model rounds fit on 76 or
    #: more observations, so these pin the forest fit and the pool
    #: scoring where the 32-eval digest reaches about one round.
    #: dgemm's space is tiled (tile:i/k/j dimensions)
    GOLDEN_FULL_BUDGET = {
        "ddot": ("18a062a47c2a1cf00f38f802eda8835c"
                 "56b2d219fb66cbce04ca137d422f5092"),
        "dgemm": ("342ef976947f4aa3efdac80b7882cc43"
                  "b241a8402e75105a9f02e198f9499614"),
    }

    @pytest.mark.parametrize("kernel", sorted(GOLDEN_FULL_BUDGET))
    def test_golden_full_budget_ask_stream(self, kernel, request):
        sp, start = request.getfixturevalue(f"{kernel}_space")
        s = make_searcher("surrogate", sp, start, max_evals=96, seed=7)
        asked, res = _drive(s)
        assert res.n_evaluations == 96
        assert any(phase == "model" for phase, _, _ in res.history)
        digest = hashlib.sha256(repr(asked).encode()).hexdigest()
        assert digest == self.GOLDEN_FULL_BUDGET[kernel]

    def test_explore_prefix_mirrors_random_stream(self, ddot_space):
        sp, start = ddot_space
        sur, _ = _drive(make_searcher("surrogate", sp, start,
                                      max_evals=40, seed=5))
        rnd, _ = _drive(make_searcher("random", sp, start,
                                      max_evals=40, seed=5))
        n_explore = int(40 * 0.8)
        common = 0
        for a, b in zip(sur, rnd):
            if a != b:
                break
            common += 1
        assert common >= n_explore

    def test_ask_batch_is_stable_permutation_charged_once(self,
                                                          ddot_space):
        sp, start = ddot_space
        s = make_searcher("surrogate", sp, start, max_evals=24, seed=2)
        s.tell([(p, _fake_cycles(p)) for p in s.ask()])   # start point
        flat = s.ask()
        assert len(flat) > 1
        charged = s.n_evaluations
        groups = s.ask_batch(limit=3)
        # a pure evaluation hint: same multiset, nothing re-charged,
        # same grouping on a second call
        assert sorted(p.key() for g in groups for p in g) \
            == sorted(p.key() for p in flat)
        assert all(len(g) <= 3 for g in groups)
        assert s.n_evaluations == charged
        assert [[p.key() for p in g] for g in s.ask_batch(limit=3)] \
            == [[p.key() for p in g] for g in groups]
        s.tell([(p, _fake_cycles(p)) for p in flat])      # still ask order
        # telling never re-charges the told batch: only the next ask's
        # fresh candidates account for the budget delta
        if not s.finished:
            assert s.n_evaluations == charged + len(s.ask())

    def test_bag_must_be_positive(self, ddot_space):
        sp, start = ddot_space
        with pytest.raises(SearchError, match="bag"):
            make_searcher("surrogate", sp, start, bag=0)


# ---------------------------------------------------------------------------
# the forest's array operations against the direct scalar model work:
# the one-pass split search must grow the identical tree, and batched
# pool scoring must give per-point predictions to the bit

def _ref_fit_tree(X, y, depth, min_leaf=2):
    """Reference split search: every (feature, threshold) candidate
    scored with the two-sided SSE over ``y[mask]`` in row order, kept
    only when strictly better."""
    node = _RegressionTree(float(np.mean(y)))
    n = len(y)
    if depth <= 0 or n < 2 * min_leaf or float(np.ptp(y)) == 0.0:
        return node
    best = None
    for j in range(X.shape[1]):
        col = X[:, j]
        values = np.unique(col)
        if len(values) < 2:
            continue
        for t in (values[:-1] + values[1:]) / 2.0:
            mask = col <= t
            nl = int(mask.sum())
            if nl < min_leaf or n - nl < min_leaf:
                continue
            yl, yr = y[mask], y[~mask]
            sse = float(((yl - yl.mean()) ** 2).sum()
                        + ((yr - yr.mean()) ** 2).sum())
            if best is None or sse < best[0]:
                best = (sse, j, float(t))
    if best is None:
        return node
    _, j, t = best
    mask = X[:, j] <= t
    node.feature, node.threshold = j, t
    node.left = _ref_fit_tree(X[mask], y[mask], depth - 1, min_leaf)
    node.right = _ref_fit_tree(X[~mask], y[~mask], depth - 1, min_leaf)
    return node


def _ref_predict(tree, x):
    node = tree
    while node.feature >= 0:
        node = node.left if x[node.feature] <= node.threshold \
            else node.right
    return node.value


def _nodes(tree):
    """Preorder (feature, threshold, value) of every node."""
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        out.append((node.feature, node.threshold, node.value))
        if node.feature >= 0:
            stack += [node.right, node.left]
    return out


def _assert_same_tree(X, y, depth=5, min_leaf=2):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    got = _nodes(_fit_tree(X, y, depth, min_leaf))
    assert got == _nodes(_ref_fit_tree(X, y, depth, min_leaf))
    return got


def _grid_data(rng, n, f=8, levels=(2, 3, 5, 8)):
    """Option-grid features like ``SearchSpace.encode`` produces, with
    a duplicated and a constant column, against log-cycles."""
    cols = [rng.integers(0, k, n) / (k - 1)
            for k in rng.choice(levels, f)]
    X = np.column_stack(cols + [cols[0], np.zeros(n)])
    y = 10.0 + X[:, 0] - 0.5 * X[:, 1] + rng.normal(0, 0.3, n)
    return X, y


class TestModelEquivalence:
    @pytest.mark.parametrize("n", [4, 5, 7, 16, 33, 64, 96])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grid_data_same_tree(self, n, seed):
        X, y = _grid_data(np.random.default_rng([seed, n]), n)
        _assert_same_tree(X, y)

    @pytest.mark.parametrize("min_leaf", [1, 2, 3, 24, 47, 48, 49])
    def test_min_leaf_edges_same_tree(self, min_leaf):
        X, y = _grid_data(np.random.default_rng(min_leaf), 96)
        nodes = _assert_same_tree(X, y, min_leaf=min_leaf)
        if min_leaf > 48:
            assert len(nodes) == 1        # no legal split at all

    def test_duplicate_columns_tie_to_the_first(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 4, 40) / 3.0
        X = np.column_stack([np.zeros(40), a, a, 1.0 - a])
        y = 5.0 + a + rng.normal(0, 0.01, 40)
        root = _assert_same_tree(X, y)[0]
        assert root[0] == 1       # column 1 ahead of its copies

    def test_constant_columns_never_split(self):
        X = np.ones((20, 3))
        assert _assert_same_tree(X, np.arange(20.0)) == \
            [(-1, 0.0, 9.5)]

    def test_constant_y_is_one_leaf(self):
        X, _ = _grid_data(np.random.default_rng(4), 30)
        assert len(_assert_same_tree(X, np.full(30, 7.25))) == 1

    def test_tied_targets_same_tree(self):
        # targets on a coarse grid make many partitions score alike
        rng = np.random.default_rng(5)
        X, _ = _grid_data(rng, 64)
        _assert_same_tree(X, rng.integers(0, 3, 64).astype(float))

    def test_near_tied_partitions_same_tree(self):
        # few rows, few target levels on a grid no float hits exactly:
        # distinct partitions often tie in exact arithmetic and differ
        # only in the last bit of the direct formula, which decides
        rng = np.random.default_rng(6)
        for _ in range(300):
            n = int(rng.integers(4, 12))
            X = rng.integers(0, 3, (n, int(rng.integers(2, 4)))) / 2.0
            y = rng.integers(0, 3, n) * rng.choice([0.1, 1 / 3, 1.1]) \
                + rng.choice([0.0, 0.1, 10.0])
            _assert_same_tree(X, y, depth=3, min_leaf=1)

    def test_midpoint_rounding_onto_the_upper_value(self):
        # consecutive floats: (a + b) / 2 rounds up onto b for every
        # other pair, and b's whole run of equal values goes left
        ulps = [1.0]
        for _ in range(7):
            ulps.append(float(np.nextafter(ulps[-1], 2.0)))
        col = np.repeat(ulps, 3)
        assert any((a + b) / 2.0 == b for a, b in zip(ulps, ulps[1:]))
        X = np.column_stack([col, col[::-1]])
        y = np.arange(len(col), dtype=float) % 5
        _assert_same_tree(X, y, min_leaf=1)
        _assert_same_tree(X, y, min_leaf=4)

    def test_rounded_up_midpoint_wins_with_its_own_threshold(self):
        # a < b adjacent with (a + b) / 2 == b, then a far value c: the
        # best partition is {d, a, b} | {c}, induced first by the (a, b)
        # threshold b and again by (b + c) / 2; the first one is kept
        a = float(np.nextafter(1.0, 2.0))
        b = float(np.nextafter(a, 2.0))
        assert (a + b) / 2.0 == b
        col = np.repeat([0.5, a, b, 2.0], 3)
        y = np.repeat([0.0, 0.0, 0.0, 10.0], 3)
        root = _assert_same_tree(col[:, None], y, min_leaf=2)[0]
        assert root[:2] == (0, b)

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), n=st.integers(4, 48), f=st.integers(1, 5),
           depth=st.integers(1, 6), min_leaf=st.integers(1, 5))
    def test_hypothesis_same_tree(self, data, n, f, depth, min_leaf):
        grid = st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 2 / 3, 1.0])
        value = st.one_of(grid, st.floats(0.0, 1.0))
        cols = [data.draw(st.lists(value, min_size=n, max_size=n))
                for _ in range(f)]
        if f > 1 and data.draw(st.booleans()):
            cols[-1] = cols[0]                   # an identical partition
        target = st.one_of(st.integers(0, 3).map(lambda k: 0.1 * k),
                           st.floats(-50.0, 50.0))
        y = data.draw(st.lists(target, min_size=n, max_size=n))
        _assert_same_tree(np.array(cols).T, y, depth, min_leaf)

    @pytest.mark.parametrize("bag", [1, 2, 3, 5, 8, 13])
    def test_batched_scoring_matches_per_point(self, bag):
        rng = np.random.default_rng(bag)
        X, y = _grid_data(rng, 80)
        forest = _Forest.fit(X.tolist(), y.tolist(), bag, 5,
                             np.random.default_rng(bag))
        pool = np.vstack([X[:20], _grid_data(rng, 200)[0]])
        mu, sigma = forest.predict(pool)
        for x, m, s in zip(pool.tolist(), mu, sigma):
            p = [_ref_predict(t, x) for t in forest.trees]
            assert (float(m), float(s)) == (float(np.mean(p)),
                                            float(np.std(p)))


# ---------------------------------------------------------------------------
# the transfer wrapper (reached only through TuneConfig.warm_start)

class TestTransfer:
    def test_retired_spellings_are_refused(self, ddot_space):
        assert "transfer" not in searcher_names()
        for name in ("transfer", "transfer:genetic", "surrogate:genetic"):
            with pytest.raises(ValueError, match="unknown search strategy"):
                TuneConfig(strategy=name)
        with pytest.raises(SearchError, match="unknown search strategy"):
            make_searcher("transfer", *ddot_space)

    def test_config_and_wire_accept_new_strategies(self):
        assert TuneConfig(strategy="surrogate").strategy == "surrogate"
        assert TuneRequest(kernel="ddot", strategy="surrogate").digest()
        assert TuneConfig(strategy="genetic", warm_start="store").warm_start
        with pytest.raises(ValueError):
            TuneRequest(kernel="ddot", strategy="transfer")

    def test_warm_candidates_evaluated_right_after_start(self,
                                                         ddot_space):
        sp, start = ddot_space
        from repro.search.space import dim_set
        cur = dim_get(start, "unroll")
        warm = dim_set(start, "unroll", 4 if cur != 4 else 2)
        s = TransferSearch(sp, start, "surrogate", max_evals=16, seed=0,
                           warm=[warm], warm_source="test")
        asked, res = _drive(s)
        assert asked[0] == start.key()
        assert asked[1] == warm.key()
        assert res.n_evaluations == 16
        assert any(phase == "warm" for phase, _, _ in res.history)
        assert res.best_cycles <= _fake_cycles(warm)

    def test_transfer_spends_full_budget(self, ddot_space):
        sp, start = ddot_space
        for inner in ("surrogate", "genetic", "random"):
            s = TransferSearch(sp, start, inner, max_evals=20, seed=1)
            _, res = _drive(s)
            assert res.n_evaluations == 20, inner

    @pytest.mark.parametrize("inner", ("random", "surrogate"))
    def test_empty_warm_list_is_the_inner_strategy(self, ddot_space, inner):
        sp, start = ddot_space
        _, wrapped = _drive(TransferSearch(sp, start, inner, max_evals=20,
                                           seed=3))
        _, plain = _drive(make_searcher(inner, sp, start, max_evals=20,
                                        seed=3))
        assert wrapped.to_dict() == plain.to_dict()


# ---------------------------------------------------------------------------
# warm-start lookup: wire-schema canonicalization

class TestWarmStartLookup:
    def test_two_spellings_one_neighbor(self, tmp_path):
        """The satellite regression: a result stored under the
        TunedKernel spelling (``"P4E"``, enum context, explicit paper
        N) must be found by a query in the wire spelling (``"p4e"``,
        CLI short form, defaulted N) — and vice versa."""
        store = tmp_path / "store"
        p = TransformParams(unroll=4)
        write_warm_entry(store, kernel="ddot", machine="P4E",
                         context=Context.OUT_OF_CACHE, n=80000,
                         params=p, cycles=123.0)
        warm, source = lookup_warm_start(store, "ddot", "p4e", "oc",
                                         n=None)
        assert [w.key() for w in warm] == [p.key()]
        assert source == "ddot:p4e:out-of-cache:80000"
        # and the reverse spelling on the query side
        warm2, _ = lookup_warm_start(store, "ddot", "P4E",
                                     Context.OUT_OF_CACHE, n=80000)
        assert [w.key() for w in warm2] == [p.key()]

    def test_nearest_neighbor_ranking(self, tmp_path):
        store = tmp_path / "store"
        exact = TransformParams(unroll=8)
        cousin = TransformParams(unroll=2)
        write_warm_entry(store, kernel="ddot", machine="p4e",
                         context="out-of-cache", n=80000,
                         params=exact, cycles=50.0)
        write_warm_entry(store, kernel="dasum", machine="p4e",
                         context="out-of-cache", n=80000,
                         params=cousin, cycles=10.0)
        warm, source = lookup_warm_start(store, "ddot", "p4e",
                                         "out-of-cache", n=80000, k=2)
        assert warm[0].key() == exact.key()    # same kernel outranks
        assert source.startswith("ddot:")

    def test_every_context_value_round_trips_through_parse(self):
        """The regression behind half the warm store going invisible:
        ``parse_context`` rejected ``Context.IN_L2.value`` itself
        (``"in-L2-cache"``), the exact spelling stored results record —
        so every in-L2 entry silently failed to canonicalize."""
        from repro.service import parse_context
        for ctx in Context:
            assert parse_context(ctx.value) is ctx
            assert parse_context(ctx.value.lower()) is ctx

    def test_in_l2_entry_found_under_enum_value_spelling(self, tmp_path):
        store = tmp_path / "store"
        p = TransformParams(unroll=2)
        write_warm_entry(store, kernel="dasum", machine="opteron",
                         context=Context.IN_L2, n=1024,
                         params=p, cycles=9.0)
        warm, source = lookup_warm_start(store, "dasum", "opteron",
                                         "in-L2-cache", n=1024)
        assert [w.key() for w in warm] == [p.key()]
        assert source == "dasum:opteron:in-L2-cache:1024"

    def test_missing_store_is_empty_not_an_error(self, tmp_path):
        warm, source = lookup_warm_start(tmp_path / "nope", "ddot",
                                         "p4e", "oc")
        assert warm == [] and source == ""

    def test_malformed_entries_are_skipped(self, tmp_path):
        store = tmp_path / "store"
        store.mkdir()
        (store / "junk.json").write_text("{not json")
        (store / "wrong.json").write_text(json.dumps({"schema": 1}))
        warm, source = lookup_warm_start(store, "ddot", "p4e", "oc")
        assert warm == [] and source == ""

    def test_engine_wraps_strategy_and_traces_warm_start(self, tmp_path):
        from repro.kernels import get_kernel
        from repro.machine import pentium4e
        store = tmp_path / "store"
        trace = tmp_path / "trace.jsonl"
        seeded = tune_kernel(
            get_kernel("dasum"), pentium4e(), Context.OUT_OF_CACHE, 8000,
            config=TuneConfig(strategy="random", seed=0, max_evals=8,
                              run_tester=False))
        write_warm_entry(store, kernel="dasum", machine="P4E",
                         context=Context.OUT_OF_CACHE, n=8000,
                         params=seeded.search.best_params,
                         cycles=seeded.search.best_cycles)
        tk = tune_kernel(
            get_kernel("dasum"), pentium4e(), Context.OUT_OF_CACHE, 8000,
            config=TuneConfig(strategy="random", seed=0, max_evals=8,
                              run_tester=False, warm_start=str(store),
                              trace=str(trace)))
        events = [json.loads(line) for line in
                  trace.read_text().splitlines()]
        warm_events = [e for e in events if e.get("event") == "warm-start"]
        assert warm_events and warm_events[0]["candidates"] >= 1
        starts = [e for e in events if e.get("event") == "job-start"]
        assert starts[0]["strategy"] == "transfer:random"
        # warm-started from random's own best: can never do worse
        assert tk.search.best_cycles <= seeded.search.best_cycles


# ---------------------------------------------------------------------------
# crash-proofed reporting

class TestReportingRobustness:
    def test_curve_event_only_trace_aggregates(self):
        """Per-tell curve samples (``round`` events) alone aggregate."""
        events = [
            {"event": "job-start", "job": "j", "strategy": "random",
             "seed": 0},
            {"event": "round", "job": "j", "evaluations": 4,
             "best_cycles": 100.0},
            {"event": "round", "job": "j", "evaluations": 8,
             "best_cycles": 80.0},
            {"event": "job-end", "job": "j"},
        ]
        curves = collect_curves(events)
        (entry,) = curves.values()
        assert entry["evaluations"] == 8
        assert entry["best_cycles"] == 80.0
        agg = aggregate_curves(curves)
        assert agg["checkpoints"]
        row = agg["strategies"]["random"]["ratio_of_best"]
        assert row[8] == 1.0

    def test_infinite_best_cycles_never_poisons_aggregate(self):
        events = [
            {"event": "job-start", "job": "j", "strategy": "anneal",
             "seed": 0},
            {"event": "round", "job": "j", "evaluations": 2,
             "best_cycles": float("inf")},
            {"event": "round", "job": "j", "evaluations": 4,
             "best_cycles": 50.0},
        ]
        curves = collect_curves(events)
        (entry,) = curves.values()
        assert entry["best_cycles"] == 50.0
        agg = aggregate_curves(curves)
        for row in agg["strategies"].values():
            for v in row["ratio_of_best"].values():
                assert v is None or math.isfinite(v)

    def test_cli_curves_eventless_trace_exits_zero(self, tmp_path,
                                                   capsys):
        path = tmp_path / "noise.jsonl"
        path.write_text(json.dumps({"event": "meta", "schema": 2}) + "\n")
        assert cli.main(["curves", str(path)]) == 0
        assert "no convergence data" in capsys.readouterr().out

    def test_perfdiff_disjoint_artifacts_report_no_data(self):
        report = diff_metrics({"a": 1.0}, {"b": 2.0})
        assert report["rows"] == [] and report["regressions"] == []
        text = render_diff(report)
        assert "no data" in text
        assert "only-old: 1" in text and "only-new: 1" in text
