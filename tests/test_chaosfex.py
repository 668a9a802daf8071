import math
import os
import subprocess
import sys
from pathlib import Path

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

import tscausal
from helpers import rational_fire, rational_gls_step, table_segment
from tscausal.chaosfex import (
    GlsParams,
    extract_ttss,
    fire,
    fire_batch,
    firing_table,
    gls_map,
    lookup_grid,
    trajectory,
)

unit = st.floats(min_value=0.0, max_value=math.nextafter(1.0, 0.0))


# ---------------------------------------------------------------------------
# map


def test_map_known_values():
    assert gls_map(0.2495, 0.499) == pytest.approx(0.5)
    assert gls_map(0.0, 0.499) == 0.0
    # at the threshold the descending branch applies
    assert gls_map(0.499, 0.499) == pytest.approx(0.501 / 0.501)


def test_map_peak_is_clamped_below_one():
    y = gls_map(0.499, 0.499)
    assert y < 1.0


def test_map_rejects_out_of_domain():
    with pytest.raises(ValueError):
        gls_map(1.0, 0.499)
    with pytest.raises(ValueError):
        gls_map(-0.1, 0.499)
    with pytest.raises(ValueError):
        gls_map(0.5, 1.0)


@hypothesis.given(unit, st.floats(min_value=0.01, max_value=0.99))
def test_map_preserves_domain(y, b):
    out = gls_map(y, b)
    assert 0.0 <= out < 1.0


@hypothesis.given(unit)
def test_map_agrees_with_rational_step(y):
    assert gls_map(y, 0.499) == rational_gls_step(y, 0.499)


def test_trajectory_is_iterated_map():
    params = GlsParams(max_len=50)
    traj = trajectory(params)
    assert traj.shape == (50,)
    assert traj[0] == params.q
    for n in range(49):
        assert traj[n + 1] == gls_map(traj[n], params.b)


# ---------------------------------------------------------------------------
# neuron


def test_params_validation():
    with pytest.raises(ValueError):
        GlsParams(q=1.0)
    with pytest.raises(ValueError):
        GlsParams(b=0.0)
    with pytest.raises(ValueError):
        GlsParams(eps=0.0)
    with pytest.raises(ValueError):
        GlsParams(eps=math.nan)
    with pytest.raises(ValueError):
        GlsParams(max_len=0)


def test_default_params():
    p = GlsParams()
    assert (p.q, p.b, p.eps, p.max_len) == (0.33, 0.499, 0.01, 1000)


def test_immediate_hit_fires_at_zero():
    r = fire(0.33)
    assert r.firing_time == 0
    assert r.ttss == 0.0
    assert not r.timed_out


def test_fire_rejects_out_of_domain_stimulus():
    with pytest.raises(ValueError):
        fire(1.0)
    with pytest.raises(ValueError):
        fire(-0.2)


def test_fire_counts_only_pre_stop_values():
    # hand-walked: q=0.8, b=0.4 -> orbit 0.8, 0.333.., stimulus near the
    # second iterate; one iterate seen, one above threshold
    params = GlsParams(q=0.8, b=0.4, eps=0.001, max_len=100)
    target = gls_map(0.8, 0.4)
    r = fire(target, params)
    assert r.firing_time == 1
    assert r.ttss == 1.0


def test_fire_times_out_when_neighborhood_is_tiny():
    params = GlsParams(eps=1e-15, max_len=500)
    r = fire(0.123456789, params)
    assert r.timed_out
    assert r.firing_time == 500
    assert 0.0 <= r.ttss <= 1.0


def test_fire_matches_rational_oracle_on_thousand_stimuli():
    params = GlsParams()
    rng = np.random.default_rng(42)
    stimuli = rng.uniform(0.0, 1.0, 1000)
    for s in stimuli:
        got = fire(float(s), params)
        n, ttss, timed_out = rational_fire(float(s), params.q, params.b,
                                           params.eps, params.max_len)
        assert got.firing_time == n
        assert got.ttss == ttss
        assert got.timed_out == timed_out


@hypothesis.given(unit)
@hypothesis.settings(max_examples=200, deadline=None)
def test_fire_invariants(stimulus):
    r = fire(stimulus)
    assert 0 <= r.firing_time <= 1000
    assert 0.0 <= r.ttss <= 1.0
    assert r.timed_out == (r.firing_time == 1000)


# ---------------------------------------------------------------------------
# batch extraction


def test_fire_batch_matches_scalar_fire():
    params = GlsParams(max_len=300)
    rng = np.random.default_rng(7)
    stimuli = rng.uniform(0.0, 1.0, 400)
    n, ttss, timed_out = fire_batch(stimuli, params)
    for i, s in enumerate(stimuli):
        r = fire(float(s), params)
        assert n[i] == r.firing_time
        assert ttss[i] == r.ttss
        assert timed_out[i] == r.timed_out


TABLE_PARAMS = {
    "default": GlsParams(),
    "timeouts": GlsParams(max_len=50),
    "large-eps": GlsParams(eps=0.9),
    "small-eps": GlsParams(eps=1e-5, max_len=100),
    "stuck-at-zero": GlsParams(q=0.0, max_len=100),
    "stuck-at-minus-zero": GlsParams(q=-0.0, max_len=20),
    # an orbit creeping up from near 0 puts an edge at each iterate + eps, and
    # all 300 of them inside the first grid cell
    "crowded-cell": GlsParams(q=1e-8, b=0.99, eps=1e-6, max_len=300),
}


@pytest.mark.parametrize("params", TABLE_PARAMS.values(), ids=TABLE_PARAMS.keys())
def test_fire_batch_is_exact_at_every_table_breakpoint(params):
    edges, _, _ = firing_table(params)
    around = np.concatenate([edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0)])
    stimuli = np.unique(around[(around >= 0.0) & (around < 1.0)])
    n, ttss, timed_out = fire_batch(stimuli, params)
    for i, s in enumerate(stimuli):
        r = fire(float(s), params)
        assert (n[i], ttss[i], timed_out[i]) == (r.firing_time, r.ttss, r.timed_out), s
        assert (n[i], ttss[i], timed_out[i]) == rational_fire(
            float(s), params.q, params.b, params.eps, params.max_len
        ), s
    if params is TABLE_PARAMS["timeouts"]:
        assert timed_out.any()


def lookup_probes(params, extra=()):
    """Every grid cell boundary and table edge with their neighbouring
    doubles, plus ``extra``: the stimuli in [0, 1) where a lookup can slip."""
    edges = firing_table(params)[0]
    size = lookup_grid(params)[0].size
    exact = np.concatenate([np.arange(size) / size, edges])
    s = np.concatenate([exact, np.nextafter(exact, -1.0), np.nextafter(exact, 2.0), extra])
    return s[(s >= 0.0) & (s < 1.0)]


def assert_lookup_equals_binary_search(stimuli, params):
    edges, firing_time, ttss = firing_table(params)
    k = table_segment(edges, stimuli)
    n, got, timed_out = fire_batch(stimuli, params)
    assert np.array_equal(n, firing_time[k])
    assert np.array_equal(got.view(np.uint64), ttss[k].view(np.uint64))
    assert np.array_equal(timed_out, firing_time[k] == params.max_len)


@pytest.mark.parametrize("params", TABLE_PARAMS.values(), ids=TABLE_PARAMS.keys())
def test_grid_lookup_equals_binary_search_at_every_cell_boundary_and_edge(params):
    random = np.random.default_rng(11).random(10**6)
    assert_lookup_equals_binary_search(lookup_probes(params, random), params)


@pytest.mark.parametrize("params", TABLE_PARAMS.values(), ids=TABLE_PARAMS.keys())
def test_lookup_grid_holds_the_segment_of_each_cell_boundary(params):
    edges = firing_table(params)[0]
    base, split = lookup_grid(params)
    size = base.size
    assert size & (size - 1) == 0
    assert max(4096, 4 * edges.size) <= size < 2 * max(4096, 4 * edges.size)
    assert split.shape == (size,)
    assert not base.flags.writeable and not split.flags.writeable
    # the last cell's right end is 1.0, past every stimulus
    ends = table_segment(edges, np.arange(size + 1) / size)
    assert np.array_equal(base, ends[:-1])
    assert np.array_equal(split, ends[1:] != ends[:-1])


def test_firing_table_segments_are_distinct_and_start_at_zero():
    edges, firing_time, ttss = firing_table(GlsParams())
    assert edges[0] == 0.0
    assert np.all(np.diff(edges) > 0)
    assert np.all(firing_time[1:] != firing_time[:-1])
    assert not edges.flags.writeable and not ttss.flags.writeable


@pytest.mark.parametrize("name", ["default", "large-eps"])
def test_firing_table_ends_below_one_and_leaves_the_last_cell_whole(name):
    # an orbit within eps of every stimulus up to 1.0 used to end the table
    # with an edge at exactly 1.0, a segment no stimulus reaches, which split
    # the last grid cell
    params = TABLE_PARAMS[name]
    edges = firing_table(params)[0]
    assert edges[-1] < 1.0
    if name == "large-eps":
        assert edges.tolist() == [0.0]
    assert not lookup_grid(params)[1][-1]
    top = math.nextafter(1.0, 0.0)
    n, ttss, timed_out = fire_batch(np.array([top]), params)
    r = fire(top, params)
    assert (n[0], ttss[0], timed_out[0]) == (r.firing_time, r.ttss, r.timed_out)


gls_params = st.builds(
    GlsParams,
    q=unit,
    b=st.floats(min_value=0.01, max_value=0.99),
    eps=st.floats(min_value=1e-6, max_value=1.0),
    max_len=st.integers(min_value=1, max_value=300),
)


@hypothesis.given(gls_params, st.lists(unit, min_size=1, max_size=50))
@hypothesis.settings(max_examples=100, deadline=None)
def test_fire_batch_matches_fire_for_any_params(params, stimuli):
    n, ttss, timed_out = fire_batch(np.array(stimuli), params)
    for i, s in enumerate(stimuli):
        r = fire(s, params)
        assert (n[i], ttss[i], timed_out[i]) == (r.firing_time, r.ttss, r.timed_out)


@hypothesis.given(gls_params, st.lists(unit, max_size=50))
@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.example(TABLE_PARAMS["crowded-cell"], [])
def test_grid_lookup_equals_binary_search_for_any_params(params, stimuli):
    assert_lookup_equals_binary_search(lookup_probes(params, stimuli), params)


def test_import_builds_no_firing_table():
    src = str(Path(tscausal.__file__).resolve().parents[1])
    code = ("import tscausal; from tscausal.chaosfex import firing_table, lookup_grid; "
            "print(firing_table.cache_info().currsize, lookup_grid.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["0", "0"]


def test_fire_batch_rejects_bad_stimuli():
    with pytest.raises(ValueError, match="index 2"):
        fire_batch(np.array([0.1, 0.2, 1.5]))


def test_extract_ttss_preserves_shape_and_matches_fire():
    rng = np.random.default_rng(9)
    m = rng.uniform(0.0, 1.0, size=(5, 8))
    params = GlsParams(max_len=200)
    out = extract_ttss(m, params)
    assert out.shape == m.shape
    for i in range(5):
        for j in range(8):
            assert out[i, j] == fire(float(m[i, j]), params).ttss


def test_extract_ttss_reports_offending_position():
    m = np.array([[0.1, 0.2], [0.3, 1.2]])
    with pytest.raises(ValueError, match="row 1, column 1"):
        extract_ttss(m)


def test_extract_ttss_requires_matrix():
    with pytest.raises(ValueError):
        extract_ttss(np.array([0.1, 0.2]))


def test_extract_ttss_values_in_unit_interval():
    rng = np.random.default_rng(10)
    out = extract_ttss(rng.uniform(0.0, 1.0, size=(20, 30)))
    assert out.min() >= 0.0
    assert out.max() <= 1.0
