"""Property tests: six-vertex symmetry, Yang-Baxter and census symmetries over
drawn inputs.

Rapidities are drawn with |chi_i - psi_j| < eta/4, where every six-vertex
weight is positive, so the state sum has no cancellation and relative
tolerances stay at roundoff level.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icelab import (SpectralAssignment, compute_census, partition_function_6v,
                    sixvertex_family, ybe_sweep)


@st.composite
def positive_assignments(draw):
    n = draw(st.integers(1, 4))
    eta = draw(st.floats(0.3, 2.5))
    rapidity = st.floats(0.0, eta / 4, exclude_max=True)
    chi = draw(st.lists(rapidity, min_size=n, max_size=n))
    psi = draw(st.lists(rapidity, min_size=n, max_size=n))
    return SpectralAssignment(chi=chi, psi=psi, eta=eta)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_z6v_symmetric_under_permutations(data):
    a = data.draw(positive_assignments())
    chi_perm = data.draw(st.permutations(range(a.n)))
    psi_perm = data.draw(st.permutations(range(a.n)))
    permuted = SpectralAssignment(chi=[a.chi[i] for i in chi_perm],
                                  psi=[a.psi[i] for i in psi_perm], eta=a.eta)
    assert partition_function_6v(permuted) == pytest.approx(partition_function_6v(a), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sixvertex_ybe(data):
    # phi, phi' in [0, eta/4) and eta < 0.8 pi keep the weights at phi,
    # phi' and phi - phi' - eta/2 positive
    eta = data.draw(st.floats(0.3, 2.5))
    rapidity = st.floats(0.0, eta / 4, exclude_max=True)
    phi, phi_p = data.draw(rapidity), data.draw(rapidity)
    assert ybe_sweep(sixvertex_family(eta), phi, phi_p).residual < 1e-9


@st.composite
def census_grids(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 25 // rows))
    return rows, cols, draw(st.sampled_from(["free", "toroidal"]))


@settings(max_examples=60, deadline=None)
@given(census_grids())
def test_census_unchanged_by_transposition(grid):
    rows, cols, bc = grid
    assert compute_census(cols, rows, bc).counts == compute_census(rows, cols, bc).counts


@settings(max_examples=60, deadline=None)
@given(census_grids(), st.permutations(range(3)))
def test_census_unchanged_by_color_permutation(grid, perm):
    counts = compute_census(*grid).counts
    permuted = {tuple(key[perm[c]] for c in range(3)): count for key, count in counts.items()}
    assert permuted == counts
